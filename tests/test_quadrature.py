import math

import numpy as np
import pytest

from oracles import (
    IntegrandError,
    QuadratureSpec,
    integrate_3d_oracle,
    integrate_fourier_complex,
    integrate_fourier_sine,
    integrate_semi_infinite,
)


def test_exponential_integral():
    res = integrate_semi_infinite(lambda s: math.exp(-s))
    assert res.converged
    assert res.value == pytest.approx(1.0, abs=1e-10)


def test_algebraic_decay_momentum_norm_integral():
    # q^2/(1+q^2)^4 integrates to pi/32; the tail is algebraic so the
    # truncation window needs a few decay lengths more than the default
    spec = QuadratureSpec(decay_scale=4.0)
    res = integrate_semi_infinite(lambda q: q**2 / (1.0 + q**2) ** 4, spec)
    assert res.value == pytest.approx(math.pi / 32.0, abs=1e-10)


def test_small_z_purity_moment():
    res = integrate_semi_infinite(
        lambda s: s**2 * (1.0 + s + s**2 / 3.0) ** 2 * math.exp(-2.0 * s)
    )
    assert res.value == pytest.approx(33.0 / 8.0, abs=1e-10)


def test_sine_transform_of_exponential():
    res = integrate_fourier_sine(lambda s: math.exp(-s), 1.0)
    assert res.converged
    assert res.value == pytest.approx(0.5, abs=1e-10)


def test_sine_transform_zero_frequency():
    res = integrate_fourier_sine(lambda s: math.exp(-s), 0.0)
    assert res.value == 0.0


def test_sine_transform_linear_times_exponential():
    res = integrate_fourier_sine(lambda s: s * math.exp(-s), 2.0)
    assert res.value == pytest.approx(4.0 / 25.0, abs=1e-10)


def test_two_sided_transform_lorentzian_pair():
    res = integrate_fourier_complex(lambda t: math.exp(-2.0 * t), 0.0)
    assert res.value.real == pytest.approx(1.0, abs=1e-10)
    res = integrate_fourier_complex(lambda t: math.exp(-2.0 * t), 2.0)
    assert res.value.real == pytest.approx(0.5, abs=1e-10)


def test_two_sided_transform_linear_envelope():
    res = integrate_fourier_complex(lambda t: t * math.exp(-2.0 * t), 0.0)
    assert res.value.real == pytest.approx(0.5, abs=1e-10)


def test_two_sided_transform_even_envelope_is_real():
    res = integrate_fourier_complex(lambda t: math.exp(-(t**2)), 1.7)
    assert abs(res.value.imag) < 1e-12


def test_3d_oracle_gaussian_normalization():
    sigma = 1.0

    def density(x, y, z):
        r2 = x * x + y * y + z * z
        return (2.0 * math.pi * sigma**2) ** -1.5 * np.exp(-r2 / (2.0 * sigma**2))

    val = integrate_3d_oracle(density, box=6.0 * sigma, n=32)
    assert val == pytest.approx(1.0, abs=1e-6)


def test_3d_oracle_1s_density_normalization():
    def density(x, y, z):
        r = np.sqrt(x * x + y * y + z * z)
        return np.exp(-2.0 * r) / math.pi

    val = integrate_3d_oracle(density, box=20.0, n=48)
    assert val == pytest.approx(1.0, abs=1e-4)


def test_3d_oracle_1s_overlap_matches_analytic():
    d = 2.0

    def overlap(x, y, z):
        r1 = np.sqrt(x * x + y * y + z * z)
        r2 = np.sqrt((x - d) ** 2 + y * y + z * z)
        return np.exp(-r1 - r2) / math.pi

    val = integrate_3d_oracle(overlap, box=20.0, n=48)
    expected = (1.0 + d + d * d / 3.0) * math.exp(-d)
    assert val == pytest.approx(expected, abs=1e-4)
    assert expected == pytest.approx(0.5864529, abs=1e-6)


def test_nonfinite_integrand_raises():
    with pytest.raises(IntegrandError):
        integrate_semi_infinite(lambda s: float("nan"))


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(rel_tol=-1.0)
    with pytest.raises(ValueError):
        QuadratureSpec(decay_scale=0.0)


def test_3d_oracle_rejects_coarse_rule():
    with pytest.raises(ValueError):
        integrate_3d_oracle(lambda x, y, z: x * 0.0, box=1.0, n=8)
