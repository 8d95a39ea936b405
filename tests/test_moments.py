"""Accuracy of the closed-form damped moments, and of the purity and the
momentum density built on them, against mpmath at 40 significant digits."""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest

from atomdecoh.density import purity
from atomdecoh.momentum import momentum_density
from atomdecoh.quadrature import damped_moments

DPS = 40

#: (1 + s + s^2/3)^2 in powers of s, as (numerator, denominator)
KERNEL_SQ = ((1, 1), (2, 1), (5, 3), (2, 3), (1, 9))


def _mp_moments(b, a, n_max):
    """I_0..I_n_max at the current mpmath precision: erfc seed, then the
    upward recurrence, exact enough once the caller has added the digits it
    cancels (``_extra_digits``)."""
    b = mp.mpc(b)
    a = mp.mpf(a)
    root = mp.sqrt(a)
    moments = [mp.sqrt(mp.pi) / (2 * root) * mp.exp(b * b / (4 * a)) * mp.erfc(b / (2 * root))]
    if n_max >= 1:
        moments.append((1 - b * moments[0]) / (2 * a))
    for n in range(2, n_max + 1):
        moments.append(((n - 1) * moments[n - 2] - b * moments[n - 1]) / (2 * a))
    return moments


def _extra_digits(b, a, n_max):
    return int((n_max + 1) * math.log10(abs(b) ** 2 / a + 2.0)) + 10


def ref_moments(b, a, n_max):
    with mp.workdps(DPS + _extra_digits(b, a, n_max)):
        return [complex(m) for m in _mp_moments(b, a, n_max)]


def ref_momentum(q, z0):
    a = z0 * z0 / 8.0
    with mp.workdps(DPS + _extra_digits(1.0 + q, a, 4)):
        if q == 0.0:
            m = _mp_moments(1, a, 4)
            return float((m[2] + m[3] + m[4] / 3).real / (2 * mp.pi**2))
        m = _mp_moments(mp.mpc(1, -q), a, 3)
        return float((m[1] + m[2] + m[3] / 3).imag / (2 * mp.pi**2 * q))


def ref_purity(z):
    a = z * z / 4.0
    with mp.workdps(DPS + _extra_digits(2.0, a, 6)):
        m = _mp_moments(2, a, 6)
        total = sum(mp.mpf(p) / q * m[n + 2] for n, (p, q) in enumerate(KERNEL_SQ))
        return float(mp.mpf(z) ** 3 / (2 * mp.sqrt(mp.pi)) * total.real)


def max_rel_err(got, ref):
    return max(abs(g - r) / abs(r) for g, r in zip(got, ref))


def _grid():
    """a/|b|^2 in [1e-5, 1], arg b in [-pi/2, 0], Re b / sqrt(a) >= 0.5."""
    points = []
    for ratio in np.logspace(-5.0, 0.0, 11):
        for arg in np.linspace(-math.pi / 2.0, 0.0, 9):
            b = 3.0 * cmath.exp(1j * arg)
            a = float(ratio) * abs(b) ** 2
            if b.real / math.sqrt(a) >= 0.5:
                points.append((b, a))
    return points


NAMED = [
    (1 - 20j, 1.0),
    (1 - 3j, 1.0 / 32.0),
    # the crossover of the earlier Taylor/upward-recurrence split
    *[(cmath.exp(1j * arg), 1.1e-3) for arg in np.linspace(-math.pi / 2.0 + 1e-3, 0.0, 5)],
]


@pytest.mark.parametrize("b,a", _grid() + NAMED)
def test_damped_moments_match_mpmath(b, a):
    assert max_rel_err(damped_moments(b, a, 6), ref_moments(b, a, 6)) <= 1e-13


def test_damped_moments_conjugate_symmetry():
    for b, a in NAMED:
        up = damped_moments(b.conjugate(), a, 6)
        down = damped_moments(b, a, 6)
        assert max_rel_err(up, [m.conjugate() for m in down]) <= 1e-15


def test_damped_moments_without_damping_are_exact():
    b = 2.0 - 5.0j
    with mp.workdps(DPS):
        ref = [complex(mp.factorial(n) / mp.mpc(b) ** (n + 1)) for n in range(7)]
    assert max_rel_err(damped_moments(b, 0.0, 6), ref) <= 1e-15


@pytest.mark.parametrize("a", [1e-30, 1e-200])
def test_damped_moments_vanishing_damping_tend_to_exact(a):
    b = 2.0 - 5.0j
    assert max_rel_err(damped_moments(b, a, 6), damped_moments(b, 0.0, 6)) <= 1e-15


def test_damped_moments_past_the_cap_take_the_better_route():
    # upward recurrence alone would lose 2e-5 here
    mu = complex(0.01, -math.sqrt(230.0 - 1e-4))
    assert max_rel_err(damped_moments(mu, 1.0, 6), ref_moments(mu, 1.0, 6)) <= 1e-12


@pytest.mark.parametrize("re_mu", [0.01, 0.1, 0.3])
def test_damped_moments_accuracy_below_re_mu_half(re_mu):
    # the fallback branch's accuracy as stated in damped_moments
    worst3 = worst6 = 0.0
    for mu_sq in np.geomspace(6.5, 250.0, 8):
        mu = complex(re_mu, -math.sqrt(mu_sq - re_mu**2))
        got, ref = damped_moments(mu, 1.0, 6), ref_moments(mu, 1.0, 6)
        worst3 = max(worst3, max_rel_err(got[:4], ref[:4]))
        worst6 = max(worst6, max_rel_err(got, ref))
    assert worst3 <= 3e-12
    assert worst6 <= 1.5e-10


@pytest.mark.parametrize(
    "b,a",
    [(math.nan, 1.0), (complex(1.0, math.inf), 1.0), (1.0, math.nan), (1.0, math.inf),
     (-1.0, 1.0), (0.0, 1.0), (1.0, -1.0)],
)
def test_damped_moments_reject_invalid_arguments(b, a):
    with pytest.raises(ValueError):
        damped_moments(b, a, 3)


MOMENTUM_POINTS = [
    (q, float(z0))
    for z0 in np.geomspace(0.01, 5.0, 6)
    for q in [0.0] + list(np.geomspace(1e-3, 50.0, 13)) + [9.9e-3, 1.01e-2]
] + [(1e-3, 5.0), (50.0, 0.01), (20.0, 5.0)]


def test_momentum_density_matches_mpmath():
    for q, z0 in MOMENTUM_POINTS:
        ref = ref_momentum(q, z0)
        assert abs(momentum_density(q, z0) - ref) <= 1e-9 * ref, (q, z0)


def test_momentum_density_wide_damping_error_against_peak():
    # z0 = 100 puts Re(mu) at 0.028: the stated bound is 1e-15 n(0) absolute
    z0 = 100.0
    peak = ref_momentum(0.0, z0)
    for q in [0.0] + list(np.geomspace(1.0, 500.0, 25)):
        assert abs(momentum_density(q, z0) - ref_momentum(q, z0)) <= 2e-15 * peak, q


def test_purity_matches_mpmath():
    for z in np.geomspace(1e-3, 1e2, 16):
        ref = ref_purity(float(z))
        assert abs(purity(float(z)) - ref) <= 1e-12 * ref, z


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_inputs_raise(bad):
    with pytest.raises(ValueError):
        purity(bad)
    with pytest.raises(ValueError):
        momentum_density(bad, 1.0)
    with pytest.raises(ValueError):
        momentum_density(1.0, bad)
