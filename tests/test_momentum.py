import math

import numpy as np
import pytest
from scipy.integrate import quad

from atomdecoh.density import Z_EFF_HELIUM, CoherenceKernel
from atomdecoh.momentum import (
    MomentumDistribution,
    electron_limit,
    gaussian_limit,
    momentum_density,
    momentum_distribution,
    normalization_integral,
)
from atomdecoh.wavepacket import GaussianPacket
from oracles import momentum_density_generic


def test_electron_limit_reference_values():
    assert electron_limit(0.0) == pytest.approx(8.0 / math.pi**2, rel=1e-12)
    assert electron_limit(0.0) == pytest.approx(0.81057, abs=1e-5)
    assert electron_limit(1.0) == pytest.approx(8.0 / math.pi**2 / 16.0, rel=1e-12)
    assert electron_limit(1.0) == pytest.approx(0.050661, abs=1e-6)


def test_electron_limit_normalization():
    val, _ = quad(lambda q: 4.0 * math.pi * q**2 * electron_limit(q), 0.0, np.inf)
    assert val == pytest.approx(1.0, abs=1e-10)


def test_gaussian_limit_peak():
    delta = 3.0
    assert gaussian_limit(0.0, delta) == pytest.approx(
        (2.0 / math.pi) ** 1.5 * delta**3, rel=1e-12
    )


def test_gaussian_limit_normalization():
    delta = 2.5
    val, _ = quad(
        lambda p: 4.0 * math.pi * p**2 * gaussian_limit(p, delta), 0.0, 20.0 / delta
    )
    assert val == pytest.approx(1.0, abs=1e-10)


def test_gaussian_limit_half_max_location():
    delta = 1.7
    p_half = math.sqrt(math.log(2.0) / 2.0) / delta
    assert gaussian_limit(p_half, delta) == pytest.approx(
        0.5 * gaussian_limit(0.0, delta), rel=1e-12
    )


def test_wide_packet_approaches_electron_limit():
    val = momentum_density(1.0, 0.01)
    assert abs(val - electron_limit(1.0)) / electron_limit(1.0) < 0.01


def test_narrow_packet_approaches_gaussian_limit():
    z0 = 100.0
    delta = 1.0 / z0
    for q in (1.0, 50.0, 100.0):
        ref = gaussian_limit(q, delta)
        assert abs(momentum_density(q, z0) - ref) / ref < 0.01


@pytest.mark.parametrize("z0", [0.01, 1.0, 100.0])
def test_normalization(z0):
    assert normalization_integral(z0) == pytest.approx(1.0, abs=1e-6)


def test_distribution_container_validation():
    grid = np.array([0.1, 0.2])
    with pytest.raises(ValueError):
        MomentumDistribution(grid, np.array([0.5, -0.1]), 1.0)


def test_momentum_distribution_matches_pointwise():
    grid = np.array([0.2, 1.0, 2.5])
    dist = momentum_distribution(0.5, grid)
    for q, v in zip(dist.q_grid, dist.values):
        assert v == pytest.approx(momentum_density(float(q), 0.5), rel=1e-12)


@pytest.mark.parametrize("q", [0.0, 1.0, 3.0])
def test_generic_path_matches_dedicated_form(q):
    z0 = 0.5
    packet = GaussianPacket(1.0 / z0, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0), 1.0)
    kernel = CoherenceKernel.hydrogen()
    generic = momentum_density_generic(packet, kernel, (0.0, 0.0, q))
    dedicated = momentum_density(q, z0)
    assert abs(generic - dedicated) <= 1e-6 * max(dedicated, 1e-12)


def test_generic_without_kernel_is_pure_packet():
    delta = 2.0
    packet = GaussianPacket(delta, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0), 1.0)
    for q in (0.0, 0.3, 1.0):
        generic = momentum_density_generic(packet, None, (q, 0.0, 0.0))
        assert generic == pytest.approx(gaussian_limit(q, delta), rel=1e-8, abs=1e-12)


def test_generic_helium_obeys_z_eff_scaling():
    # with a squared-orbital kernel of charge z the wide-packet density
    # satisfies n_z(q) = n_1(q/z)/z^3; checked through the generic path
    z0 = 0.02
    packet = GaussianPacket(1.0 / z0, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0), 1.0)
    scaled = CoherenceKernel.helium()
    unit = CoherenceKernel.helium(z_eff=1.0)
    for q in (0.5, 2.0):
        n_scaled = momentum_density_generic(packet, scaled, (0.0, 0.0, q))
        n_unit = momentum_density_generic(
            GaussianPacket(Z_EFF_HELIUM / z0, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0), 1.0),
            unit,
            (0.0, 0.0, q / Z_EFF_HELIUM),
        )
        assert n_scaled == pytest.approx(n_unit / Z_EFF_HELIUM**3, rel=1e-4)


def test_momentum_density_rejects_negative_arguments():
    with pytest.raises(ValueError):
        momentum_density(-1.0, 0.5)
    with pytest.raises(ValueError):
        momentum_density(1.0, -0.5)
