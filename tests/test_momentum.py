import math

import numpy as np
import pytest
from scipy.integrate import quad

from atomdecoh import momentum
from atomdecoh.density import Z_EFF_HELIUM, helium_kernel, hydrogen_kernel
from atomdecoh.momentum import (
    MomentumDistribution,
    electron_limit,
    gaussian_limit,
    momentum_density,
    momentum_distribution,
)
from atomdecoh.wavepacket import GaussianPacket
from oracles import momentum_density_generic, normalization_integral


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


@pytest.mark.parametrize("p_offset, delta", [(0.1, 6e102), (1e-3, 1e160), (1e200, 1e200)])
def test_gaussian_limit_is_zero_where_its_exponential_underflows(p_offset, delta):
    # delta^3 or (p delta)^2 alone would overflow at these points
    assert gaussian_limit(p_offset, delta) == 0.0


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


@pytest.mark.parametrize(
    "q_grid, values, z0, field",
    [
        (np.array([0.1, 0.2]), np.array([0.5, math.nan]), 1.0, "values"),
        (np.array([0.1, 0.2]), np.array([math.inf, 0.5]), 1.0, "values"),
        (np.array([0.1, 0.2]), np.array([0.5, 0.4]), math.nan, "z0"),
        (np.array([0.1, 0.2]), np.array([0.5, 0.4]), math.inf, "z0"),
        (np.array([0.1, 0.2]), np.array([0.5, 0.4]), 0.0, "z0"),
        (np.array([0.0, 1.0, 2.0]), np.array([1.0]), 1.0, "values"),
        (np.array([[0.1, 0.2]]), np.array([[0.5, 0.4]]), 1.0, "values"),
        (np.array([0.1, math.nan]), np.array([0.5, 0.4]), 1.0, "q_grid"),
        (np.array([-0.1, 0.2]), np.array([0.5, 0.4]), 1.0, "q_grid"),
    ],
)
def test_distribution_container_names_the_bad_field(q_grid, values, z0, field):
    with pytest.raises(ValueError, match=f"^{field} "):
        MomentumDistribution(q_grid, values, z0)


@pytest.mark.parametrize("q_grid", [[[1.0, 2.0]], 5.0, np.zeros((2, 2)), np.float64(0.5)])
def test_distribution_rejects_a_grid_that_is_not_1d(q_grid):
    with pytest.raises(ValueError, match="^q_grid "):
        momentum_distribution(0.1, q_grid)


def test_limits_take_arrays_elementwise():
    q = np.concatenate(([0.0], np.geomspace(1e-6, 1e3, 2001)))
    for delta in (0.01, 1.0, 10.0, 1e160):
        grid = q[1:] if delta > 1e102 else q  # at q = 0, delta^3 would overflow
        array = gaussian_limit(grid, delta)
        assert array.tolist() == [gaussian_limit(x, delta) for x in grid.tolist()]
        # the former math formula: np.exp and math.exp differ by an ulp, and
        # exp(-2 x^2) turns the ulp of x^2 into up to 2 x^2 = 800 ulps
        for x, value in zip(grid.tolist()[::40], array.tolist()[::40]):
            former = (2.0 / math.pi) ** 1.5 * delta**3 * math.exp(-2.0 * (x * delta) ** 2) \
                if abs(x * delta) < 20.0 else 0.0
            assert abs(value - former) <= 2e-13 * former, (x, delta)
    array = electron_limit(q)
    assert array.tolist() == [electron_limit(x) for x in q.tolist()]
    former = np.array([8.0 / math.pi**2 / (1.0 + x * x) ** 4 for x in q.tolist()])
    assert np.max(np.abs(array - former) / former) <= 6e-16
    assert type(gaussian_limit(0.3, 2.0)) is float and type(electron_limit(0.3)) is float
    with pytest.raises(ValueError):
        electron_limit(np.array([0.5, -1e-300]))


def test_momentum_distribution_matches_pointwise():
    # both sides of the switch to n(0) at q = _Q_ZERO, and far out
    edge = momentum._Q_ZERO
    grid = np.array([0.0, np.nextafter(edge, 0.0), edge, 1e-3, 0.3, 50.0])
    for z0 in (1e-3, 0.1, 5.0, 100.0):
        expected = [momentum_density(q, z0) for q in grid.tolist()]
        assert momentum_distribution(z0, grid).values.tolist() == expected
        assert momentum_distribution(z0, grid).values.tolist() == expected


@pytest.mark.parametrize("z0", [0.01, 0.5, 2.0, 300.0])
def test_density_is_its_peak_as_q_tends_to_0(z0):
    # why n(q) switches to n(0) below _Q_ZERO: Im(I_1 + I_2 + I_3/3) / q at
    # b = 1 - iq gives 0.0 at q = 5e-324 and z0 = 2, where n(0) = 0.0443
    for q in (5e-324, 1e-300, 1e-20):
        assert momentum_density(q, z0) == momentum_density(0.0, z0), q


@pytest.mark.parametrize("q", [0.0, 1.0, 3.0])
def test_generic_path_matches_dedicated_form(q):
    z0 = 0.5
    packet = GaussianPacket(1.0 / z0, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    kernel = hydrogen_kernel
    generic = momentum_density_generic(packet, kernel, (0.0, 0.0, q))
    dedicated = momentum_density(q, z0)
    assert abs(generic - dedicated) <= 1e-6 * max(dedicated, 1e-12)


def test_generic_without_kernel_is_pure_packet():
    delta = 2.0
    packet = GaussianPacket(delta, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    for q in (0.0, 0.3, 1.0):
        generic = momentum_density_generic(packet, None, (q, 0.0, 0.0))
        assert generic == pytest.approx(gaussian_limit(q, delta), rel=1e-8, abs=1e-12)


def test_generic_helium_obeys_z_eff_scaling():
    # with a squared-orbital kernel of charge z the wide-packet density
    # satisfies n_z(q) = n_1(q/z)/z^3; checked through the generic path
    z0 = 0.02
    packet = GaussianPacket(1.0 / z0, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    scaled = helium_kernel

    def unit(s):
        return hydrogen_kernel(s) ** 2

    for q in (0.5, 2.0):
        n_scaled = momentum_density_generic(packet, scaled, (0.0, 0.0, q))
        n_unit = momentum_density_generic(
            GaussianPacket(Z_EFF_HELIUM / z0, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)),
            unit,
            (0.0, 0.0, q / Z_EFF_HELIUM),
        )
        assert n_scaled == pytest.approx(n_unit / Z_EFF_HELIUM**3, rel=1e-4)


def test_momentum_density_rejects_negative_arguments():
    with pytest.raises(ValueError):
        momentum_density(-1.0, 0.5)
    with pytest.raises(ValueError):
        momentum_density(1.0, -0.5)
    for q, z0 in ((-1e-3, 0.5), (-1e-300, 0.5), (math.nan, 0.5),
                  (1e-3, 0.0), (1e-3, -0.5), (1e-3, math.nan)):
        with pytest.raises(ValueError):
            momentum_density(q, z0)
        with pytest.raises(ValueError):
            momentum_distribution(z0, [0.0, q])
