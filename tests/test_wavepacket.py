import math

import numpy as np
import pytest

from atomdecoh.wavepacket import (
    GaussianPacket,
    evaluate,
    evaluate_1d,
    width,
    z_parameter,
)
from oracles import integrate_3d_oracle


def _packet(delta=1.0, R0=(0.0, 0.0, 0.0), P0=(0.0, 0.0, 0.0), M=1.0):
    return GaussianPacket(delta, R0, P0, M)


def test_initial_peak_is_real_normalization_factor():
    p = _packet()
    val = evaluate(p, (0.0, 0.0, 0.0), 0.0)
    assert val == pytest.approx((2.0 * math.pi * p.delta**2) ** -0.75)
    assert val.imag == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("t", [0.0, 2.0])
def test_norm_is_conserved(t):
    p = _packet()

    def density(x, y, z):
        pts = np.stack(np.broadcast_arrays(x, y, z), axis=-1)
        return np.abs(evaluate(p, pts, t)) ** 2

    box = 6.0 * width(p, t)
    assert integrate_3d_oracle(density, box=box, n=32) == pytest.approx(1.0, abs=1e-6)


def test_peak_density_drop_at_unit_spreading():
    p = _packet()
    t = 2.0 * p.M * p.delta**2  # hbar t / (2 M delta^2) = 1
    peak0 = abs(evaluate(p, (0.0, 0.0, 0.0), 0.0)) ** 2
    peak1 = abs(evaluate(p, (0.0, 0.0, 0.0), t)) ** 2
    assert peak0 / peak1 == pytest.approx(2.0**1.5, rel=1e-12)


def test_width_limits():
    p = _packet(delta=3.0)
    assert width(p, 0.0) == 3.0
    t = 2.0 * p.M * p.delta**2
    assert width(p, t) == pytest.approx(3.0 * math.sqrt(2.0), rel=1e-12)


def test_width_subadditive_in_time():
    p = _packet(delta=2.0)
    for t in (0.5, 5.0, 100.0):
        assert width(p, 2.0 * t) < 2.0 * width(p, t)


def test_z_parameters():
    assert z_parameter(_packet(delta=1.0), 0.0) == pytest.approx(1.0)
    assert z_parameter(_packet(delta=100.0), 0.0) == pytest.approx(0.01)


def test_z_decreases_with_time():
    p = _packet(delta=2.0)
    zs = [z_parameter(p, t) for t in (0.0, 1.0, 10.0, 100.0)]
    assert all(a > b for a, b in zip(zs, zs[1:]))


def test_moving_packet_center_translates():
    p = _packet(delta=1.0, P0=(1.0, 0.0, 0.0), M=2.0)
    t = 3.0
    center = (p.P0[0] * t / p.M, 0.0, 0.0)
    on_center = abs(evaluate(p, center, t)) ** 2
    off_center = abs(evaluate(p, (0.0, 0.0, 0.0), t)) ** 2
    assert on_center > off_center


def test_1d_factorization():
    p = _packet(delta=1.5, P0=(0.4, 0.0, 0.0))
    point = (0.3, -0.2, 0.8)
    t = 1.2
    product = 1.0 + 0.0j
    for ax in range(3):
        product *= complex(
            evaluate_1d(p.delta, p.R0[ax], p.P0[ax], p.M, point[ax], t)
        )
    assert complex(evaluate(p, point, t)) == pytest.approx(product, rel=1e-12)


def test_packet_validation():
    with pytest.raises(ValueError):
        GaussianPacket(-1.0, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0), 1.0)
    with pytest.raises(ValueError):
        GaussianPacket(1.0, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0), 0.0)
