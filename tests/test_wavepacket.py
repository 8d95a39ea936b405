import math
import re
import warnings

import mpmath as mp
import numpy as np
import pytest

from atomdecoh.wavepacket import GaussianPacket, evaluate
from oracles import evaluate_1d, integrate_3d_oracle, width


def _packet(delta=1.0, R0=(0.0, 0.0, 0.0), P0=(0.0, 0.0, 0.0)):
    return GaussianPacket(delta, R0, P0)


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
    t = 2.0 * p.delta**2  # hbar t / (2 M delta^2) = 1
    peak0 = abs(evaluate(p, (0.0, 0.0, 0.0), 0.0)) ** 2
    peak1 = abs(evaluate(p, (0.0, 0.0, 0.0), t)) ** 2
    assert peak0 / peak1 == pytest.approx(2.0**1.5, rel=1e-12)


def test_width_limits():
    p = _packet(delta=3.0)
    assert width(p, 0.0) == 3.0
    t = 2.0 * p.delta**2
    assert width(p, t) == pytest.approx(3.0 * math.sqrt(2.0), rel=1e-12)


def test_width_subadditive_in_time():
    p = _packet(delta=2.0)
    for t in (0.5, 5.0, 100.0):
        assert width(p, 2.0 * t) < 2.0 * width(p, t)


def test_moving_packet_center_translates():
    p = _packet(delta=1.0, P0=(1.0, 0.0, 0.0))
    t = 3.0
    center = (p.P0[0] * t, 0.0, 0.0)
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
            evaluate_1d(p.delta, p.R0[ax], p.P0[ax], 1.0, point[ax], t)
        )
    assert complex(evaluate(p, point, t)) == pytest.approx(product, rel=1e-12)


def test_packet_validation():
    with pytest.raises(ValueError):
        GaussianPacket(-1.0, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0))


@pytest.mark.parametrize(
    "field, value",
    [("delta", math.nan), ("delta", math.inf), ("R0", (0.0, math.inf, 0.0)),
     ("P0", (math.nan, 0.0, 0.0))],
)
def test_packet_rejects_non_finite_fields(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        GaussianPacket(**{"delta": 1.0, field: value})


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(delta=math.nan), "delta must be finite, got nan"),
        (dict(delta=math.inf), "delta must be finite, got inf"),
        (dict(R0=(0.0, 0.0, -math.inf)), "R0 must be finite, got (0.0, 0.0, -inf)"),
        (dict(R0=(math.nan, 1.0, 0.0)), "R0 must be finite, got (nan, 1.0, 0.0)"),
        (dict(P0=(0.0, math.inf, 0.0)), "P0 must be finite, got (0.0, inf, 0.0)"),
        (dict(P0=(0.0, 0.0, math.nan)), "P0 must be finite, got (0.0, 0.0, nan)"),
        # the order of the checks: the sign of delta, the length of the
        # vectors, then the fields in their order
        (dict(delta=-math.inf, R0=(math.nan, 0.0, 0.0)), "delta must be positive"),
        (dict(R0=(math.nan, 0.0), P0=(0.0, 0.0, 0.0)), "R0 and P0 must be 3-vectors"),
        (dict(delta=math.nan, P0=(math.inf, 0.0, 0.0)), "delta must be finite, got nan"),
        (dict(R0=(math.inf, 0.0, 0.0), P0=(math.nan, 0.0, 0.0)),
         "R0 must be finite, got (inf, 0.0, 0.0)"),
    ],
)
def test_packet_validation_messages(kwargs, message):
    with pytest.raises(ValueError) as info:
        GaussianPacket(**{"delta": 1.0, **kwargs})
    assert type(info.value) is ValueError and str(info.value) == message


@pytest.mark.parametrize("delta,R,t,expected", [
    (1e200, (0.0, 0.0, 0.0), 1.0, "delta = 1e+200, t = 1.0"),       # delta^2 overflows
    (1.0, (0.0, 0.0, 0.0), 1e300, "delta = 1.0, t = 1e+300"),       # spread^1.5 overflows
    (1e-200, (0.0, 0.0, 0.0), 0.0, "delta = 1e-200, t = 0.0"),      # delta^2 underflows
    (1.0, (1e200, 1e200, 1e200), 0.0, None),                        # |R|^2 overflows
])
def test_evaluate_out_of_the_double_range(delta, R, t, expected):
    # one ArithmeticError that names delta and t, never a bare OverflowError
    # or ZeroDivisionError; far off, psi is 0 and no warning escapes
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if expected is None:
            assert evaluate(_packet(delta), R, t) == 0j
        else:
            with pytest.raises(ArithmeticError, match=re.escape(expected)) as info:
                evaluate(_packet(delta), R, t)
            assert type(info.value) is ArithmeticError


def _psi_reference(delta, R, t):
    """psi(R, t) of a packet at rest at the origin, to 50 digits."""
    mp.mp.dps = 50
    delta, t = mp.mpf(delta), mp.mpf(t)
    spread = 1 + 1j * t / (2 * delta * delta)
    squared = sum(mp.mpf(x) ** 2 for x in R)
    return (2 * mp.pi * delta * delta) ** -0.75 / spread**1.5 * mp.exp(
        -squared / (4 * delta * delta * spread))


@pytest.mark.parametrize("delta, R, t, magnitude", [
    # |R - R0 - P0 t|^2 overflows at a width where psi is still a double
    (1e153, (1.5e154, 0.0, 0.0), 0.0, 2.97e-255),
    # and with a complex spread, 1 + 0.5 i
    (1e153, (1e154, 1e154, 0.0), 1e306, 2.86e-248),
])
def test_evaluate_far_off_where_the_square_overflows(delta, R, t, magnitude):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = evaluate(_packet(delta), R, t)
    expected = complex(_psi_reference(delta, R, t))
    assert abs(value) == pytest.approx(magnitude, rel=1e-2)
    assert abs(value - expected) <= 1e-13 * abs(expected)


def test_evaluate_far_off_is_zero_where_psi_underflows():
    # |psi| = 1.2e-522 here, which rounds to 0: below half the least double
    magnitude = abs(_psi_reference(2.6e152, (1.35e154, 0.0, 0.0), 0.0))
    assert magnitude > 0 and magnitude < mp.mpf(5e-324) / 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert evaluate(_packet(2.6e152), (1.35e154, 0.0, 0.0), 0.0) == 0j
