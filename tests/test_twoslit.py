import math
import warnings

import numpy as np
import pytest

from atomdecoh import twoslit
from atomdecoh.density import hydrogen_kernel
from atomdecoh.twoslit import (
    TwoSlitConfig,
    coherent_pattern,
    decohered_pattern,
    expected_fringe_period,
    schmidt_overlap,
    screen_scan,
    visibility,
)
from atomdecoh.wavepacket import GaussianPacket, _psi, evaluate, width
from test_xsection_engine import _fresh


def _far_field_config(**kwargs):
    defaults = dict(
        slit1=(500.0, 0.0, 0.0),
        slit2=(-500.0, 0.0, 0.0),
        packet_delta=200.0,
        t0=3.2e6,
        p0=(0.0, 0.0, 0.05),
    )
    defaults.update(kwargs)
    return TwoSlitConfig(**defaults)


def test_amplitude_normalization_enforced():
    with pytest.raises(ValueError):
        TwoSlitConfig(slit1=(1.0, 0.0, 0.0), slit2=(-1.0, 0.0, 0.0), amp1=1.0, amp2=1.0)


def test_coincident_slits_rejected():
    with pytest.raises(ValueError):
        TwoSlitConfig(slit1=(1.0, 0.0, 0.0), slit2=(1.0, 0.0, 0.0))


def test_separation_does_not_square_to_zero():
    config = TwoSlitConfig(slit1=(5e-301, 0.0, 0.0), slit2=(-5e-301, 0.0, 0.0))
    assert config.separation == 1e-300
    assert _far_field_config().separation == 1000.0


@pytest.mark.parametrize(
    "kwargs,match",
    [
        # 4 pi dx^2 / (d theta) overflows
        (dict(packet_delta=1e150), "fringe period is not finite"),
        # both packets are 0 to double precision on the whole scan line
        (dict(slit1=(5e199, 0.0, 0.0), slit2=(-5e199, 0.0, 0.0)), "underflow"),
    ],
)
def test_screen_scan_out_of_range_is_arithmetic_error(kwargs, match):
    with np.errstate(all="ignore"), pytest.raises(ArithmeticError, match=match):
        screen_scan(_far_field_config(**kwargs), 5)


@pytest.mark.parametrize(
    "separation, n_points, resolved",
    [
        # the fringe period, 2e307 a_B, leaves every sample but the centre
        # far outside the packets, which the scan reads as 0
        (1e-300, 5, 1),
        (1e-300, 801, 1),
        # a period of about 25 packet widths puts the samples 6 widths apart
        (100.0, 5, 1),
        # the edges of one period at separation 1000 sit below half the peak
        (1000.0, 3, 1),
    ],
)
def test_screen_scan_that_cannot_resolve_the_envelope_is_arithmetic_error(
    separation, n_points, resolved
):
    config = _far_field_config(slit1=(separation / 2.0, 0.0, 0.0),
                               slit2=(-separation / 2.0, 0.0, 0.0))
    with np.errstate(all="ignore"), pytest.raises(
        ArithmeticError, match=f"^only {resolved} of {n_points} samples resolve the packet envelope"
    ):
        screen_scan(config, n_points)


@pytest.mark.parametrize(
    "slit_x, match",
    [(5e-301, "^only 1 of 5 samples resolve"), (5e199, "underflow")],
)
def test_screen_scan_past_the_float_range_raises_only_the_error(slit_x, match):
    # the squared distance from a packet to the far samples overflows; the
    # packet is 0 there, and a library caller sees the error and no warning
    config = _far_field_config(slit1=(slit_x, 0.0, 0.0), slit2=(-slit_x, 0.0, 0.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ArithmeticError, match=match):
            screen_scan(config, 5)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_screen_scan_of_slits_whose_coordinate_sum_overflows(sign):
    # 1.7e308 + 1.6e308 overflows; the midpoint, about 1.65e308, does not.
    # The scan line is then found, both packets are 0 on it to double
    # precision, and a library caller sees that error and no warning
    config = TwoSlitConfig(slit1=(sign * 1.7e308, 0.0, 0.0), slit2=(sign * 1.6e308, 0.0, 0.0),
                           t0=3.2e6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ArithmeticError, match="underflow to 0 at every sample"):
            screen_scan(config, 5)


@pytest.mark.parametrize("a, b", [(1.7e308, 1.6e308), (-1.7e308, -1.6e308),
                                  (1.7e308, 1e308), (1e308, 1e308)])
def test_midpoint_of_an_overflowing_sum_is_finite(a, b):
    assert math.isinf(a + b)
    assert twoslit._middle(a, b) == pytest.approx(0.5 * a + 0.5 * b, rel=1e-15)


@pytest.mark.parametrize("a, b", [(500.0, -500.0), (0.1, 0.2), (1e308, 7e307),
                                  (1.7e308, -1.6e308), (5e-324, 5e-324), (-3.0, 1e-300)])
def test_midpoint_of_a_finite_sum_is_the_halved_sum_bit_for_bit(a, b):
    assert twoslit._middle(a, b) == 0.5 * (a + b)


@pytest.mark.parametrize("separation, n_points", [(100.0, 201), (1000.0, 5)])
def test_screen_scan_resolving_the_envelope_at_three_samples_or_more(separation, n_points):
    config = _far_field_config(slit1=(separation / 2.0, 0.0, 0.0),
                               slit2=(-separation / 2.0, 0.0, 0.0))
    _, _, dec = screen_scan(config, n_points)
    assert np.count_nonzero(dec >= 0.5 * dec.max()) >= 3


#: the README run, and one with a drift along the slit axis and unequal amplitudes
_SCANNED = [
    dict(slit1=(500.0, 0.0, 0.0), slit2=(-500.0, 0.0, 0.0), amp1=2.0**-0.5, amp2=2.0**-0.5,
         packet_delta=200.0, t0=3.2e6),
    dict(slit1=(500.0, 0.0, 0.0), slit2=(-500.0, 0.0, 0.0), amp1=0.6, amp2=0.8j,
         packet_delta=200.0, t0=3.2e6, p0=(0.003, 0.0, 0.0)),
]


def _recorded_scan(monkeypatch, config, centres=None):
    """screen_scan(config, 201) and the screen points of each call to the
    wave-packet kernel; the packet centres of each call go to centres if
    given."""
    points = []

    def recorded(packet_centres, P0, delta, R, t):
        points.append(R)
        if centres is not None:
            centres.append(packet_centres)
        return _psi(packet_centres, P0, delta, R, t)

    with monkeypatch.context() as patch:
        patch.setattr(twoslit, "_psi", recorded)
        return screen_scan(config, 201), points


@pytest.mark.parametrize("kwargs", _SCANNED)
def test_screen_scan_patterns_are_the_public_patterns_bit_for_bit(monkeypatch, kwargs):
    config = TwoSlitConfig(**kwargs)
    (_, coherent, decohered), points = _recorded_scan(monkeypatch, config)
    assert coherent.tobytes() == coherent_pattern(config, points[0]).tobytes()
    assert decohered.tobytes() == decohered_pattern(config, points[0]).tobytes()


@pytest.mark.parametrize("kwargs", _SCANNED)
def test_screen_scan_evaluates_each_packet_once(monkeypatch, kwargs):
    # one kernel call: both slit centres, shape (2, 1, 3), against one
    # array of the 201 screen points
    config = TwoSlitConfig(**kwargs)
    centres = []
    _, points = _recorded_scan(monkeypatch, config, centres)
    assert len(points) == len(centres) == 1
    assert points[0].shape == (201, 3)
    assert np.asarray(centres[0]).tolist() == [[list(config.slit1)], [list(config.slit2)]]


@pytest.mark.parametrize("kwargs", _SCANNED)
@pytest.mark.parametrize("point", [(0.0, 0.0, 0.0), (137.5, -2.0, 40.0), (-0.0, 0.0, -0.0),
                                   (500.0, 0.0, 0.0), (-1.2e3, 3.0, 1e4)])
def test_patterns_at_one_point_are_the_packet_values_bit_for_bit(kwargs, point):
    # at a single point each packet is a Python complex, as evaluate's, and
    # the patterns are formed from them by Python's complex arithmetic
    config = TwoSlitConfig(**kwargs)
    alpha, beta = config.packets()
    a_val = evaluate(alpha, point, config.t0)
    b_val = evaluate(beta, point, config.t0)
    assert type(a_val) is type(b_val) is complex
    coherent = np.abs(config.amp1 * a_val + config.amp2 * b_val) ** 2
    decohered = abs(config.amp1) ** 2 * np.abs(a_val) ** 2 + abs(config.amp2) ** 2 * np.abs(b_val) ** 2
    for pattern, expected in ((coherent_pattern, coherent), (decohered_pattern, decohered)):
        value = pattern(config, point)
        assert type(value) is type(expected) and value.tobytes() == expected.tobytes()


def test_screen_scan_at_t0_zero_is_value_error():
    with pytest.raises(ValueError, match="t0 = 0"):
        screen_scan(_far_field_config(t0=0.0), 5)


@pytest.mark.parametrize(
    "field, value",
    [("slit1", (math.inf, 0.0, 0.0)), ("slit2", (0.0, math.nan, 0.0)),
     ("amp1", complex(math.nan, 0.0)), ("amp2", complex(0.0, math.inf)),
     ("packet_delta", math.nan), ("t0", math.inf), ("p0", (math.nan, 0.0, 0.0))],
)
def test_config_rejects_non_finite_fields(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        _far_field_config(**{field: value})


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(slit1=(1.0, math.nan, 0.0)), "slit1 must be finite, got (1.0, nan, 0.0)"),
        (dict(slit1=(-math.inf, 0.0, 0.0)), "slit1 must be finite, got (-inf, 0.0, 0.0)"),
        (dict(p0=(0.0, 0.0, math.inf)), "p0 must be finite, got (0.0, 0.0, inf)"),
        (dict(p0=(math.nan, 0.0, 0.0)), "p0 must be finite, got (nan, 0.0, 0.0)"),
        (dict(amp1=complex(math.inf, 0.0)), "amp1 must be finite, got (inf+0j)"),
        (dict(amp1=complex(0.6, math.nan)), "amp1 must be finite, got (0.6+nanj)"),
        (dict(amp1=math.nan), "amp1 must be finite, got nan"),
        (dict(packet_delta=math.inf), "packet_delta must be finite, got inf"),
        (dict(packet_delta=math.nan), "packet_delta must be finite, got nan"),
        (dict(t0=math.nan), "t0 must be finite, got nan"),
        (dict(t0=-math.inf), "t0 must be finite, got -inf"),
        # the fields are checked in their order, and before the amplitude
        # normalization and the slit and width checks
        (dict(slit2=(math.nan, 0.0, 0.0), amp2=math.inf, p0=(math.inf, 0.0, 0.0)),
         "slit2 must be finite, got (nan, 0.0, 0.0)"),
        (dict(amp1=complex(math.nan, 1.0), packet_delta=-1.0),
         "amp1 must be finite, got (nan+1j)"),
        (dict(t0=math.inf, slit1=(-500.0, 0.0, 0.0)), "t0 must be finite, got inf"),
        # finite slits whose distance overflows
        (dict(slit1=(1e308, 0.0, 0.0), slit2=(-1e308, 0.0, 0.0)),
         "the slit separation must be finite, got inf"),
        (dict(slit1=(9e307, 0.0, 0.0), slit2=(-9e307, 0.0, 0.0)),
         "the slit separation must be finite, got inf"),
    ],
)
def test_config_non_finite_field_messages(kwargs, message):
    with pytest.raises(ValueError) as info:
        _far_field_config(**kwargs)
    assert type(info.value) is ValueError and str(info.value) == message


def test_config_and_fringe_period_load_no_numpy():
    """A TwoSlitConfig, a GaussianPacket and the expected fringe period are
    float work: in a fresh process they leave numpy unloaded."""
    code = (
        "import sys\n"
        "from atomdecoh import GaussianPacket, TwoSlitConfig, expected_fringe_period\n"
        "config = TwoSlitConfig(slit1=(500.0, 0.0, 0.0), slit2=(-500.0, 0.0, 0.0),\n"
        "                       amp1=0.6, amp2=0.8j, t0=3.2e6, p0=(0.003, 0.0, 0.05))\n"
        "GaussianPacket(200.0, (1.0, 2.0, 3.0), (0.1, 0.0, 0.0))\n"
        "expected_fringe_period(config)\n"
        "print('numpy' in sys.modules)"
    )
    assert _fresh(code) == "False"


def test_single_slit_has_no_fringes():
    config = _far_field_config(amp1=1.0, amp2=0.0)
    alpha, _ = config.packets()
    points = np.array([[x, 0.0, config.p0[2] * config.t0] for x in (-300.0, 0.0, 300.0)])
    coh = coherent_pattern(config, points)
    expected = np.abs(evaluate(alpha, points, config.t0)) ** 2
    np.testing.assert_allclose(coh, expected, rtol=1e-12)
    np.testing.assert_allclose(coh, decohered_pattern(config, points), rtol=1e-12)


def test_symmetric_pattern_is_mirror_symmetric():
    config = _far_field_config()
    z_screen = config.p0[2] * config.t0
    for x in (100.0, 750.0, 2000.0):
        left = coherent_pattern(config, (-x, 0.0, z_screen))
        right = coherent_pattern(config, (x, 0.0, z_screen))
        assert left == pytest.approx(right, rel=1e-10)


def test_midpoint_constructive_doubling():
    config = _far_field_config()
    midpoint = (0.0, 0.0, config.p0[2] * config.t0)
    alpha, _ = config.packets()
    single = abs(evaluate(alpha, midpoint, config.t0)) ** 2
    assert coherent_pattern(config, midpoint) == pytest.approx(2.0 * single, rel=1e-10)
    assert decohered_pattern(config, midpoint) == pytest.approx(single, rel=1e-10)


def test_decohered_positive_under_either_packet():
    config = _far_field_config()
    z_screen = config.p0[2] * config.t0
    xs = np.linspace(-3000.0, 3000.0, 41)
    points = np.stack([xs, np.zeros_like(xs), np.full_like(xs, z_screen)], axis=-1)
    assert np.all(decohered_pattern(config, points) > 0.0)


def test_patterns_share_total_weight_on_a_wide_scan():
    # the two patterns differ only by the cross term, which is bounded by
    # the packet overlap; delta = 100 at separation 1000 makes that
    # overlap exp(-1000^2 / (8 * 100^2)) ~ 4e-6
    config = _far_field_config(packet_delta=100.0)
    period = expected_fringe_period(config)
    offsets = np.linspace(-40.0 * period, 40.0 * period, 4001)
    midpoint = np.array([0.0, 0.0, config.p0[2] * config.t0])
    points = midpoint[None, :] + offsets[:, None] * np.array([1.0, 0.0, 0.0])[None, :]
    coh = coherent_pattern(config, points)
    dec = decohered_pattern(config, points)
    dx = 80.0 * period / 4000.0
    assert np.sum(coh) * dx == pytest.approx(np.sum(dec) * dx, rel=1e-3)


def test_schmidt_overlap_matches_kernel():
    config = _far_field_config(slit1=(5.0, 0.0, 0.0), slit2=(-5.0, 0.0, 0.0))
    assert schmidt_overlap(config) == pytest.approx(hydrogen_kernel(10.0), rel=1e-12)
    assert schmidt_overlap(config) == pytest.approx(2.012729e-3, rel=1e-5)


def test_schmidt_overlap_below_percent_beyond_critical_separation():
    for d in (9.8, 12.0, 50.0, 1000.0):
        config = _far_field_config(slit1=(d / 2, 0.0, 0.0), slit2=(-d / 2, 0.0, 0.0))
        assert schmidt_overlap(config) < 0.01
    # the kernel crosses 0.01 near s = 8.0, so the bound is not tight there
    near = _far_field_config(slit1=(3.95, 0.0, 0.0), slit2=(-3.95, 0.0, 0.0))
    assert schmidt_overlap(near) > 0.01


def test_visibility_validation():
    with pytest.raises(ValueError):
        visibility([1.0, 2.0])
    with pytest.raises(ValueError):
        visibility([1.0, -0.5, 2.0])
    with pytest.raises(ValueError):
        visibility([0.0, 0.0, 0.0])


def test_coherent_visibility_is_high_in_far_field():
    config = _far_field_config()
    _, coh, _ = screen_scan(config, 801)
    assert visibility(coh) >= 0.99


def test_decohered_visibility_is_low_in_far_field():
    # the envelope ripple across one fringe period; the fringe spacing is
    # pinned at 4 pi delta / separation times the packet width by the
    # uncertainty relation, so the envelope is not arbitrarily flat
    config = _far_field_config()
    _, _, dec = screen_scan(config, 801)
    assert visibility(dec) < 0.05


def test_single_packet_visibility_reflects_envelope_only():
    config = _far_field_config(amp1=1.0, amp2=0.0)
    offsets, coh, _ = screen_scan(config, 801)
    v = visibility(coh)
    alpha, _ = config.packets()
    dx = width(alpha, config.t0)
    span = offsets[-1] - offsets[0]
    envelope_contrast = 1.0 - math.exp(-(span / 2.0) ** 2 / (2.0 * dx**2))
    assert v <= envelope_contrast + 1e-12


def test_expected_fringe_period_scaling():
    config = _far_field_config()
    alpha, _ = config.packets()
    dx = width(alpha, config.t0)
    theta = config.t0 / (2.0 * config.packet_delta**2)
    assert expected_fringe_period(config) == pytest.approx(
        4.0 * math.pi * dx**2 / (config.separation * theta), rel=1e-12
    )


def test_pointwise_interference_identity():
    config = _far_field_config()
    offsets, coh, dec = screen_scan(config, 101)
    alpha, beta = config.packets()
    s1 = np.asarray(config.slit1)
    s2 = np.asarray(config.slit2)
    midpoint = 0.5 * (s1 + s2) + np.asarray(config.p0) * config.t0
    direction = (s1 - s2) / config.separation
    points = midpoint[None, :] + offsets[:, None] * direction[None, :]
    a_val = evaluate(alpha, points, config.t0)
    b_val = evaluate(beta, points, config.t0)
    cross = 2.0 * np.real(config.amp1 * np.conj(config.amp2) * a_val * np.conj(b_val))
    np.testing.assert_allclose(coh - dec, cross, atol=1e-10 * coh.max())
