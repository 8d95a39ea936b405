import math
import warnings

import numpy as np
import pytest

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
from atomdecoh.wavepacket import evaluate, width


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


@pytest.mark.parametrize("separation, n_points", [(100.0, 201), (1000.0, 5)])
def test_screen_scan_resolving_the_envelope_at_three_samples_or_more(separation, n_points):
    config = _far_field_config(slit1=(separation / 2.0, 0.0, 0.0),
                               slit2=(-separation / 2.0, 0.0, 0.0))
    _, _, dec = screen_scan(config, n_points)
    assert np.count_nonzero(dec >= 0.5 * dec.max()) >= 3


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
