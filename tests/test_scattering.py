import math
import re
import warnings

import mpmath as mp
import numpy as np
import pytest

from atomdecoh import scattering
from atomdecoh.constants import CODATA
from atomdecoh.scattering import (
    FORWARD_EPSILON,
    SCATT_LENGTH,
    AngularTable,
    ScatteringConfig,
    _reduced_integrals,
    angular_scan,
    check_conditions,
    diff_cross_section_asymptotic,
    diff_cross_section_numeric,
    f_theta,
    h_theta,
    tau_transform,
    total_cross_section_numeric,
)
from atomdecoh.quadrature import QuadratureError
from oracles import tau_transform_quadrature


def test_tau_transform_static_weight():
    # sum of factorial moments: 2 sum c_n n! / 2^{n+1}
    # = 1 + 1 + 5/6 + 1/2 + 1/6 = 7/2, per-term evaluation cross-checked
    # against direct quadrature below
    for kap in (0.7, 1.0, 3.0):
        val = tau_transform(kap, 0.0, 0.0)
        assert val.real == pytest.approx(3.5 / kap, rel=1e-12)
        assert val.imag == 0.0


def test_tau_transform_closed_form_vs_quadrature():
    val_closed = tau_transform(1.0, 3.0, 0.0)
    val_quad = tau_transform_quadrature(1.0, 3.0, 1e-30)
    assert abs(val_quad - val_closed) <= 1e-9 * abs(val_closed)


def test_tau_transform_real_and_even():
    for z0 in (0.0, 0.5):
        for kap, om in ((0.5, 1.3), (2.0, 4.0)):
            plus = tau_transform(kap, om, z0)
            minus = tau_transform(kap, -om, z0)
            assert abs(plus.imag) < 1e-12 * abs(plus.real)
            assert plus.real == pytest.approx(minus.real, rel=1e-10)


def test_damped_spectral_fast_path_matches_quadrature():
    for kap in (0.1, 1.0, 5.0):
        for om in (0.0, 0.3, 2.0):
            for z0 in (0.005, 0.5, 2.0):
                fast = tau_transform(kap, om, z0)
                ref = tau_transform_quadrature(kap, om, z0).real
                assert fast == pytest.approx(ref, rel=1e-7)


def test_tau_transform_rejects_singular_point():
    for z0 in (0.0, 0.5):
        with pytest.raises(ValueError, match="singular"):
            tau_transform(0.0, 1.0, z0)


@pytest.mark.parametrize("kappa,z0", [(1e-308, 0.0), (5e-324, 0.5)])
def test_tau_transform_raises_where_the_weight_overflows(kappa, z0):
    # F(0) = 3.5 / kappa at z0 = 0 is past the largest double; the error
    # names kappa, and no numpy warning escapes
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match=f"kappa_val={kappa!r}"):
            tau_transform(kappa, 0.0, z0)


@pytest.mark.parametrize("kappa,omega", [(1e-300, 1e-240), (1e-300, 2e-150)])
def test_tau_transform_at_tiny_kappa_divides_before_it_underflows(kappa, omega):
    # u = omega / (2 kappa) ~ 5e59: t = 1/(1 + u^2) cubed underflows, but
    # F = (u^4 + 6u^2 + 21) / (6 kappa (1 + u^2)^5) is 1.07e-59; at u = 1e150
    # F is 1.7e-601 and stays 0.0
    with mp.workdps(30):
        k, u = mp.mpf(kappa), mp.mpf(omega) / (2 * mp.mpf(kappa))
        ref = float((u**4 + 6 * u**2 + 21) / (6 * k * (1 + u**2) ** 5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = tau_transform(kappa, omega, 0.0)
    assert abs(value - ref) <= 1e-15 * ref


@pytest.mark.parametrize(
    "args",
    [
        (1.0, math.nan, 0.0),
        (math.nan, 1.0, 0.0),
        (math.inf, 1.0, 0.0),
        (1.0, 1.0, math.nan),
        (1.0, 1.0, math.inf),
    ],
)
def test_tau_transform_rejects_non_finite_input(args):
    with pytest.raises(ValueError, match="finite"):
        tau_transform(*args)


def test_f_theta_right_angle():
    assert f_theta(math.pi / 2.0) == pytest.approx(math.sqrt(15.0), rel=1e-12)
    assert f_theta(math.pi / 2.0) == pytest.approx(3.8730, abs=1e-4)


def test_f_theta_solid_angle_integral():
    nodes, wts = np.polynomial.legendre.leggauss(64)
    integral = 2.0 * math.pi * sum(w * f_theta(math.acos(x)) for x, w in zip(nodes, wts))
    assert integral == pytest.approx(16.0 * math.pi, rel=1e-10)


def test_h_theta_extreme_values():
    h0 = h_theta(0.0)
    hpi = h_theta(math.pi)
    assert h0 == pytest.approx(6075.0 / 64.0 * 8.0 / (256.0 * 25.0), rel=1e-12)
    assert h0 == pytest.approx(0.118652, abs=1e-6)
    assert hpi == pytest.approx(0.329590, abs=1e-6)
    assert hpi / h0 == pytest.approx(25.0 / 9.0, rel=1e-15)


def test_angular_factors_reject_out_of_range():
    for bad in (-0.1, math.pi + 0.1, math.nan):
        with pytest.raises(ValueError):
            f_theta(bad)
        with pytest.raises(ValueError):
            h_theta(bad)


def _factor_grid():
    grid = np.linspace(0.0, math.pi, 181)
    grid[0] = FORWARD_EPSILON
    return np.concatenate((grid, [0.0, math.pi]))


def test_angular_factors_on_an_array_equal_the_scalar_calls_bit_for_bit():
    grid = _factor_grid()
    config = ScatteringConfig(E_n_ev=1.0)
    for call in (f_theta, h_theta, lambda th: diff_cross_section_asymptotic(config, th)):
        values = call(grid)
        assert values.shape == grid.shape
        scalars = [call(float(theta)) for theta in grid]
        assert all(type(value) is float for value in scalars)
        assert values.tolist() == scalars


def test_angular_factors_match_the_scalar_math_formulas():
    # the formulas in math on Python floats; numpy squares where Python's
    # ** 2 calls pow, so the two may differ in the last bit
    def f_ref(theta):
        c = math.cos(theta)
        root = math.sqrt(15.0 + c * c)
        return (c + root) ** 2 / root

    def h_ref(theta):
        c = math.cos(theta)
        root = math.sqrt(15.0 + c * c)
        return (6075.0 / 64.0) * (3.0 + 5.0 * c * c) / ((15.0 + c * c) ** 2 * (c + root) ** 2)

    grid = np.concatenate((_factor_grid(), np.random.default_rng(17).uniform(0.0, math.pi, 2000)))
    for call, ref in ((f_theta, f_ref), (h_theta, h_ref)):
        expected = np.array([ref(theta) for theta in grid.tolist()])
        np.testing.assert_allclose(call(grid), expected, rtol=4.5e-16, atol=0.0)


def test_asymptotic_column_of_a_scan_is_the_pointwise_formula():
    config = ScatteringConfig(E_n_ev=4.0, z0=0.5)
    table = angular_scan(config, 19, method="asymptotic")
    expected = [diff_cross_section_asymptotic(config, float(t)) for t in table.theta_grid]
    assert table.dsigma_asymptotic.tolist() == expected


@pytest.mark.parametrize("bad", [math.nan, -1e-300, math.pi + 1e-15, -math.inf, math.inf])
def test_angular_factors_reject_one_bad_angle_in_an_array(bad):
    grid = _factor_grid()
    grid[90] = bad
    config = ScatteringConfig(E_n_ev=1.0)
    for call in (f_theta, h_theta, lambda th: diff_cross_section_asymptotic(config, th)):
        with pytest.raises(ValueError, match=r"theta must lie in \[0, pi\]"):
            call(grid)


def test_asymptotic_warns_once_per_call_on_a_grid():
    config = ScatteringConfig(E_n_ev=0.01)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        diff_cross_section_asymptotic(config, np.linspace(0.0, math.pi, 19))
    assert [str(w.message) for w in caught] == ["asymptotic formula dubious at q = 1.16 < 5"]


# from about 1e-279 eV down q underflows to 0; from about 1e-289 eV down so
# does the energy in joules
@pytest.mark.parametrize("energy", [1e-280, 1e-300, 1e-320, 5e-324])
def test_cross_sections_at_a_zero_wavenumber_raise_one_arithmetic_error(energy):
    config = ScatteringConfig(E_n_ev=energy)
    assert config.q == 0.0
    calls = (
        lambda: diff_cross_section_asymptotic(config, 1.0),
        lambda: diff_cross_section_asymptotic(config, np.array([0.5, 1.0])),
        lambda: diff_cross_section_numeric(config, 1.0),
        lambda: total_cross_section_numeric(config),
        lambda: angular_scan(config, 3, "asymptotic"),
        lambda: angular_scan(config, 3, "numeric"),
    )
    for call in calls:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ArithmeticError) as info:
                call()
        assert type(info.value) is ArithmeticError
        assert str(info.value) == (
            f"incident wavenumber q = 0.0, q^2 = 0 at E_n_ev = {energy!r}"
        )


def test_numeric_cross_section_diverges_at_theta_zero():
    # dsigma/dOmega grows like ln(1/theta): theta = 0 is one ValueError at
    # every energy and z0, never a clamped value or a QuadratureError
    for energy in (1e-5, 0.1, 1.0, 16.0):
        for z0 in (0.0, 2.0):
            config = ScatteringConfig(E_n_ev=energy, z0=z0)
            with pytest.raises(ValueError, match=r"diverges like ln\(1/theta\) at theta = 0"):
                diff_cross_section_numeric(config, 0.0)
            assert diff_cross_section_numeric(config, FORWARD_EPSILON) > 0.0


def test_untrusted_angle_reports_its_relative_error_estimate(monkeypatch):
    # the message gives |I_L - I_(L-1)| / |I_L| next to the bound: at
    # 1e-11 eV the absolute estimate is 1.4e-4, the relative one 2.5e-9
    q = ScatteringConfig(E_n_ev=1e-11).q
    with pytest.raises(QuadratureError) as failure:
        scattering._reduced_integrals(np.array([FORWARD_EPSILON]), q)
    match = re.search(r"value (\S+), relative error estimate (\S+) above 1e-10$",
                      str(failure.value))
    assert match, str(failure.value)
    # the last rung's value and estimate, from a ladder that trusts it
    monkeypatch.setattr(scattering, "_LEVELS", scattering._LEVELS[-1:])
    monkeypatch.setattr(scattering, "_ACCURACY", math.inf)
    (value,), (error,) = scattering._reduced_integrals(np.array([FORWARD_EPSILON]), q)
    assert float(match[1]) == pytest.approx(value, rel=1e-6)
    assert float(match[2]) == pytest.approx(error / value, rel=1e-3)
    assert 1e-10 < error / value < 1e-8 and error > 1e-4


def test_scattering_length_is_a_constant_not_a_field():
    assert SCATT_LENGTH == 3.26e-15
    assert ScatteringConfig().scatt_length == SCATT_LENGTH
    assert ScatteringConfig(E_n_ev=1.0).scatt_length == SCATT_LENGTH
    with pytest.raises(TypeError):
        ScatteringConfig(scatt_length=1e-15)


REDUCED_INTEGRAL_REFS = [
    # (theta, energy_ev, value): high-precision references computed with
    # 50-digit arithmetic on the same reduced integral
    (1e-6, 1.0, 6.288749122872),
    (1e-6, 4.0, 6.284566833541),
    (math.pi, 4.0, 2.263327607599),
    (2.0, 4.0, 3.124701257285),
    (1e-6, 16.0, 6.283530224532),
]


@pytest.mark.parametrize("theta,energy,ref", REDUCED_INTEGRAL_REFS)
def test_reduced_integral_reference_values(theta, energy, ref):
    config = ScatteringConfig(E_n_ev=energy)
    values = _reduced_integrals(np.array([theta]), config.q, config.z0)[0]
    assert values[0] == pytest.approx(ref, rel=1e-9)


def test_forward_backward_ratio_matches_asymptotics():
    config = ScatteringConfig(E_n_ev=1.0)
    eps = 1e-6
    numeric_ratio = diff_cross_section_numeric(config, math.pi) / diff_cross_section_numeric(
        config, eps
    )
    q_sq = config.q**2
    asym_ratio = (
        f_theta(math.pi) * (1.0 + h_theta(math.pi) / q_sq)
    ) / (f_theta(0.0) * (1.0 + h_theta(0.0) / q_sq))
    assert numeric_ratio == pytest.approx(asym_ratio, rel=0.01)


def test_total_cross_section_is_contact_value():
    config = ScatteringConfig(E_n_ev=1.0)
    total = total_cross_section_numeric(config)
    contact = 4.0 * math.pi * config.scatt_length**2
    assert total == pytest.approx(contact, rel=0.02)


@pytest.mark.parametrize("energy,z0", [(1e-3, 0.0), (0.05, 12.0), (1e-5, 0.0), (0.05, 0.0),
                                       (1.0, 12.0), (1.0, 0.0)])
def test_total_cross_section_meets_its_stated_accuracy(energy, z0):
    # the 48-node rule against the same sum on 384 nodes: 5.5e-5 relative at
    # worst (0.05 eV, z0 = 12), as the docstring states
    config = ScatteringConfig(E_n_ev=energy, z0=z0)
    nodes, weights = np.polynomial.legendre.leggauss(384)
    values, _ = _reduced_integrals(np.arccos(nodes), config.q, z0)
    ref = 2.0 * math.pi * scattering._PER_INTEGRAL * float(weights @ values)
    assert abs(total_cross_section_numeric(config) - ref) <= 1e-4 * ref


def test_anomalous_part_inverse_energy_law():
    def anomalous(energy):
        config = ScatteringConfig(E_n_ev=energy)
        leading = (
            diff_cross_section_asymptotic(config, math.pi)
            / (1.0 + h_theta(math.pi) / config.q**2)
        )
        return diff_cross_section_numeric(config, math.pi) - leading

    a1 = anomalous(1.0)
    a2 = anomalous(2.0)
    assert a1 / a2 == pytest.approx(2.0, rel=0.10)


@pytest.mark.parametrize("energy", [16.0, 100.0, 1000.0])
@pytest.mark.parametrize("z0", [0.0, 0.5, 1.0, 2.0])
def test_asymptotic_term_holds_the_packet_doppler_spread(energy, z0):
    # R = q^2 (sigma_num / sigma_lead - 1) tends to h(theta) (1 + 3 z0^2 / 8):
    # the electron-cloud term h and the packet's Doppler spread
    # (3 z0^2 / 8) h. The next order leaves q^2 |R - h (1 + 3 z0^2 / 8)| at
    # most 0.85 on this grid; with h alone it reaches 6.7e4
    config = ScatteringConfig(E_n_ev=energy, z0=z0)
    table = angular_scan(config, 37, "both")
    q_sq = table.q * table.q
    h = h_theta(table.theta_grid)
    doppler = 1.0 + 3.0 * z0 * z0 / 8.0
    leading = table.dsigma_asymptotic / (1.0 + h * doppler / q_sq)
    ratio = q_sq * (table.dsigma_numeric / leading - 1.0)
    assert np.all(q_sq * np.abs(ratio - h * doppler) <= 1.0)


def test_asymptotic_warns_at_low_q():
    config = ScatteringConfig(E_n_ev=0.01)
    with pytest.warns(UserWarning):
        diff_cross_section_asymptotic(config, 1.0)


def test_angular_scan_structure():
    config = ScatteringConfig(E_n_ev=1.0)
    table = angular_scan(config, 7, method="both")
    assert table.theta_grid.shape == (7,)
    assert table.theta_grid[0] == pytest.approx(1e-6)
    assert table.theta_grid[-1] == pytest.approx(math.pi)
    assert np.all(np.isfinite(table.dsigma_numeric))
    np.testing.assert_allclose(
        table.dsigma_numeric, table.dsigma_asymptotic, rtol=5e-3
    )


def test_angular_table_validation():
    grid = np.array([0.5, 0.2])
    vals = np.array([1.0, 1.0])
    with pytest.raises(ValueError):
        AngularTable(grid, vals, vals, 10.0)
    grid = np.array([0.2, 0.5])
    empty = np.array([])
    for theta, numeric, asymptotic in [
        (empty, empty, empty),
        (np.array([0.2, math.nan]), vals, vals),
        (np.array([math.nan]), vals[:1], vals[:1]),
        (grid, vals, np.array([1.0, -math.inf])),
        (grid, np.array([1.0, 1.0, 1.0]), vals),
    ]:
        with pytest.raises(ValueError):
            AngularTable(theta, numeric, asymptotic, 10.0)
    # NaN marks the method not asked for
    AngularTable(grid, np.array([math.nan, math.nan]), vals, 10.0)


def test_scan_method_selection():
    config = ScatteringConfig(E_n_ev=1.0)
    table = angular_scan(config, 3, method="asymptotic")
    assert np.all(np.isnan(table.dsigma_numeric))
    assert np.all(np.isfinite(table.dsigma_asymptotic))
    with pytest.raises(ValueError):
        angular_scan(config, 3, method="bogus")


def test_config_validation():
    with pytest.raises(ValueError):
        ScatteringConfig(E_n_ev=-1.0)
    with pytest.raises(ValueError):
        ScatteringConfig(z0=-0.1)


@pytest.mark.parametrize(
    "field, value",
    [("E_n_ev", math.nan), ("E_n_ev", math.inf), ("z0", math.inf), ("z0", math.nan)],
)
def test_config_rejects_non_finite_fields(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        ScatteringConfig(**{field: value})


def test_conditions_one_ev_margin():
    report = check_conditions(ScatteringConfig(E_n_ev=1.0))
    obs = report["observability"]
    assert obs["satisfied"]
    assert obs["margin"] == pytest.approx(3.5, rel=0.05)


def test_conditions_boundary_energy():
    report = check_conditions(ScatteringConfig(E_n_ev=0.08))
    assert report["observability"]["margin"] == pytest.approx(1.0, abs=0.05)


def test_conditions_slow_packet_satisfies_adiabatic_bounds():
    # Delta v = hbar z0 / (2 m_alpha a_B) = 10 m/s
    c = CODATA
    z0 = 10.0 * 8.0 * c.m_n * c.a_B / c.hbar
    report = check_conditions(ScatteringConfig(E_n_ev=1.0, z0=z0))
    assert report["born_oppenheimer"]["value"] == pytest.approx(10.0, rel=1e-12)
    assert report["born_oppenheimer"]["satisfied"]
    assert report["almost_diagonal"]["satisfied"]
    assert report["born_oppenheimer"]["margin"] > 1e4
    assert report["almost_diagonal"]["margin"] > 100.0


def test_conditions_custom_nucleus_size_threshold():
    c = CODATA
    report = check_conditions(ScatteringConfig(E_n_ev=1.0), d_over_a_b=1e-4)
    expected = math.sqrt(1e-4) * c.hbar / (c.m_e * c.a_B)
    assert report["observability"]["threshold"] == pytest.approx(expected, rel=1e-12)


def test_finite_z0_cross_section_close_to_wide_packet_limit():
    # a packet 100 a_B wide barely changes the spectral weight
    narrow = ScatteringConfig(E_n_ev=1.0, z0=0.01)
    wide = ScatteringConfig(E_n_ev=1.0, z0=0.0)
    v_narrow = diff_cross_section_numeric(narrow, 2.0)
    v_wide = diff_cross_section_numeric(wide, 2.0)
    assert v_narrow == pytest.approx(v_wide, rel=1e-3)


@pytest.mark.parametrize("z0", [1e-300, 1.0, 1e200, 1e300])
def test_packet_speed_is_the_formula_at_any_width(z0):
    # Delta v = hbar z0 / (2 m_alpha a_B), m_alpha = 4 m_n, at 40 digits
    c = CODATA
    with mp.workdps(40):
        exact = mp.mpf(c.hbar) * mp.mpf(z0) / (8 * mp.mpf(c.m_n) * mp.mpf(c.a_B))
        report = check_conditions(ScatteringConfig(E_n_ev=1.0, z0=z0))
        for key in ("born_oppenheimer", "almost_diagonal"):
            value = report[key]["value"]
            assert abs(mp.mpf(value) / exact - 1) <= 1e-15
            assert report[key]["margin"] == report[key]["threshold"] / value
