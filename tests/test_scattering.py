import math

import numpy as np
import pytest

from atomdecoh.constants import CODATA
from atomdecoh.density import Z_EFF_HELIUM
from atomdecoh.scattering import (
    AngularTable,
    ScatteringConfig,
    _reduced_integral,
    angular_scan,
    check_conditions,
    diff_cross_section_asymptotic,
    diff_cross_section_numeric,
    f_theta,
    h_theta,
    kappa,
    tau_transform,
    total_cross_section_numeric,
)
from oracles import tau_transform_quadrature


def test_kappa_vanishes_for_forward_elastic():
    config = ScatteringConfig()
    assert kappa(config.k, config.k, 0.0, config) == pytest.approx(0.0, abs=1e-20)


def test_kappa_backscattering_value():
    config = ScatteringConfig()
    c = config.constants
    expected = c.hbar / (4.0 * c.m_n) * Z_EFF_HELIUM * 2.0 * config.k / c.a_B
    assert kappa(config.k, config.k, math.pi, config) == pytest.approx(expected, rel=1e-12)


def test_kappa_symmetric_in_wavenumbers():
    config = ScatteringConfig()
    k1, k2 = 1.0e11, 2.3e11
    assert kappa(k1, k2, 1.0, config) == pytest.approx(kappa(k2, k1, 1.0, config), rel=1e-14)


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
    from atomdecoh.scattering import _tau_damped

    for kap in (0.1, 1.0, 5.0):
        for om in (0.0, 0.3, 2.0):
            for z0 in (0.005, 0.5, 2.0):
                fast = _tau_damped(kap, om, z0)
                ref = tau_transform_quadrature(kap, om, z0).real
                assert fast == pytest.approx(ref, rel=1e-7)


def test_tau_transform_rejects_singular_point():
    for z0 in (0.0, 0.5):
        with pytest.raises(ValueError, match="singular"):
            tau_transform(0.0, 1.0, z0)


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
    assert hpi / h0 == pytest.approx(25.0 / 9.0, rel=1e-12)


def test_angular_factors_reject_out_of_range():
    for bad in (-0.1, math.pi + 0.1):
        with pytest.raises(ValueError):
            f_theta(bad)
        with pytest.raises(ValueError):
            h_theta(bad)


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
    value, _ = _reduced_integral(theta, config.q, 4.0, Z_EFF_HELIUM)
    assert value == pytest.approx(ref, rel=1e-9)


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
    total = total_cross_section_numeric(config, n_nodes=24)
    contact = 4.0 * math.pi * config.scatt_length**2
    assert total == pytest.approx(contact, rel=0.02)


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
    assert table.metadata["failures"] == []
    assert np.all(np.isfinite(table.dsigma_numeric))
    np.testing.assert_allclose(
        table.dsigma_numeric, table.dsigma_asymptotic, rtol=5e-3
    )


def test_angular_table_validation():
    grid = np.array([0.5, 0.2])
    vals = np.array([1.0, 1.0])
    with pytest.raises(ValueError):
        AngularTable(grid, vals, vals, 10.0, "both")


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
    with pytest.raises(ValueError):
        ScatteringConfig(mass_ratio=0.5)


def test_conditions_one_ev_margin():
    report = check_conditions(ScatteringConfig(E_n_ev=1.0))
    obs = report["observability"]
    assert obs["satisfied"]
    assert obs["margin"] == pytest.approx(3.5, rel=0.05)


def test_conditions_boundary_energy():
    report = check_conditions(ScatteringConfig(E_n_ev=0.08))
    assert report["observability"]["margin"] == pytest.approx(1.0, abs=0.05)


def test_conditions_slow_packet_satisfies_adiabatic_bounds():
    report = check_conditions(ScatteringConfig(E_n_ev=1.0), delta_v_ms=10.0)
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
