import math

import pytest

from atomdecoh.constants import (
    CODATA,
    CONSTANT_KEYS,
    PhysicalConstants,
    electron_velocity_scale,
    neutron_wavenumber,
    proton_velocity_scale,
)


def test_bohr_radius_consistent_with_electron_scale():
    expected = CODATA.hbar**2 / (CODATA.m_e * CODATA.e2_coulomb)
    assert CODATA.a_B == pytest.approx(expected, rel=1e-6)


def test_neutron_wavenumber_one_ev():
    k = neutron_wavenumber(1.0 * CODATA.eV)
    assert k == pytest.approx(2.20e11, rel=0.01)
    assert k * CODATA.a_B == pytest.approx(11.6, rel=0.01)


def test_neutron_wavenumber_rejects_nonpositive_energy():
    with pytest.raises(ValueError):
        neutron_wavenumber(0.0)
    with pytest.raises(ValueError):
        neutron_wavenumber(-1.0)


def test_wavenumber_square_root_scaling():
    k1 = neutron_wavenumber(1.0 * CODATA.eV)
    k4 = neutron_wavenumber(4.0 * CODATA.eV)
    assert k4 == pytest.approx(2.0 * k1, rel=1e-12)


def test_electron_velocity_scale_order_of_magnitude():
    v = electron_velocity_scale()
    assert v == CODATA.hbar / (CODATA.m_e * CODATA.a_B)
    assert 0.5 < v / 2.0e6 < 2.0


def test_proton_velocity_scale_order_of_magnitude():
    v = proton_velocity_scale()
    assert v == CODATA.hbar / (CODATA.m_p * CODATA.a_B)
    assert 0.5 < v / 1.0e3 < 2.0


def test_velocity_scale_ratio_is_mass_ratio():
    ratio = electron_velocity_scale() / proton_velocity_scale()
    assert ratio == pytest.approx(CODATA.m_p / CODATA.m_e, rel=1e-12)
    assert ratio == pytest.approx(1836.0, rel=1e-3)


def test_with_overrides_plain_field():
    modified = CODATA.with_overrides({"m_p": 2.0 * CODATA.m_p})
    assert modified.m_p == 2.0 * CODATA.m_p
    assert modified.m_e == CODATA.m_e


def test_with_overrides_alpha_mass_ratio():
    modified = CODATA.with_overrides({"m_alpha_over_m_n": 3.98})
    assert modified.m_alpha == pytest.approx(3.98 * modified.m_n, rel=1e-12)


def test_alpha_mass_ratio_invariant():
    with pytest.raises(ValueError):
        CODATA.with_overrides({"m_alpha_over_m_n": 3.5})


def test_rejects_nonpositive_constants():
    with pytest.raises(ValueError):
        PhysicalConstants(hbar=-1.0)


def test_rejects_inconsistent_bohr_radius():
    with pytest.raises(ValueError):
        CODATA.with_overrides({"a_B": 2.0 * CODATA.a_B})


def test_constant_keys_cover_fields():
    assert "m_alpha_over_m_n" in CONSTANT_KEYS
    assert "hbar" in CONSTANT_KEYS and "a_B" in CONSTANT_KEYS


def test_default_alpha_mass_is_four_neutrons():
    assert CODATA.m_alpha == pytest.approx(4.0 * CODATA.m_n, rel=1e-12)
