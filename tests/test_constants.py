import math

import pytest
from scipy import constants as sc

from atomdecoh.constants import (
    CODATA,
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


@pytest.mark.parametrize(
    "name, reference",
    [
        ("hbar", sc.hbar),
        ("m_e", sc.m_e),
        ("m_p", sc.m_p),
        ("m_n", sc.m_n),
        ("a_B", sc.physical_constants["Bohr radius"][0]),
        ("e2_coulomb", sc.e**2 / (4.0 * math.pi * sc.epsilon_0)),
        ("eV", sc.eV),
    ],
)
def test_pinned_constants_match_scipy(name, reference):
    # 1e-8 is above every CODATA 2018 -> 2022 shift (at most 1.5e-9), so the
    # pins survive scipy moving one revision
    assert getattr(CODATA, name) == pytest.approx(reference, rel=1e-8)
