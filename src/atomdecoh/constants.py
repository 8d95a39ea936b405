"""Physical constants and kinematic velocity scales.

All constants are SI and pinned to the CODATA 2022 recommended values (as
scipy 1.17 ships them), so outputs do not move when scipy changes its
CODATA edition. ``CODATA`` is the only set of constants the package uses.
The alpha mass is not a constant here: the scattering code takes it as
``scattering.MASS_RATIO`` (4) times the neutron mass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class PhysicalConstants:
    """CODATA 2022 constants in SI units."""

    hbar: float = 1.0545718176461565e-34        # J*s, h/(2 pi), h exact
    m_e: float = 9.1093837139e-31               # kg
    m_p: float = 1.67262192595e-27              # kg
    m_n: float = 1.67492750056e-27              # kg
    a_B: float = 5.29177210544e-11              # m
    e2_coulomb: float = 2.307077550778355e-28   # J*m, e^2/(4 pi eps0)
    eV: float = 1.602176634e-19                 # J, exact


CODATA = PhysicalConstants()


def neutron_wavenumber(energy_joule: float) -> float:
    """Wavenumber k = sqrt(2 m_n E)/hbar of a neutron with kinetic energy E (J)."""
    if energy_joule <= 0.0:
        raise ValueError("neutron energy must be positive")
    return math.sqrt(2.0 * CODATA.m_n * energy_joule) / CODATA.hbar


def electron_velocity_scale() -> float:
    """hbar/(m_e a_B), the atomic electron velocity scale (m/s)."""
    return CODATA.hbar / (CODATA.m_e * CODATA.a_B)


def proton_velocity_scale() -> float:
    """hbar/(m_p a_B), the velocity scale below which the nuclear density
    matrix is narrow compared to the packet (m/s)."""
    return CODATA.hbar / (CODATA.m_p * CODATA.a_B)
