"""Physical constants and kinematic velocity scales.

All constants are SI and pinned to the CODATA 2022 recommended values (as
scipy 1.17 ships them), so outputs do not move when scipy changes its
CODATA edition. The alpha mass is not a constant here: the scattering code
takes it as ``scattering.MASS_RATIO`` (4) times the neutron mass.
Individual constants can be overridden (e.g. from a CLI config file) with
:func:`dataclasses.replace`, which re-runs the validation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields


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

    def __post_init__(self) -> None:
        for f in fields(self):
            if getattr(self, f.name) <= 0.0:
                raise ValueError(f"constant {f.name} must be positive")
        bohr = self.hbar**2 / (self.m_e * self.e2_coulomb)
        if abs(bohr - self.a_B) > 1e-6 * self.a_B:
            raise ValueError("a_B inconsistent with hbar^2/(m_e e^2)")


CODATA = PhysicalConstants()

#: Config-file keys accepted as constant overrides: the field names.
CONSTANT_KEYS = tuple(sorted(f.name for f in fields(PhysicalConstants)))


def neutron_wavenumber(energy_joule: float, constants: PhysicalConstants = CODATA) -> float:
    """Wavenumber k = sqrt(2 m_n E)/hbar of a neutron with kinetic energy E (J)."""
    if energy_joule <= 0.0:
        raise ValueError("neutron energy must be positive")
    return math.sqrt(2.0 * constants.m_n * energy_joule) / constants.hbar


def electron_velocity_scale(constants: PhysicalConstants = CODATA) -> float:
    """hbar/(m_e a_B), the atomic electron velocity scale (m/s)."""
    return constants.hbar / (constants.m_e * constants.a_B)


def proton_velocity_scale(constants: PhysicalConstants = CODATA) -> float:
    """hbar/(m_p a_B), the velocity scale below which the nuclear density
    matrix is narrow compared to the packet (m/s)."""
    return constants.hbar / (constants.m_p * constants.a_B)
