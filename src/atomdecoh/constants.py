"""Physical constants and kinematic velocity scales.

All constants are SI. CODATA values come from scipy.constants; the alpha
mass defaults to exactly four neutron masses, which is the working value
used throughout the scattering formulas. Individual constants can be
overridden (e.g. from a CLI config file) via :func:`PhysicalConstants.with_overrides`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Mapping

from scipy import constants as _sc

_E2_COULOMB = _sc.e**2 / (4.0 * math.pi * _sc.epsilon_0)  # e^2/(4 pi eps0), J*m


@dataclass(frozen=True)
class PhysicalConstants:
    """CODATA-class constants in SI units."""

    hbar: float = _sc.hbar                                        # J*s
    m_e: float = _sc.m_e                                          # kg
    m_p: float = _sc.m_p                                          # kg
    m_n: float = _sc.m_n                                          # kg
    m_alpha: float = 4.0 * _sc.m_n                                # kg, working value
    a_B: float = _sc.physical_constants["Bohr radius"][0]         # m
    e2_coulomb: float = _E2_COULOMB                               # J*m
    eV: float = _sc.eV                                            # J

    def __post_init__(self) -> None:
        for f in fields(self):
            if getattr(self, f.name) <= 0.0:
                raise ValueError(f"constant {f.name} must be positive")
        bohr = self.hbar**2 / (self.m_e * self.e2_coulomb)
        if abs(bohr - self.a_B) > 1e-6 * self.a_B:
            raise ValueError("a_B inconsistent with hbar^2/(m_e e^2)")
        ratio = self.m_alpha / self.m_n
        if not 3.97 <= ratio <= 4.0 + 1e-12:
            raise ValueError(f"m_alpha/m_n = {ratio:.4f} outside [3.97, 4.0]")

    def with_overrides(self, overrides: Mapping[str, float]) -> "PhysicalConstants":
        """Return a copy with selected constants replaced.

        Accepts any field name plus the convenience key ``m_alpha_over_m_n``.
        """
        names = {f.name for f in fields(self)}
        changes: dict[str, float] = {}
        for key, value in overrides.items():
            if key == "m_alpha_over_m_n":
                changes["m_alpha"] = float(value) * self.m_n
            elif key in names:
                changes[key] = float(value)
            else:
                raise KeyError(
                    f"unknown constant {key!r}; valid keys: "
                    + ", ".join(sorted(names | {"m_alpha_over_m_n"}))
                )
        return replace(self, **changes)


CODATA = PhysicalConstants()

#: Config-file keys accepted as constant overrides.
CONSTANT_KEYS = tuple(sorted({f.name for f in fields(PhysicalConstants)} | {"m_alpha_over_m_n"}))


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
