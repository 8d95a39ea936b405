"""Free Gaussian center-of-mass wave packet and its derived widths.

Lengths are measured in Bohr radii and hbar defaults to 1; the packet is
an explicit function of time, so there is no propagation loop and packets
are immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GaussianPacket:
    """Spreading Gaussian packet psi(R, t).

    delta: initial position spread (Bohr radii); R0: initial center;
    P0: mean momentum; M: total mass.
    """

    delta: float
    R0: tuple[float, float, float] = (0.0, 0.0, 0.0)
    P0: tuple[float, float, float] = (0.0, 0.0, 0.0)
    M: float = 1.0

    def __post_init__(self) -> None:
        if self.delta <= 0.0:
            raise ValueError("delta must be positive")
        if self.M <= 0.0:
            raise ValueError("M must be positive")
        object.__setattr__(self, "R0", tuple(float(x) for x in self.R0))
        object.__setattr__(self, "P0", tuple(float(x) for x in self.P0))
        if len(self.R0) != 3 or len(self.P0) != 3:
            raise ValueError("R0 and P0 must be 3-vectors")


def evaluate_1d(
    delta: float,
    x0: float,
    p0: float,
    mass: float,
    x: np.ndarray | float,
    t: float,
    hbar: float = 1.0,
) -> np.ndarray | complex:
    """One Cartesian factor of the packet (1D normalization)."""
    x = np.asarray(x, dtype=float)
    spread = 1.0 + 1j * hbar * t / (2.0 * mass * delta**2)
    arg = x - x0 - p0 * t / mass
    amp = (2.0 * math.pi * delta**2) ** (-0.25) / np.sqrt(spread)
    phase = (
        -1j * p0**2 * t / (2.0 * mass * hbar)
        - arg**2 / (4.0 * delta**2 * spread)
        + 1j * p0 * (x - x0) / hbar
    )
    return amp * np.exp(phase)


def evaluate(
    packet: GaussianPacket,
    R: np.ndarray,
    t: float,
    hbar: float = 1.0,
) -> np.ndarray | complex:
    """psi(R, t): complex Gaussian with spreading factor, kinetic phase
    and plane-wave factor. ``R`` has shape (..., 3)."""
    R = np.asarray(R, dtype=float)
    R0 = np.asarray(packet.R0)
    P0 = np.asarray(packet.P0)
    spread = 1.0 + 1j * hbar * t / (2.0 * packet.M * packet.delta**2)
    arg = R - R0 - P0 * t / packet.M
    amp = (2.0 * math.pi * packet.delta**2) ** (-0.75) / spread**1.5
    phase = (
        -1j * float(P0 @ P0) * t / (2.0 * packet.M * hbar)
        - (arg * arg).sum(axis=-1) / (4.0 * packet.delta**2 * spread)
        + 1j * ((R - R0) * P0).sum(axis=-1) / hbar
    )
    out = amp * np.exp(phase)
    return complex(out) if out.ndim == 0 else out


def width(packet: GaussianPacket, t: float, hbar: float = 1.0) -> float:
    """Position spread Delta x = sqrt(delta^2 + (hbar t / (2 M delta))^2)."""
    return math.hypot(packet.delta, hbar * t / (2.0 * packet.M * packet.delta))


def z_parameter(packet: GaussianPacket, t: float, hbar: float = 1.0) -> float:
    """z = a_B / Delta x(t), with lengths in Bohr radii."""
    return 1.0 / width(packet, t, hbar)
