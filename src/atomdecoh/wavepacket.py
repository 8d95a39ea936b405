"""Free Gaussian center-of-mass wave packet and its width.

Lengths are measured in Bohr radii and hbar = M = 1, M the packet's
mass, so time is in units of M a_B^2 / hbar and momentum in hbar / a_B.
The packet is an explicit function of time, so there is no propagation
loop and packets are immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from ._numpy import np


@dataclass(frozen=True)
class GaussianPacket:
    """Spreading Gaussian packet psi(R, t).

    delta: initial position spread (Bohr radii); R0: initial center;
    P0: mean momentum.
    """

    delta: float
    R0: tuple[float, float, float] = (0.0, 0.0, 0.0)
    P0: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self) -> None:
        if self.delta <= 0.0:
            raise ValueError("delta must be positive")
        object.__setattr__(self, "R0", tuple(float(x) for x in self.R0))
        object.__setattr__(self, "P0", tuple(float(x) for x in self.P0))
        if len(self.R0) != 3 or len(self.P0) != 3:
            raise ValueError("R0 and P0 must be 3-vectors")
        for f in fields(self):
            if not np.isfinite(getattr(self, f.name)).all():
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)!r}")


def evaluate(
    packet: GaussianPacket,
    R: np.ndarray,
    t: float,
) -> np.ndarray | complex:
    """psi(R, t): complex Gaussian with spreading factor, kinetic phase
    and plane-wave factor. ``R`` has shape (..., 3)."""
    R = np.asarray(R, dtype=float)
    R0 = np.asarray(packet.R0)
    P0 = np.asarray(packet.P0)
    spread = 1.0 + 1j * t / (2.0 * packet.delta**2)
    arg = R - R0 - P0 * t
    amp = (2.0 * math.pi * packet.delta**2) ** (-0.75) / spread**1.5
    phase = (
        -1j * float(P0 @ P0) * t / 2.0
        - (arg * arg).sum(axis=-1) / (4.0 * packet.delta**2 * spread)
        + 1j * ((R - R0) * P0).sum(axis=-1)
    )
    out = amp * np.exp(phase)
    return complex(out) if out.ndim == 0 else out


def width(packet: GaussianPacket, t: float) -> float:
    """Position spread Delta x = sqrt(delta^2 + (hbar t / (2 M delta))^2)."""
    return math.hypot(packet.delta, t / (2.0 * packet.delta))
