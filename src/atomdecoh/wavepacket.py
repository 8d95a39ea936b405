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
    and plane-wave factor. ``R`` has shape (..., 3).

    Where 2 pi delta^2, t / (2 delta^2) or spread^(3/2) leave the double
    range, spread = 1 + i t / (2 delta^2), it raises one ArithmeticError
    naming delta and t; psi itself may still be a double there
    (|psi(R0, 0)| = 2.5e-301 at delta = 1e200). Where |R - R0 - P0 t|^2
    overflows, psi is 0 without a warning: its limit, and its value to the
    last bit for delta below 2.5e152."""
    R = np.asarray(R, dtype=float)
    R0 = np.asarray(packet.R0)
    P0 = np.asarray(packet.P0)
    # products, where delta**2 raises a bare OverflowError
    delta_sq = packet.delta * packet.delta
    norm = 2.0 * math.pi * delta_sq
    stretch = t / (2.0 * delta_sq) if delta_sq > 0.0 else math.inf
    spread = 1.0 + 1j * stretch
    try:
        # a bare OverflowError where |spread|^1.5 passes the largest double
        spread_power = spread**1.5 if abs(stretch) < math.inf else math.inf
    except OverflowError:
        spread_power = math.inf
    if not (0.0 < norm < math.inf and abs(spread_power) < math.inf):
        raise ArithmeticError(f"wave packet out of the double range at delta = "
                              f"{packet.delta!r}, t = {t!r}")
    amp = norm ** (-0.75) / spread_power
    arg = R - R0 - P0 * t
    # far off, |arg|^2 overflows to inf, and the exponent's division by the
    # complex spread gives -inf + i nan, whose exp is 0
    with np.errstate(over="ignore", invalid="ignore"):
        phase = (
            -1j * float(P0 @ P0) * t / 2.0
            - (arg * arg).sum(axis=-1) / (4.0 * delta_sq * spread)
            + 1j * ((R - R0) * P0).sum(axis=-1)
        )
    out = amp * np.exp(phase)
    return complex(out) if out.ndim == 0 else out


def width(packet: GaussianPacket, t: float) -> float:
    """Position spread Delta x = sqrt(delta^2 + (hbar t / (2 M delta))^2)."""
    return math.hypot(packet.delta, t / (2.0 * packet.delta))
