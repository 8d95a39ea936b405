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
            value = getattr(self, f.name)
            if not all(map(math.isfinite, value if isinstance(value, tuple) else (value,))):
                raise ValueError(f"{f.name} must be finite, got {value!r}")


def _psi(centres, P0, delta, R, t):
    """psi(R, t) = amp * wave of the packets of spread delta and momentum P0
    that start at centres, shape (..., 3), at the points R, shape (..., 3),
    as (amp, wave): centres and R broadcast against each other, so that
    (k, 1, 3) centres against (n, 3) points give every packet at every
    point, wave of shape (k, n). The caller forms the product: numpy's
    array product of complex numbers differs in the last bit from the
    scalar one, which a single point takes. The errors are evaluate's."""
    R = np.asarray(R, dtype=float)
    P0 = np.asarray(P0)
    # products, where delta**2 raises a bare OverflowError
    delta_sq = delta * delta
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
                              f"{delta!r}, t = {t!r}")
    amp = norm ** (-0.75) / spread_power
    offset = R - centres
    arg = offset - P0 * t
    with np.errstate(over="ignore", invalid="ignore"):
        squared = (arg * arg).sum(axis=-1)
        exponent = squared / (4.0 * delta_sq * spread)
        far = squared == math.inf
        if far.any():
            # far off, |arg|^2 overflows where (arg / (2 delta))^2 may not;
            # where that overflows too, the division by the complex spread
            # gives inf + i nan, and psi is exp(-inf + i nan) = 0
            scaled = arg / (2.0 * delta)
            exponent = np.where(far, (scaled * scaled).sum(axis=-1) / spread, exponent)
        phase = (
            -1j * float(P0 @ P0) * t / 2.0
            - exponent
            + 1j * (offset * P0).sum(axis=-1)
        )
    return amp, np.exp(phase)


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
    overflows, the exponent is ((R - R0 - P0 t) / (2 delta))^2 / spread
    instead, so that psi keeps its value for delta up to the 5.4e153
    where 2 pi delta^2 overflows; where that square overflows too, psi is
    0 without a warning, its limit."""
    amp, wave = _psi(np.asarray(packet.R0), packet.P0, packet.delta, R, t)
    out = amp * wave
    return complex(out) if out.ndim == 0 else out


def width(packet: GaussianPacket, t: float) -> float:
    """Position spread Delta x = sqrt(delta^2 + (hbar t / (2 M delta))^2)."""
    return math.hypot(packet.delta, t / (2.0 * packet.delta))
