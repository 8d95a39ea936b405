"""Two-slit interference with and without the electron-nucleus interaction.

Two Gaussian packets are launched from the slit positions with a common
forward momentum. While the interaction is maintained the detection
pattern is |a alpha + b beta|^2 (fringes present); if the atom is ionized
at the slits the pattern is the incoherent sum |a|^2 |alpha|^2 +
|b|^2 |beta|^2. The overlap of the two electron pointer states equals the
hydrogen coherence kernel at the slit separation and quantifies the error
of treating the two branches as exactly biorthogonal. Lengths are in Bohr
radii and hbar = M = 1, as for the packets themselves, so the drift time
t0 is in units of M a_B^2 / hbar.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, fields

from ._numpy import np
from .density import hydrogen_kernel
from .wavepacket import GaussianPacket, _psi


@dataclass(frozen=True)
class TwoSlitConfig:
    """Symmetric two-packet launch configuration; lengths in Bohr radii."""

    slit1: tuple[float, float, float]
    slit2: tuple[float, float, float]
    amp1: complex = complex(1.0 / math.sqrt(2.0))
    amp2: complex = complex(1.0 / math.sqrt(2.0))
    packet_delta: float = 200.0
    t0: float = 0.0
    p0: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "slit1", tuple(float(x) for x in self.slit1))
        object.__setattr__(self, "slit2", tuple(float(x) for x in self.slit2))
        object.__setattr__(self, "p0", tuple(float(x) for x in self.p0))
        for f in fields(self):
            value = getattr(self, f.name)
            if not all(map(cmath.isfinite, value if isinstance(value, tuple) else (value,))):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
        if abs(abs(self.amp1) ** 2 + abs(self.amp2) ** 2 - 1.0) > 1e-12:
            raise ValueError("|amp1|^2 + |amp2|^2 must equal 1")
        separation = self.separation
        if separation == 0.0:
            raise ValueError("slit positions must differ")
        if separation == math.inf:
            raise ValueError(f"the slit separation must be finite, got {separation!r}")
        if self.packet_delta <= 0.0:
            raise ValueError("packet_delta must be positive")

    @property
    def separation(self) -> float:
        return math.dist(self.slit1, self.slit2)

    def packets(self) -> tuple[GaussianPacket, GaussianPacket]:
        alpha = GaussianPacket(self.packet_delta, self.slit1, self.p0)
        beta = GaussianPacket(self.packet_delta, self.slit2, self.p0)
        return alpha, beta


def _amplitudes(config: TwoSlitConfig, screen_point):
    """alpha and beta at screen_point, shape (..., 3), from one evaluation of
    both packets; at a single point, two complex numbers, as evaluate's."""
    R = np.asarray(screen_point, dtype=float)
    centres = np.array((config.slit1, config.slit2)).reshape((2,) + (1,) * (R.ndim - 1) + (3,))
    amp, waves = _psi(centres, config.p0, config.packet_delta, R, config.t0)
    if R.ndim <= 1:
        return tuple(amp * wave for wave in waves.tolist())
    return amp * waves


def _coherent(config: TwoSlitConfig, a_val, b_val):
    return np.abs(config.amp1 * a_val + config.amp2 * b_val) ** 2


def _decohered(config: TwoSlitConfig, a_val, b_val):
    return abs(config.amp1) ** 2 * np.abs(a_val) ** 2 + abs(config.amp2) ** 2 * np.abs(b_val) ** 2


def coherent_pattern(config: TwoSlitConfig, screen_point):
    """P(r) = |a alpha(r, t0) + b beta(r, t0)|^2, interference included."""
    return _coherent(config, *_amplitudes(config, screen_point))


def decohered_pattern(config: TwoSlitConfig, screen_point):
    """P(r) = |a|^2 |alpha|^2 + |b|^2 |beta|^2, interference removed."""
    return _decohered(config, *_amplitudes(config, screen_point))


def schmidt_overlap(config: TwoSlitConfig) -> float:
    """Overlap of the electron pointer states attached to the two slits."""
    return float(hydrogen_kernel(config.separation))


def visibility(pattern_values) -> float:
    """Fringe contrast (max - min)/(max + min) of sampled densities."""
    values = np.asarray(pattern_values, dtype=float)
    if values.size < 3:
        raise ValueError("need at least 3 samples spanning a fringe period")
    if np.any(values < 0.0) or not np.all(np.isfinite(values)):
        raise ValueError("pattern values must be finite and nonnegative")
    hi = float(values.max())
    lo = float(values.min())
    if hi == 0.0:
        raise ValueError("visibility undefined for an all-zero pattern")
    return (hi - lo) / (hi + lo)


def expected_fringe_period(config: TwoSlitConfig) -> float:
    """Fringe spacing on the screen from the spreading-phase difference:
    4 pi Delta_x(t0)^2 / (d * theta) with theta = hbar t0 / (2 M delta^2).
    Float work: Delta_x(t0) is formed as wavepacket.width forms it, and no
    packet is built."""
    # squares as products, which overflow to inf where ** raises: a period
    # that is not finite is then screen_scan's to report
    delta = config.packet_delta
    theta = config.t0 / (2.0 * (delta * delta))
    if theta == 0.0:
        return math.inf
    dx = math.hypot(delta, config.t0 / (2.0 * delta))
    return 4.0 * math.pi * (dx * dx) / (config.separation * theta)


def _middle(a: float, b: float) -> float:
    """(a + b) / 2 of two finite floats, finite: 0.5 * (a + b) wherever the
    sum is finite, halves added first where it overflows."""
    total = a + b
    return 0.5 * total if math.isfinite(total) else 0.5 * a + 0.5 * b


def screen_scan(config: TwoSlitConfig, n_points: int):
    """Sample both patterns along the slit-separation axis on the screen.

    The scan line passes through the drifted midpoint, spans one fringe
    period, and returns (offsets, coherent, decohered), the patterns of
    coherent_pattern and decohered_pattern bit for bit. One wave-packet
    kernel call evaluates both packets, their centres of shape (2, 1, 3)
    against the (n_points, 3) screen points; the midpoint (_middle, finite
    for finite slits) and direction of the line are formed on floats. At
    t0 = 0 there are no fringes (ValueError); a fringe period that is not
    finite, a decohered pattern that is 0 at every sample, or one that
    fewer than 3 samples resolve raises ArithmeticError. A sample resolves the envelope where the decohered
    pattern reaches half its largest sampled value; when the period dwarfs
    the packet width, the whole envelope falls between two samples and no
    visibility can be read off the scan.
    """
    if n_points < 3:
        raise ValueError("n_points must be >= 3")
    if config.t0 == 0.0:
        raise ValueError("no fringe period at t0 = 0")
    period = expected_fringe_period(config)
    if not math.isfinite(period):
        raise ArithmeticError(f"the fringe period is not finite: got {period!r}")
    half = 0.5 * period
    separation = config.separation
    midpoint = [_middle(a, b) + p * config.t0
                for a, b, p in zip(config.slit1, config.slit2, config.p0)]
    direction = [(a - b) / separation for a, b in zip(config.slit1, config.slit2)]
    offsets = np.linspace(-half, half, n_points)
    points = np.array(midpoint) + offsets[:, None] * np.array(direction)
    # a pattern that overflows is left for the caller to report
    with np.errstate(over="ignore"):
        amplitudes = _amplitudes(config, points)
        decohered = _decohered(config, *amplitudes)
        coherent = _coherent(config, *amplitudes)
    if not decohered.any():
        raise ArithmeticError("both packets underflow to 0 at every sample of the scan line")
    peak = decohered.max()
    resolved = np.count_nonzero(decohered >= 0.5 * peak)
    # a pattern that is not finite is left for the caller to report
    if math.isfinite(peak) and resolved < 3:
        raise ArithmeticError(
            f"only {resolved} of {n_points} samples resolve the packet envelope (reach half "
            f"its largest sampled value): the fringe period {period:.3g} a_B is too long "
            f"for a scan of one period"
        )
    return offsets, coherent, decohered
