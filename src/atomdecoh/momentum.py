"""Momentum distribution of the nucleus (diagonal of the reduced density
matrix in momentum representation).

Everything is expressed in dimensionless (a_B, hbar) units: q is the
momentum offset |p - P0| a_B / hbar and densities are in units of
a_B^3 / hbar^3. The distribution is the radial Fourier-sine transform of
the coherence kernel multiplied by the diagonal-averaged packet factor
exp(-s^2 z0^2 / 8), a finite sum of damped moments. It interpolates
between the packet's own Gaussian momentum distribution (z0 large) and the
bound electron's distribution 8/pi^2 (1+q^2)^-4 (z0 small), and is
independent of time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import damped_moments

#: below this q, where Im(...)/q of the closed form cancels, sin(qs)/(qs)
#: is expanded in q^2 instead
_Q_TAYLOR = 1e-2
#: terms of that expansion; the first one dropped is below 1e-18 relative
_TAYLOR_TERMS = 5
_TWO_PI_SQ = 2.0 * math.pi**2


@dataclass(frozen=True)
class MomentumDistribution:
    """Radial momentum density sampled on a grid of dimensionless q: two
    1-D float arrays of one length, finite and nonnegative, and the width
    ratio z0 > 0. A field that breaks this raises ValueError naming it."""

    q_grid: np.ndarray
    values: np.ndarray
    z0: float

    def __post_init__(self) -> None:
        # checked on Python floats: for the few points of a typical grid
        # that takes a fraction of a numpy comparison and reduction
        if self.q_grid.ndim != 1 or self.values.shape != self.q_grid.shape:
            raise ValueError(
                f"values must hold one density per q_grid point, got shapes "
                f"{self.values.shape} and {self.q_grid.shape}"
            )
        if not all(0.0 <= q < math.inf for q in self.q_grid.tolist()):
            raise ValueError("q_grid must be finite and nonnegative")
        if not all(0.0 <= v < math.inf for v in self.values.tolist()):
            raise ValueError("values must be finite and nonnegative densities")
        if not 0.0 < self.z0 < math.inf:
            raise ValueError(f"z0 must be positive and finite, got {self.z0!r}")


def momentum_density(q: float, z0: float) -> float:
    """Radial momentum density at dimensionless offset q for width ratio z0:

    n(q) = (1/(2 pi^2 q)) int_0^inf s (1 + s + s^2/3) exp(-s - z0^2 s^2/8) sin(qs) ds
         = Im(I_1 + I_2 + I_3/3)(1 - iq, z0^2/8) / (2 pi^2 q)

    in damped moments I_n(b, a). Below q = 1e-2 sin(qs)/(qs) is expanded in
    q^2 over the real moments at b = 1. Closed form; against mpmath
    (tests/test_moments.py) it is within 1e-9 relative at q = 0 and on
    q in [1e-3, 50] x z0 in [0.01, 5], the worst measured being 5.9e-10 at
    q = 49.8, z0 = 2.2 (3324 points, dense in q over [40, 50]) from
    cancellation inside the imaginary part. That cancellation grows as n(q)
    falls into its tail, so for narrower packets the error is stated against
    the peak: at z0 = 100 (Re b / sqrt(a) = 0.028) it stays below 1e-15 n(0)
    on q in [0, 500], which is 1e-9 relative down to n(q) = 1e-8 n(0).
    Far out in the tail the cancellation leaves noise of either sign (at
    z0 = 1e-3 from q ~ 3e4 on), and a negative value raises ArithmeticError;
    so does a z0 whose damping z0^2/8 overflows (z0 above ~3.8e154).
    """
    if not (math.isfinite(q) and math.isfinite(z0)):
        raise ValueError(f"q and z0 must be finite, got q={q!r}, z0={z0!r}")
    if q < 0.0:
        raise ValueError("q must be nonnegative")
    if z0 <= 0.0:
        raise ValueError("z0 must be positive")
    a = z0 * z0 / 8.0
    if a == math.inf:
        raise OverflowError(f"the packet damping z0^2/8 overflows for z0={z0!r}")
    if q < _Q_TAYLOR:
        moments = damped_moments(1.0, a, 2 * _TAYLOR_TERMS + 2)
        total = 0.0
        coeff = 1.0
        for k in range(_TAYLOR_TERMS):
            i = 2 * k + 2
            total += coeff * (moments[i] + moments[i + 1] + moments[i + 2] / 3.0).real
            coeff *= -q * q / ((2 * k + 2) * (2 * k + 3))
        return total / _TWO_PI_SQ
    moments = damped_moments(complex(1.0, -q), a, 3)
    value = (moments[1] + moments[2] + moments[3] / 3.0).imag / (_TWO_PI_SQ * q)
    if value < 0.0:
        raise ArithmeticError(
            f"momentum density at q={q!r}, z0={z0!r} is lost to cancellation: got {value!r}"
        )
    return value


def gaussian_limit(p_offset: float, delta: float) -> float:
    """Momentum distribution of the bare packet:
    (2/pi)^{3/2} delta^3 exp(-2 (p - P0)^2 delta^2) in (a_B, hbar) units."""
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    # exp(-2 x^2) is 0 from |x| = 19.31 on; the value is 0 there, though
    # x**2 overflows past 1.3e154 and delta**3 past 5.6e102
    x = p_offset * delta
    decay = math.exp(-2.0 * x**2) if abs(x) < 20.0 else 0.0
    if decay == 0.0:
        return 0.0
    return (2.0 / math.pi) ** 1.5 * delta**3 * decay


def electron_limit(q: float) -> float:
    """Momentum distribution of the bound 1s electron:
    (8/pi^2) (1 + q^2)^-4 in (a_B, hbar) units."""
    if q < 0.0:
        raise ValueError("q must be nonnegative")
    return 8.0 / math.pi**2 / (1.0 + q * q) ** 4


def momentum_distribution(z0: float, q_grid) -> MomentumDistribution:
    """momentum_density(q, z0) at every q of q_grid, with the accuracy
    stated there; raises as momentum_density does."""
    q_grid = np.asarray(q_grid, dtype=float)
    values = np.array([momentum_density(q, z0) for q in q_grid.tolist()])
    return MomentumDistribution(q_grid, values, z0)
