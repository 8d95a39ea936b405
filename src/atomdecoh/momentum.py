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

from ._numpy import np
from .quadrature import _moments

#: below this q n(q) is n(0): sin(qs)/(qs) adds -q^2 <s^2>/6 relative, and
#: <s^2> <= 24 under the integrand's weight (24 at z0 = 0), so below 2^-29
#: that is under half an ulp; the closed form is 0/0 at q = 0 and 0.0 at 5e-324
_Q_ZERO = 2.0**-29
_TWO_PI_SQ = 2.0 * math.pi**2


@dataclass(frozen=True)
class MomentumDistribution:
    """Radial momentum density sampled on a grid of dimensionless q: two
    1-D float arrays of one length, finite and nonnegative, and the width
    ratio z0 > 0. A field that breaks this raises ValueError naming it,
    q_grid before values. momentum_distribution checks the same in its own
    pass over the grid and builds the instance without a second one
    (_checked); its values are momentum_density's, bit for bit those of
    the list-based moment recurrences (tests/test_properties.py)."""

    q_grid: np.ndarray
    values: np.ndarray
    z0: float

    def __post_init__(self) -> None:
        # one pass over Python floats: for the few points of a typical grid
        # that takes a fraction of a numpy comparison and reduction
        if self.q_grid.ndim != 1 or self.values.shape != self.q_grid.shape:
            raise ValueError(
                f"values must hold one density per q_grid point, got shapes "
                f"{self.values.shape} and {self.q_grid.shape}"
            )
        q_list = self.q_grid.tolist()
        for q, value in zip(q_list, self.values.tolist()):
            if not (0.0 <= q < math.inf and 0.0 <= value < math.inf):
                if all(0.0 <= q < math.inf for q in q_list):
                    raise ValueError("values must be finite and nonnegative densities")
                raise ValueError("q_grid must be finite and nonnegative")
        if not 0.0 < self.z0 < math.inf:
            raise ValueError(f"z0 must be positive and finite, got {self.z0!r}")

    @classmethod
    def _checked(cls, q_grid: np.ndarray, values: np.ndarray, z0: float) -> "MomentumDistribution":
        """The distribution of fields momentum_distribution has checked in
        its one pass over the grid, built without a second pass: on a
        one-point grid the checks of __post_init__ cost as much as the
        rest of the wrapper."""
        dist = object.__new__(cls)
        # into the instance dict, as the frozen class's own __setattr__
        # refuses; item by item, where a keyword update first builds a dict
        fields = dist.__dict__
        fields["q_grid"] = q_grid
        fields["values"] = values
        fields["z0"] = z0
        return dist


def momentum_density(q: float, z0: float) -> float:
    """Radial momentum density at dimensionless offset q for width ratio z0:

    n(q) = (1/(2 pi^2 q)) int_0^inf s (1 + s + s^2/3) exp(-s - z0^2 s^2/8) sin(qs) ds
         = Im(I_1 + I_2 + I_3/3)(1 - iq, z0^2/8) / (2 pi^2 q)

    in damped moments I_n(b, a); below q = 2^-29 (_Q_ZERO) it is
    n(0) = (I_2 + I_3 + I_4/3)(1, z0^2/8) / (2 pi^2). Against mpmath
    (tests/test_moments.py) it is within 1e-14 relative on q in [1e-9, 1e-2]
    x z0 in [1e-4, 1e4] (3.4e-15 measured), and within 1e-9 at q = 0 and on
    q in [1e-3, 50] x z0 in [0.01, 5], the worst measured being 4.7e-10 at
    q = 49.6, z0 = 0.52 (9764 points, dense in q over [40, 50]) from
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
    return _density(q, z0, _damping(z0))


def _damping(z0: float) -> float:
    """The packet damping z0^2/8 of a valid z0."""
    if not 0.0 < z0 < math.inf:
        raise ValueError(f"z0 must be positive and finite, got {z0!r}")
    a = z0 * z0 / 8.0
    if a == math.inf:
        raise OverflowError(f"the packet damping z0^2/8 overflows for z0={z0!r}")
    return a


def _density(q: float, z0: float, a: float) -> float:
    """momentum_density for a checked q and z0, a = _damping(z0): n(0) and
    n(q) take their moments from quadrature._moments in every branch, a = 0
    included, as the purity and tau_transform do, so the value is bit for
    bit the one the list-based moments give (tests/test_properties.py)."""
    if q < _Q_ZERO:
        moments = _moments(1.0, a, 4)
        return (moments[2] + moments[3] + moments[4] / 3.0) / _TWO_PI_SQ
    moments = _moments(complex(1.0, -q), a, 3)
    value = (moments[1] + moments[2] + moments[3] / 3.0).imag / (_TWO_PI_SQ * q)
    if value < 0.0:
        raise ArithmeticError(
            f"momentum density at q={q!r}, z0={z0!r} is lost to cancellation: got {value!r}"
        )
    return value


def gaussian_limit(p_offset, delta: float):
    """Momentum distribution of the bare packet:
    (2/pi)^{3/2} delta^3 exp(-2 (p - P0)^2 delta^2) in (a_B, hbar) units,
    elementwise for an array p_offset; a float for a scalar one."""
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    # exp(-2 x^2) is 0 from |x| = 19.31 on; the value is 0 there, though
    # x**2 overflows past 1.3e154 and delta**3 past 5.6e102
    with np.errstate(over="ignore"):
        x = np.abs(np.asarray(p_offset, dtype=float) * delta)
    near = x < 20.0
    x = np.where(near, x, 0.0)
    decay = np.where(near, np.exp(-2.0 * x**2), 0.0)
    # delta^3 is only formed where some value is nonzero
    peak = (2.0 / math.pi) ** 1.5 * delta**3 if decay.any() else 0.0
    value = peak * decay
    return value if value.ndim else float(value)


def electron_limit(q):
    """Momentum distribution of the bound 1s electron:
    (8/pi^2) (1 + q^2)^-4 in (a_B, hbar) units, elementwise for an array q;
    a float for a scalar one."""
    q = np.asarray(q, dtype=float)
    if (q < 0.0).any():
        raise ValueError("q must be nonnegative")
    # squared twice by products: numpy's ** rounds an array and a 0-d array
    # apart
    square = (1.0 + q * q) * (1.0 + q * q)
    value = 8.0 / math.pi**2 / (square * square)
    return value if value.ndim else float(value)


def momentum_distribution(z0: float, q_grid) -> MomentumDistribution:
    """momentum_density(q, z0) at every q of q_grid, with the accuracy
    stated there; raises as momentum_density does, and ValueError naming
    q_grid for a grid that is not 1-D. One pass over the grid checks each
    q and each density as MomentumDistribution would, and z0 is checked
    once."""
    q_grid = np.asarray(q_grid, dtype=float)
    if q_grid.ndim != 1:
        raise ValueError(f"q_grid must be a 1-D grid of momenta, got shape {q_grid.shape}")
    a = _damping(z0)
    values = []
    for q in q_grid.tolist():
        if not 0.0 <= q < math.inf:
            raise ValueError(f"q_grid must be finite and nonnegative, got q={q!r}")
        value = _density(q, z0, a)
        if not 0.0 <= value < math.inf:
            raise ValueError("values must be finite and nonnegative densities")
        values.append(value)
    return MomentumDistribution._checked(q_grid, np.array(values), z0)
