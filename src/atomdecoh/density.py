"""Reduced density matrix of the nucleus.

The density matrix separates into the center-of-mass packet times a
coherence kernel D(s) that depends only on the dimensionless separation
s = |r - r'| / a_B. For a hydrogen-like 1s electron
D(s) = (1 + s + s^2/3) exp(-s); for the two-electron helium ground state
(effective charge Z* = 27/16) the kernel is the square of the hydrogen
kernel at the Z*-scaled argument. The purity Tr rho^2 reduces to a single
radial integral over s parametrized by z = a_B / Delta_x, a finite sum of
damped moments.
"""

from __future__ import annotations

import math
from collections.abc import Callable

from ._numpy import np
from .quadrature import _moments

Z_EFF_HELIUM = 27.0 / 16.0

#: coefficients of (1 + s + s^2/3)^2 in powers of s
KERNEL_SQ_POLY = (1.0, 2.0, 5.0 / 3.0, 2.0 / 3.0, 1.0 / 9.0)

#: z from which purity is 1 - 2/z^2: the next term, (20/3)/z^4, is below
#: 1e-19 there; the closed form's rounding, about 1e-15, would make it
#: decrease in z above 1e5 and exceed 1 above 1e7, and z^3 overflows
#: past 5.6e102
_PURITY_SERIES_Z = 1e5
_TWO_SQRT_PI = 2.0 * math.sqrt(math.pi)


def hydrogen_kernel(s):
    """Coherence kernel (1 + s + s^2/3) e^{-s} of a 1s electron."""
    s = np.asarray(s, dtype=float)
    if np.any(s < 0.0):
        raise ValueError("separation s must be nonnegative")
    out = (1.0 + s + s * s / 3.0) * np.exp(-s)
    return float(out) if out.ndim == 0 else out


def helium_kernel(s_phys):
    """Coherence kernel of the helium nucleus: hydrogen_kernel(Z* s)^2."""
    s_phys = np.asarray(s_phys, dtype=float)
    if np.any(s_phys < 0.0):
        raise ValueError("separation must be nonnegative")
    return hydrogen_kernel(Z_EFF_HELIUM * s_phys) ** 2


def reduced_density(
    packet: GaussianPacket,
    kernel: Callable[[float], float],
    r,
    r_prime,
    t: float,
) -> complex:
    """rho(r, r'; t) = psi(r, t) psi*(r', t) D(|r - r'|), with D the kernel
    function, hydrogen_kernel or helium_kernel. ``wavepacket`` (the
    ``GaussianPacket`` of the annotation) is imported here, on first use,
    so that purity loads neither it nor dataclasses."""
    from .wavepacket import evaluate

    r = np.asarray(r, dtype=float)
    r_prime = np.asarray(r_prime, dtype=float)
    s = float(np.linalg.norm(r - r_prime))
    return evaluate(packet, r, t) * np.conj(evaluate(packet, r_prime, t)) * kernel(s)


def purity(z: float) -> float:
    """Tr rho^2 of the hydrogen-kernel reduced density matrix.

    Tr rho^2 = z^3/(2 sqrt(pi)) * int_0^inf s^2 (1+s+s^2/3)^2
    exp(-2s - s^2 z^2 / 4) ds = z^3/(2 sqrt(pi)) sum_n c_n I_(n+2)(2, z^2/4)
    in damped moments; z = a_B/Delta_x. From _PURITY_SERIES_Z on it is
    1 - 2/z^2, the expansion D^2 = 1 - s^2/3 + O(s^4) gives. Lies in [0, 1]
    and does not decrease over steps of at least 1e-3 decades in z (finer
    steps can go down by its rounding, about 1e-15); below z ~ 1.6e-108 it
    underflows to 0, as its leading term 33 z^3 / (16 sqrt(pi)) does.
    Within 1e-12 relative of mpmath on z in [1e-3, 1e2]
    (tests/test_moments.py) and on both sides of the switch, where 1 - P is
    also within 1e-4 relative (tests/test_density.py).
    """
    if not (math.isfinite(z) and z > 0.0):
        raise ValueError(f"z must be positive and finite, got {z!r}")
    if z >= _PURITY_SERIES_Z:
        return 1.0 - 2.0 / (z * z)
    moments = _moments(2.0, z * z / 4.0, len(KERNEL_SQ_POLY) + 1)
    total = 0.0
    for c_n, moment in zip(KERNEL_SQ_POLY, moments[2:]):
        total += c_n * moment
    return z**3 / _TWO_SQRT_PI * total
