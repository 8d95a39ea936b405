"""Reference implementations by adaptive quadrature, kept as test oracles.

The library computes its observables in closed form (damped moments); the
slower routes here compute the same quantities independently so the tests
can compare the two:

* adaptive 1D quadrature on semi-infinite intervals, truncated at 40 decay
  lengths: every integrand handled here decays at least exponentially,
  which puts the truncation error below 1e-15 relative;
* Fourier-type oscillatory integrals with decaying envelopes, split into
  panels aligned with the zeros of the oscillation, each panel integrated
  adaptively; the damping makes the panel sums converge fast without
  series acceleration;
* a brute-force 3D tensor-product Gauss-Legendre integrator;
* the momentum density through the generic route (numeric diagonal
  average of the packet, times the kernel, then a radial sine transform);
* the spectral weight F(omega) for z0 > 0 by panelled quadrature;
* a sampled check of the off-diagonal bound of the reduced density matrix.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.integrate import IntegrationWarning, quad

from atomdecoh.density import CoherenceKernel, reduced_density
from atomdecoh.quadrature import QuadratureError
from atomdecoh.wavepacket import GaussianPacket, evaluate_1d, width

TRUNCATION_DECAY_LENGTHS = 40.0

#: below this q the generic sine transform switches to its analytic q -> 0 limit
_Q_SMALL = 1e-6


class IntegrandError(QuadratureError):
    """The integrand returned a non-finite value."""


@dataclass(frozen=True)
class QuadratureSpec:
    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_subdivisions: int = 200
    decay_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.rel_tol <= 0.0:
            raise ValueError("rel_tol must be positive")
        if self.abs_tol < 0.0:
            raise ValueError("abs_tol must be nonnegative")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")
        if self.decay_scale <= 0.0:
            raise ValueError("decay_scale must be positive")


@dataclass
class QuadratureResult:
    value: float | complex
    error_estimate: float
    evaluations: int
    converged: bool


DEFAULT_SPEC = QuadratureSpec()


class _Counted:
    """Wrap an integrand, counting calls and rejecting non-finite values."""

    def __init__(self, f: Callable[[float], float]):
        self.f = f
        self.calls = 0

    def __call__(self, x: float) -> float:
        self.calls += 1
        y = self.f(x)
        if not math.isfinite(y):
            raise IntegrandError(f"integrand returned {y!r} at x={x!r}")
        return y


def _tolerance(spec: QuadratureSpec, value: float) -> float:
    return max(spec.abs_tol, spec.rel_tol * abs(value))


def integrate_semi_infinite(
    f: Callable[[float], float], spec: QuadratureSpec = DEFAULT_SPEC
) -> QuadratureResult:
    """Integrate f over (0, inf) for integrands decaying at least
    exponentially on the scale ``spec.decay_scale``."""
    g = _Counted(f)
    upper = TRUNCATION_DECAY_LENGTHS * spec.decay_scale
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        out = quad(
            g, 0.0, upper,
            epsabs=spec.abs_tol, epsrel=spec.rel_tol,
            limit=spec.max_subdivisions, full_output=1,
        )
    value, abserr = out[0], out[1]
    ok = len(out) < 4  # quad appends a message on failure
    converged = ok and abserr <= _tolerance(spec, value)
    return QuadratureResult(value, abserr, g.calls, converged)


def _panel_edges(period: float, upper: float) -> np.ndarray:
    """Panel boundaries from 0 to just past ``upper`` in steps of ``period``."""
    n = max(1, int(math.ceil(upper / period)))
    return np.arange(n + 1) * period


def _oscillatory_panels(
    g: Callable[[float], float],
    edges: np.ndarray,
    spec: QuadratureSpec,
) -> tuple[float, float, bool]:
    total = 0.0
    err = 0.0
    ok = True
    n_panels = len(edges) - 1
    epsabs = max(spec.abs_tol / n_panels, 1e-300)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        for a, b in zip(edges[:-1], edges[1:]):
            out = quad(g, a, b, epsabs=epsabs, epsrel=spec.rel_tol,
                       limit=max(spec.max_subdivisions // n_panels, 50),
                       full_output=1)
            total += out[0]
            err += out[1]
            ok = ok and len(out) < 4
    return total, err, ok


def integrate_fourier_sine(
    f: Callable[[float], float],
    omega: float,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> QuadratureResult:
    """Approximate the half-line sine transform int_0^inf f(s) sin(omega s) ds.

    ``f`` is the smooth decaying envelope; omega = 0 returns 0 exactly.
    """
    if omega < 0.0:
        raise ValueError("omega must be nonnegative")
    if omega == 0.0:
        return QuadratureResult(0.0, 0.0, 0, True)
    g = _Counted(lambda s: f(s) * math.sin(omega * s))
    upper = TRUNCATION_DECAY_LENGTHS * spec.decay_scale
    edges = _panel_edges(math.pi / omega, upper)
    total, err, ok = _oscillatory_panels(g, edges, spec)
    converged = ok and err <= _tolerance(spec, total)
    return QuadratureResult(total, err, g.calls, converged)


def integrate_fourier_complex(
    f: Callable[[float], float],
    omega: float,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> QuadratureResult:
    """Approximate int_{-inf}^{inf} f(|tau|) exp(-i omega tau) dtau.

    The damping envelope is even in tau, so the integral is real and
    equals twice the half-line cosine transform of ``f``.
    """
    omega = abs(omega)
    g = _Counted(lambda t: f(t) * math.cos(omega * t))
    upper = TRUNCATION_DECAY_LENGTHS * spec.decay_scale
    if omega == 0.0:
        edges = np.array([0.0, upper])
    else:
        # cos zeros at (k + 1/2) pi / omega; first panel is half-width
        half = 0.5 * math.pi / omega
        edges = np.concatenate(([0.0], half + _panel_edges(math.pi / omega, upper)))
    total, err, ok = _oscillatory_panels(g, edges, spec)
    value = complex(2.0 * total, 0.0)
    converged = ok and 2.0 * err <= _tolerance(spec, abs(value))
    return QuadratureResult(value, 2.0 * err, g.calls, converged)


def integrate_3d_oracle(
    f: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    box: float,
    n: int,
    panels: int = 2,
) -> float:
    """Fixed tensor-product Gauss-Legendre cube quadrature over
    [-box, box]^3 with ``panels`` panels of ``n`` points per axis.

    ``f`` must accept broadcastable arrays. An even panel count puts
    integrand kinks at the origin on panel boundaries, which matters for
    orbital cusps.
    """
    if n < 16:
        raise ValueError("n must be >= 16")
    if box <= 0.0 or panels < 1:
        raise ValueError("box must be positive and panels >= 1")
    x, w = leggauss(n)
    edges = np.linspace(-box, box, panels + 1)
    nodes = np.concatenate(
        [0.5 * (b - a) * x + 0.5 * (a + b) for a, b in zip(edges[:-1], edges[1:])]
    )
    wts = np.concatenate([0.5 * (b - a) * w for a, b in zip(edges[:-1], edges[1:])])
    vals = f(nodes[:, None, None], nodes[None, :, None], nodes[None, None, :])
    return float(np.einsum("i,j,k,ijk->", wts, wts, wts, vals))


def momentum_density_generic(
    packet: GaussianPacket,
    kernel: CoherenceKernel | None,
    p,
    t: float = 0.0,
    spec: QuadratureSpec | None = None,
    hbar: float = 1.0,
) -> float:
    """Momentum density by the generic route: numeric diagonal average of
    the packet's off-diagonal profile, multiplied by the kernel, then a
    radial Fourier transform.

    Restricted to isotropic kernels and Gaussian packets, which reduces
    the six-dimensional transform to nested 1D radial integrals. Passing
    ``kernel=None`` means no decoherence factor (D = 1). Result in
    (a_B, hbar) units, independent of t.
    """
    p = np.asarray(p, dtype=float)
    q_vec = p - np.asarray(packet.P0)
    q = float(np.linalg.norm(q_vec)) / hbar
    delta = packet.delta

    # pick the axis carrying P0 (any axis works for P0 = 0)
    p0_arr = np.asarray(packet.P0)
    axis = int(np.argmax(np.abs(p0_arr))) if np.any(p0_arr) else 2
    x0 = packet.R0[axis]
    p0 = packet.P0[axis]

    half_span = 12.0 * max(delta, hbar * abs(t) / (2.0 * packet.M * delta))
    center = x0 + p0 * t / packet.M

    def diag_average(u: float) -> float:
        """int dx psi(x + u/2) psi*(x - u/2), phase exp(i p0 u) removed."""
        def integrand(x: float, part) -> float:
            val = (
                evaluate_1d(delta, x0, p0, packet.M, x + 0.5 * u, t, hbar)
                * np.conj(evaluate_1d(delta, x0, p0, packet.M, x - 0.5 * u, t, hbar))
                * np.exp(-1j * p0 * u / hbar)
            )
            return part(val)

        lo, hi = center - half_span, center + half_span
        re, _ = quad(lambda x: integrand(x, np.real), lo, hi, epsabs=1e-13, epsrel=1e-11)
        return re

    if spec is None:
        gauss_scale = 2.0 * math.sqrt(2.0) * delta
        scale = gauss_scale if kernel is None else min(1.0, gauss_scale)
        spec = QuadratureSpec(decay_scale=scale, abs_tol=1e-13)

    def envelope(u: float) -> float:
        d = float(kernel(u)) if kernel is not None else 1.0
        return u * d * diag_average(u)

    if q < _Q_SMALL:
        res = integrate_semi_infinite(lambda u: u * envelope(u), spec)
        value = res.value
    else:
        res = integrate_fourier_sine(envelope, q, spec)
        value = res.value / q
    if not res.converged:
        raise QuadratureError(f"generic momentum density failed at q={q}")
    return value / (2.0 * math.pi**2)


def tau_transform_quadrature(kappa_val: float, omega: float, z0: float) -> complex:
    """Spectral weight F(omega) = int dtau exp(-2 kappa |tau|)
    (1 + kappa|tau| + kappa^2 tau^2 / 3)^2 exp(-i omega tau - z0^2 kappa^2 tau^2 / 8)
    by panelled quadrature; kappa > 0 and z0 > 0."""
    if kappa_val <= 0.0 or z0 <= 0.0:
        raise ValueError("kappa_val and z0 must be positive")
    scale = min(1.0 / (2.0 * kappa_val), 2.0 * math.sqrt(2.0) / (z0 * kappa_val))
    spec = QuadratureSpec(decay_scale=scale)

    def envelope(t: float) -> float:
        x = kappa_val * t
        return math.exp(-2.0 * x) * (1.0 + x + x * x / 3.0) ** 2 * math.exp(-((z0 * x) ** 2) / 8.0)

    res = integrate_fourier_complex(envelope, omega, spec)
    if not res.converged:
        raise QuadratureError(
            f"tau transform failed at kappa={kappa_val}, omega={omega}, z0={z0}"
        )
    return res.value


def verify_offdiagonal_bound(
    packet: GaussianPacket,
    kernel: CoherenceKernel,
    s: float,
    t: float = 0.0,
    n_samples: int = 100,
    seed: int = 0,
    hbar: float = 1.0,
) -> bool:
    """Sample |rho(r, r')| at fixed separation s against the bound
    max|psi|^2 * D(s)."""
    rng = np.random.default_rng(seed)
    peak = (2.0 * math.pi * width(packet, t, hbar) ** 2) ** -1.5
    bound = peak * float(kernel(s))
    for _ in range(n_samples):
        mid = np.asarray(packet.R0) + rng.normal(scale=3.0 * packet.delta, size=3)
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        r = mid + 0.5 * s * direction
        r_prime = mid - 0.5 * s * direction
        rho = reduced_density(packet, kernel, r, r_prime, t, hbar)
        if abs(rho) > bound * (1.0 + 1e-12):
            return False
    return True
