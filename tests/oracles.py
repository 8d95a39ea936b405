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
* a brute-force 3D tensor-product Gauss-Legendre integrator, and the
  one-axis factor of the Gaussian packet it is checked against;
* the momentum density through the generic route (numeric diagonal
  average of the packet, times the kernel, then a radial sine transform);
* the normalization 4 pi int q^2 n(q) dq of the momentum density;
* the spectral weight F(omega) for z0 > 0 by panelled quadrature;
* the reduced cross-section integral by adaptive quadrature on the
  sinh-stretched peak, the flanks and the tail, and the library's
  tanh-sinh node sums evaluated piece by piece;
* a sampled check of the off-diagonal bound of the reduced density matrix;
* the damped moments of a real b run in complex arithmetic by the rule of
  a complex b, with J_0 from erfcx, which the library's float arithmetic
  must reproduce bit for bit;
* the list-based moment recurrences (J_n first, rescaled to I_n
  afterwards) and the scalar, array and momentum-density routes built on
  them, which the library's one-pass recurrences must reproduce bit for
  bit.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.integrate import IntegrationWarning, quad

from atomdecoh.density import reduced_density
from atomdecoh.momentum import momentum_density
from atomdecoh import momentum, quadrature
from atomdecoh.quadrature import QuadratureError
from atomdecoh.density import Z_EFF_HELIUM
from atomdecoh.scattering import _TAIL_T_MIN, MASS_RATIO, _damped_weight, tau_transform
from atomdecoh.wavepacket import GaussianPacket, width

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


def evaluate_1d(
    delta: float,
    x0: float,
    p0: float,
    mass: float,
    x: np.ndarray | float,
    t: float,
) -> np.ndarray | complex:
    """One Cartesian factor of the Gaussian packet (1D normalization), hbar = 1."""
    x = np.asarray(x, dtype=float)
    spread = 1.0 + 1j * t / (2.0 * mass * delta**2)
    arg = x - x0 - p0 * t / mass
    amp = (2.0 * math.pi * delta**2) ** (-0.25) / np.sqrt(spread)
    phase = (
        -1j * p0**2 * t / (2.0 * mass)
        - arg**2 / (4.0 * delta**2 * spread)
        + 1j * p0 * (x - x0)
    )
    return amp * np.exp(phase)


def momentum_density_generic(
    packet: GaussianPacket,
    kernel: Callable[[float], float] | None,
    p,
    t: float = 0.0,
    spec: QuadratureSpec | None = None,
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
    q = float(np.linalg.norm(q_vec))
    delta = packet.delta

    # pick the axis carrying P0 (any axis works for P0 = 0)
    p0_arr = np.asarray(packet.P0)
    axis = int(np.argmax(np.abs(p0_arr))) if np.any(p0_arr) else 2
    x0 = packet.R0[axis]
    p0 = packet.P0[axis]

    half_span = 12.0 * max(delta, abs(t) / (2.0 * delta))
    center = x0 + p0 * t

    def diag_average(u: float) -> float:
        """int dx psi(x + u/2) psi*(x - u/2), phase exp(i p0 u) removed."""
        def integrand(x: float, part) -> float:
            val = (
                evaluate_1d(delta, x0, p0, 1.0, x + 0.5 * u, t)
                * np.conj(evaluate_1d(delta, x0, p0, 1.0, x - 0.5 * u, t))
                * np.exp(-1j * p0 * u)
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


def normalization_integral(z0: float) -> float:
    """4 pi int q^2 n(q) dq of the closed-form momentum density; equals 1
    by Tr rho = 1."""
    q_max = max(60.0, 5.0 * z0)
    val, _ = quad(
        lambda q: q * q * momentum_density(q, z0),
        0.0,
        q_max,
        epsabs=1e-12,
        epsrel=1e-9,
        limit=400,
        points=[min(z0, q_max / 2.0), 1.0],
    )
    return 4.0 * math.pi * val


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


#: relative tolerance of each adaptive piece of the reduced integral
_EPSREL = 1e-11


def reduced_integral_quad(theta: float, q: float, mass_ratio: float, z_eff: float,
                          z0: float = 0.0) -> tuple[float, float]:
    """I(theta) = int_0^inf du u^2 What F(what(u), kappahat(u)) in units of
    the common frequency W = hbar k^2 / m_n, with its error estimate, by
    adaptive quadrature: scattering._reduced_integrals' integral on the
    same pieces, each integrated by ``quad`` to 1e-11 relative.

    The quasi-elastic peak at u* (where what = 0) has width
    kappahat(u*) / |what'(u*)| which collapses at forward angles, so the
    central region is integrated in a sinh-stretched variable and all
    cancellation-prone combinations are built from 1 - cos(theta) directly.
    """
    r = mass_ratio
    omc = 2.0 * math.sin(0.5 * theta) ** 2           # 1 - cos(theta), stable
    c = 1.0 - omc
    s15 = math.sqrt(c * c + r * r - 1.0)
    # e = 1 - u*  with  u* = (c + s15)/(r + 1), computed without cancellation
    e = (omc * (1.0 + c) / (s15 + r) + omc) / (r + 1.0)
    u_star = 1.0 - e
    w_slope = u_star + (u_star - c) / r              # |dwhat/du| at u*
    gamma = 0.5 * (1.0 + 1.0 / r)

    def ksq(d: float) -> float:
        # (1 - u)^2 + 2 u (1 - c)  at  u = u* + d; equals 1 + u^2 - 2 u c
        return (e - d) ** 2 + 2.0 * (u_star + d) * omc

    def kappa_hat(d: float) -> float:
        return z_eff / (r * q) * math.sqrt(max(ksq(d), 1e-300))

    def w_hat(d: float) -> float:
        return -w_slope * d - gamma * d * d

    def f_d(d: float) -> float:
        return (u_star + d) ** 2 * tau_transform(kappa_hat(d), w_hat(d), z0)

    h_peak = max(kappa_hat(0.0), 1e-300) / w_slope
    reach = min(0.5, 0.9 * u_star)
    v_max = math.asinh(reach / h_peak)

    def stretched(v: float) -> float:
        return h_peak * math.cosh(v) * f_d(h_peak * math.sinh(v))

    total = 0.0
    err = 0.0
    v_mid = min(5.0, v_max)
    v_points = sorted({-v_max, -v_mid, 0.0, v_mid, v_max})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        for a, b in zip(v_points[:-1], v_points[1:]):
            val, ee = quad(stretched, a, b, epsabs=1e-13, epsrel=_EPSREL, limit=400)
            total += val
            err += ee
        for a, b in ((-u_star, -reach), (reach, 2.0)):
            if b <= a + 1e-14:
                continue
            val, ee = quad(f_d, a, b, epsabs=1e-13, epsrel=_EPSREL, limit=400)
            total += val
            err += ee
        val, ee = quad(f_d, 2.0, np.inf, epsabs=1e-13, epsrel=_EPSREL, limit=400)
        total += val
        err += ee
    if not (math.isfinite(total) and err <= max(1e-10, 1e-7 * abs(total))):
        raise QuadratureError(
            f"cross-section integral failed at theta={theta}: "
            f"peak u*={u_star:.6f}, width={h_peak:.3e}, error={err:.3e}"
        )
    return total, err


def node_sums_by_piece(theta: np.ndarray, q: float, z0: float):
    """scattering._node_sums as a loop over its nine pieces: each piece's
    nodes for its angles in one array, summed pairwise per angle, and the
    piece sums added per angle one piece after the other. The spectral
    weight is 6 kappa_scale F from m = (kappahat / kappa_scale)^2 and
    half = -what / (2 kappa_scale), and the sums are divided by
    6 kappa_scale at the end. At z0 = 0 the weight is its own copy of the
    library's arithmetic, t^3 (1 + 4t + 16t^2) / sqrt(m) at
    t = m / (m + half^2); for z0 > 0 it is scattering._damped_weight."""
    r = MASS_RATIO
    omc = 2.0 * np.sin(0.5 * theta) ** 2
    c = 1.0 - omc
    s15 = np.sqrt(c * c + r * r - 1.0)
    e = (omc * (1.0 + c) / (s15 + r) + omc) / (r + 1.0)
    u_star = 1.0 - e
    w_slope = u_star + (u_star - c) / r
    gamma = 0.5 * (1.0 + 1.0 / r)
    kappa_scale = Z_EFF_HELIUM / (r * q)
    kappa_peak = kappa_scale * np.sqrt(np.maximum(e * e + 2.0 * u_star * omc, 1e-300))
    h_peak = np.maximum(kappa_peak, 1e-300) / w_slope
    reach = np.minimum(0.5, 0.9 * u_star)
    v_max = np.arcsinh(reach / h_peak)
    v_mid = np.minimum(5.0, v_max)
    zero = np.zeros_like(theta)
    third = v_mid / 3.0
    v_branch = np.arcsinh((c - u_star + 1j * np.sin(theta)) / h_peak)
    near = (np.abs(v_branch.imag) < 0.5 * third) & (np.abs(v_branch.real) < third)
    cut = np.where(near, v_branch.real, third)
    maps = {"stretched": lambda i, v: (h_peak[i] * np.sinh(v), h_peak[i] * np.cosh(v)),
            "straight": lambda i, x: (x, np.ones_like(x)),
            "inverted": lambda i, t: (2.0 / t, 2.0 / (t * t))}
    pieces = [(lo, hi, "stretched")
              for lo, hi in ((-v_max, -v_mid), (-v_mid, -third), (-third, cut),
                             (cut, third), (third, v_mid), (v_mid, v_max))]
    pieces += [(-u_star, -reach, "straight"), (reach, zero + 2.0, "straight"),
               (zero, zero + 1.0, "inverted")]

    def sums(idx, nodes, weights):
        total = np.zeros(theta.size)
        for lo, hi, kind in pieces:
            kept = idx[hi[idx] > lo[idx]]
            x_unit, w_unit = (nodes, weights) if kind != "inverted" else (
                nodes[nodes >= _TAIL_T_MIN], weights[nodes >= _TAIL_T_MIN])
            length = (hi - lo)[kept, None]
            d, dd_dx = maps[kind](kept[:, None], lo[kept, None] + length * x_unit)
            angle = kept[:, None]
            m = np.maximum((e[angle] - d) ** 2 + (u_star[angle] + d) * (2.0 * omc[angle]),
                           1e-300)
            half = d * (w_slope[angle] / (2.0 * kappa_scale) + gamma / (2.0 * kappa_scale) * d)
            with np.errstate(over="ignore"):
                if z0 == 0.0:
                    t = m / (m + half * half)
                    tau = t * t * t * (1.0 + t * (4.0 + 16.0 * t)) / np.sqrt(m)
                else:
                    tau = _damped_weight(m, half, z0 * z0 / 8.0)
            f = length * dd_dx * w_unit * (u_star[angle] + d) ** 2 * tau
            total[kept] += f.sum(axis=1)
        return total[idx] / 6.0 / kappa_scale

    return sums


def verify_offdiagonal_bound(
    packet: GaussianPacket,
    kernel: Callable[[float], float],
    s: float,
    t: float = 0.0,
    n_samples: int = 100,
    seed: int = 0,
) -> bool:
    """Sample |rho(r, r')| at fixed separation s against the bound
    max|psi|^2 * D(s)."""
    rng = np.random.default_rng(seed)
    peak = (2.0 * math.pi * width(packet, t) ** 2) ** -1.5
    bound = peak * float(kernel(s))
    for _ in range(n_samples):
        mid = np.asarray(packet.R0) + rng.normal(scale=3.0 * packet.delta, size=3)
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        r = mid + 0.5 * s * direction
        r_prime = mid - 0.5 * s * direction
        rho = reduced_density(packet, kernel, r, r_prime, t)
        if abs(rho) > bound * (1.0 + 1e-12):
            return False
    return True


def unscale(js, root) -> list:
    """I_n = J_n / root^(n+1) for n = 0..len(js)-1; elementwise for arrays."""
    scale = 1.0 / root
    moments = []
    for j in js:
        moments.append(j * scale)
        scale = scale / root
    return moments


def upward_list(mu, j0, n_max: int) -> list:
    """J_0..J_n_max by mu J_n + 2 J_{n+1} = n J_{n-1} + [n = 0]."""
    js = [j0]
    if n_max >= 1:
        js.append(0.5 * (1.0 - mu * j0))
    for n in range(1, n_max):
        js.append(0.5 * (n * js[n - 1] - mu * js[n]))
    return js


def backward_list(mu, n_max: int, start: int, g) -> list:
    """J_0..J_n_max by Miller's backward recurrence for the ratios
    g_n = 2 J_{n+1} / J_n from g_start = g, normalised by
    J_0 = 1 / (mu + g_0)."""
    for n in range(2 * start, 2 * n_max, -2):
        g = n / (mu + g)
    gs = []
    for n in range(2 * n_max, 0, -2):
        g = n / (mu + g)
        gs.append(g)
    js = [1.0 / (mu + g)]
    for g in reversed(gs):
        js.append(js[-1] * g * 0.5)
    return js


def complex_moments_list(b: complex, a: float, n_max: int, w=quadrature._faddeeva) -> list:
    """damped_moments for a complex b with Re b > 0 and a >= 0 by the
    list-based recurrences: the a -> 0 limit, the upward recurrence from
    J_0 = (sqrt(pi)/2) w(i mu/2), w the Faddeeva function, and Miller's
    recurrence from the two-term seed at the closed-form start or the long
    seed at the Newton-searched one, or past the cap whichever
    _miller_start picks."""
    if a > 0.0:
        root = math.sqrt(a)
        mu = b / root
        mu_abs = abs(mu)
        mu_sq = mu_abs * mu_abs
        if mu_sq < 2.0**54 * ((n_max + 1) * (n_max + 2)):
            if mu_sq <= 6.0:
                start = None
            elif mu_sq >= 170.0 + 14.0 * n_max:
                start = quadrature._closed_start(mu_sq, n_max)
                g = quadrature._seed(mu, start)
            else:
                start = quadrature._miller_start(mu, n_max)
                g = quadrature._seed_long(mu, start) if start is not None else None
            if start is not None:
                return unscale(backward_list(mu, n_max, start, g), root)
            j0 = quadrature._HALF_SQRT_PI * w(0.5j * mu)
            return unscale(upward_list(mu, j0, n_max), root)
    return quadrature._exact(b, n_max)


def _erfcx_w(z: complex) -> complex:
    """w(z) = erfcx(Im z) for z on the positive imaginary axis."""
    return complex(quadrature._erfcx(z.imag))


def real_moments_in_complex(b: float, a: float, n_max: int) -> list:
    """damped_moments(b, a, n_max) for a real b > 0, run on Python complex
    numbers with imaginary part 0: complex_moments_list at complex(b) with
    what a real b keeps apart, J_0 from erfcx; the a -> 0 limit is _power's
    binary powering of complex(1/b)."""
    return complex_moments_list(complex(b), a, n_max, _erfcx_w)


def array_moments_list(b: np.ndarray, a: float, n_max: int) -> np.ndarray:
    """quadrature._damped_moments_array for a 1-D array b with Re b > 0 by
    the list-based recurrences, each element in the branch and from the
    start and seed the array kernel gives it."""
    b = np.asarray(b, dtype=complex)
    if a == 0.0:
        return np.array(quadrature._exact(b, n_max))
    root = math.sqrt(a)
    out = np.empty((n_max + 1, b.size), dtype=complex)
    mu = b.copy()
    mu.real /= root
    mu.imag /= root
    with np.errstate(over="ignore"):
        mu_sq = np.abs(mu) ** 2
    exact = mu_sq >= 2.0**54 * ((n_max + 1) * (n_max + 2))
    if exact.any():
        out[:, exact] = quadrature._exact(b[exact], n_max)
    far = (mu_sq >= 170.0 + 14.0 * n_max) & ~exact
    starts = np.zeros(b.shape, dtype=int)
    starts[far] = quadrature._closed_start(mu_sq[far], n_max)
    miller = (mu_sq > 6.0) & (mu_sq < 170.0 + 14.0 * n_max)
    starts[miller] = quadrature._miller_starts(mu[miller], n_max)
    up = (starts == 0) & ~exact
    if up.any():
        j0 = quadrature._HALF_SQRT_PI * quadrature._faddeeva(0.5j * mu[up])
        out[:, up] = unscale(upward_list(mu[up], j0, n_max), root)
    back = np.flatnonzero(starts)
    if back.size:
        mu_back, starts_back = mu[back], starts[back]
        seeds = np.where(far[back], quadrature._seed(mu_back, starts_back),
                         quadrature._seed_long(mu_back, starts_back))
        # each element runs from its own start down to n_max, the elements
        # sorted by start so that those still running are a prefix
        order = np.argsort(-starts_back, kind="stable")
        running = np.searchsorted(-starts_back[order], -np.arange(starts_back.max() + 1),
                                  side="right")
        mu_sorted = mu_back[order]
        g = seeds[order]
        for n in range(int(starts_back.max()), n_max, -1):
            k = running[n]
            g[:k] = 2.0 * n / (mu_sorted[:k] + g[:k])
        g[order] = g.copy()
        out[:, back] = unscale(backward_list(mu_back, n_max, n_max, g), root)
    return out


def momentum_density_list(q: float, z0: float) -> float:
    """momentum_density(q, z0) for a valid q and z0 from the list-based
    moments: n(0) = (I_2 + I_3 + I_4/3)(1, z0^2/8) / (2 pi^2) below
    momentum._Q_ZERO, Im(I_1 + I_2 + I_3/3)(1 - iq, z0^2/8) / (2 pi^2 q)
    above."""
    a = z0 * z0 / 8.0
    if q < momentum._Q_ZERO:
        moments = [m.real for m in real_moments_in_complex(1.0, a, 4)]
        return (moments[2] + moments[3] + moments[4] / 3.0) / (2.0 * math.pi**2)
    moments = complex_moments_list(complex(1.0, -q), a, 3)
    return (moments[1] + moments[2] + moments[3] / 3.0).imag / (2.0 * math.pi**2 * q)
