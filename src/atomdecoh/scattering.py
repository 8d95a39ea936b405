"""Neutron-helium differential scattering cross-section.

The contact-potential cross-section reduces to a single integral over the
scattered wavenumber of a spectral function F(omega): the Fourier
transform in tau of exp(-2 kappa |tau|) (1 + kappa|tau| + kappa^2 tau^2/3)^2
times an optional Gaussian damping from a finite packet width. For a
packet much wider than a_B (z0 = 0) F is a real rational function of
omega / kappa, and for z0 > 0 a closed form built from the
Gaussian-damped moments of the exponential; the quasi-elastic peak is
resolved by a sinh-stretched substitution so the integral stays accurate
down to forward angles where the peak width collapses. The integral runs
on a nested ladder of tanh-sinh rules (Takahasi & Mori, Publ. RIMS 9, 721
(1974)), from level 4 to level 7, evaluated as one array over
angles x nodes: each rung adds only the nodes the rule below it lacks, for
the angles not yet trusted.

The target is He-4: the mass ratio MASS_RATIO = 4, the effective charge
Z* = 27/16 of its electrons and the scattering length SCATT_LENGTH are
constants. The large-q limit gives the lab-frame angular factor
f(theta) = (cos t + sqrt(15 + cos^2 t))^2 / sqrt(15 + cos^2 t)
(isotropic scattering in the center-of-mass frame for a mass-4 target)
plus a positive anomalous term h(theta)/q^2 inversely proportional to the
bombarding energy.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields
from functools import lru_cache

from ._numpy import np
from .constants import (
    CODATA,
    electron_velocity_scale,
    neutron_wavenumber,
    proton_velocity_scale,
)
from .density import KERNEL_SQ_POLY, Z_EFF_HELIUM
from .quadrature import QuadratureError, _damped_moments_array, damped_moments

#: forward-elastic epsilon offset for angular grids (rad)
FORWARD_EPSILON = 1e-6

#: rungs of the nested tanh-sinh ladder of the reduced integral, node
#: spacing 2^-level in t; the rule one level below the first is its start.
#: Level 4 trusts every angle of the README scan at 1 eV; level 7 is reached
#: by slow neutrons off a narrow packet (1e-5 eV at z0 = 12)
_LEVELS = (4, 5, 6, 7)
#: the nodes span |t| <= _T_MAX, where the weights are 1e-15 of the central one
_T_MAX = 3.2
#: tail nodes at t = 2/d below this are dropped; the integrand vanishes like
#: t there, and they would add less than 1e-15 of I on the reference grid
_TAIL_T_MIN = 1e-6
#: relative accuracy stated for the reduced integral; an angle whose error
#: estimate exceeds it fails with QuadratureError
_ACCURACY = 1e-10
#: angles evaluated together, which bounds the size of the node arrays
_ANGLE_BLOCK = 64
#: nodes over which _node_sums evaluates the integrand at z0 = 0 at once:
#: its temporaries then stay small enough that glibc does not hand the heap
#: top back to the kernel after each scan, to fault it in again on the next
#: (the README scan took 175 minor faults per call at 8192 and 105 at 2560)
_CHUNK_ELEMENTS = 2048
#: the smallest normal double; a spectral weight t^3 below it has lost bits
_SMALLEST_NORMAL = 2.0**-1022
#: Gauss-Legendre nodes in cos(theta) of the total cross-section
_TOTAL_NODES = 48

#: standard threshold neutron speed for observable decoherence (m/s)
OBSERVABILITY_SPEED = 4.0e3

#: alpha mass over neutron mass of the He-4 target; f(theta) and h(theta)
#: are the closed forms for this value
MASS_RATIO = 4.0

#: bound coherent scattering length of He-4 (m), Sears, Neutron News 3, 26 (1992)
SCATT_LENGTH = 3.26e-15

#: m_n^2 g^2 / hbar^4 = (2 pi a)^2 (1 + m_n/m_alpha)^2 (m^2)
_COUPLING = (2.0 * math.pi * SCATT_LENGTH) ** 2 * (1.0 + 1.0 / MASS_RATIO) ** 2
#: m_n^2 g^2 / (8 pi^3 hbar^4): the cross-section per unit reduced integral
_PER_INTEGRAL = _COUPLING / (8.0 * math.pi**3)
#: packet velocity uncertainty per unit z0, hbar / (2 m_alpha a_B) (m/s)
_SPEED_PER_Z0 = CODATA.hbar / (2.0 * MASS_RATIO * CODATA.m_n * CODATA.a_B)


@dataclass(frozen=True)
class ScatteringConfig:
    """Neutron beam and target packet parameters."""

    E_n_ev: float = 1.0
    z0: float = 0.0
    scatt_length = SCATT_LENGTH  # a constant, not a field

    def __post_init__(self) -> None:
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)!r}")
        if self.E_n_ev <= 0.0:
            raise ValueError("E_n_ev must be positive")
        if self.z0 < 0.0:
            raise ValueError("z0 must be nonnegative")

    @property
    def q(self) -> float:
        """Dimensionless incident wavenumber k * a_B; 0.0 from about
        1e-279 eV down, where 2 m_n E underflows."""
        energy = self.E_n_ev * CODATA.eV
        return neutron_wavenumber(energy) * CODATA.a_B if energy > 0.0 else 0.0


@dataclass
class AngularTable:
    """Differential cross-section scan over lab-frame angles."""

    theta_grid: np.ndarray
    dsigma_numeric: np.ndarray
    dsigma_asymptotic: np.ndarray
    q: float

    def __post_init__(self) -> None:
        th = np.asarray(self.theta_grid)
        # a NaN angle fails every comparison
        if th.ndim != 1 or not (th.size and np.all(np.diff(th) > 0.0)
                                and th[0] >= 0.0 and th[-1] <= math.pi):
            raise ValueError("theta_grid must be a nonempty 1-D grid, strictly increasing "
                             "within [0, pi]")
        for arr in (self.dsigma_numeric, self.dsigma_asymptotic):
            vals = np.asarray(arr, dtype=float)
            if vals.shape != th.shape:
                raise ValueError(f"cross-section columns must hold one value per angle, "
                                 f"got shape {vals.shape} for {th.size} angles")
            # NaN, which marks the method not asked for, passes
            if np.any(vals < 0.0):
                raise ValueError("cross-section values must be nonnegative")


def tau_transform(kappa_val: float, omega: float, z0: float) -> float:
    """Spectral weight F(omega) = int dtau exp(-2 kappa |tau|)
    (1 + kappa|tau| + kappa^2 tau^2 / 3)^2 exp(-i omega tau - z0^2 kappa^2 tau^2 / 8),
    a real number, in closed form for every z0, on Python floats: it
    loads no numpy.

    kappa F is a function of u = omega / (2 kappa) alone: to 1e-14 relative
    at |u| <= 1 for kappa in [1e-300, 1e300] (tests/test_properties.py). At
    z0 = 0 F is (u^4 + 6u^2 + 21) / (6 kappa (1 + u^2)^5), summed as
    t^3 (1 + 4t + 16t^2) / (6 kappa) in t = 1/(1 + u^2), in (0, 1], whose
    terms are all positive; t is formed from |omega|/2 and kappa scaled by
    the larger of the two, so nothing overflows and the value is finite
    wherever it is representable. Where t^3 falls below the smallest normal
    double, t is divided by kappa before it is cubed, so a tiny kappa keeps
    F (1.07e-59 at kappa = 1e-300, omega = 1e-240) from underflowing early.
    That form is within 1.5e-15 relative of a 400-digit reference for kappa
    in [1e-12, 1e3] and |omega| up to 1e8, finite and nonnegative at any
    |omega| / kappa.

    For z0 > 0 kappa F is 2 Re sum_n c_n I_n(2 + i omega / kappa, z0^2 / 8)
    in damped moments (damped_moments), with omega / kappa capped at 1e300,
    past which F is below the smallest double; at omega = 0 b = 2 is real
    and the moments run in float arithmetic. z0^2 / 8 past the largest
    double raises OverflowError. That moment sum cancels like u^5 far out:
    against a 300-digit sum at z0 in {0.5, 2, 12} (tests/test_moments.py)
    its relative error is at most 7.1e-12 up to |u| = 10, 4.3e-9 to 1e-7 at
    100 and 4.5e-5 to 1.3e-3 at 1000, and 5.6 to 7.3 at 1e4, where the sign
    is lost; the tests gate 1e-10 up to |u| = 10 and 1e-6 up to 100.

    At kappa = 0 the integral is distributional (2 pi delta(omega)) for
    every z0 and is rejected, as is non-finite input. Where F exceeds the
    largest double, which only kappa below about 2e-308 reaches
    (F(0) = 3.5 / kappa at z0 = 0), it raises OverflowError.
    """
    if not all(math.isfinite(x) for x in (kappa_val, omega, z0)):
        raise ValueError(
            f"kappa_val, omega and z0 must be finite, got {kappa_val!r}, {omega!r}, {z0!r}"
        )
    if kappa_val < 0.0 or z0 < 0.0:
        raise ValueError("kappa_val and z0 must be nonnegative")
    if kappa_val == 0.0:
        raise ValueError("tau_transform singular at kappa = 0")
    if z0 == 0.0:
        half = 0.5 * abs(omega)
        scale = max(half, kappa_val)
        x, y = half / scale, kappa_val / scale
        t = y * y / (x * x + y * y)
        poly = 1.0 + t * (4.0 + 16.0 * t)
        cube = t * t * t
        if cube < _SMALLEST_NORMAL:
            # t^3 underflows before the division by kappa: divide first, and
            # t / kappa, below 2^-340 / 2^-1074, cannot overflow
            value = t / kappa_val * t * t * poly / 6.0
        else:
            value = cube * poly / 6.0 / kappa_val
    else:
        ratio = omega / max(kappa_val, 1e-300 * abs(omega))
        moments = damped_moments(complex(2.0, ratio), _damping(z0), len(KERNEL_SQ_POLY) - 1)
        value = 2.0 * _kernel_sum(moments) / kappa_val
    if not math.isfinite(value):
        raise OverflowError(f"spectral weight overflows at kappa_val={kappa_val!r}")
    return value


def _damping(z0: float) -> float:
    """a = z0^2 / 8 of the damped moments of the spectral weight; an
    OverflowError where it is past the largest double."""
    a = z0 * z0 / 8.0
    if a == math.inf:
        raise OverflowError(f"spectral weight: z0^2 / 8 overflows at z0 = {z0!r}")
    return a


def _kernel_sum(moments):
    """Re sum_n c_n I_n over the coefficients c_n of the squared kernel
    polynomial, for scalar moments or arrays of them."""
    total = 0.0
    for c_n, moment in zip(KERNEL_SQ_POLY, moments):
        total += c_n * moment.real
    return total


def f_theta(theta):
    """Leading-order lab-frame angular factor for a mass-4 target,
    elementwise for an array theta; a float for a scalar one."""
    c = np.cos(_check_theta(theta))
    root = np.sqrt(15.0 + c * c)
    f = (c + root) ** 2 / root
    return f if f.ndim else float(f)


def h_theta(theta):
    """Angular factor of the anomalous (decoherence) contribution,
    elementwise for an array theta; a float for a scalar one."""
    c = np.cos(_check_theta(theta))
    s15 = 15.0 + c * c
    h = (6075.0 / 64.0) * (3.0 + 5.0 * c * c) / (s15**2 * (c + np.sqrt(s15)) ** 2)
    return h if h.ndim else float(h)


def _check_theta(theta) -> np.ndarray:
    """theta as an array, none of whose elements is NaN or outside [0, pi]."""
    theta = np.asarray(theta, dtype=float)
    if not ((theta >= 0.0) & (theta <= math.pi)).all():
        raise ValueError("theta must lie in [0, pi]")
    return theta


def _wavenumber(config: ScatteringConfig) -> float:
    """q of the config; an ArithmeticError where q^2 is 0 or inf, as no
    cross-section is finite."""
    q = config.q
    # a product, where q**2 raises a bare OverflowError
    q_sq = q * q
    if q_sq == 0.0 or q_sq == math.inf:
        raise ArithmeticError(f"incident wavenumber q = {q!r}, q^2 = {q_sq:g} at E_n_ev = "
                              f"{config.E_n_ev!r}")
    return q


def diff_cross_section_asymptotic(config: ScatteringConfig, theta):
    """Large-q cross-section (m^2/sr):
    (m_n^2 g^2 / (25 pi^2 hbar^4)) f(theta) (1 + h(theta) (1 + 3 z0^2 / 8) / q^2),
    elementwise for an array theta. Below q = 5 it warns, once per call.

    The 1/q^2 term is proportional to the second moment <u^2> of the
    spectral weight kappa F in u = omega / (2 kappa) (a Placzek-type moment
    expansion, Phys. Rev. 86, 377 (1952)). At z0 = 0, <u^2>_0 = 1/6:
    int kappa F_0 du = pi and int u^2 kappa F_0 du = pi / 6. This is
    h(theta)/q^2, the electron-cloud (decoherence) term. The packet damping
    exp(-z0^2 kappa^2 tau^2 / 8) is a Gaussian of variance z0^2 / 16 in the
    variable 2 kappa tau conjugate to u, so it convolves kappa F in u with a
    normal of variance sigma_u^2 = z0^2 / 16. Variances add under a
    convolution: <u^2> = 1/6 + z0^2/16 = (1 + 3 z0^2 / 8) / 6. So the packet's
    own momentum spread (Doppler broadening) adds (3 z0^2 / 8) h(theta)/q^2
    to the electron-cloud term. With R = q^2 (sigma / sigma_lead - 1),
    sigma the numeric cross-section and sigma_lead this form without its
    1/q^2 term, q^2 |R - h (1 + 3 z0^2 / 8)| is at most 0.85 over 37 scan
    angles, z0 in {0, 0.5, 1, 2} and E in {16, 100, 1000} eV
    (tests/test_scattering.py)."""
    f, h, q = f_theta(theta), h_theta(theta), _wavenumber(config)
    if q < 5.0:
        warnings.warn(f"asymptotic formula dubious at q = {q:.2f} < 5", stacklevel=2)
    doppler = 1.0 + 3.0 * config.z0 * config.z0 / 8.0
    return _COUPLING / (25.0 * math.pi**2) * f * (1.0 + h * doppler / q**2)


@lru_cache(maxsize=None)
def _tanh_sinh(level: int, odd: bool) -> tuple[np.ndarray, np.ndarray]:
    """Nodes s in (0, 1) of the tanh-sinh rule on [0, 1] at spacing
    h = 2^-level, s = (1 + tanh((pi/2) sinh t)) / 2 at t = k h, |t| <= _T_MAX,
    and their weights; only the nodes at odd k when odd is set. Those are
    the nodes the rule at spacing 2h lacks: its nodes are the even ones,
    with twice the weight, so I_level = I_(level-1) / 2 + sum_odd w f."""
    h = 2.0**-level
    k = np.arange(-int(_T_MAX / h), int(_T_MAX / h) + 1)
    if odd:
        k = k[k % 2 == 1]
    t = k * h
    u = 0.5 * math.pi * np.sinh(t)
    s = 1.0 / (1.0 + np.exp(-2.0 * u))
    return s, 0.25 * math.pi * h * np.cosh(t) / np.cosh(u) ** 2


@lru_cache(maxsize=None)
def _ladder_start(level: int) -> tuple[np.ndarray, np.ndarray, int]:
    """The nodes of a ladder's start (all nodes of level - 1) followed by
    those of its first rung (the odd nodes of level), their weights, and
    the number of the start's nodes, where _node_sums splits each row's
    sum."""
    (start, start_weights), (rung, rung_weights) = (_tanh_sinh(level - 1, False),
                                                   _tanh_sinh(level, True))
    return (np.concatenate((start, rung)), np.concatenate((start_weights, rung_weights)),
            start.size)


def _reduced_integrals(theta, q: float, z0: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """I(theta) = int_0^inf du u^2 What F(what(u), kappahat(u)) in units of
    the common frequency W = hbar k^2 / m_n at every angle of the array
    theta, and its error estimate; the cross-section is
    (m_n^2 g^2 / (8 pi^3 hbar^4)) * I.

    The integral runs on the pieces of _node_sums, all of them together as
    one array over angles x nodes, in blocks of _ANGLE_BLOCK angles, on a
    nested ladder of tanh-sinh rules. The rule at level _LEVELS[0] - 1 is
    its untested start; each rung L of _LEVELS adds the odd nodes of level
    L, I_L = I_(L-1) / 2 + sum_odd w f, for the angles not yet trusted, so
    no node is evaluated twice. The start and the first rung, which take
    every angle, are one pass over their nodes (_ladder_start), each row's
    sum split between the two. The error estimate at rung L is
    |I_L - I_(L-1)|. An angle is trusted at the first rung where its value
    is finite and its estimate is within _ACCURACY relative. This is the
    one place that decides trust: an angle still not trusted after the
    last rung raises QuadratureError, for the first such angle, with its
    relative estimate |I_L - I_(L-1)| / |I_L| in the message.
    """
    theta = np.asarray(theta, dtype=float).ravel()
    values = np.empty(theta.shape)
    errors = np.empty(theta.shape)
    for lo in range(0, theta.size, _ANGLE_BLOCK):
        block = slice(lo, lo + _ANGLE_BLOCK)
        node_sums = _node_sums(theta[block], q, z0)
        todo = np.arange(theta[block].size)
        value, error = np.empty(todo.size), np.empty(todo.size)
        for level in _LEVELS:
            if level == _LEVELS[0]:
                coarse, fine = node_sums(todo, *_ladder_start(level))
            else:
                coarse, fine = value[todo], node_sums(todo, *_tanh_sinh(level, True))
            value[todo] = 0.5 * coarse + fine
            error[todo] = np.abs(value[todo] - coarse)
            trusted = np.isfinite(value[todo]) & (error[todo] <= _ACCURACY * np.abs(value[todo]))
            todo = todo[~trusted]
            if not todo.size:
                break
        values[block], errors[block] = value, error
        if todo.size:
            i = lo + todo[0]
            raise QuadratureError(
                f"cross-section integral failed at theta={float(theta[i])}: value "
                f"{values[i]:.6e}, relative error estimate {errors[i] / abs(values[i]):.3e} "
                f"above {_ACCURACY:g}"
            )
    return values, errors


def _node_sums(theta: np.ndarray, q: float, z0: float):
    """The pieces of the reduced integral at the angles theta, as a function
    sums(idx, nodes, weights) giving, for the angles theta[idx], the sum of
    weight x integrand over the nodes of [0, 1] mapped onto every piece.
    sums(idx, nodes, weights, split) gives two such sums from one pass, over
    nodes[:split] and over nodes[split:], each the same to the bit as the
    three-argument call on those nodes alone.

    The quasi-elastic peak at u* (where what = 0) has width
    h = kappahat(u*) / |what'(u*)|, which collapses at forward angles, so
    around it the integral runs in the sinh-stretched variable v,
    u = u* + h sinh(v), on |v| <= v_max = asinh(min(0.5, 0.9 u*) / h). That
    range is split at v = -+v_mid, v_mid = min(5, v_max), and again at
    -+v_mid/3, so that no piece is much longer than the peak's own scale
    in v; for slow neutrons at forward angles the central piece is also
    split below the branch point of kappahat when that comes near the axis.
    The two flanks in d = u - u* follow, and the tail d in [2, inf) in
    t = 2/d, without the nodes at t < 1e-6. All cancellation-prone
    combinations are built from 1 - cos(theta) directly.

    A call lays the nodes out as rows: one per (piece, angle) pair whose
    piece is not empty, piece by piece, then one tail row per angle, and
    evaluates the integrand over the piece rows and then over the tail
    rows. The integrand is one loop at every z0, in units of
    kappa_scale: from m = (kappahat / kappa_scale)^2 and
    half = -what / (2 kappa_scale), with the per-angle constants folded in,
    the spectral weight is 6 kappa_scale F, _rest_weight at z0 = 0 and
    _damped_weight for z0 > 0, and the sums are divided by 6 kappa_scale at
    the end. At z0 = 0 the integrand goes in chunks of whole rows of at
    most _CHUNK_ELEMENTS nodes, so that the temporaries of the README scan
    do not outgrow glibc's trim threshold (128 KiB) and fault in again on
    every call. For z0 > 0 the rows go in one chunk: the array damped
    moments cost much per call, and chunks of 2048 nodes made 181-angle
    scans at z0 = 0.5 and 12 slower by a fifth or more. Each row is summed
    pairwise, on each side of the split when there is one, and np.bincount
    adds the row sums of an angle in piece order from 0.0, so every value
    is the same to the bit as summing each piece on its own and the pieces
    one after the other (tests/oracles.py::node_sums_by_piece).
    """
    r = MASS_RATIO
    omc = 2.0 * np.sin(0.5 * theta) ** 2            # 1 - cos(theta), stable
    c = 1.0 - omc
    s15 = np.sqrt(c * c + r * r - 1.0)
    # e = 1 - u*  with  u* = (c + s15)/(r + 1), computed without cancellation
    e = (omc * (1.0 + c) / (s15 + r) + omc) / (r + 1.0)
    u_star = 1.0 - e
    w_slope = u_star + (u_star - c) / r              # |dwhat/du| at u*
    gamma = 0.5 * (1.0 + 1.0 / r)
    kappa_scale = Z_EFF_HELIUM / (r * q)
    kappa_peak = kappa_scale * np.sqrt(np.maximum(e * e + 2.0 * u_star * omc, 1e-300))
    h_peak = np.maximum(kappa_peak, 1e-300) / w_slope
    reach = np.minimum(0.5, 0.9 * u_star)
    v_max = np.arcsinh(reach / h_peak)
    v_mid = np.minimum(5.0, v_max)

    zero = np.zeros_like(theta)
    third = v_mid / 3.0
    # kappahat has branch points where |k - k'| = 0, at d = c - u* -+ i sin(theta);
    # when one lies inside the central piece, nearer the axis than half its
    # half-length, the piece is split below it
    v_branch = np.arcsinh((c - u_star + 1j * np.sin(theta)) / h_peak)
    near = (np.abs(v_branch.imag) < 0.5 * third) & (np.abs(v_branch.real) < third)
    cut = np.where(near, v_branch.real, third)
    # per angle, the bounds of the six stretched pieces in v, then of the two
    # flanks in d; the tail, t = 2/d in (0, 1], is not empty at any angle
    lo = np.stack((-v_max, -v_mid, -third, cut, third, v_mid, -u_star, reach), axis=1)
    hi = np.stack((-v_mid, -third, cut, third, v_mid, v_max, -reach, zero + 2.0), axis=1)
    kept, length = hi > lo, hi - lo
    # what = -slope d - curve d^2, both over 2 kappa_scale, which makes
    # half = -what / (2 kappa_scale) with kappa_scale folded in
    slope, curve = w_slope / (2.0 * kappa_scale), gamma / (2.0 * kappa_scale)
    a = _damping(z0)
    # the per-angle constants of the integrand; 2 (1 - cos(theta)) doubles
    # exactly, so u omc2 is 2.0 * u * omc to the bit
    per_angle = np.stack((u_star, e, 2.0 * omc, slope))

    def row_sums(columns, d, fw, ends):
        # weight x integrand summed over each row of d and fw, or of the one
        # row they share, in one sum per stretch of nodes ending at each of
        # ends; columns are the per-angle constants of the rows, broadcast
        # over the row's nodes rather than repeated into a full array
        u_at, e_at, omc2_at, slope_at = columns
        out = np.empty((len(ends), u_at.shape[0]))
        step = max(_CHUNK_ELEMENTS // d.shape[-1] if z0 == 0.0 else out.shape[1], 1)
        # half^2, and 2u of the damped weight, overflow to inf far out in the
        # tail, where F = 0 is the limit; each operation that can reuse an
        # operand's array does so
        with np.errstate(over="ignore"):
            for first in range(0, out.shape[1], step):
                rows = slice(first, first + step)
                x = d[rows] if d.ndim == 2 else d
                u = u_at[rows] + x
                m = e_at[rows] - x
                m *= m
                m += u * omc2_at[rows]
                np.maximum(m, 1e-300, out=m)
                half = slope_at[rows] + curve * x
                half *= x
                weight = _rest_weight(m, half) if z0 == 0.0 else _damped_weight(m, half, a)
                weight *= (fw[rows] if fw.ndim == 2 else fw) * (u * u)
                begin = 0
                for part, end in zip(out, ends):
                    part[rows] = weight[:, begin:end].sum(axis=1)
                    begin = end
        return out

    def layout(idx):
        # the rows of the angles idx: the stretched pieces' rows come first
        piece, row = np.nonzero(kept[idx].T)
        angle = idx[row]
        peak = np.searchsorted(piece, 6)
        return (length[angle, piece, None], lo[angle, piece, None], peak,
                h_peak[angle[:peak], None], per_angle[:, angle, None], per_angle[:, idx, None],
                np.concatenate((row, np.arange(idx.size))))

    def sums(idx, nodes, weights, split=None):
        size, start, peak, h, piece_columns, tail_columns, bins = layout(idx)
        # in place where the arithmetic allows: d = lo + size x, and on the
        # peak rows, fw = size (h cosh v) w, then d = h sinh v
        d = size * nodes
        d += start
        fw = np.empty(d.shape)
        np.multiply(size[peak:], weights, out=fw[peak:])
        stretched, peak_v = fw[:peak], d[:peak]
        np.cosh(peak_v, out=stretched)
        stretched *= h
        np.multiply(size[:peak], stretched, out=stretched)
        stretched *= weights
        np.sinh(peak_v, out=peak_v)
        peak_v *= h
        tail = nodes >= _TAIL_T_MIN
        t = nodes[tail]
        ends, tail_ends = (nodes.size,), (t.size,)
        if split is not None:
            ends, tail_ends = (split,) + ends, (np.count_nonzero(tail[:split]),) + tail_ends
        totals = np.concatenate((row_sums(piece_columns, d, fw, ends),
                                 row_sums(tail_columns, 2.0 / t, 2.0 / (t * t) * weights[tail],
                                          tail_ends)), axis=1)
        parts = [np.bincount(bins, part, idx.size) / 6.0 / kappa_scale for part in totals]
        return parts[0] if split is None else parts

    return sums


def _rest_weight(m, half):
    """6 kappa_scale F at z0 = 0, elementwise, in the units of _node_sums:
    m = (kappahat / kappa_scale)^2 and half = what / (2 kappa_scale), of
    either sign. It is t^3 (1 + 4t + 16t^2) / sqrt(m) at t = 1/(1 + u^2) =
    m / (m + half^2), the z0 = 0 form of tau_transform without its
    rescaling, in place where the arithmetic allows; where half^2
    overflows to inf, t = 0 is the limit the value takes."""
    t = half * half
    t += m
    np.divide(m, t, out=t)
    value = 16.0 * t
    value += 4.0
    value *= t
    value += 1.0
    value *= t * t * t
    value /= np.sqrt(m)
    return value


def _damped_weight(m, half, a: float):
    """6 kappa_scale F for z0 > 0, elementwise, in the units of _rest_weight:
    12 Re sum_n c_n I_n(2 + 2iu, a) / sqrt(m) at u = half / sqrt(m) and
    a = z0^2 / 8, from the array damped moments. 2u is capped at 1e300,
    past which F is below the smallest double, as tau_transform caps it;
    2u may overflow to inf on the way, so the caller ignores overflow."""
    root = np.sqrt(m)
    ratio = np.clip(2.0 * half / root, -1e300, 1e300)
    moments = _damped_moments_array((2.0 + 1j * ratio).ravel(), a, len(KERNEL_SQ_POLY) - 1)
    return 12.0 * _kernel_sum(moments).reshape(root.shape) / root


def diff_cross_section_numeric(config: ScatteringConfig, theta: float) -> float:
    """Differential cross-section (m^2/sr) from the full reduced integral
    over the scattered wavenumber and the spectral function.

    Within 1e-10 relative of a 30-digit mpmath reference on theta in
    {1e-6, 0.01, 0.3, 1, 2, pi} x E in {0.05, 1, 16, 100} eV x
    z0 in {0, 0.1, 0.5, 2, 12} (tests/test_xsection_refs.py). The same bound
    is checked at run time: an angle whose tanh-sinh error estimate exceeds
    it raises QuadratureError.

    The cross-section diverges like ln(1/theta) as theta -> 0, at every
    energy and z0, so theta = 0 raises ValueError. At the elastic point
    u = 1 both the momentum transfer kappahat and the energy transfer what
    vanish linearly at theta = 0, so the spectral weight there grows like
    1 / |u - 1|, cut off at |u - 1| ~ theta for theta > 0. The reduced
    integral is I(theta) = A + B ln(1/theta) + o(1), with
    B = 2 kappa F(u_0) / kappa_s at u_0 = 1 / (2 kappa_s), kappa_s = Z*/(4q):
    at z0 = 0, B = t^3 (1 + 4t + 16t^2) / (3 kappa_s) with
    t = 1 / (1 + u_0^2). B ln(1e6) is about 0.86 of I at theta = 1e-6 and
    1 meV, and 3e-6 of it at 1 eV. angular_scan starts at FORWARD_EPSILON
    and never asks for theta = 0.
    """
    if _check_theta(theta) == 0.0:
        raise ValueError("the differential cross-section diverges like ln(1/theta) at "
                         "theta = 0: it has no finite value there")
    (integral,), _ = _reduced_integrals(theta, _wavenumber(config), config.z0)
    return _PER_INTEGRAL * float(integral)


def total_cross_section_numeric(config: ScatteringConfig) -> float:
    """Solid-angle integral of the numeric cross-section (m^2) by
    Gauss-Legendre quadrature in cos(theta) on _TOTAL_NODES nodes, all
    angles in one evaluation.

    The rule has no error estimate of its own. Against the same sum on 384
    nodes, itself within 6.6e-7 of 768, it is off by 5.2e-5 relative at
    1 meV (z0 = 0), 5.5e-5 at 0.05 eV (z0 = 12), 1.4e-6 at 1e-5 eV,
    8.8e-8 at 0.05 eV, 1.8e-8 at 1 eV (z0 = 12) and 4.4e-11 at 1 eV
    (tests/test_scattering.py gates 1e-4 at these points). Doubling the
    nodes cuts the error only about 4 times, which points to the
    forward-angle endpoint."""
    nodes, wts = np.polynomial.legendre.leggauss(_TOTAL_NODES)
    values, _ = _reduced_integrals(np.arccos(nodes), _wavenumber(config), config.z0)
    return 2.0 * math.pi * _PER_INTEGRAL * float(wts @ values)


def angular_scan(config: ScatteringConfig, n_points: int, method: str = "both") -> AngularTable:
    """Uniform theta grid on [0, pi] with the forward point offset by
    FORWARD_EPSILON. The method not asked for is left NaN. Like
    diff_cross_section_numeric, the numeric method raises QuadratureError
    for the first angle whose integral is not trusted."""
    if n_points < 2:
        raise ValueError("n_points must be >= 2")
    if method not in ("numeric", "asymptotic", "both"):
        raise ValueError("method must be numeric, asymptotic or both")
    q = _wavenumber(config)
    grid = np.linspace(0.0, math.pi, n_points)
    grid[0] = FORWARD_EPSILON
    numeric = np.full(n_points, np.nan)
    asymptotic = np.full(n_points, np.nan)
    if method in ("asymptotic", "both"):
        asymptotic = diff_cross_section_asymptotic(config, grid)
    if method in ("numeric", "both"):
        numeric = _PER_INTEGRAL * _reduced_integrals(grid, q, config.z0)[0]
    return AngularTable(grid, numeric, asymptotic, q)


def check_conditions(config: ScatteringConfig, d_over_a_b: float | None = None) -> dict:
    """Margin report for the three regime conditions.

    Each entry gives (value, threshold, margin) where margin > 1 means the
    condition holds. Born-Oppenheimer and almost-diagonality compare the
    packet velocity uncertainty hbar z0 / (2 m_alpha a_B) against
    hbar/(m_e a_B) and hbar/(m_p a_B); observability compares the neutron
    speed against the fast-collision threshold (sqrt(d/a_B) v_e when a
    nucleus size d is supplied, else the standard 4e3 m/s estimate).
    """
    c = CODATA
    v_e = electron_velocity_scale()
    v_p = proton_velocity_scale()
    delta_v = _SPEED_PER_Z0 * config.z0
    v_neutron = math.sqrt(2.0 * config.E_n_ev * c.eV / c.m_n)
    v_threshold = (
        math.sqrt(d_over_a_b) * v_e if d_over_a_b is not None else OBSERVABILITY_SPEED
    )
    # inf where v_threshold^2 overflows, as a product
    boundary_energy_ev = 0.5 * c.m_n * (v_threshold * v_threshold) / c.eV

    def entry(value: float, threshold: float, larger_wins: bool) -> dict:
        margin = (value / threshold) if larger_wins else (
            threshold / value if value > 0.0 else math.inf
        )
        return {
            "value": value,
            "threshold": threshold,
            "margin": margin,
            "satisfied": margin > 1.0,
        }

    return {
        "born_oppenheimer": entry(delta_v, v_e, larger_wins=False),
        "almost_diagonal": entry(delta_v, v_p, larger_wins=False),
        "observability": entry(v_neutron, v_threshold, larger_wins=True),
        "boundary_energy_ev": boundary_energy_ev,
        "q": config.q,
    }
