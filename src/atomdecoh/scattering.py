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

The target is He-4: the mass ratio MASS_RATIO = 4 and the effective
charge Z* = 27/16 of its electrons are constants. The large-q limit gives
the lab-frame angular factor
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

import numpy as np

from .constants import (
    CODATA,
    electron_velocity_scale,
    neutron_wavenumber,
    proton_velocity_scale,
)
from .density import KERNEL_SQ_POLY, Z_EFF_HELIUM
from .quadrature import QuadratureError, damped_moments

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
#: Gauss-Legendre nodes in cos(theta) of the total cross-section
_TOTAL_NODES = 48

#: standard threshold neutron speed for observable decoherence (m/s)
OBSERVABILITY_SPEED = 4.0e3

#: alpha mass over neutron mass of the He-4 target; f(theta) and h(theta)
#: are the closed forms for this value
MASS_RATIO = 4.0


@dataclass(frozen=True)
class ScatteringConfig:
    """Neutron beam, target packet and interaction parameters."""

    E_n_ev: float = 1.0
    scatt_length: float = 3.26e-15      # m; bound coherent value for He-4
    z0: float = 0.0

    def __post_init__(self) -> None:
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)!r}")
        if self.E_n_ev <= 0.0:
            raise ValueError("E_n_ev must be positive")
        if self.scatt_length == 0.0:
            raise ValueError("scatt_length must be nonzero")
        if self.z0 < 0.0:
            raise ValueError("z0 must be nonnegative")

    @property
    def k(self) -> float:
        """Incident wavenumber (1/m)."""
        return neutron_wavenumber(self.E_n_ev * CODATA.eV)

    @property
    def q(self) -> float:
        """Dimensionless incident wavenumber k * a_B."""
        return self.k * CODATA.a_B


@dataclass
class AngularTable:
    """Differential cross-section scan over lab-frame angles."""

    theta_grid: np.ndarray
    dsigma_numeric: np.ndarray
    dsigma_asymptotic: np.ndarray
    q: float

    def __post_init__(self) -> None:
        th = np.asarray(self.theta_grid)
        if np.any(np.diff(th) <= 0.0) or th[0] < 0.0 or th[-1] > math.pi:
            raise ValueError("theta_grid must be strictly increasing within [0, pi]")
        for arr in (self.dsigma_numeric, self.dsigma_asymptotic):
            vals = np.asarray(arr, dtype=float)
            if np.any(vals[np.isfinite(vals)] < 0.0):
                raise ValueError("cross-section values must be nonnegative")


def tau_transform(kappa_val: float, omega: float, z0: float) -> float:
    """Spectral weight F(omega) = int dtau exp(-2 kappa |tau|)
    (1 + kappa|tau| + kappa^2 tau^2 / 3)^2 exp(-i omega tau - z0^2 kappa^2 tau^2 / 8),
    a real number, in closed form for every z0.

    kappa F is a function of u = omega / (2 kappa) alone: to 1e-14 relative
    at |u| <= 1 for kappa in [1e-300, 1e300] (tests/test_properties.py). At
    z0 = 0 F is (u^4 + 6u^2 + 21) / (6 kappa (1 + u^2)^5), within 1.5e-15
    relative of a 400-digit reference for kappa in [1e-12, 1e3] and |omega|
    up to 1e8, finite and nonnegative at any |omega| / kappa; damped moments
    for z0 > 0. At kappa = 0 the integral is distributional
    (2 pi delta(omega)) for every z0 and is rejected, as is non-finite input.
    """
    if not all(math.isfinite(x) for x in (kappa_val, omega, z0)):
        raise ValueError(
            f"kappa_val, omega and z0 must be finite, got {kappa_val!r}, {omega!r}, {z0!r}"
        )
    if kappa_val < 0.0 or z0 < 0.0:
        raise ValueError("kappa_val and z0 must be nonnegative")
    if kappa_val == 0.0:
        raise ValueError("tau_transform singular at kappa = 0")
    return float(_tau_damped(kappa_val, omega, z0))


def _tau_damped(kappa_val, omega, z0: float):
    """Closed-form spectral weight, elementwise for arrays kappa_val and omega.

    kappa F is a function of u = omega / (2 kappa) alone. For z0 > 0 it is
    (2 / kappa) Re sum_n c_n I_n(2 + 2iu, z0^2 / 8) in damped moments, one
    damping for every element; 2u is capped at 1e300, past which F is below
    the smallest double, and z0^2 / 8 past the largest raises OverflowError.
    At z0 = 0 it is (u^4 + 6u^2 + 21) / (6 kappa (1 + u^2)^5), summed as
    t^3 (1 + 4t + 16t^2) / (6 kappa) in t = 1/(1 + u^2), in (0, 1], whose
    terms are all positive; t is formed from |omega|/2 and kappa scaled by
    the larger of the two, so nothing overflows and the value is finite
    wherever it is representable."""
    if z0 == 0.0:
        half = 0.5 * abs(omega)
        scale = np.maximum(half, kappa_val)
        x, y = half / scale, kappa_val / scale
        t = y * y / (x * x + y * y)
        return t * t * t * (1.0 + t * (4.0 + 16.0 * t)) / 6.0 / kappa_val
    a = z0 * z0 / 8.0
    if a == math.inf:
        raise OverflowError(f"spectral weight: z0^2 / 8 overflows at z0 = {z0!r}")
    ratio = omega / np.maximum(kappa_val, 1e-300 * np.abs(omega))
    moments = damped_moments(2.0 + 1j * ratio, a, len(KERNEL_SQ_POLY) - 1)
    total = 0.0
    for c_n, moment in zip(KERNEL_SQ_POLY, moments):
        total += c_n * moment.real
    return 2.0 * total / kappa_val


def f_theta(theta: float) -> float:
    """Leading-order lab-frame angular factor for a mass-4 target."""
    _check_theta(theta)
    c = math.cos(theta)
    root = math.sqrt(15.0 + c * c)
    return (c + root) ** 2 / root


def h_theta(theta: float) -> float:
    """Angular factor of the anomalous (decoherence) contribution."""
    _check_theta(theta)
    c = math.cos(theta)
    root = math.sqrt(15.0 + c * c)
    return (6075.0 / 64.0) * (3.0 + 5.0 * c * c) / ((15.0 + c * c) ** 2 * (c + root) ** 2)


def _check_theta(theta: float) -> None:
    if not 0.0 <= theta <= math.pi:
        raise ValueError("theta must lie in [0, pi]")


def _coupling_prefactor(config: ScatteringConfig) -> float:
    """m_n^2 g^2 / hbar^4 = (2 pi a)^2 (1 + m_n/m_alpha)^2 (m^2)."""
    return (2.0 * math.pi * config.scatt_length) ** 2 * (1.0 + 1.0 / MASS_RATIO) ** 2


def diff_cross_section_asymptotic(config: ScatteringConfig, theta: float) -> float:
    """Large-q cross-section (m^2/sr):
    (m_n^2 g^2 / (25 pi^2 hbar^4)) f(theta) (1 + h(theta)/q^2)."""
    _check_theta(theta)
    q = config.q
    if q < 5.0:
        warnings.warn(f"asymptotic formula dubious at q = {q:.2f} < 5", stacklevel=2)
    pref = _coupling_prefactor(config) / (25.0 * math.pi**2)
    return pref * f_theta(theta) * (1.0 + h_theta(theta) / q**2)


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
    no node is evaluated twice. The error estimate at rung L is
    |I_L - I_(L-1)|. An angle is trusted at the first rung where its value
    is finite and its estimate is within _ACCURACY relative. This is the
    one place that decides trust: an angle still not trusted after the
    last rung raises QuadratureError, for the first such angle.
    """
    theta = np.asarray(theta, dtype=float).ravel()
    values = np.empty(theta.shape)
    errors = np.empty(theta.shape)
    for lo in range(0, theta.size, _ANGLE_BLOCK):
        block = slice(lo, lo + _ANGLE_BLOCK)
        node_sums = _node_sums(theta[block], q, z0)
        todo = np.arange(theta[block].size)
        value = node_sums(todo, *_tanh_sinh(_LEVELS[0] - 1, False))
        error = np.full(value.shape, np.inf)
        for level in _LEVELS:
            coarse = value[todo]
            value[todo] = 0.5 * coarse + node_sums(todo, *_tanh_sinh(level, True))
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
                f"{values[i]:.6e}, error estimate {errors[i]:.3e} above {_ACCURACY:g} relative"
            )
    return values, errors


def _node_sums(theta: np.ndarray, q: float, z0: float):
    """The pieces of the reduced integral at the angles theta, as a function
    sums(idx, nodes, weights) giving, for the angles theta[idx], the sum of
    weight x integrand over the nodes of [0, 1] mapped onto every piece.

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

    def stretched(i, v):
        return h_peak[i] * np.sinh(v), h_peak[i] * np.cosh(v)

    def straight(i, x):
        return x, np.ones_like(x)

    def inverted(i, t):
        return 2.0 / t, 2.0 / (t * t)

    zero = np.zeros_like(theta)
    third = v_mid / 3.0
    # kappahat has branch points where |k - k'| = 0, at d = c - u* -+ i sin(theta);
    # when one lies inside the central piece, nearer the axis than half its
    # half-length, the piece is split below it
    v_branch = np.arcsinh((c - u_star + 1j * np.sin(theta)) / h_peak)
    near = (np.abs(v_branch.imag) < 0.5 * third) & (np.abs(v_branch.real) < third)
    cut = np.where(near, v_branch.real, third)
    pieces = [(lo, hi, stretched, False)
              for lo, hi in ((-v_max, -v_mid), (-v_mid, -third), (-third, cut),
                             (cut, third), (third, v_mid), (v_mid, v_max))]
    pieces += [(-u_star, -reach, straight, False), (reach, zero + 2.0, straight, False),
               (zero, zero + 1.0, inverted, True)]

    def sums(idx, nodes, weights):
        angle, d, fw, shapes = [], [], [], []
        for lo, hi, to_d, tail in pieces:
            kept = idx[hi[idx] > lo[idx]]
            x_unit, w_unit = (nodes, weights) if not tail else (
                nodes[nodes >= _TAIL_T_MIN], weights[nodes >= _TAIL_T_MIN])
            length = (hi - lo)[kept, None]
            d_piece, dd_dx = to_d(kept[:, None], lo[kept, None] + length * x_unit)
            angle.append(np.repeat(kept, x_unit.size))
            d.append(d_piece.ravel())
            fw.append((length * dd_dx * w_unit).ravel())
            shapes.append((kept, x_unit.size))
        angle, d = np.concatenate(angle), np.concatenate(d)
        ksq = (e[angle] - d) ** 2 + 2.0 * (u_star[angle] + d) * omc[angle]
        kappa_hat = kappa_scale * np.sqrt(np.maximum(ksq, 1e-300))
        w_hat = -w_slope[angle] * d - gamma * d * d
        f = np.concatenate(fw) * (u_star[angle] + d) ** 2 * _tau_damped(kappa_hat, w_hat, z0)
        # each piece's nodes are summed pairwise, then the pieces per angle
        total = np.zeros(theta.size)
        start = 0
        for kept, size in shapes:
            stop = start + kept.size * size
            total[kept] += f[start:stop].reshape(kept.size, size).sum(axis=1)
            start = stop
        return total[idx]

    return sums


def _prefactor(config: ScatteringConfig) -> float:
    """m_n^2 g^2 / (8 pi^3 hbar^4): the cross-section per unit reduced integral."""
    return _coupling_prefactor(config) / (8.0 * math.pi**3)


def diff_cross_section_numeric(config: ScatteringConfig, theta: float) -> float:
    """Differential cross-section (m^2/sr) from the full reduced integral
    over the scattered wavenumber and the spectral function.

    Within 1e-10 relative of a 30-digit mpmath reference on theta in
    {1e-6, 0.01, 0.3, 1, 2, pi} x E in {0.05, 1, 16, 100} eV x
    z0 in {0, 0.1, 0.5, 2, 12} (tests/test_xsection_refs.py). The same bound
    is checked at run time: an angle whose tanh-sinh error estimate exceeds
    it raises QuadratureError.
    """
    _check_theta(theta)
    (integral,), _ = _reduced_integrals(theta, config.q, config.z0)
    return _prefactor(config) * float(integral)


def total_cross_section_numeric(config: ScatteringConfig) -> float:
    """Solid-angle integral of the numeric cross-section (m^2) by
    Gauss-Legendre quadrature in cos(theta) on _TOTAL_NODES nodes, all
    angles in one evaluation."""
    nodes, wts = np.polynomial.legendre.leggauss(_TOTAL_NODES)
    values, _ = _reduced_integrals(np.arccos(nodes), config.q, config.z0)
    return 2.0 * math.pi * _prefactor(config) * float(wts @ values)


def angular_scan(config: ScatteringConfig, n_points: int, method: str = "both") -> AngularTable:
    """Uniform theta grid on [0, pi] with the forward point offset by
    FORWARD_EPSILON. The method not asked for is left NaN. Like
    diff_cross_section_numeric, the numeric method raises QuadratureError
    for the first angle whose integral is not trusted."""
    if n_points < 2:
        raise ValueError("n_points must be >= 2")
    if method not in ("numeric", "asymptotic", "both"):
        raise ValueError("method must be numeric, asymptotic or both")
    grid = np.linspace(0.0, math.pi, n_points)
    grid[0] = FORWARD_EPSILON
    numeric = np.full(n_points, np.nan)
    asymptotic = np.full(n_points, np.nan)
    if method in ("asymptotic", "both"):
        for i, theta in enumerate(grid):
            asymptotic[i] = diff_cross_section_asymptotic(config, theta)
    if method in ("numeric", "both"):
        numeric = _prefactor(config) * _reduced_integrals(grid, config.q, config.z0)[0]
    return AngularTable(grid, numeric, asymptotic, config.q)


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
    if config.z0 > 0.0:
        delta_m = c.a_B / config.z0
        delta_v = c.hbar / (2.0 * MASS_RATIO * c.m_n * delta_m)
    else:
        delta_v = 0.0
    v_neutron = math.sqrt(2.0 * config.E_n_ev * c.eV / c.m_n)
    v_threshold = (
        math.sqrt(d_over_a_b) * v_e if d_over_a_b is not None else OBSERVABILITY_SPEED
    )
    boundary_energy_ev = 0.5 * c.m_n * v_threshold**2 / c.eV

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
