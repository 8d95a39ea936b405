"""Neutron-helium differential scattering cross-section.

The contact-potential cross-section reduces to a single integral over the
scattered wavenumber of a spectral function F(omega): the Fourier
transform in tau of exp(-2 kappa |tau|) (1 + kappa|tau| + kappa^2 tau^2/3)^2
times an optional Gaussian damping from a finite packet width. For a
packet much wider than a_B (z0 = 0) F has a closed form built from
factorial moments of the exponential, and for z0 > 0 one built from its
Gaussian-damped moments; the quasi-elastic peak is resolved by a
sinh-stretched substitution so the integral stays accurate down to
forward angles where the peak width collapses.

The large-q limit gives the lab-frame angular factor
f(theta) = (cos t + sqrt(15 + cos^2 t))^2 / sqrt(15 + cos^2 t)
(isotropic scattering in the center-of-mass frame for a mass-4 target)
plus a positive anomalous term h(theta)/q^2 inversely proportional to the
bombarding energy.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import IntegrationWarning, quad

from .constants import (
    CODATA,
    PhysicalConstants,
    electron_velocity_scale,
    neutron_wavenumber,
    proton_velocity_scale,
)
from .density import KERNEL_SQ_POLY, Z_EFF_HELIUM
from .quadrature import QuadratureError, damped_moments

_FACT = (1.0, 1.0, 2.0, 6.0, 24.0)

#: forward-elastic epsilon offset for angular grids (rad)
FORWARD_EPSILON = 1e-6

#: standard threshold neutron speed for observable decoherence (m/s)
OBSERVABILITY_SPEED = 4.0e3


@dataclass(frozen=True)
class ScatteringConfig:
    """Neutron beam, target packet and interaction parameters."""

    E_n_ev: float = 1.0
    scatt_length: float = 3.26e-15      # m; bound coherent value for He-4
    z0: float = 0.0
    mass_ratio: float = 4.0
    z_eff: float = Z_EFF_HELIUM
    constants: PhysicalConstants = field(default_factory=lambda: CODATA)

    def __post_init__(self) -> None:
        if self.E_n_ev <= 0.0:
            raise ValueError("E_n_ev must be positive")
        if self.scatt_length == 0.0:
            raise ValueError("scatt_length must be nonzero")
        if self.z0 < 0.0:
            raise ValueError("z0 must be nonnegative")
        if self.mass_ratio <= 1.0:
            raise ValueError("mass_ratio must exceed 1")

    @property
    def k(self) -> float:
        """Incident wavenumber (1/m)."""
        c = self.constants
        return neutron_wavenumber(self.E_n_ev * c.eV, c)

    @property
    def q(self) -> float:
        """Dimensionless incident wavenumber k * a_B."""
        return self.k * self.constants.a_B


@dataclass
class AngularTable:
    """Differential cross-section scan over lab-frame angles."""

    theta_grid: np.ndarray
    dsigma_numeric: np.ndarray
    dsigma_asymptotic: np.ndarray
    q: float
    method: str
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        th = np.asarray(self.theta_grid)
        if np.any(np.diff(th) <= 0.0) or th[0] < 0.0 or th[-1] > math.pi:
            raise ValueError("theta_grid must be strictly increasing within [0, pi]")
        for arr in (self.dsigma_numeric, self.dsigma_asymptotic):
            vals = np.asarray(arr, dtype=float)
            if np.any(vals[np.isfinite(vals)] < 0.0):
                raise ValueError("cross-section values must be nonnegative")


def kappa(k: float, k_prime: float, theta: float, config: ScatteringConfig) -> float:
    """Kernel decay rate (hbar / m_alpha) Z* |k - k'| / a_B (1/s)."""
    if k < 0.0 or k_prime < 0.0:
        raise ValueError("wavenumbers must be nonnegative")
    c = config.constants
    m_alpha = config.mass_ratio * c.m_n
    transfer = math.sqrt(max(k * k + k_prime * k_prime - 2.0 * k * k_prime * math.cos(theta), 0.0))
    return c.hbar / m_alpha * config.z_eff * transfer / c.a_B


def _tau_closed(kappa_val: float, omega: float) -> float:
    """Closed-form Fourier transform of the undamped (z0 = 0) envelope."""
    denom = 2.0 * kappa_val + 1j * omega
    total = 0j
    for n, c_n in enumerate(KERNEL_SQ_POLY):
        total += c_n * kappa_val**n * _FACT[n] / denom ** (n + 1)
    return 2.0 * total.real


def tau_transform(kappa_val: float, omega: float, z0: float) -> complex:
    """Spectral weight F(omega) = int dtau exp(-2 kappa |tau|)
    (1 + kappa|tau| + kappa^2 tau^2 / 3)^2 exp(-i omega tau - z0^2 kappa^2 tau^2 / 8).

    Closed form for every z0: factorial moments at z0 = 0, damped moments
    for z0 > 0. At kappa = 0 the integral is distributional (2 pi delta(omega))
    for every z0 and is rejected.
    """
    if kappa_val < 0.0 or z0 < 0.0:
        raise ValueError("kappa_val and z0 must be nonnegative")
    if kappa_val == 0.0:
        raise ValueError("tau_transform singular at kappa = 0")
    if z0 == 0.0:
        return complex(_tau_closed(kappa_val, omega), 0.0)
    return complex(_tau_damped(kappa_val, omega, z0), 0.0)


def _tau_damped(kappa_val: float, omega: float, z0: float) -> float:
    """Closed-form spectral weight with Gaussian damping (z0 > 0):
    2 Re sum_n c_n kappa^n I_n(2 kappa + i omega, z0^2 kappa^2 / 8)."""
    a = (z0 * kappa_val) ** 2 / 8.0
    b = 2.0 * kappa_val + 1j * omega
    moments = damped_moments(b, a, len(KERNEL_SQ_POLY) - 1)
    total = 0j
    for n, c_n in enumerate(KERNEL_SQ_POLY):
        total += c_n * kappa_val**n * moments[n]
    return 2.0 * total.real


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


def _coupling_prefactor(config: ScatteringConfig, mass_ratio: float) -> float:
    """m_n^2 g^2 / hbar^4 = (2 pi a)^2 (1 + m_n/m_alpha)^2 (m^2)."""
    return (2.0 * math.pi * config.scatt_length) ** 2 * (1.0 + 1.0 / mass_ratio) ** 2


def diff_cross_section_asymptotic(config: ScatteringConfig, theta: float) -> float:
    """Large-q cross-section (m^2/sr):
    (m_n^2 g^2 / (25 pi^2 hbar^4)) f(theta) (1 + h(theta)/q^2).

    Uses m_alpha = 4 m_n exactly, the working value of the closed-form
    angular factors.
    """
    _check_theta(theta)
    q = config.q
    if q < 5.0:
        warnings.warn(f"asymptotic formula dubious at q = {q:.2f} < 5", stacklevel=2)
    pref = _coupling_prefactor(config, 4.0) / (25.0 * math.pi**2)
    return pref * f_theta(theta) * (1.0 + h_theta(theta) / q**2)


def _reduced_integral(theta: float, q: float, mass_ratio: float, z_eff: float,
                      z0: float = 0.0, epsrel: float = 1e-11) -> tuple[float, float]:
    """I(theta) = int_0^inf du u^2 What F(what(u), kappahat(u)) in units of
    the common frequency W = hbar k^2 / m_n; the cross-section is
    (m_n^2 g^2 / (8 pi^3 hbar^4)) * I.

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

    if z0 == 0.0:
        def spectral(w: float, kap: float) -> float:
            return _tau_closed(kap, w)
    else:
        def spectral(w: float, kap: float) -> float:
            return _tau_damped(kap, w, z0)

    def f_d(d: float) -> float:
        return (u_star + d) ** 2 * spectral(w_hat(d), kappa_hat(d))

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
            val, ee = quad(stretched, a, b, epsabs=1e-13, epsrel=epsrel, limit=400)
            total += val
            err += ee
        for a, b in ((-u_star, -reach), (reach, 2.0)):
            if b <= a + 1e-14:
                continue
            val, ee = quad(f_d, a, b, epsabs=1e-13, epsrel=epsrel, limit=400)
            total += val
            err += ee
        val, ee = quad(f_d, 2.0, np.inf, epsabs=1e-13, epsrel=epsrel, limit=400)
        total += val
        err += ee
    if not (math.isfinite(total) and err <= max(1e-10, 1e-7 * abs(total))):
        raise QuadratureError(
            f"cross-section integral failed at theta={theta}: "
            f"peak u*={u_star:.6f}, width={h_peak:.3e}, error={err:.3e}"
        )
    return total, err


def diff_cross_section_numeric(config: ScatteringConfig, theta: float) -> float:
    """Differential cross-section (m^2/sr) from the full reduced integral
    over the scattered wavenumber and the spectral function."""
    _check_theta(theta)
    integral, _ = _reduced_integral(
        theta, config.q, config.mass_ratio, config.z_eff, config.z0
    )
    return _coupling_prefactor(config, config.mass_ratio) / (8.0 * math.pi**3) * integral


def total_cross_section_numeric(config: ScatteringConfig, n_nodes: int = 48) -> float:
    """Solid-angle integral of the numeric cross-section (m^2) by
    Gauss-Legendre quadrature in cos(theta)."""
    nodes, wts = np.polynomial.legendre.leggauss(n_nodes)
    total = 0.0
    for x, w in zip(nodes, wts):
        total += w * diff_cross_section_numeric(config, math.acos(x))
    return 2.0 * math.pi * total


def angular_scan(config: ScatteringConfig, n_points: int, method: str = "both") -> AngularTable:
    """Uniform theta grid on [0, pi] with the forward point offset by
    FORWARD_EPSILON; per-point numeric failures are recorded and skipped."""
    if n_points < 2:
        raise ValueError("n_points must be >= 2")
    if method not in ("numeric", "asymptotic", "both"):
        raise ValueError("method must be numeric, asymptotic or both")
    grid = np.linspace(0.0, math.pi, n_points)
    grid[0] = FORWARD_EPSILON
    numeric = np.full(n_points, np.nan)
    asymptotic = np.full(n_points, np.nan)
    failures: list[dict] = []
    for i, theta in enumerate(grid):
        if method in ("asymptotic", "both"):
            asymptotic[i] = diff_cross_section_asymptotic(config, theta)
        if method in ("numeric", "both"):
            try:
                numeric[i] = diff_cross_section_numeric(config, theta)
            except QuadratureError as exc:
                failures.append({"theta": float(theta), "error": str(exc)})
    meta = {
        "E_n_ev": config.E_n_ev,
        "z0": config.z0,
        "mass_ratio": config.mass_ratio,
        "failures": failures,
    }
    return AngularTable(grid, numeric, asymptotic, config.q, method, meta)


def check_conditions(
    config: ScatteringConfig,
    delta_v_ms: float | None = None,
    d_over_a_b: float | None = None,
) -> dict:
    """Margin report for the three regime conditions.

    Each entry gives (value, threshold, margin) where margin > 1 means the
    condition holds. Born-Oppenheimer and almost-diagonality compare the
    packet velocity uncertainty against hbar/(m_e a_B) and hbar/(m_p a_B);
    observability compares the neutron speed against the fast-collision
    threshold (sqrt(d/a_B) v_e when a nucleus size d is supplied, else the
    standard 4e3 m/s estimate).
    """
    c = config.constants
    v_e = electron_velocity_scale(c)
    v_p = proton_velocity_scale(c)
    if delta_v_ms is None:
        if config.z0 > 0.0:
            delta_m = c.a_B / config.z0
            delta_v_ms = c.hbar / (2.0 * config.mass_ratio * c.m_n * delta_m)
        else:
            delta_v_ms = 0.0
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
        "born_oppenheimer": entry(delta_v_ms, v_e, larger_wins=False),
        "almost_diagonal": entry(delta_v_ms, v_p, larger_wins=False),
        "observability": entry(v_neutron, v_threshold, larger_wins=True),
        "boundary_energy_ev": boundary_energy_ev,
        "q": config.q,
    }
