#!/usr/bin/env python3
"""Regenerate perfbench/refs.json: high-precision reference values for the
benchmark's fixed check points.

Every value is computed with mpmath at REF_DPS significant digits and again
at CHECK_DPS; the two must agree to within 10**-(REF_DPS - 5) relative or the
script stops. Each point records its tolerance and where that tolerance comes
from. The script then evaluates the library at the same point; a point the
library misses at generation time is kept and marked ``known_defect`` with the
measured error, so the benchmark reports it instead of hiding it.

Usage (from the repository root, about a minute):

    PYTHONPATH=src python3 perfbench/make_refs.py

The timed benchmark only reads refs.json; it never imports mpmath.
"""

from __future__ import annotations

import json
import math
import os
import sys

import mpmath as mp
import numpy as np

REF_DPS = 30
CHECK_DPS = 40
#: a known defect fails the correctness gate only when its error grows past
#: this multiple of the error measured at generation time
DEFECT_GATE_FACTOR = 10.0

HERE = os.path.dirname(os.path.abspath(__file__))

SPEC_TOL = 1e-9
SPEC_SRC = "QuadratureSpec.rel_tol default (quadrature.py)"
XS_TOL = 1e-9
XS_SRC = "tests/test_scattering.py::test_reduced_integral_reference_values rel=1e-9"
CLOSED_TOL = 1e-11
CLOSED_SRC = "closed form printed at 12 significant digits (cli._fmt)"

# (1 + s + s^2/3)^2 and (1 + s + s^2/3) in powers of s
POLY_SQ = [1, 2, mp.mpf(5) / 3, mp.mpf(2) / 3, mp.mpf(1) / 9]
POLY = [1, 1, mp.mpf(1) / 3]
FACT = [1, 1, 2, 6, 24]


def damped_moments(b, a, n_max):
    """I_n = int_0^inf t^n exp(-b t - a t^2) dt for n = 0..n_max (a > 0).

    Faddeeva-type seed from erfc, then the upward recurrence
    I_n = ((n-1) I_{n-2} - b I_{n-1}) / (2a). The recurrence cancels about
    log10(|b|^2/a) digits per step, so the working precision is raised by
    that much first.
    """
    dps = mp.mp.dps
    with mp.workdps(dps + 10):
        lost = int(mp.ceil(n_max * mp.log10(abs(mp.mpc(b)) ** 2 / mp.mpf(a) + 1)))
    with mp.workdps(dps + lost + 15):
        b = mp.mpc(b)
        a = mp.mpf(a)
        sa = mp.sqrt(a)
        moments = [mp.sqrt(mp.pi) / (2 * sa) * mp.exp(b * b / (4 * a)) * mp.erfc(b / (2 * sa))]
        if n_max >= 1:
            moments.append((1 - b * moments[0]) / (2 * a))
        for n in range(2, n_max + 1):
            moments.append(((n - 1) * moments[n - 2] - b * moments[n - 1]) / (2 * a))
    return [+m for m in moments]


def purity_ref(z):
    """z^3/(2 sqrt(pi)) int_0^inf s^2 (1+s+s^2/3)^2 exp(-2s - z^2 s^2/4) ds."""
    z = mp.mpf(z)
    moments = damped_moments(2, z * z / 4, len(POLY_SQ) + 1)
    total = sum(c * moments[n + 2] for n, c in enumerate(POLY_SQ))
    return (z**3 / (2 * mp.sqrt(mp.pi)) * total).real


def momentum_ref(q, z0):
    """(1/(2 pi^2 q)) int_0^inf s (1+s+s^2/3) exp(-s - z0^2 s^2/8) sin(q s) ds."""
    q = mp.mpf(q)
    z0 = mp.mpf(z0)
    moments = damped_moments(1 - 1j * q, z0**2 / 8, len(POLY))
    total = sum(c * moments[n + 1] for n, c in enumerate(POLY))
    return total.imag / (2 * mp.pi**2 * q)


def gaussian_limit_ref(q, delta):
    q = mp.mpf(q)
    delta = mp.mpf(delta)
    return (2 / mp.pi) ** mp.mpf(1.5) * delta**3 * mp.exp(-2 * (q * delta) ** 2)


def electron_limit_ref(q):
    return 8 / mp.pi**2 / (1 + mp.mpf(q) ** 2) ** 4


def _spectral(w, kap, z0):
    """2 Re sum_n c_n kap^n I_n(2 kap + i w, (z0 kap)^2/8); closed form at z0 = 0."""
    if z0 == 0:
        d = 2 * kap + 1j * w
        return 2 * sum(POLY_SQ[n] * kap**n * FACT[n] / d ** (n + 1) for n in range(5)).real
    moments = damped_moments(2 * kap + 1j * w, (z0 * kap) ** 2 / 8, 4)
    return 2 * sum(POLY_SQ[n] * kap**n * moments[n] for n in range(5)).real


def reduced_integral_ref(theta, q, z0, r=4, z_eff=mp.mpf(27) / 16):
    """int_0^inf u^2 F(what(u), kappahat(u)) du over the scattered wavenumber
    ratio u = k'/k, with what = (1-u^2)/2 - |k-k'|^2/(2 r k^2) and
    kappahat = z_eff |k-k'| / (r q k). The quasi-elastic peak is resolved with
    u = u* + h sinh(v)."""
    theta, q, z0, r = mp.mpf(theta), mp.mpf(q), mp.mpf(z0), mp.mpf(r)
    c = mp.cos(theta)
    u_star = (c + mp.sqrt(c * c + r * r - 1)) / (r + 1)
    slope = u_star + (u_star - c) / r

    def ksq(u):
        return 1 + u * u - 2 * u * c

    def f(u):
        kap = z_eff / (r * q) * mp.sqrt(ksq(u))
        w = (1 - u * u) / 2 - ksq(u) / (2 * r)
        return u * u * _spectral(w, kap, z0)

    h = z_eff / (r * q) * mp.sqrt(ksq(u_star)) / slope
    reach = min(mp.mpf(1) / 2, mp.mpf(9) / 10 * u_star)
    v_max = mp.asinh(reach / h)
    cuts = sorted({x for x in (2, 5, 10, 20, 30) if x < v_max} | {v_max})
    v_points = [-x for x in reversed(cuts)] + [0] + cuts

    def stretched(v):
        return h * mp.cosh(v) * f(u_star + h * mp.sinh(v))

    return (
        mp.quad(stretched, v_points)
        + mp.quad(f, [0, u_star - reach])
        + mp.quad(f, [u_star + reach, 2])
        + mp.quad(f, [2, 10, mp.inf])
    )


def dsigma_ref(theta, q, z0, scatt_length, r=4):
    """Differential cross-section (m^2/sr) = (2 pi a)^2 (1 + 1/r)^2 / (8 pi^3) * I."""
    a = mp.mpf(scatt_length)
    pref = (2 * mp.pi * a) ** 2 * (1 + 1 / mp.mpf(r)) ** 2 / (8 * mp.pi**3)
    return pref * reduced_integral_ref(theta, q, z0, r)


def asymptotic_ref(theta, q, scatt_length):
    """(m_n^2 g^2 / (25 pi^2 hbar^4)) f(theta) (1 + h(theta)/q^2) with m_alpha = 4 m_n."""
    c = mp.cos(mp.mpf(theta))
    q = mp.mpf(q)
    root = mp.sqrt(15 + c * c)
    f = (c + root) ** 2 / root
    h = (mp.mpf(6075) / 64) * (3 + 5 * c * c) / ((15 + c * c) ** 2 * (c + root) ** 2)
    pref = (2 * mp.pi * mp.mpf(scatt_length)) ** 2 * (mp.mpf(5) / 4) ** 2 / (25 * mp.pi**2)
    return pref * f * (1 + h / q**2)


def precise(fn, *args):
    """fn(*args) at REF_DPS, verified against CHECK_DPS."""
    with mp.workdps(CHECK_DPS):
        check = fn(*args)
    with mp.workdps(REF_DPS):
        value = fn(*args)
    if value != 0 and abs((value - check) / check) > mp.mpf(10) ** (5 - REF_DPS):
        raise SystemExit(f"reference for {fn.__name__}{args} unstable: {value} vs {check}")
    return mp.nstr(value, REF_DPS, min_fixed=1, max_fixed=0)


def point(pid, value, tol, source, library_value, **call):
    ref = float(value)
    err = abs(library_value - ref) / max(abs(ref), 1e-300)
    out = {"id": pid, **call, "value": value, "tol": tol, "tol_source": source}
    if not err <= tol:
        out["known_defect"] = {
            "rel_err_at_generation": float(f"{err:.3e}"),
            "gate": float(f"{max(tol, DEFECT_GATE_FACTOR * err):.3e}"),
        }
    return out


def momentum_purity_points(ad):
    pts = []
    for z in (1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0):
        pts.append(point(f"purity(z={z:g})", precise(purity_ref, z), SPEC_TOL, SPEC_SRC,
                         ad.purity(z), fn="purity", z=z))
    for z0 in (0.01, 0.1, 1.0, 5.0):
        for q in (1e-3, 0.1, 1.0, 5.0, 20.0, 50.0):
            pts.append(point(f"momentum_density(q={q:g},z0={z0:g})", precise(momentum_ref, q, z0),
                             SPEC_TOL, SPEC_SRC, ad.momentum_density(q, z0),
                             fn="momentum_density", q=q, z0=z0))
    return pts


def xsection_points(ad):
    pts = []
    cases = [(1e-6, 1.0, 0.0), (1e-6, 4.0, 0.0), (math.pi, 4.0, 0.0), (2.0, 4.0, 0.0),
             (1e-6, 16.0, 0.0), (1e-6, 4.0, 0.5), (1.0, 4.0, 0.5), (2.0, 4.0, 0.5),
             (math.pi, 4.0, 0.5), (math.pi, 1.0, 0.5)]
    for theta, energy, z0 in cases:
        config = ad.ScatteringConfig(E_n_ev=energy, z0=z0)
        value = precise(dsigma_ref, theta, config.q, z0, config.scatt_length)
        pts.append(point(f"dsigma(theta={theta:.6g},E={energy:g},z0={z0:g})", value, XS_TOL,
                         XS_SRC, ad.diff_cross_section_numeric(config, theta),
                         fn="diff_cross_section_numeric", theta=theta, energy_ev=energy, z0=z0,
                         q=config.q))
    return pts


def cli_points(ad):
    """Check points on the CSV rows of the default README subcommands."""
    pts = []
    for i, z in enumerate(np.logspace(math.log10(1e-3), math.log10(1e2), 50)):
        pts.append(point(f"cli.purity.tr_rho_sq[{i}]", precise(purity_ref, z), SPEC_TOL, SPEC_SRC,
                         ad.purity(z), subcommand="purity", column="tr_rho_sq", row=i))
    z0 = 0.1
    grid = np.logspace(math.log10(1e-3), math.log10(10.0), 100)
    dist = ad.momentum_distribution(z0, grid)
    for i, q in enumerate(grid):
        pts.append(point(f"cli.momentum.density[{i}]", precise(momentum_ref, q, z0), SPEC_TOL,
                         SPEC_SRC, dist.values[i], subcommand="momentum", column="density", row=i))
        pts.append(point(f"cli.momentum.gaussian_limit[{i}]", precise(gaussian_limit_ref, q, 1 / z0),
                         CLOSED_TOL, CLOSED_SRC, ad.gaussian_limit(q, 1 / z0),
                         subcommand="momentum", column="gaussian_limit", row=i))
        pts.append(point(f"cli.momentum.electron_limit[{i}]", precise(electron_limit_ref, q),
                         CLOSED_TOL, CLOSED_SRC, ad.electron_limit(q),
                         subcommand="momentum", column="electron_limit", row=i))
    config = ad.ScatteringConfig(E_n_ev=1.0)
    table = ad.angular_scan(config, 19, "both")
    for i, theta in enumerate(table.theta_grid):
        value = precise(dsigma_ref, theta, config.q, 0.0, config.scatt_length)
        pts.append(point(f"cli.xsection.dsigma_numeric[{i}]", value, XS_TOL, XS_SRC,
                         table.dsigma_numeric[i], subcommand="xsection",
                         column="dsigma_numeric", row=i))
        value = precise(asymptotic_ref, theta, config.q, config.scatt_length)
        pts.append(point(f"cli.xsection.dsigma_asymptotic[{i}]", value, CLOSED_TOL, CLOSED_SRC,
                         table.dsigma_asymptotic[i], subcommand="xsection",
                         column="dsigma_asymptotic", row=i))
    return pts


def main() -> None:
    import warnings

    import atomdecoh as ad

    warnings.simplefilter("ignore")
    doc = {
        "about": "mpmath references for the benchmark's fixed check points; "
                 "regenerate with perfbench/make_refs.py",
        "mpmath_version": mp.__version__,
        "ref_dps": REF_DPS,
        "check_dps": CHECK_DPS,
        "defect_gate_factor": DEFECT_GATE_FACTOR,
        "known_defect_regions": [
            {
                "fn": "momentum_density",
                "q_max": 2e-3,
                "z0_min": 3.5,
                "why": "a single oscillation panel of width pi/q far wider than the "
                       "exp(-z0^2 s^2/8) envelope: quad samples none of it and "
                       "returns ~0 with converged=True (seen at q <= 1.3e-3, z0 >= 4.1)",
            }
        ],
        "workloads": {
            "momentum_purity": momentum_purity_points(ad),
            "cli_inproc": cli_points(ad) + xsection_points(ad),
        },
    }
    path = os.path.join(HERE, "refs.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    for name, pts in doc["workloads"].items():
        bad = [p["id"] for p in pts if "known_defect" in p]
        print(f"{name}: {len(pts)} points, {len(bad)} known defects: {bad}", file=sys.stderr)


if __name__ == "__main__":
    main()
