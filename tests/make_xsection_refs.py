#!/usr/bin/env python3
"""Regenerate tests/xsection_refs.json: mpmath references for the reduced
cross-section integral

    I(theta) = int_0^inf u^2 F(what(u), kappahat(u)) du

on the grid THETAS x ENERGIES_EV x Z0S. Here u = k'/k, what = (1 - u^2)/2 -
|k - k'|^2 / (2 r k^2), kappahat = z_eff |k - k'| / (r q k), and F is the
spectral weight 2 Re sum_n c_n kappa^n I_n(2 kappa + i what, (z0 kappa)^2/8)
in damped moments I_n (factorial moments at z0 = 0). The differential
cross-section is (2 pi a)^2 (1 + 1/r)^2 / (8 pi^3) * I.

The integral over u is split at the quasi-elastic peak u* (what(u*) = 0) and
at u* -+ h 10^k, h the peak width, so mpmath's tanh-sinh rule sees a smooth
integrand on every piece. Each value is computed at REF_DPS significant
digits and again at CHECK_DPS; the two must agree to within
10**-(REF_DPS - 5) relative or the script stops. The reference is a function
of the library's floating-point q, which is stored with it.

Usage (from the repository root, about ten minutes on one core):

    PYTHONPATH=src python3 tests/make_xsection_refs.py
"""

from __future__ import annotations

import json
import math
import os
import sys

import mpmath as mp

from test_moments import _extra_digits, _mp_moments

REF_DPS = 30
CHECK_DPS = 40

THETAS = (1e-6, 0.01, 0.3, 1.0, 2.0, math.pi)
ENERGIES_EV = (0.05, 1.0, 16.0, 100.0)
Z0S = (0.0, 0.1, 0.5, 2.0, 12.0)

HERE = os.path.dirname(os.path.abspath(__file__))
PATH = os.path.join(HERE, "xsection_refs.json")

#: (1 + s + s^2/3)^2 in powers of s
POLY_SQ = (1, 2, mp.mpf(5) / 3, mp.mpf(2) / 3, mp.mpf(1) / 9)


def spectral(w, kap, z0):
    """2 Re sum_n c_n kap^n I_n(2 kap + i w, (z0 kap)^2 / 8)."""
    b = 2 * kap + 1j * w
    if z0 == 0:
        moments = [mp.factorial(n) / b ** (n + 1) for n in range(5)]
    else:
        a = (z0 * kap) ** 2 / 8
        with mp.workdps(mp.mp.dps + _extra_digits(b, a, 4)):
            moments = [+m for m in _mp_moments(b, a, 4)]
    return 2 * sum(c * kap**n * m for n, (c, m) in enumerate(zip(POLY_SQ, moments))).real


def reduced_integral(theta, q, z0, r=4, z_eff=mp.mpf(27) / 16):
    theta, q, z0, r = mp.mpf(theta), mp.mpf(q), mp.mpf(z0), mp.mpf(r)
    omc = 2 * mp.sin(theta / 2) ** 2                # 1 - cos(theta)
    c = 1 - omc

    def ksq(u):                                      # |k - k'|^2 / k^2
        return (1 - u) ** 2 + 2 * u * omc

    def f(u):
        kap = z_eff / (r * q) * mp.sqrt(ksq(u))
        w = (1 - u * u) / 2 - ksq(u) / (2 * r)
        return u * u * spectral(w, kap, z0)

    u_star = (c + mp.sqrt(c * c + r * r - 1)) / (r + 1)
    width = z_eff / (r * q) * mp.sqrt(ksq(u_star)) / (u_star + (u_star - c) / r)
    cuts = [width * mp.mpf(10) ** k for k in range(-1, 12)]
    below = [u_star - x for x in cuts if x < u_star / 2]
    above = [u_star + x for x in cuts if x < 1]
    points = [0] + below[::-1] + [u_star] + above + [u_star + 2, u_star + 10, mp.inf]
    return mp.quad(f, points)


def precise(theta, q, z0):
    """The reduced integral at REF_DPS, verified against CHECK_DPS."""
    with mp.workdps(CHECK_DPS):
        check = reduced_integral(theta, q, z0)
    with mp.workdps(REF_DPS):
        value = reduced_integral(theta, q, z0)
    if abs((value - check) / check) > mp.mpf(10) ** (5 - REF_DPS):
        raise SystemExit(f"reference at theta={theta}, q={q}, z0={z0} unstable: "
                         f"{value} vs {check}")
    return mp.nstr(value, REF_DPS, min_fixed=1, max_fixed=0)


def main() -> None:
    from atomdecoh.scattering import ScatteringConfig

    points = []
    for energy in ENERGIES_EV:
        q = ScatteringConfig(E_n_ev=energy).q
        for z0 in Z0S:
            for theta in THETAS:
                value = precise(theta, q, z0)
                points.append({"theta": theta, "energy_ev": energy, "z0": z0, "q": q,
                               "reduced_integral": value})
                print(f"theta={theta:<9.6g} E={energy:<5g} z0={z0:<4g} I={value}",
                      file=sys.stderr)
    doc = {
        "about": "mpmath references for the reduced cross-section integral; "
                 "regenerate with tests/make_xsection_refs.py",
        "mpmath_version": mp.__version__,
        "ref_dps": REF_DPS,
        "check_dps": CHECK_DPS,
        "points": points,
    }
    with open(PATH, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
