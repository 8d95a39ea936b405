"""Acceptance gate: one test and one printed pass/fail line per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see every line even on
success. Two checks fail by construction and are analyzed in the project
notes: the decohered-visibility bound of criterion 8 conflicts with the
uncertainty relation at the stated geometry, and criterion 9's 5%
velocity tolerances are tighter than the round-number targets allow.
"""

import math

import numpy as np
import pytest

from atomdecoh.constants import (
    CODATA,
    electron_velocity_scale,
    proton_velocity_scale,
)
from atomdecoh.density import CoherenceKernel, purity, reduced_density
from atomdecoh.momentum import (
    electron_limit,
    gaussian_limit,
    momentum_density,
    normalization_integral,
)
from atomdecoh.scattering import (
    ScatteringConfig,
    angular_scan,
    check_conditions,
    f_theta,
    h_theta,
    tau_transform,
)
from atomdecoh.twoslit import TwoSlitConfig, screen_scan, visibility
from atomdecoh.wavepacket import GaussianPacket, evaluate
from oracles import (
    QuadratureSpec,
    integrate_3d_oracle,
    integrate_fourier_complex,
    momentum_density_generic,
)


def _report(number: int, description: str, ok: bool) -> None:
    print(f"criterion {number} {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {number}: {description}"


def test_criterion_1_headline_anomalous_fractions():
    config = ScatteringConfig(E_n_ev=1.0)
    q_sq = config.q**2
    ok = (
        abs(h_theta(0.0) / q_sq - 8.2e-4) / 8.2e-4 <= 0.10
        and abs(h_theta(math.pi) / q_sq - 2.27e-3) / 2.27e-3 <= 0.10
        and abs(h_theta(math.pi) / h_theta(0.0) - 25.0 / 9.0) <= 1e-12
    )
    _report(1, "anomalous fractions at 1 eV within 10%, ratio 25/9 exact", ok)


def test_criterion_2_lab_frame_solid_angle():
    nodes, wts = np.polynomial.legendre.leggauss(96)
    integral = 2.0 * math.pi * sum(
        w * f_theta(math.acos(x)) for x, w in zip(nodes, wts)
    )
    ok = abs(integral - 16.0 * math.pi) / (16.0 * math.pi) <= 1e-6
    _report(2, "solid-angle integral of f equals 16 pi within 1e-6", ok)


def test_criterion_3_cross_path_deviation_scales_as_inverse_q4():
    def max_deviation(energy):
        table = angular_scan(ScatteringConfig(E_n_ev=energy), 19, method="both")
        rel = np.abs(table.dsigma_numeric / table.dsigma_asymptotic - 1.0)
        return float(np.max(rel))

    dev1 = max_deviation(1.0)
    dev4 = max_deviation(4.0)
    ok = dev4 <= 0.35 * dev1
    _report(
        3,
        f"19-point max deviation at 4 eV ({dev4:.2e}) <= 0.35x 1 eV ({dev1:.2e})",
        ok,
    )


def test_criterion_4_tau_transform_oracle():
    # the undamped static weight is 2 sum_n c_n n!/2^{n+1}
    # = 1 + 1 + 5/6 + 1/2 + 1/6 = 7/2; confirmed independently by direct
    # quadrature below, so the grid comparison doubles as the derivation
    ok = True
    for kap in (0.5, 1.0, 2.0):
        static = tau_transform(kap, 0.0, 0.0).real
        ok = ok and abs(static - 3.5 / kap) <= 1e-12 * abs(static)
        for om in (0.0, 1.0, 3.0):
            closed = tau_transform(kap, om, 0.0).real
            spec = QuadratureSpec(decay_scale=1.0 / (2.0 * kap))
            res = integrate_fourier_complex(
                lambda t, k=kap: math.exp(-2.0 * k * t)
                * (1.0 + k * t + (k * t) ** 2 / 3.0) ** 2,
                om,
                spec,
            )
            ok = ok and abs(res.value.real - closed) <= 1e-9 * abs(closed)
    _report(4, "closed-form spectral weight matches quadrature on 3x3 grid", ok)


def test_criterion_5_purity_law():
    coeff = 33.0 / (16.0 * math.sqrt(math.pi))
    small_ok = abs(purity(1e-3) / 1e-9 - coeff) / coeff <= 5e-3
    pure_ok = abs(purity(100.0) - 1.0) <= 1e-3
    _report(5, "small-z purity coefficient and pure-state limit", small_ok and pure_ok)


def test_criterion_6_momentum_distribution_properties():
    ok = all(
        abs(normalization_integral(z0) - 1.0) <= 1e-6 for z0 in (0.01, 1.0, 100.0)
    )
    for q in (0.0, 1.0, 3.0):
        ref = electron_limit(q)
        ok = ok and abs(momentum_density(q, 0.01) - ref) / ref <= 0.01
    for q in (1.0, 50.0, 100.0):
        ref = gaussian_limit(q, 0.01)
        ok = ok and abs(momentum_density(q, 100.0) - ref) / ref <= 0.01
    packet = GaussianPacket(2.0, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0), 1.0)
    kernel = CoherenceKernel.hydrogen()
    for q in (0.0, 1.0, 3.0):
        generic = momentum_density_generic(packet, kernel, (0.0, 0.0, q))
        dedicated = momentum_density(q, 0.5)
        ok = ok and abs(generic - dedicated) <= 1e-6 * max(dedicated, 1e-12)
    _report(6, "momentum norms, limiting curves, and generic-path agreement", ok)


def test_criterion_7_density_matrix_oracle():
    packet = GaussianPacket(5.0, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0), 1.0)
    kernel = CoherenceKernel.hydrogen()
    ok = True
    pairs = [
        ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0)),
        ((0.5, 0.5, 0.0), (-0.5, 0.0, 0.5)),
        ((0.0, 0.0, 2.0), (0.0, 0.0, -1.0)),
    ]
    for r, rp in pairs:
        r = np.asarray(r)
        rp = np.asarray(rp)

        def integrand(x, y, z, r=r, rp=rp):
            r1 = np.sqrt((x - r[0]) ** 2 + (y - r[1]) ** 2 + (z - r[2]) ** 2)
            r2 = np.sqrt((x - rp[0]) ** 2 + (y - rp[1]) ** 2 + (z - rp[2]) ** 2)
            return np.exp(-r1 - r2) / math.pi

        overlap = integrate_3d_oracle(integrand, box=20.0, n=48)
        oracle = evaluate(packet, r, 0.0) * np.conj(evaluate(packet, rp, 0.0)) * overlap
        direct = reduced_density(packet, kernel, r, rp, 0.0)
        ok = ok and abs(direct - oracle) <= 1e-4 * abs(direct)
    for d in (0.5, 2.0, 5.0):

        def overlap_fn(x, y, z, d=d):
            r1 = np.sqrt(x * x + y * y + z * z)
            r2 = np.sqrt((x - d) ** 2 + y * y + z * z)
            return np.exp(-r1 - r2) / math.pi

        oracle_overlap = integrate_3d_oracle(overlap_fn, box=20.0, n=48)
        ok = ok and abs(oracle_overlap - float(kernel(d))) <= 1e-4
    _report(7, "brute-force trace over the orbital reproduces the kernel", ok)


def test_criterion_8_two_slit_contrast():
    config = TwoSlitConfig(
        slit1=(500.0, 0.0, 0.0),
        slit2=(-500.0, 0.0, 0.0),
        packet_delta=200.0,
        t0=3.2e6,
        p0=(0.0, 0.0, 0.05),
    )
    offsets, coh, dec = screen_scan(config, 801)
    alpha, beta = config.packets()
    s1 = np.asarray(config.slit1)
    s2 = np.asarray(config.slit2)
    midpoint = 0.5 * (s1 + s2) + np.asarray(config.p0) * config.t0 / config.mass
    direction = (s1 - s2) / config.separation
    points = midpoint[None, :] + offsets[:, None] * direction[None, :]
    a_val = evaluate(alpha, points, config.t0)
    b_val = evaluate(beta, points, config.t0)
    cross = 2.0 * np.real(config.amp1 * np.conj(config.amp2) * a_val * np.conj(b_val))
    identity_ok = np.max(np.abs(coh - dec - cross)) <= 1e-10 * coh.max()
    v_coh = visibility(coh)
    v_dec = visibility(dec)
    ok = v_coh >= 0.99 and v_dec <= 0.05 and identity_ok
    _report(
        8,
        f"visibilities coherent={v_coh:.4f} (>=0.99), decohered={v_dec:.4f} "
        f"(<=0.05), interference identity {'holds' if identity_ok else 'fails'}",
        ok,
    )


def test_criterion_9_condition_thresholds():
    v_e = electron_velocity_scale()
    v_p = proton_velocity_scale()
    boundary = check_conditions(ScatteringConfig(E_n_ev=1.0))["boundary_energy_ev"]
    ve_ok = abs(v_e - 2.0e6) / 2.0e6 <= 0.05
    vp_ok = abs(v_p - 1.0e3) / 1.0e3 <= 0.05
    boundary_ok = abs(boundary - 0.08) / 0.08 <= 0.25
    _report(
        9,
        f"v_e={v_e:.4g} m/s vs 2e6 (5%), v_p={v_p:.4g} m/s vs 1e3 (5%), "
        f"boundary {boundary:.4g} eV vs 0.08 (25%)",
        ve_ok and vp_ok and boundary_ok,
    )
