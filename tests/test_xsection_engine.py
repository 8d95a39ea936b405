"""The cross-section engine: a nested ladder of tanh-sinh rules evaluated
as arrays over angles x nodes, and the array form of the damped moments
beneath it."""

import cmath
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import atomdecoh
from atomdecoh import scattering
from atomdecoh.density import Z_EFF_HELIUM
from atomdecoh.quadrature import (
    QuadratureError,
    _miller_start,
    _miller_starts,
    damped_moments,
)
from atomdecoh.scattering import (
    ScatteringConfig,
    _reduced_integrals,
    angular_scan,
    diff_cross_section_numeric,
    total_cross_section_numeric,
)
from oracles import reduced_integral_quad


#: the five subcommands of the README's CLI section
_README_COMMANDS = [
    ["purity", "--z-min", "1e-3", "--z-max", "1e2", "--points", "50"],
    ["momentum", "--z0", "0.1", "--points", "100"],
    ["twoslit", "--separation-ab", "1000", "--delta-ab", "200", "--points", "201"],
    ["xsection", "--energy-ev", "1.0", "--method", "both", "--points", "19"],
    ["conditions", "--energy-ev", "1.0"],
]


def test_import_loads_no_scipy():
    """Neither the import nor a run of the README subcommands loads scipy."""
    code = (
        "import contextlib, io, sys, atomdecoh, atomdecoh.cli\n"
        f"for argv in {_README_COMMANDS!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        "        assert atomdecoh.cli.main(argv) == 0, argv\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    src = os.path.dirname(os.path.dirname(atomdecoh.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out.strip() == "[]"


def _draws(seed, n):
    """(theta, E, z0): theta log-uniform in [1e-6, pi], E in [0.05, 100] eV,
    z0 = 0 or log-uniform in [0.01, 12]."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        theta = math.exp(rng.uniform(math.log(1e-6), math.log(math.pi)))
        energy = math.exp(rng.uniform(math.log(0.05), math.log(100.0)))
        z0 = 0.0 if rng.random() < 0.25 else math.exp(rng.uniform(math.log(0.01), math.log(12.0)))
        out.append((theta, energy, z0))
    return out


@pytest.mark.parametrize("theta,energy,z0", _draws(20261018, 12))
def test_fixed_nodes_match_adaptive_oracle(theta, energy, z0):
    q = ScatteringConfig(E_n_ev=energy).q
    (value,), (error,) = _reduced_integrals(theta, q, z0)
    ref, _ = reduced_integral_quad(theta, q, 4.0, Z_EFF_HELIUM, z0)
    assert abs(value - ref) <= 1e-11 * ref
    assert error <= 1e-10 * value


@pytest.mark.parametrize("theta,energy,z0", [
    (1e-6, 1e-5, 0.0), (0.01, 1e-4, 0.5), (1e-6, 1e-6, 2.0),
    (1e-6, 1e-5, 12.0), (0.5, 1e-6, 12.0), (math.pi, 1e-5, 12.0),
])
def test_slow_neutrons_at_forward_angles_match_adaptive_oracle(theta, energy, z0):
    # below q ~ 0.2 the branch point of kappahat (|k - k'| = 0) comes within
    # 0.1 of the axis in the stretched variable; the peak is split below it.
    # Off a narrow packet (z0 = 12) these angles are trusted only at level 7
    q = ScatteringConfig(E_n_ev=energy).q
    (value,) = _reduced_integrals(np.array([theta]), q, z0)[0]
    ref, _ = reduced_integral_quad(theta, q, 4.0, Z_EFF_HELIUM, z0)
    assert abs(value - ref) <= 1e-11 * ref


def test_scan_and_total_are_the_single_angle_values():
    config = ScatteringConfig(E_n_ev=2.0, z0=0.5)
    table = angular_scan(config, 5, "numeric")
    singles = [diff_cross_section_numeric(config, theta) for theta in table.theta_grid]
    np.testing.assert_allclose(table.dsigma_numeric, singles, rtol=1e-15)
    nodes, weights = np.polynomial.legendre.leggauss(scattering._TOTAL_NODES)
    total = 2.0 * math.pi * sum(
        w * diff_cross_section_numeric(config, math.acos(x)) for x, w in zip(nodes, weights)
    )
    assert total_cross_section_numeric(config) == pytest.approx(total, rel=1e-14)


def _one_shot(theta, q, z0, level):
    """The reduced integral at every angle of theta by the tanh-sinh rule of
    the given level, all of its nodes at once."""
    node_sums = scattering._node_sums(theta, q, z0)
    return node_sums(np.arange(theta.size), *scattering._tanh_sinh(level, False))


def _trust_levels(theta, q, z0):
    """The rung at which each angle of theta passes the trust test, from
    one-shot rules at consecutive levels, and its one-shot value there."""
    levels = np.zeros(theta.size, dtype=int)
    values = np.full(theta.size, np.nan)
    coarse = _one_shot(theta, q, z0, scattering._LEVELS[0] - 1)
    for level in scattering._LEVELS:
        value = _one_shot(theta, q, z0, level)
        passed = (levels == 0) & np.isfinite(value) & (
            np.abs(value - coarse) <= scattering._ACCURACY * np.abs(value))
        levels[passed], values[passed] = level, value[passed]
        coarse = value
    return levels, values


#: (E, z0, points) of scans whose angles, between them, are trusted at every
#: rung: levels 4 and 5 at 1 eV, 5 at 0.05 eV, 6 at 1e-3 eV and 7 at 1e-5 eV
_LADDER_SCANS = [(1.0, 0.0, 19), (1.0, 2.0, 19), (0.05, 12.0, 19), (1e-3, 12.0, 9),
                 (1e-5, 12.0, 5)]


def _scan_grid(points):
    """The angles of angular_scan(config, points)."""
    grid = np.linspace(0.0, math.pi, points)
    grid[0] = scattering.FORWARD_EPSILON
    return grid


@pytest.mark.parametrize("energy,z0,points", _LADDER_SCANS)
def test_ladder_values_are_the_one_shot_rule_where_trusted(energy, z0, points):
    q = ScatteringConfig(E_n_ev=energy).q
    grid = _scan_grid(points)
    levels, expected = _trust_levels(grid, q, z0)
    assert np.all(levels > 0)
    values, _ = _reduced_integrals(grid, q, z0)
    np.testing.assert_allclose(values, expected, rtol=1e-15, atol=0.0)


def test_ladder_scans_reach_every_rung():
    reached = set()
    for energy, z0, points in _LADDER_SCANS:
        grid = _scan_grid(points)
        reached.update(_trust_levels(grid, ScatteringConfig(E_n_ev=energy).q, z0)[0].tolist())
    assert reached == set(scattering._LEVELS)


def _evaluations(monkeypatch, call):
    """The number of integrand values call() asks of the spectral weight."""
    count = 0
    tau = scattering._tau_damped

    def counted(kappa_val, omega, z0):
        nonlocal count
        count += np.size(kappa_val)
        return tau(kappa_val, omega, z0)

    with monkeypatch.context() as patch:
        patch.setattr(scattering, "_tau_damped", counted)
        call()
    return count


def test_ladder_evaluates_no_node_twice(monkeypatch):
    # the README scan is trusted at level 4 everywhere: it costs the level-4
    # rule's nodes, the level-3 start included
    config = ScatteringConfig(E_n_ev=1.0)
    scan = _evaluations(monkeypatch, lambda: angular_scan(config, 19, "numeric"))
    assert scan == _evaluations(monkeypatch, lambda: _one_shot(_scan_grid(19), config.q, 0.0, 4))
    # an angle trusted at level 6 costs the level-6 rule's nodes, not those
    # of level 5 on top of them
    grid = _scan_grid(9)
    q = ScatteringConfig(E_n_ev=1e-3).q
    levels, _ = _trust_levels(grid, q, 12.0)
    theta = grid[levels == 6][:1]
    assert theta.size == 1
    retried = _evaluations(monkeypatch, lambda: _reduced_integrals(theta, q, 12.0))
    assert retried == _evaluations(monkeypatch, lambda: _one_shot(theta, q, 12.0, 6))


def _branch_points():
    """(b, a) in every branch of damped_moments at n_max = 6: a = 0; the
    asymptotic series (|mu|^2 >= 254); the upward recurrence (|mu|^2 <= 6);
    Miller's recurrence (Re mu >= 0.5); and past the cap (Re mu < 0.5),
    both where the capped recurrence wins and where the upward one does;
    and, at a = 1, the octave edges 2^k and 2^k (1 - 1e-12), k = 8..17, at
    which the series branch changes its band (2^16 exactly: mu = 256)."""
    mus = [cmath.rect(r, phi) for r in (0.3, 1.5, 2.4)
           for phi in np.linspace(-math.pi / 2 + 0.2, math.pi / 2 - 0.2, 5)]
    mus += [complex(x, y) for x in (0.5, 1.0, 3.0, 8.0) for y in (-12.0, -4.0, 0.0, 5.0)]
    mus += [complex(x, y) for x in (20.0, 60.0, 1e3) for y in (-300.0, 0.0, 40.0)]
    mus += [complex(re, -math.sqrt(s - re * re)) for re in (0.01, 0.1, 0.3)
            for s in (6.5, 16.0, 60.0, 140.0, 230.0)]
    points = [(mu * math.sqrt(a), a) for mu in mus for a in (1e-3, 0.7, 40.0)]
    points += [(complex(2.0, -5.0), 0.0), (complex(0.1, 3.0), 0.0)]
    points += [(cmath.rect(math.sqrt(2.0**k * side), phi), 1.0) for k in range(8, 18)
               for side in (1.0, 1.0 - 1e-12) for phi in (0.0, 1.0, -1.5)]
    return points


def test_array_damped_moments_equal_scalar_calls():
    points = _branch_points()
    for a in sorted({p[1] for p in points}):
        bs = [bi for bi, ai in points if ai == a]
        got = damped_moments(np.array(bs), a, 6)
        assert got.shape == (7, len(bs))
        for i, bi in enumerate(bs):
            ref = np.array(damped_moments(bi, a, 6))
            re_mu = bi.real / math.sqrt(a) if a > 0.0 else math.inf
            # numpy's complex arithmetic rounds differently from Python's in
            # the last bit; past the cap the recurrence amplifies that difference
            tol = 1e-13 if re_mu >= 0.5 else 1e-11
            assert np.max(np.abs(got[:, i] - ref) / np.abs(ref)) <= tol, (bi, a)


@pytest.mark.parametrize("n_max", [3, 4, 6, 12])
def test_scalar_and_array_moments_share_one_start_rule(n_max):
    # the start of the backward recurrence, the cap, or 0 for the upward
    # recurrence, on every branch point and a seeded grid of Re mu in
    # [0.01, 30] reaching past the cap and into the series branch
    rng = np.random.default_rng(20261018)
    re = np.exp(rng.uniform(math.log(0.01), math.log(30.0), 600))
    mus = [b / math.sqrt(a) for b, a in _branch_points() if a > 0.0]
    mus += [complex(mu) for mu in re + 1j * rng.uniform(-20.0, 20.0, re.size)]
    scalar = [_miller_start(mu, n_max) or 0 for mu in mus]
    assert scalar == _miller_starts(np.array(mus), n_max).tolist()


def test_damped_moments_where_mu_squared_overflows():
    # |mu| = 2 / sqrt(1e-320) ~ 2e160, so |mu|^2 is past the largest double;
    # the series branch returns the a -> 0 limit n!/b^(n+1) exactly
    exact = [math.factorial(n) / 2.0 ** (n + 1) for n in range(7)]
    assert damped_moments(2.0, 1e-320, 6) == exact
    assert list(damped_moments(np.array([2.0]), 1e-320, 6)[:, 0]) == exact


def test_array_damped_moments_validate():
    b = np.array([1.0 - 2.0j, 3.0 + 0.5j])
    for bad_b, bad_a in ((np.array([1.0, np.nan]), 1.0), (b, np.nan), (-b, 0.25), (b, -1.0),
                         (b.reshape(2, 1), 0.25)):
        with pytest.raises(ValueError):
            damped_moments(bad_b, bad_a, 3)
    # one damping per call: an array a raises, whatever b is
    for bad_b in (b, b[0]):
        with pytest.raises(TypeError):
            damped_moments(bad_b, np.array([0.25, 4.0]), 3)


def test_error_estimate_above_accuracy_raises(monkeypatch):
    assert issubclass(QuadratureError, ArithmeticError)
    config = ScatteringConfig(E_n_ev=1.0, z0=0.5)
    assert diff_cross_section_numeric(config, 1.0) > 0.0
    # a ladder of levels 1 and 2 trusts no angle
    monkeypatch.setattr(scattering, "_LEVELS", (1, 2))
    with pytest.raises(QuadratureError, match="error estimate"):
        diff_cross_section_numeric(config, 1.0)
    with pytest.raises(QuadratureError, match="at theta=1e-06: "):
        angular_scan(config, 3, "numeric")
    with pytest.raises(QuadratureError):
        total_cross_section_numeric(config)
