"""The cross-section engine: a nested ladder of tanh-sinh rules evaluated
as arrays over angles x nodes, and the array kernel of the damped moments
beneath it."""

import cmath
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import atomdecoh
from atomdecoh import quadrature, scattering
from atomdecoh.density import Z_EFF_HELIUM
from atomdecoh.quadrature import (
    QuadratureError,
    _closed_start,
    _damped_moments_array,
    _miller_start,
    _miller_starts,
    damped_moments,
)
from atomdecoh.scattering import (
    ScatteringConfig,
    _reduced_integrals,
    angular_scan,
    diff_cross_section_numeric,
    tau_transform,
    total_cross_section_numeric,
)
from oracles import node_sums_by_piece, reduced_integral_quad


#: the five subcommands of the README's CLI section
_README_COMMANDS = [
    ["purity", "--z-min", "1e-3", "--z-max", "1e2", "--points", "50"],
    ["momentum", "--z0", "0.1", "--points", "100"],
    ["twoslit", "--separation-ab", "1000", "--delta-ab", "200", "--points", "201"],
    ["xsection", "--energy-ev", "1.0", "--method", "both", "--points", "19"],
    ["conditions", "--energy-ev", "1.0"],
]


#: defines run(argv), a README subcommand through cli.main with its output
#: captured, which must exit 0
_RUN = (
    "import contextlib, io, sys, atomdecoh, atomdecoh.cli\n"
    "def run(argv):\n"
    "    with contextlib.redirect_stdout(io.StringIO()), "
    "contextlib.redirect_stderr(io.StringIO()):\n"
    "        assert atomdecoh.cli.main(argv) == 0, argv\n"
)


def _fresh(code):
    """The stdout of code run by a fresh interpreter that imports this
    package."""
    src = os.path.dirname(os.path.dirname(atomdecoh.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True).stdout.strip()


def test_import_loads_no_scipy():
    """Neither the import nor a run of the README subcommands loads scipy."""
    code = _RUN + (
        f"for argv in {_README_COMMANDS!r}:\n"
        "    run(argv)\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    assert _fresh(code) == "[]"


def test_import_and_conditions_load_no_numpy():
    """import atomdecoh and a README conditions run leave numpy unloaded;
    the other README subcommands load it at their first array and exit 0."""
    assert _README_COMMANDS[-1][0] == "conditions"
    code = _RUN + (
        "loaded = ['numpy' in sys.modules]\n"
        f"run({_README_COMMANDS[-1]!r})\n"
        "loaded.append('numpy' in sys.modules)\n"
        f"for argv in {_README_COMMANDS[:-1]!r}:\n"
        "    run(argv)\n"
        "loaded.append('numpy' in sys.modules)\n"
        "print(loaded)"
    )
    assert _fresh(code) == "[False, False, True]"


def test_scalar_paths_load_no_numpy():
    """The scalar paths leave numpy unloaded: purity on its upward, Newton
    and closed branches, momentum_density at q = 0 and in closed form,
    damped_moments for a float, an int and a complex b in every branch,
    tau_transform at z0 = 0 and z0 > 0, ScatteringConfig and
    check_conditions."""
    code = (
        "import sys\n"
        "from atomdecoh import ScatteringConfig, check_conditions, momentum_density, purity\n"
        "from atomdecoh.scattering import tau_transform\n"
        "from atomdecoh.quadrature import damped_moments\n"
        "for z in (2.0, 0.5, 0.1):\n"
        "    purity(z)\n"
        "for z0 in (0.1, 3.0):\n"
        "    for q in (0.0, 1e-3, 1.0, 30.0):\n"
        "        momentum_density(q, z0)\n"
        # a = 0, and at a = 1 the upward recurrence (b = 1), the exact limit
        # (1e10), the Newton search (5), the closed-form start (20) and, for
        # a complex b, the cap
        "for b in (1.0, 1e10, 5.0, 20.0, 1, 10**10, 5, 20,\n"
        "          1 + 1j, 1e10 + 1j, 5 - 2j, 20 + 3j, complex(1e-300, -9.0)):\n"
        "    for a in (0.0, 1.0):\n"
        "        damped_moments(b, a, 3)\n"
        "tau_transform(1.0, 2.0, 0.0)\n"
        "tau_transform(1.0, 2.0, 0.5)\n"
        "check_conditions(ScatteringConfig(E_n_ev=1.0, z0=0.5))\n"
        "print('numpy' in sys.modules)"
    )
    assert _fresh(code) == "False"


#: array calls whose array may be made before the package first uses numpy
_ARRAY_CALLS = (
    "atomdecoh.quadrature._damped_moments_array("
    "np.array([2.0 + 1j, 2.0 - 3.0j, 2.0 + 40j, 2.0 + 0j, 2.0 - 30.0j]), 0.7, 6)",
    "atomdecoh.f_theta(np.linspace(0.0, math.pi, 7))",
    "atomdecoh.h_theta(np.linspace(0.0, math.pi, 7))",
    "atomdecoh.momentum_distribution(0.3, np.array([0.0, 1e-3, 0.5, 4.0, 30.0])).values",
)


@pytest.mark.parametrize("numpy_first", [True, False], ids=["numpy_first", "package_first"])
@pytest.mark.parametrize("call", _ARRAY_CALLS, ids=lambda call: call.split("(")[0].split(".")[-1])
def test_an_array_made_before_the_package_uses_numpy_dispatches_as_one(call, numpy_first):
    # the caller imports numpy, before or after the package, and makes the
    # array; the call is the package's first use of numpy, and gives the
    # array that the same call gives here, where numpy is long loaded
    imports = ("import numpy as np\nimport atomdecoh\n" if numpy_first
               else "import atomdecoh\nimport numpy as np\n")
    code = imports + (
        "import math\n"
        "assert atomdecoh.quadrature.np is not np\n"
        f"value = {call}\n"
        "assert atomdecoh.quadrature.np is np\n"
        f"again = {call}\n"
        "assert type(value) is np.ndarray and value.tobytes() == again.tobytes()\n"
        "print(value.dtype, value.shape, value.tobytes().hex())"
    )
    expected = eval(call, {"atomdecoh": atomdecoh, "np": np, "math": math})
    assert _fresh(code) == f"{expected.dtype} {expected.shape} {expected.tobytes().hex()}"


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="minor page faults are read from Linux getrusage")
@pytest.mark.parametrize("numpy_first", [True, False], ids=["numpy_first", "package_first"])
def test_readme_xsection_takes_no_page_faults(numpy_first):
    # glibc hands a free heap top back to the kernel once it exceeds its trim
    # threshold; temporaries that reach it fault in again on every call.
    # Whether they do depends on what the process allocated before, so the
    # README run is measured with numpy loaded before the package and at its
    # first array
    assert _README_COMMANDS[3][0] == "xsection"
    code = ("import numpy\n" if numpy_first else "") + _RUN + (
        "import resource\n"
        f"argv = {_README_COMMANDS[3]!r}\n"
        "for _ in range(20):\n"
        "    run(argv)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "for _ in range(100):\n"
        "    run(argv)\n"
        "print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 100)"
    )
    assert float(_fresh(code)) <= 1.0


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
    """The number of integrand values call() asks of the spectral weight:
    of _rest_weight at z0 = 0 and of _damped_weight for z0 > 0."""
    count = 0

    def counted(weight):
        def evaluate(first, *rest):
            nonlocal count
            count += np.size(first)
            return weight(first, *rest)
        return evaluate

    with monkeypatch.context() as patch:
        for name in ("_damped_weight", "_rest_weight"):
            patch.setattr(scattering, name, counted(getattr(scattering, name)))
        call()
    return count


def test_ladder_evaluates_no_node_twice(monkeypatch):
    # the README scan is trusted at level 4 everywhere: it costs the level-4
    # rule's nodes, the level-3 start included
    config = ScatteringConfig(E_n_ev=1.0)
    scan = _evaluations(monkeypatch, lambda: angular_scan(config, 19, "numeric"))
    assert scan > 0
    assert scan == _evaluations(monkeypatch, lambda: _one_shot(_scan_grid(19), config.q, 0.0, 4))
    # an angle trusted at level 6 costs the level-6 rule's nodes, not those
    # of level 5 on top of them
    grid = _scan_grid(9)
    q = ScatteringConfig(E_n_ev=1e-3).q
    levels, _ = _trust_levels(grid, q, 12.0)
    theta = grid[levels == 6][:1]
    assert theta.size == 1
    retried = _evaluations(monkeypatch, lambda: _reduced_integrals(theta, q, 12.0))
    assert retried > 0
    assert retried == _evaluations(monkeypatch, lambda: _one_shot(theta, q, 12.0, 6))


def _two_call_ladder(theta, q, z0):
    """_reduced_integrals' values and error estimates with the ladder's
    start and its first rung as two calls of _node_sums, each on its own
    nodes: the level-3 rule, then the odd nodes of level 4."""
    values, errors = np.empty(theta.size), np.empty(theta.size)
    for lo in range(0, theta.size, 64):
        block = slice(lo, lo + 64)
        node_sums = scattering._node_sums(theta[block], q, z0)
        todo = np.arange(theta[block].size)
        value = node_sums(todo, *scattering._tanh_sinh(3, False))
        error = np.full(value.shape, np.inf)
        for level in (4, 5, 6, 7):
            coarse = value[todo]
            value[todo] = 0.5 * coarse + node_sums(todo, *scattering._tanh_sinh(level, True))
            error[todo] = np.abs(value[todo] - coarse)
            trusted = np.isfinite(value[todo]) & (error[todo] <= 1e-10 * np.abs(value[todo]))
            todo = todo[~trusted]
            if not todo.size:
                break
        assert not todo.size
        values[block], errors[block] = value, error
    return values, errors


@pytest.mark.parametrize("energy,z0,theta", [
    (1.0, 0.0, _scan_grid(19)),
    (1.0, 0.0, _scan_grid(181)),
    (1.0, 0.5, _scan_grid(181)),
    (1.0, 12.0, _scan_grid(181)),
    (1.0, 0.0, np.array([1e-6])),
    (1.0, 0.0, np.arccos(np.polynomial.legendre.leggauss(48)[0])),
    (1e-3, 12.0, _scan_grid(9)),
    (1e-5, 12.0, _scan_grid(5)),
])
def test_ladder_is_the_two_call_ladder_bit_for_bit(energy, z0, theta):
    # the start and the first rung in one pass give the values and error
    # estimates of one call each, at every rung an angle is trusted
    q = ScatteringConfig(E_n_ev=energy).q
    values, errors = _reduced_integrals(theta, q, z0)
    expected_values, expected_errors = _two_call_ladder(theta, q, z0)
    assert values.tobytes() == expected_values.tobytes()
    assert errors.tobytes() == expected_errors.tobytes()


@pytest.mark.parametrize("energy,z0", [(1.0, 0.0), (1e-5, 12.0), (100.0, 0.5)])
def test_split_node_sums_are_the_sums_over_each_part(energy, z0):
    # the sums over nodes[:split] and nodes[split:] from one call are each
    # the same to the bit as a call on those nodes alone, the tail rows'
    # dropped nodes and split included
    q = ScatteringConfig(E_n_ev=energy).q
    theta = _scan_grid(37)
    sums = scattering._node_sums(theta, q, z0)
    nodes, weights, split = scattering._ladder_start(4)
    assert split == scattering._tanh_sinh(3, False)[0].size
    assert np.count_nonzero(nodes[:split] < scattering._TAIL_T_MIN) > 0
    for idx in (np.arange(theta.size), np.arange(0, theta.size, 5), np.array([36])):
        first, second = sums(idx, nodes, weights, split)
        assert first.tobytes() == sums(idx, nodes[:split], weights[:split]).tobytes()
        assert second.tobytes() == sums(idx, nodes[split:], weights[split:]).tobytes()


@pytest.mark.parametrize("energy,z0", [(1.0, 0.0), (100.0, 0.5), (1.0, 2.0), (0.05, 12.0),
                                       (1e-5, 12.0)])
def test_node_sums_equal_the_piece_by_piece_loop_bit_for_bit(energy, z0):
    # with empty pieces at forward angles, the branch-point split, and
    # angle subsets as the ladder passes them
    q = ScatteringConfig(E_n_ev=energy).q
    theta = _scan_grid(37)
    rows, pieces = scattering._node_sums(theta, q, z0), node_sums_by_piece(theta, q, z0)
    for level, odd in ((3, False), (4, True), (7, True)):
        nodes, weights = scattering._tanh_sinh(level, odd)
        for idx in (np.arange(theta.size), np.arange(0, theta.size, 5), np.array([36])):
            assert rows(idx, nodes, weights).tobytes() == pieces(idx, nodes, weights).tobytes()


@pytest.mark.parametrize("z0", [1e-200, 4.7e-162])
def test_a_damping_that_underflows_is_no_damping(z0):
    # z0^2 / 8 rounds to 0: the spectral weight and the scan take the
    # closed form of z0 = 0 bit for bit, not the a -> 0 moment sum, which
    # cancels like u^5 far out (-7.3e-25 against 1.7e-25 at u = 1e4)
    assert z0 * z0 / 8.0 == 0.0
    for omega in (0.0, 2.0, 2e4, 2e8):
        assert tau_transform(1.0, omega, z0) == tau_transform(1.0, omega, 0.0), omega
    q = ScatteringConfig(E_n_ev=1.0).q
    theta = _scan_grid(19)
    damped, rest = _reduced_integrals(theta, q, z0), _reduced_integrals(theta, q, 0.0)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(damped, rest))


@pytest.mark.parametrize("energy", [1e-10, 1e-5, 1.0, 1e3, 1e300])
@pytest.mark.parametrize("points", [19, 181])
def test_rest_weight_is_tau_transform_on_scan_nodes(monkeypatch, energy, points):
    # the z0 = 0 weight the scan forms from the squared width, on the nodes
    # of the level-4 rule at angles from 0 to pi (every fifth node of the
    # 181-angle grids), against tau_transform at the kappahat and what of
    # those nodes. Wherever kappahat F is a normal double it is within 16
    # ulps (13.3 measured over these grids, what rounded once more from
    # half included); below that it is never larger. At 1e300 eV half of the
    # nodes lie there, 399 of the 19-angle grid's with half^2 past the
    # largest double, and kappahat below 1e-300 keeps F up to 3.7e-9
    seen = []
    weight = scattering._rest_weight

    def record(m, half):
        # copies: the scan goes on to work in the arrays it passes and gets
        value = weight(m, half)
        seen.append([array.copy() for array in np.broadcast_arrays(m, half, value)])
        return value

    monkeypatch.setattr(scattering, "_rest_weight", record)
    q = ScatteringConfig(E_n_ev=energy).q
    _one_shot(np.linspace(0.0, math.pi, points), q, 0.0, 4)
    stride = 1 if points < 100 else 5
    m, half, value = (np.concatenate([arrays[i].ravel() for arrays in seen])[::stride]
                      for i in range(3))
    kappa_scale = Z_EFF_HELIUM / (scattering.MASS_RATIO * q)
    kappa_hat, w_hat = kappa_scale * np.sqrt(m), 2.0 * kappa_scale * half
    ref = np.array([scattering.tau_transform(kappa, omega, 0.0)
                    for kappa, omega in zip(kappa_hat.tolist(), w_hat.tolist())])
    got = value / 6.0 / kappa_scale
    normal = kappa_hat * ref >= 2.0**-1022
    assert normal.sum() >= m.size // 2
    assert np.all(np.abs(got - ref)[normal] <= 16 * 2.0**-52 * ref[normal])
    assert np.all((got[~normal] >= 0.0) & (got[~normal] <= ref[~normal]))


@pytest.mark.parametrize("energy", [1e-5, 1.0, 100.0, 1e300])
@pytest.mark.parametrize("z0", [0.5, 2.0, 12.0])
def test_damped_weight_is_tau_transform_on_scan_nodes(monkeypatch, energy, z0):
    # the z0 > 0 weight the scan forms in its own units, on the nodes of the
    # level-4 rule at 19 angles from 0 to pi, against tau_transform at the
    # kappahat and what of those nodes. Both are the same moment sum, from
    # the array kernel at b = 2 + 2iu and from the scalar one at its
    # conjugate: within 4e-15 relative at |u| <= 1 (2.7e-15 measured), and
    # kappahat |F - F_ref| within 4e-15 everywhere (2.2e-15 measured), where
    # kappahat F peaks above 0.17 and the sum cancels like u^5 far out
    seen = []
    weight = scattering._damped_weight

    def record(m, half, a):
        value = weight(m, half, a)
        seen.append([array.copy() for array in np.broadcast_arrays(m, half, value)])
        return value

    monkeypatch.setattr(scattering, "_damped_weight", record)
    q = ScatteringConfig(E_n_ev=energy).q
    _one_shot(np.linspace(0.0, math.pi, 19), q, z0, 4)
    m, half, value = (np.concatenate([arrays[i].ravel() for arrays in seen]) for i in range(3))
    kappa_scale = Z_EFF_HELIUM / (scattering.MASS_RATIO * q)
    kappa_hat, w_hat = kappa_scale * np.sqrt(m), 2.0 * kappa_scale * half
    ref = np.array([scattering.tau_transform(kappa, omega, z0)
                    for kappa, omega in zip(kappa_hat.tolist(), w_hat.tolist())])
    got = value / 6.0 / kappa_scale
    near = np.abs(half) <= np.sqrt(m)
    assert near.sum() >= 500
    assert np.all(np.abs(got - ref)[near] <= 4e-15 * ref[near])
    assert np.all(kappa_hat * np.abs(got - ref) <= 4e-15)


def test_node_sums_are_bit_for_bit_across_integrand_chunks():
    # 64 angles at level 7 lay out 328 piece rows of 410 nodes and 64 tail
    # rows of 345, far past the chunk budget of the integrand at z0 = 0:
    # four and five rows a chunk, with chunk boundaries inside every piece
    q = ScatteringConfig(E_n_ev=1.0).q
    theta = _scan_grid(64)
    nodes, weights = scattering._tanh_sinh(7, True)
    assert 4 * nodes.size <= scattering._CHUNK_ELEMENTS < 5 * nodes.size
    idx = np.arange(theta.size)
    rows = scattering._node_sums(theta, q, 0.0)(idx, nodes, weights)
    assert rows.tobytes() == node_sums_by_piece(theta, q, 0.0)(idx, nodes, weights).tobytes()


def _branch_points():
    """(b, a) in every branch of damped_moments at n_max = 6 with a > 0,
    which the array kernel takes: the a -> 0 limit from |mu|^2 = 2^54 * 56
    on; the upward recurrence
    (|mu|^2 <= 6); Miller's recurrence from the Newton-searched start
    (Re mu >= 0.5, |mu|^2 < 254) and from the closed-form one
    (|mu|^2 >= 254); and past the cap (Re mu < 0.5), both where the capped
    recurrence wins and where the upward one does; and, at a = 1, the
    powers of two 2^k and 2^k (1 - 1e-12), k = 8..17, where the binary
    exponents of the closed-form start step."""
    mus = [cmath.rect(r, phi) for r in (0.3, 1.5, 2.4)
           for phi in np.linspace(-math.pi / 2 + 0.2, math.pi / 2 - 0.2, 5)]
    mus += [complex(x, y) for x in (0.5, 1.0, 3.0, 8.0) for y in (-12.0, -4.0, 0.0, 5.0)]
    mus += [complex(x, y) for x in (20.0, 60.0, 1e3) for y in (-300.0, 0.0, 40.0)]
    mus += [complex(re, -math.sqrt(s - re * re)) for re in (0.01, 0.1, 0.3)
            for s in (6.5, 16.0, 60.0, 140.0, 230.0)]
    points = [(mu * math.sqrt(a), a) for mu in mus for a in (1e-3, 0.7, 40.0)]
    points += [(cmath.rect(math.sqrt(2.0**k * side), phi), 1.0) for k in range(8, 18)
               for side in (1.0, 1.0 - 1e-12) for phi in (0.0, 1.0, -1.5)]
    points += [(cmath.rect(math.sqrt(mu_sq), phi), 1.0) for mu_sq in (1e18, 1.1e18, 1e30)
               for phi in (0.0, 1.0, -1.5)]
    return points


def test_array_damped_moments_equal_scalar_calls():
    points = _branch_points()
    for a in sorted({p[1] for p in points}):
        bs = [bi for bi, ai in points if ai == a]
        got = _damped_moments_array(np.array(bs, dtype=complex), a, 6)
        assert got.shape == (7, len(bs))
        for i, bi in enumerate(bs):
            ref = np.array(damped_moments(bi, a, 6))
            re_mu = bi.real / math.sqrt(a)
            # numpy's complex arithmetic rounds differently from Python's in
            # the last bit; past the cap the recurrence amplifies that difference
            tol = 1e-13 if re_mu >= 0.5 else 1e-11
            assert np.max(np.abs(got[:, i] - ref) / np.abs(ref)) <= tol, (bi, a)


@pytest.mark.parametrize("n_max", [3, 4, 6, 12])
def test_scalar_and_array_moments_share_one_start_rule(n_max):
    # the start of the backward recurrence, the cap, or 0 for the upward
    # recurrence, on every branch point and a seeded grid of Re mu in
    # [0.01, 30] reaching past the cap and past |mu|^2 = 170 + 14 n_max
    rng = np.random.default_rng(20261018)
    re = np.exp(rng.uniform(math.log(0.01), math.log(30.0), 600))
    mus = [b / math.sqrt(a) for b, a in _branch_points()]
    mus += [complex(mu) for mu in re + 1j * rng.uniform(-20.0, 20.0, re.size)]
    # a float mu picks, in float arithmetic, the start of its complex form
    mus += np.sqrt(np.geomspace(6.01, 170.0 + 14.0 * n_max, 200)).tolist()
    scalar = [_miller_start(mu, n_max) or 0 for mu in mus]
    assert scalar == _miller_starts(np.array(mus), n_max).tolist()
    # from there on up to the a -> 0 limit, the closed-form start: the same
    # in both forms, and never below the Newton-searched one
    top, limit = 170.0 + 14.0 * n_max, 2.0**54 * ((n_max + 1) * (n_max + 2))
    far = [mu for mu in mus if top <= abs(mu) * abs(mu) < limit]
    far += [cmath.rect(math.exp(0.5 * x), phi) for x, phi in
            zip(rng.uniform(math.log(top), math.log(limit), 600),
                rng.uniform(-math.pi / 2 + 1e-9, math.pi / 2 - 1e-9, 600))]
    closed = [_closed_start(abs(mu) * abs(mu), n_max) for mu in far]
    assert closed == _closed_start(np.abs(np.array(far)) ** 2, n_max).tolist()
    assert all(start >= _miller_start(mu, n_max) for start, mu in zip(closed, far))


def test_backward_runs_evaluate_no_faddeeva_value(monkeypatch):
    # a backward run normalises itself by J_0 = 1 / (mu + g_0); only the
    # upward recurrence takes J_0 from w
    calls = []
    for name in ("_faddeeva", "_erfcx"):
        def counted(z, name=name, evaluate=getattr(quadrature, name)):
            calls.append(name)
            return evaluate(z)
        monkeypatch.setattr(quadrature, name, counted)
    # Newton-searched and closed-form starts, real and complex mu, a = 1
    backward = [4.0, complex(3.0, -5.0), 20.0, complex(60.0, 300.0)]
    for b in backward:
        damped_moments(b, 1.0, 6)
    _damped_moments_array(np.array(backward, dtype=complex), 1.0, 6)
    assert calls == []
    damped_moments(1.0, 1.0, 6)
    damped_moments(complex(1.0, 1.0), 1.0, 6)
    _damped_moments_array(np.array([1.0 + 1.0j]), 1.0, 6)
    assert calls == ["_erfcx", "_faddeeva", "_faddeeva"]


def test_damped_moments_where_mu_squared_overflows():
    # |mu| = 2 / sqrt(1e-320) ~ 2e160, so |mu|^2 is past the largest double;
    # both forms return the a -> 0 limit n!/b^(n+1) exactly
    exact = [math.factorial(n) / 2.0 ** (n + 1) for n in range(7)]
    assert damped_moments(2.0, 1e-320, 6) == exact
    assert list(_damped_moments_array(np.array([2.0 + 0j]), 1e-320, 6)[:, 0]) == exact


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
