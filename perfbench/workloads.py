"""The benchmark's two workloads.

Each workload is closed loop with one client: the next call starts when the
previous one returned. Inputs come from ``random.Random(seed)``; the library
sees only the generated numbers, passed through its public functions. A run
repeats one block of seeded inputs for the whole run and keeps each call's
best time. Fixed check points (refs.json) are the same for every seed.

Outputs are checked three ways:

* fixed check points against mpmath references, each with its stated
  tolerance (``wrong`` when outside it);
* invariants on every seeded output that hold without a reference
  (bounds, monotonicity, agreement with a closed-form limit);
* failures: a raised ``QuadratureError``/``ValueError``, a non-finite value
  or a non-zero exit code from ``cli.main``.

A check point or draw that refs.json lists as a known defect is reported as
wrong but does not make the run incorrect, unless a check point's error grows
past the gate recorded with it.
"""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from time import perf_counter

#: QuadratureSpec.rel_tol with 10x headroom for the two integrals an invariant compares
BOUND_SLACK = 1e-8

#: data rows each subcommand prints (conditions prints one JSON report)
CLI_ROWS = {"purity": 50, "momentum": 100, "twoslit": 201, "xsection": 19, "conditions": 1}
CLI_COMMANDS = {
    "purity": ["purity", "--z-min", "1e-3", "--z-max", "1e2", "--points", "50"],
    "momentum": ["momentum", "--z0", "0.1", "--points", "100"],
    "twoslit": ["twoslit", "--separation-ab", "1000", "--delta-ab", "200", "--points", "201"],
    "xsection": ["xsection", "--energy-ev", "1.0", "--method", "both", "--points", "19"],
    "conditions": ["conditions", "--energy-ev", "1.0"],
}


def _van_der_corput(i: int) -> float:
    out, f = 0.0, 1.0
    while i:
        f /= 2
        out += f * (i % 2)
        i //= 2
    return out


def lattice(rng, n: int, lo: float, hi: float) -> list:
    """n log-uniform draws from [lo, hi]: the first n points of the van der
    Corput sequence shifted by a seeded random offset modulo 1, in random
    order. Randomly shifted quasi-random points cover the range evenly for
    every seed, so the blocks of different seeds cost about the same."""
    shift = rng.random()
    span = math.log(hi / lo)
    draws = [lo * math.exp(span * ((_van_der_corput(i) + shift) % 1.0)) for i in range(1, n + 1)]
    rng.shuffle(draws)
    return draws


@dataclass
class Outcome:
    """What one run measured and checked."""

    latencies: list = field(default_factory=list)   # best time per point (s)
    busy_s: float = 0.0                              # sum of best times per call
    outputs: int = 0                                 # output values of one block
    repeats: int = 0                                 # times the block ran
    attempted: int = 0
    failed: int = 0
    wrong_draws: int = 0
    known_region_draws: int = 0
    problems: list = field(default_factory=list)     # reasons the run is incorrect
    point_errors: dict = field(default_factory=dict)  # check point id -> worst rel err

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(why)

    def absorb(self, other: "Outcome") -> None:
        """Add another run's counts and checks (not its timings)."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.wrong_draws += other.wrong_draws
        self.known_region_draws += other.known_region_draws
        self.problems += other.problems[:max(0, 20 - len(self.problems))]
        for pid, err in other.point_errors.items():
            self.point_errors[pid] = max(self.point_errors.get(pid, 0.0), err)

    def wrong_draw(self, why: str, known: bool) -> None:
        self.wrong_draws += 1
        if known:
            self.known_region_draws += 1
        elif len(self.problems) < 20:
            self.problems.append(why)


def rel_err(value: float, ref: float) -> float:
    if not math.isfinite(value):
        return math.inf
    return abs(value - ref) / max(abs(ref), 1e-300)


def summarize_checks(points: list, errors: dict) -> dict:
    """wrong = outside the stated tolerance; unexpected = outside the gate
    (the tolerance, or for a known defect its recorded allowance)."""
    wrong, unexpected, worst = [], [], 0.0
    for p in points:
        err = errors.get(p["id"], math.inf)
        worst = max(worst, err)
        if not err <= p["tol"]:
            wrong.append(p["id"])
        gate = p.get("known_defect", {}).get("gate", p["tol"])
        if not err <= gate:
            unexpected.append(f"{p['id']}: rel err {err:.3g} > {gate:.3g}")
    n = len(points)
    return {
        "points": n,
        "wrong": wrong,
        "unexpected": unexpected,
        "max_rel_err": worst,
        "wrong_ratio": len(wrong) / n,
        "within_tol_ratio": (n - len(wrong)) / n,
    }


def _in_region(region: dict, **args) -> bool:
    return all(
        (key.endswith("_max") and args[key[:-4]] <= limit)
        or (key.endswith("_min") and args[key[:-4]] >= limit)
        for key, limit in region.items() if key.endswith(("_max", "_min"))
    )


class InProcess:
    """Base of the in-process workloads: a seeded block of passes, each a
    list of (kind, call, n_outputs) timed one by one and then checked."""

    name = ""

    def __init__(self, ad, refs: dict):
        self.ad = ad
        self.points = refs["workloads"][self.name]
        self.regions = refs.get("known_defect_regions", [])

    def evaluate_points(self, out: Outcome) -> None:
        """Fixed check points that name a library function (``fn``)
        against refs.json; also warms up every path."""
        for p in (p for p in self.points if "fn" in p):
            try:
                value = self.evaluate(p)
            except (self.ad.QuadratureError, ValueError) as exc:
                out.fail(f"{p['id']}: {type(exc).__name__}: {exc}")
                continue
            out.point_errors[p["id"]] = rel_err(value, float(p["value"]))

    def evaluate(self, point: dict) -> float:
        raise NotImplementedError

    def make_block(self, rng) -> list:
        """[(spec, [(kind, call, n_outputs), ...]), ...], one entry per pass."""
        raise NotImplementedError

    def check_pass(self, spec, values, out: Outcome) -> None:
        raise NotImplementedError

    def run(self, rng, seconds: float, out: Outcome, between, tracer=None) -> None:
        """Time one seeded block of passes again and again until ``seconds``
        have passed (at least twice), keeping each call's best time: other
        tenants of the machine slow it down in phases of several seconds, and
        the best of the repeats is the time the code itself takes.

        The first repeat's outputs are checked; later repeats must give the
        same outputs bit for bit. ``between()`` runs after each repeat,
        outside the timed calls."""
        block = self.make_block(rng)
        calls = [call for _, pass_calls in block for call in pass_calls]
        best = [math.inf] * len(calls)
        errors = self.ad.QuadratureError, ValueError
        first = None
        repeats = 0
        deadline = perf_counter() + seconds
        while repeats < 2 or perf_counter() < deadline:
            values = []
            for i, (kind, call, _) in enumerate(calls):
                out.attempted += 1
                t0 = perf_counter()
                try:
                    value = call()
                except errors as exc:
                    out.fail(f"{kind}: {type(exc).__name__}: {exc}")
                    values.append(None)
                    continue
                best[i] = min(best[i], perf_counter() - t0)
                values.append(value)
            if first is None:
                first = values
                if tracer is not None:
                    tracer.active = False
                start = 0
                for spec, pass_calls in block:
                    self.check_pass(spec, values[start:start + len(pass_calls)], out)
                    start += len(pass_calls)
                if tracer is not None:
                    tracer.active = True
            elif list(map(repr, values)) != list(map(repr, first)):
                why = "outputs differ between repeats of the same inputs"
                if why not in out.problems:
                    out.problems.append(why)
            repeats += 1
            between()
        for (_, _, n_out), t in zip(calls, best):
            if math.isfinite(t):
                out.busy_s += t
                out.outputs += n_out
                out.latencies.append(t)
        out.repeats = repeats

    def known(self, fn: str, **args) -> bool:
        return any(r["fn"] == fn and _in_region(r, **args) for r in self.regions)


class MomentumPurity(InProcess):
    """momentum_distribution at seeded (z0, q) and purity at seeded z."""

    name = "momentum_purity"
    block_passes = 150  # about 2 s of calls on a 2-CPU x86 VM

    def evaluate(self, point: dict) -> float:
        if point["fn"] == "purity":
            return self.ad.purity(point["z"])
        return float(self.ad.momentum_distribution(point["z0"], [point["q"]]).values[0])

    def make_block(self, rng):
        ad = self.ad
        n = self.block_passes
        z0s = lattice(rng, n, 0.01, 5.0)
        qs = lattice(rng, 6 * n, 1e-3, 50.0)
        zs = lattice(rng, 3 * n, 1e-3, 1e2)
        block = []
        for i, z0 in enumerate(z0s):
            pass_qs, pass_zs = qs[6 * i:6 * i + 6], zs[3 * i:3 * i + 3]
            calls = [("momentum", lambda q=q, z0=z0: float(
                ad.momentum_distribution(z0, [q]).values[0]), 1) for q in pass_qs]
            calls += [("purity", lambda z=z: ad.purity(z), 1) for z in pass_zs]
            block.append(((z0, pass_qs, pass_zs), calls))
        return block

    def check_pass(self, spec, values, out: Outcome) -> None:
        z0, qs, zs = spec
        n0 = self.ad.momentum_density(0.0, z0)
        # n(q) = (1/2pi^2) int s^2 D(s) G(s) sin(qs)/(qs) ds with D G >= 0, and
        # 1 - x^2/6 <= sin(x)/x <= 1, so n0 (1 - q^2 <s^2>/6) <= n(q) <= n0 with
        # <s^2> <= min(<s^2>_D, <s^2>_G) = min(24, 12/z0^2).
        second_moment = min(24.0, 12.0 / z0**2)
        for q, n in zip(qs, values[:len(qs)]):
            if n is None:
                continue
            if not math.isfinite(n):
                out.fail(f"momentum q={q} z0={z0}: non-finite {n}")
                continue
            lower = n0 * (1.0 - q * q * second_moment / 6.0 - BOUND_SLACK)
            if not (max(lower, 0.0) <= n <= n0 * (1.0 + BOUND_SLACK)):
                out.wrong_draw(f"momentum q={q!r} z0={z0!r}: n={n!r} outside "
                               f"[{lower!r}, {n0!r}]", self.known("momentum_density", q=q, z0=z0))
        prev = None
        for z, p in sorted(zip(zs, values[len(qs):])):
            if p is None:
                continue
            if not math.isfinite(p):
                out.fail(f"purity z={z}: non-finite {p}")
                continue
            if not (0.0 < p <= 1.0 + 1e-12) or (prev is not None and p < prev * (1 - BOUND_SLACK)):
                out.wrong_draw(f"purity z={z!r}: {p!r} not in (0, 1] or not increasing in z",
                               self.known("purity", z=z))
            prev = p


class CliInProcess(InProcess):
    """The five README subcommands through ``atomdecoh.cli.main`` in this
    process, in a seeded order, with stdout and stderr captured. This is a
    CLI run without interpreter start and import, which ``setup_s`` times.
    Every CSV value is checked against refs.json; the cross-section check
    points, which the README run (z0 = 0, 1 eV) does not reach, are
    evaluated directly."""

    name = "cli_inproc"

    def __init__(self, ad, refs):
        import atomdecoh.cli

        super().__init__(ad, refs)
        self.cli = atomdecoh.cli
        self.by_table: dict = {}
        for p in self.points:
            if "subcommand" in p:
                self.by_table.setdefault((p["subcommand"], p["column"]), []).append(p)

    def evaluate(self, point: dict) -> float:
        config = self.ad.ScatteringConfig(E_n_ev=point["energy_ev"], z0=point["z0"])
        return self.ad.diff_cross_section_numeric(config, point["theta"])

    def invoke(self, sub: str) -> tuple:
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = self.cli.main(list(CLI_COMMANDS[sub]))
        return code, stdout.getvalue(), stderr.getvalue()

    def make_block(self, rng):
        order = rng.sample(sorted(CLI_COMMANDS), len(CLI_COMMANDS))
        return [(order, [(sub, lambda sub=sub: self.invoke(sub), CLI_ROWS[sub])
                         for sub in order])]

    def check_pass(self, spec, values, out: Outcome) -> None:
        for sub, value in zip(spec, values):
            if value is None:
                continue
            code, stdout, stderr = value
            if code != 0:
                out.fail(f"{sub}: exit {code}: {stderr.strip()[-300:]}")
            else:
                self.check(sub, stdout, stderr, out)

    def check(self, sub: str, stdout: str, stderr: str, out: Outcome) -> None:
        """Check one invocation's output."""
        try:
            if sub == "conditions":
                report = json.loads(stdout)
                margin = report["observability"]["margin"]
                if not abs(margin / 3.5 - 1.0) <= 0.05:  # tests/test_scattering.py
                    out.wrong_draw(f"conditions: observability margin {margin!r}", False)
                return
            lines = [ln for ln in stdout.splitlines() if ln and not ln.startswith("#")]
            columns = lines[0].split(",")
            rows = [[float(x) for x in ln.split(",")] for ln in lines[1:]]
            if sub == "xsection":
                json.loads(stderr)  # the JSON summary
        except (ValueError, KeyError, IndexError) as exc:
            out.fail(f"{sub}: unparsable output: {exc}")
            return
        if len(rows) != CLI_ROWS[sub] or not all(math.isfinite(x) for row in rows for x in row):
            out.fail(f"{sub}: {len(rows)} rows, or a non-finite value")
            return
        for (table, column), pts in self.by_table.items():
            if table != sub:
                continue
            j = columns.index(column)
            for p in pts:
                out.point_errors[p["id"]] = rel_err(rows[p["row"]][j], float(p["value"]))
        if sub == "twoslit":
            vis = [ln for ln in stdout.splitlines() if ln.startswith("# visibility")]
            coherent = float(vis[0].split("coherent=")[1].split()[0]) if vis else math.nan
            if not coherent >= 0.99 or min(min(r[1:]) for r in rows) < 0:
                out.wrong_draw(f"twoslit: coherent visibility {coherent}, or P < 0", False)

