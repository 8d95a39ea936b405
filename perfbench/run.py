#!/usr/bin/env python3
"""atomdecoh benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is cli_inproc, momentum_purity, or ``all`` (each workload in turn, one
process each, with a table of every metric). ``--trace 0`` measures the
end-to-end metrics; ``--trace 1`` runs the same inputs traced and reports
the per-layer metrics (see perfbench/METRICS.md).

Run it from the root of a source checkout: the package is imported from
``src/``. Each run writes a result file with a provenance block under
perfbench/out/ and prints one JSON object as the last line of stdout.
"""

from __future__ import annotations

import os

#: single-threaded BLAS/OpenMP everywhere; set before numpy is imported
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import gzip  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from importlib import metadata  # noqa: E402
from time import perf_counter  # noqa: E402

import workloads  # noqa: E402
from tracing import LAYER_METRICS, Tracer, layer_metrics, parse_importtime  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

WORKLOADS = ("cli_inproc", "momentum_purity")
SETUP_REPEATS = 7
SETUP_SPACING_S = 8.0

END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p95_ms", "ms"),
    ("points_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("within_tol_ratio", "ratio"),
)


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH="src", **THREAD_ENV)
    env.pop("PYTHONSTARTUP", None)
    return env


class Setup:
    """Times fresh ``python -c "import atomdecoh"`` processes. One runs before
    the workload and then one every SETUP_SPACING_S between repeats of its
    block, so the samples spread over the whole run instead of falling in
    one phase of the machine's load."""

    def __init__(self, importtime: bool):
        self.cmd = [sys.executable] + (["-X", "importtime"] if importtime else [])
        self.cmd += ["-c", "import atomdecoh"]
        self.importtime = importtime
        self.times: list = []
        self.tables: list = []
        self.last = -math.inf

    def between(self) -> None:
        if perf_counter() - self.last >= SETUP_SPACING_S:
            self()

    def __call__(self) -> None:
        t0 = perf_counter()
        proc = subprocess.run(self.cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=120)
        self.last = perf_counter()
        self.times.append(self.last - t0)
        if proc.returncode != 0:
            raise SystemExit(f"import atomdecoh failed:\n{proc.stderr.strip()[-2000:]}")
        if self.importtime:
            self.tables.append(parse_importtime(proc.stderr)[0])

    def top_up(self) -> None:
        while len(self.times) < SETUP_REPEATS:
            self()


def git_commit() -> str | None:
    """HEAD of the checkout read from .git without running git, or None."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args) -> dict:
    versions = {}
    for dist in ("numpy", "scipy", "mpmath"):
        try:
            versions[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            versions[dist] = None
    return {
        "git_commit": git_commit(),
        "python": platform.python_version(),
        **versions,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "seed": args.seed,
        "run_seconds": args.seconds,
        "trace": args.trace,
        "thread_env": THREAD_ENV,
    }


def percentile(values: list, pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB


def run_traced(wl, args, out, setup) -> tuple[list, float]:
    """Untraced then traced halves on the same inputs; returns the tracer
    dumps and the ratio of the traced to the untraced best block time."""
    half = args.seconds / 2.0
    plain = workloads.Outcome()
    wl.run(random.Random(args.seed), half, plain, setup.between)
    tracer = Tracer()
    tracer.install_library()
    tracer.install_cli()
    try:
        wl.run(random.Random(args.seed), half, out, setup.between, tracer)
    finally:
        tracer.uninstall()
    out.absorb(plain)
    return [tracer.dump()], out.busy_s / plain.busy_s


def run_one(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "atomdecoh", "__init__.py")):
        print(f"perfbench: no package at {SRC}/atomdecoh; run from a source checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "refs.json"), encoding="utf-8") as fh:
        refs = json.load(fh)
    os.makedirs(OUT_DIR, exist_ok=True)
    sys.path.insert(0, SRC)

    t_setup = perf_counter()
    setup = Setup(importtime=bool(args.trace))
    setup()
    import atomdecoh

    cls = workloads.CliInProcess if args.workload == "cli_inproc" else workloads.MomentumPurity
    wl = cls(atomdecoh, refs)
    out = workloads.Outcome()
    wl.evaluate_points(out)  # fixed check points; also the warm-up
    setup_wall = perf_counter() - t_setup

    t_run = perf_counter()
    if args.trace:
        dumps, overhead = run_traced(wl, args, out, setup)
    else:
        wl.run(random.Random(args.seed), args.seconds, out, setup.between)
    run_wall = perf_counter() - t_run
    setup.top_up()

    checks = workloads.summarize_checks(wl.points, out.point_errors)
    lat_ms = [t * 1e3 for t in out.latencies]
    if len(lat_ms) < 2:
        print(f"perfbench: {args.workload}: no timings; problems: {out.problems[:5]}",
              file=sys.stderr)
        return 1
    end_to_end = {
        "setup_s": statistics.median(setup.times),
        "op_p50_ms": statistics.median(lat_ms),
        "op_p95_ms": percentile(lat_ms, 95),
        "points_per_s": out.outputs / out.busy_s,
        "peak_rss_mb": peak_rss_mb(),
        "within_tol_ratio": checks["within_tol_ratio"],
    }
    if args.trace:
        layers = layer_metrics(dumps, setup.tables)
        layers["check.max_rel_err"] = min(checks["max_rel_err"], 1e300)  # inf: call failed
        layers["check.wrong_ratio"] = checks["wrong_ratio"]
        layers["check.failed_ratio"] = out.failed / out.attempted
        layers["trace.overhead_ratio"] = overhead
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in LAYER_METRICS}
    else:
        metrics = {name: {"value": end_to_end[name], "unit": unit} for name, unit in END_TO_END}

    problems = out.problems + checks["unexpected"]
    correct = not problems and out.failed == 0
    result = {"correct": correct, "attempted": out.attempted, "failed": out.failed,
              "metrics": metrics}
    document = {
        "provenance": provenance(args),
        "workload": args.workload,
        "result": result,
        "samples": len(out.latencies),
        "repeats": out.repeats,
        "setup_times_s": setup.times,
        "setup_wall_s": setup_wall,
        "run_wall_s": run_wall,
        "outputs": out.outputs,
        "wrong_draws": out.wrong_draws,
        "known_region_draws": out.known_region_draws,
        "problems": problems,
        "checks": {**checks, "errors": out.point_errors},
    }
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=1)
        fh.write("\n")
    if args.trace:
        # every span: [name, start, end, parent index, attributes]
        with gzip.open(path[:-len(".json")] + "-spans.json.gz", "wt", encoding="utf-8") as fh:
            json.dump(dumps, fh, separators=(",", ":"))
    for name, m in metrics.items():
        print(f"{args.workload:16s} {name:38s} {m['value']:.6g} {m['unit']}")
    for why in problems:
        print(f"{args.workload:16s} problem: {why}", file=sys.stderr)
    print(f"{args.workload:16s} result file {os.path.relpath(path, ROOT)}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    code = 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: failed with exit {proc.returncode}")
            code = 1
            continue
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        print(f"{name:16s} correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
