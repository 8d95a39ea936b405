"""In-memory span tracer and the wrappers that put it around atomdecoh's
layer boundaries from outside the package.

A span is (name, start, end, parent index, attributes). Spans stay in memory
and are written out when the run ends. A layer's self time is its span's
duration minus the part covered by its child spans. Integrand callbacks are
too numerous for one span each, so the quadrature wrappers count them and sum
their time instead; that sum is subtracted from the quadrature self time.

Every wrapper tolerates a missing entry point: if a later version of the
package drops ``integrate_fourier_sine`` or stops calling ``quad`` from
``scattering``, the wrapper is simply not installed and its counters read 0.
"""

from __future__ import annotations

import importlib
import math
import statistics
from collections import Counter
from time import perf_counter

#: per-layer metrics this module derives, in report order
LAYER_METRICS = (
    ("constants.import_ms", "ms"),
    ("quadrature.import_ms", "ms"),
    ("density.import_ms", "ms"),
    ("scattering.import_ms", "ms"),
    ("atomdecoh.import_ms", "ms"),
    ("cli.self_ms", "ms"),
    ("twoslit.screen_scan_ms", "ms"),
    ("wavepacket.evaluate_us", "us"),
    ("density.purity_us", "us"),
    ("scattering.check_conditions_us", "us"),
    ("scattering.angle_ms.z0_zero", "ms"),
    ("scattering.quad_calls_per_angle", "count"),
    ("scattering.integrand_evals_per_angle", "count"),
    ("scattering.us_per_integrand_eval", "us"),
    ("momentum.density_us.q_low", "us"),
    ("momentum.density_us.q_mid", "us"),
    ("momentum.density_us.q_high", "us"),
    ("quadrature.calls_per_point", "count"),
    ("quadrature.evals_per_call", "count"),
    ("quadrature.self_share", "ratio"),
    ("scattering.failures", "count"),
    ("momentum.failures", "count"),
    ("check.max_rel_err", "ratio"),
    ("check.wrong_ratio", "ratio"),
    ("check.failed_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
)

IMPORT_MODULES = {
    "constants.import_ms": "atomdecoh.constants",
    "quadrature.import_ms": "atomdecoh.quadrature",
    "density.import_ms": "atomdecoh.density",
    "scattering.import_ms": "atomdecoh.scattering",
    "atomdecoh.import_ms": "atomdecoh",
}

#: physics names the CLI module binds at import; time inside them is not cli self time
CLI_PHYSICS = (
    "purity", "momentum_distribution", "gaussian_limit", "electron_limit",
    "screen_scan", "visibility", "angular_scan", "check_conditions", "h_theta",
)

#: (span name, defining module, function, span attributes from the call)
BOUNDARIES = (
    ("scattering.angle", "atomdecoh.scattering", "diff_cross_section_numeric",
     lambda config, theta, *a, **k: {"z0": config.z0}),
    ("scattering.check_conditions", "atomdecoh.scattering", "check_conditions", None),
    ("momentum.density", "atomdecoh.momentum", "momentum_density",
     lambda q, *a, **k: {"q": q}),
    ("density.purity", "atomdecoh.density", "purity", None),
    ("twoslit.screen_scan", "atomdecoh.twoslit", "screen_scan", None),
)


class Tracer:
    """Spans and counters of one process, kept in memory until dump()."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.integrand_s: Counter = Counter()
        self._stack: list[int] = []
        self._installed: list[tuple] = []
        self.active = True  # cleared while the benchmark checks outputs

    def call(self, name: str, fn, *args, attrs=None, **kwargs):
        """fn(*args, **kwargs) inside a span named ``name``."""
        if not self.active:
            return fn(*args, **kwargs)
        parent = self._stack[-1] if self._stack else -1
        span = [name, perf_counter(), None, parent, attrs or {}]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.counts[name + ".raised"] += 1
            raise
        finally:
            span[2] = perf_counter()
            self._stack.pop()

    # -- installation ----------------------------------------------------
    def patch(self, module_name: str, attr: str, make_wrapper) -> bool:
        """Replace module.attr by make_wrapper(original); False if absent."""
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            return False
        original = getattr(module, attr, None)
        if original is None:
            return False
        setattr(module, attr, make_wrapper(original))
        self._installed.append((module, attr, original))
        return True

    def span_wrapper(self, name: str, attrs_of=None, check=None):
        def make(fn):
            def wrapper(*args, **kwargs):
                attrs = attrs_of(*args, **kwargs) if attrs_of else None
                out = self.call(name, fn, *args, attrs=attrs, **kwargs)
                if self.active and check is not None and not check(out):
                    self.counts[name + ".nonfinite"] += 1
                return out
            return wrapper
        return make

    def timed_integrand(self, layer: str, f):
        counts, spent = self.counts, self.integrand_s

        def g(*args):
            if not self.active:
                return f(*args)
            t0 = perf_counter()
            y = f(*args)
            spent[layer] += perf_counter() - t0
            counts[layer + ".integrand_evals"] += 1
            return y
        return g

    def quad_wrapper(self, layer: str, name: str):
        """Span around a quadrature entry point; times its integrand and
        reads ``QuadratureResult.evaluations`` when the result carries it."""
        def make(fn):
            def wrapper(f, *args, **kwargs):
                if not self.active:
                    return fn(f, *args, **kwargs)
                out = self.call(name, fn, self.timed_integrand(layer, f), *args, **kwargs)
                self.counts[name + ".evaluations"] += getattr(out, "evaluations", 0)
                return out
            return wrapper
        return make

    def install_library(self) -> None:
        """Wrap the layer boundaries the workloads cross, both where the
        package exports a function and where its own modules call it."""
        for span, module, attr, attrs_of in BOUNDARIES:
            wrap = self.span_wrapper(span, attrs_of, _all_finite)
            for owner in (module, "atomdecoh"):
                self.patch(owner, attr, wrap)
        self.patch("atomdecoh.scattering", "quad",
                   self.quad_wrapper("scattering", "scattering.quad"))
        for module in ("atomdecoh.momentum", "atomdecoh.density"):
            for entry in ("integrate_semi_infinite", "integrate_fourier_sine"):
                self.patch(module, entry,
                           self.quad_wrapper("quadrature", "quadrature.integrate"))
        self.patch("atomdecoh.twoslit", "evaluate", self.span_wrapper("wavepacket.evaluate"))

    def install_cli(self) -> None:
        """Wrap the physics names the CLI module bound at import, so that
        cli self time excludes them."""
        spans = {attr: span for span, _, attr, _ in BOUNDARIES}
        for attr in CLI_PHYSICS:
            self.patch("atomdecoh.cli", attr,
                       self.span_wrapper(spans.get(attr, "cli.physics." + attr)))
        self.patch("atomdecoh.cli", "main", self.span_wrapper("cli.main"))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    # -- export ----------------------------------------------------------
    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "counts": dict(self.counts),
            "integrand_s": dict(self.integrand_s),
        }


def _all_finite(out) -> bool:
    try:
        return math.isfinite(float(out))
    except (TypeError, ValueError):
        return True


def parse_importtime(stderr: str) -> tuple[dict, str]:
    """Cumulative ms per module from ``-X importtime`` lines, and the rest of stderr."""
    cumulative: dict[str, float] = {}
    rest = []
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            rest.append(line)
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        cumulative[parts[2].strip()] = int(parts[1]) / 1000.0
    return cumulative, "\n".join(rest)


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _self_times(spans: list) -> list[float]:
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [s[2] - s[1] - c for s, c in zip(spans, covered)]


def layer_metrics(dumps: list[dict], import_tables: list[dict]) -> dict:
    """Derive the per-layer metrics from traced runs (one dump per process)."""
    by_name: dict[str, list] = {}
    counts: Counter = Counter()
    integrand_s: Counter = Counter()
    cli_self = []
    for dump in dumps:
        spans = dump["spans"]
        counts.update(dump["counts"])
        integrand_s.update(dump["integrand_s"])
        for span in spans:
            by_name.setdefault(span[0], []).append(span)
        for span, self_s in zip(spans, _self_times(spans)):
            if span[0] == "cli.main":
                cli_self.append(self_s)

    def durations(name, keep=lambda attrs: True):
        return [s[2] - s[1] for s in by_name.get(name, []) if keep(s[4])]

    m: dict[str, float] = {}
    for metric, module in IMPORT_MODULES.items():
        m[metric] = _median([t[module] for t in import_tables if module in t])
    m["cli.self_ms"] = _median(cli_self) * 1e3
    m["twoslit.screen_scan_ms"] = _median(durations("twoslit.screen_scan")) * 1e3
    m["wavepacket.evaluate_us"] = _median(durations("wavepacket.evaluate")) * 1e6
    m["density.purity_us"] = _median(durations("density.purity")) * 1e6
    m["scattering.check_conditions_us"] = _median(durations("scattering.check_conditions")) * 1e6
    m["scattering.angle_ms.z0_zero"] = _median(
        durations("scattering.angle", lambda a: a["z0"] == 0.0)) * 1e3
    angles = len(by_name.get("scattering.angle", []))
    quad_calls = len(by_name.get("scattering.quad", []))
    evals = counts["scattering.integrand_evals"]
    m["scattering.quad_calls_per_angle"] = quad_calls / angles if angles else 0.0
    m["scattering.integrand_evals_per_angle"] = evals / angles if angles else 0.0
    m["scattering.us_per_integrand_eval"] = integrand_s["scattering"] / evals * 1e6 if evals else 0.0
    for bucket, keep in (("q_low", lambda a: a["q"] <= 1.0),
                         ("q_mid", lambda a: 1.0 < a["q"] <= 10.0),
                         ("q_high", lambda a: a["q"] > 10.0)):
        m["momentum.density_us." + bucket] = _median(durations("momentum.density", keep)) * 1e6
    point_spans = durations("momentum.density") + durations("density.purity")
    quad_spans = durations("quadrature.integrate")
    calls = len(quad_spans)
    m["quadrature.calls_per_point"] = calls / len(point_spans) if point_spans else 0.0
    m["quadrature.evals_per_call"] = (
        counts["quadrature.integrate.evaluations"] / calls if calls else 0.0)
    point_time = sum(point_spans)
    m["quadrature.self_share"] = (
        (sum(quad_spans) - integrand_s["quadrature"]) / point_time if point_time else 0.0)
    for layer, name in (("scattering", "scattering.angle"), ("momentum", "momentum.density")):
        m[layer + ".failures"] = counts[name + ".raised"] + counts[name + ".nonfinite"]
    return m
