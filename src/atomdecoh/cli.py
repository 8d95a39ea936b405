"""Command-line front end.

Dispatches {purity, momentum, twoslit, xsection, conditions} to the
physics modules and emits CSV or JSON with a reproducibility header.
Parameters come from an optional ``key=value`` config file overridden by
flags; physical constants can be overridden the same way. Exit codes:
0 success, 1 usage error, 2 numeric failure, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from contextlib import contextmanager

import numpy as np

from . import __version__
from .constants import CODATA, CONSTANT_KEYS, PhysicalConstants
from .density import purity
from .momentum import electron_limit, gaussian_limit, momentum_distribution
from .quadrature import QuadratureError
from .scattering import (
    ScatteringConfig,
    angular_scan,
    check_conditions,
    h_theta,
)
from .twoslit import TwoSlitConfig, screen_scan, visibility

USAGE_EXIT = 1
NUMERIC_EXIT = 2
IO_EXIT = 3

#: per-subcommand parameter schema: key -> (type, default, help)
SCHEMAS: dict[str, dict[str, tuple]] = {
    "purity": {
        "z_min": (float, 1e-3, "smallest packet-width ratio a_B/Delta x"),
        "z_max": (float, 1e2, "largest packet-width ratio"),
        "points": (int, 50, "number of log-spaced grid points"),
    },
    "momentum": {
        "z0": (float, 0.1, "initial packet-width ratio a_B/delta"),
        "q_min": (float, 1e-3, "smallest dimensionless momentum"),
        "q_max": (float, 10.0, "largest dimensionless momentum"),
        "points": (int, 100, "number of log-spaced grid points"),
    },
    "twoslit": {
        "separation_ab": (float, 1000.0, "slit separation (Bohr radii)"),
        "delta_ab": (float, 200.0, "initial packet width (Bohr radii)"),
        "p0": (float, 0.0, "packet momentum along the slit axis (hbar/a_B)"),
        "t0": (float, 3.2e6, "drift time before the screen (atomic-style units)"),
        "amp1": (float, 2.0**-0.5, "amplitude of the first slit"),
        "amp2": (float, 2.0**-0.5, "amplitude of the second slit"),
        "points": (int, 201, "number of screen samples"),
    },
    "xsection": {
        "energy_ev": (float, 1.0, "neutron bombarding energy (eV)"),
        "points": (int, 19, "number of angular grid points"),
        "method": (str, "both", "numeric, asymptotic or both"),
        "z0": (float, 0.0, "packet-width ratio a_B/delta of the target"),
        "scatt_length_fm": (float, 3.26, "neutron-helium scattering length (fm)"),
    },
    "conditions": {
        "energy_ev": (float, 1.0, "neutron bombarding energy (eV)"),
        "z0": (float, 0.0, "packet-width ratio a_B/delta of the target"),
        "d_over_a_b": (float, 0.0, "nucleus size over a_B (0: standard threshold)"),
    },
}

_POSITIVE = {
    "z_min", "z_max", "points", "q_min", "q_max", "separation_ab",
    "delta_ab", "energy_ev", "scatt_length_fm",
}
_NONNEGATIVE = {"d_over_a_b"}
#: (lower, upper) parameter pairs that bound a grid
_RANGES = (("z_min", "z_max"), ("q_min", "q_max"))


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1, not argparse's 2
        raise UsageError(message)


def parse_config_file(text: str, valid_keys: list[str]) -> dict[str, str]:
    """Parse ``key=value`` lines; ``#`` starts a comment; blank lines ok."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"config line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in valid_keys:
            raise UsageError(
                f"config line {lineno}: unknown key {key!r}; valid keys: "
                + ", ".join(sorted(valid_keys))
            )
        out[key] = value
    return out


def _coerce(key: str, value: str, typ: type):
    try:
        parsed = typ(value)
    except ValueError:
        unit = "integer" if typ is int else ("number" if typ is float else "string")
        raise UsageError(f"parameter {key!r}: expected {unit}, got {value!r}") from None
    if isinstance(parsed, float) and not math.isfinite(parsed):
        raise UsageError(f"parameter {key!r} must be finite, got {value!r}")
    if key in _POSITIVE and isinstance(parsed, (int, float)) and parsed <= 0:
        raise UsageError(f"parameter {key!r} must be positive, got {value!r}")
    if key in _NONNEGATIVE and parsed < 0:
        raise UsageError(f"parameter {key!r} must be nonnegative, got {value!r}")
    return parsed


def build_parser() -> _Parser:
    parser = _Parser(prog="atomdecoh", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, schema in SCHEMAS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", help="key=value parameter file")
        p.add_argument("--output", help="output path (default: stdout)")
        p.add_argument(
            "--summary-output", help="JSON summary path (xsection; default: stderr)"
        )
        for key, (typ, default, helptext) in schema.items():
            p.add_argument(
                f"--{key.replace('_', '-')}",
                dest=key,
                type=str,
                default=None,
                help=f"{helptext} (default {default})",
            )
    return parser


def resolve_parameters(args: argparse.Namespace) -> tuple[dict, PhysicalConstants]:
    """Merge defaults, config file entries and flags (flags win)."""
    schema = SCHEMAS[args.subcommand]
    valid = list(schema) + list(CONSTANT_KEYS)
    params = {key: default for key, (_, default, _h) in schema.items()}
    overrides: dict[str, float] = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise OSError(f"cannot read config file {args.config}: {exc}") from exc
        for key, value in parse_config_file(text, valid).items():
            if key in schema:
                params[key] = _coerce(key, value, schema[key][0])
            else:
                overrides[key] = _coerce(key, value, float)
    for key in schema:
        raw = getattr(args, key)
        if raw is not None:
            params[key] = _coerce(key, raw, schema[key][0])
    for lo, hi in _RANGES:
        if lo in params and params[lo] > params[hi]:
            raise UsageError(
                f"parameter {lo!r} ({params[lo]}) must not exceed {hi!r} ({params[hi]})"
            )
    constants = CODATA.with_overrides(overrides) if overrides else CODATA
    return params, constants


def _fmt(x: float) -> str:
    return f"{x:.11e}"


def _header(subcommand: str, params: dict, constants: PhysicalConstants) -> list[str]:
    lines = [f"# atomdecoh {__version__} subcommand={subcommand}"]
    for key in sorted(params):
        lines.append(f"# param {key}={params[key]}")
    for key in CONSTANT_KEYS:
        if hasattr(constants, key):
            lines.append(f"# constant {key}={_fmt(getattr(constants, key))}")
    return lines


@contextmanager
def _open_out(path: str | None):
    if path is None:
        yield sys.stdout
        return
    try:
        fh = open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise OSError(f"cannot open output {path}: {exc}") from exc
    try:
        yield fh
    finally:
        fh.close()


def _emit_csv(out, header: list[str], columns: list[str], rows) -> None:
    for line in header:
        print(line, file=out)
    print(",".join(columns), file=out)
    for row in rows:
        print(",".join(_fmt(x) for x in row), file=out)


def run_purity(params: dict, constants: PhysicalConstants, out) -> None:
    grid = np.logspace(math.log10(params["z_min"]), math.log10(params["z_max"]),
                       params["points"])
    rows = [(z, purity(z)) for z in grid]
    _emit_csv(out, _header("purity", params, constants), ["z", "tr_rho_sq"], rows)


def run_momentum(params: dict, constants: PhysicalConstants, out) -> None:
    grid = np.logspace(math.log10(params["q_min"]), math.log10(params["q_max"]),
                       params["points"])
    dist = momentum_distribution(params["z0"], grid)
    delta = 1.0 / params["z0"]
    rows = [
        (q, n, gaussian_limit(q, delta), electron_limit(q))
        for q, n in zip(dist.q_grid, dist.values)
    ]
    _emit_csv(
        out,
        _header("momentum", params, constants),
        ["q", "density", "gaussian_limit", "electron_limit"],
        rows,
    )


def run_twoslit(params: dict, constants: PhysicalConstants, out) -> None:
    half = params["separation_ab"] / 2.0
    config = TwoSlitConfig(
        slit1=(half, 0.0, 0.0),
        slit2=(-half, 0.0, 0.0),
        amp1=params["amp1"],
        amp2=params["amp2"],
        packet_delta=params["delta_ab"],
        t0=params["t0"],
        p0=(params["p0"], 0.0, 0.0),
    )
    coords, coh, dec = screen_scan(config, params["points"])
    rows = list(zip(coords, coh, dec))
    _emit_csv(
        out,
        _header("twoslit", params, constants),
        ["screen_coordinate", "coherent_P", "decohered_P"],
        rows,
    )
    print(
        f"# visibility coherent={_fmt(visibility(coh))} "
        f"decohered={_fmt(visibility(dec))}",
        file=out,
    )


def _json_safe(obj):
    """Replace non-finite floats with None so the emitted JSON is strict."""
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def run_xsection(params: dict, constants: PhysicalConstants, out, summary_out) -> None:
    method = params["method"]
    if method not in ("numeric", "asymptotic", "both"):
        raise UsageError("method must be numeric, asymptotic or both")
    config = ScatteringConfig(
        E_n_ev=params["energy_ev"],
        scatt_length=params["scatt_length_fm"] * 1e-15,
        z0=params["z0"],
        constants=constants,
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        table = angular_scan(config, params["points"], method)
    if table.metadata["failures"]:
        first = table.metadata["failures"][0]
        raise QuadratureError(
            f"cross-section failed at theta={first['theta']}: {first['error']}"
        )
    q_sq = table.q**2
    rows = []
    for theta, num, asym in zip(
        table.theta_grid, table.dsigma_numeric, table.dsigma_asymptotic
    ):
        frac = h_theta(theta) / q_sq
        rows.append((theta, num, asym, frac))
    _emit_csv(
        out,
        _header("xsection", params, constants),
        ["theta_rad", "dsigma_numeric", "dsigma_asymptotic", "anomalous_fraction"],
        rows,
    )
    margins = check_conditions(config)
    summary = {
        "q": table.q,
        "h0_over_q_sq": h_theta(0.0) / q_sq,
        "hpi_over_q_sq": h_theta(math.pi) / q_sq,
        "conditions": {
            key: margins[key]
            for key in ("born_oppenheimer", "almost_diagonal", "observability")
        },
        "boundary_energy_ev": margins["boundary_energy_ev"],
        "warnings": list(dict.fromkeys(str(w.message) for w in caught)),
    }
    print(json.dumps(_json_safe(summary), indent=2, sort_keys=True), file=summary_out)


def run_conditions(params: dict, constants: PhysicalConstants, out) -> None:
    config = ScatteringConfig(
        E_n_ev=params["energy_ev"], z0=params["z0"], constants=constants
    )
    d_over = params["d_over_a_b"] if params["d_over_a_b"] > 0.0 else None
    report = check_conditions(config, d_over_a_b=d_over)
    report["tool_version"] = __version__
    report["energy_ev"] = params["energy_ev"]
    print(json.dumps(_json_safe(report), indent=2, sort_keys=True), file=out)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        params, constants = resolve_parameters(args)
    except (UsageError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    try:
        with _open_out(args.output) as out:
            if args.subcommand == "purity":
                run_purity(params, constants, out)
            elif args.subcommand == "momentum":
                run_momentum(params, constants, out)
            elif args.subcommand == "twoslit":
                run_twoslit(params, constants, out)
            elif args.subcommand == "xsection":
                with _open_out(args.summary_output) as summary_out:
                    if args.summary_output is None:
                        summary_out = sys.stderr
                    run_xsection(params, constants, out, summary_out)
            elif args.subcommand == "conditions":
                run_conditions(params, constants, out)
    except (UsageError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (QuadratureError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return NUMERIC_EXIT
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return IO_EXIT
    return 0


if __name__ == "__main__":
    sys.exit(main())
