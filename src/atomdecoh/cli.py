"""Command-line front end.

Dispatches {purity, momentum, twoslit, xsection, conditions} to the
physics modules and emits CSV or JSON with a reproducibility header.
Parameters come from an optional ``key=value`` config file, which takes
only the subcommand's parameters, overridden by flags. Exit codes:
0 success, 1 usage error, 2 numeric failure, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import warnings
from contextlib import contextmanager

from . import __version__
from ._numpy import np
from .constants import CODATA
from .density import purity
from .momentum import electron_limit, gaussian_limit, momentum_distribution
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
        "t0": (float, 3.2e6, "drift time before the screen (units of M a_B^2/hbar)"),
        "amp1": (float, 2.0**-0.5, "amplitude of the first slit"),
        "amp2": (float, 2.0**-0.5, "amplitude of the second slit"),
        "points": (int, 201, "number of screen samples"),
    },
    "xsection": {
        "energy_ev": (float, 1.0, "neutron bombarding energy (eV)"),
        "points": (int, 19, "number of angular grid points"),
        "method": (str, "both", "numeric, asymptotic or both"),
        "z0": (float, 0.0, "packet-width ratio a_B/delta of the target"),
    },
    "conditions": {
        "energy_ev": (float, 1.0, "neutron bombarding energy (eV)"),
        "z0": (float, 0.0, "packet-width ratio a_B/delta of the target"),
        "d_over_a_b": (float, 0.0, "nucleus size over a_B (0: standard threshold)"),
    },
}

_POSITIVE = {
    "z_min", "z_max", "points", "q_min", "q_max", "separation_ab",
    "delta_ab", "energy_ev",
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


@functools.cache
def _parser() -> _Parser:
    """The argument parser, built once per process: parsing leaves it
    unchanged. Its subcommands attribute maps each subcommand to its own
    parser."""
    parser = _Parser(prog="atomdecoh", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    parser.subcommands = sub.choices
    for name, schema in SCHEMAS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", help="key=value parameter file")
        p.add_argument("--output", help="output path (default: stdout)")
        for key, (typ, default, helptext) in schema.items():
            p.add_argument(
                f"--{key.replace('_', '-')}",
                dest=key,
                type=str,
                default=None,
                help=f"{helptext} (default {default})",
            )
    sub.choices["xsection"].add_argument(
        "--summary-output", help="JSON summary path (default: stderr)"
    )
    return parser


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """argv parsed in one pass where the first word names a subcommand:
    that subcommand's parser takes the rest, as the full parser would hand
    it on, and reports its errors against its own options. Any other run
    (no words, -h, --version or an unknown first word) takes the full
    parser."""
    subparser = _parser().subcommands.get(argv[0]) if argv else None
    if subparser is None:
        return _parser().parse_args(argv)
    args = subparser.parse_args(argv[1:])
    args.subcommand = argv[0]
    return args


def resolve_parameters(args: argparse.Namespace) -> dict:
    """Merge defaults, config file entries and flags (flags win)."""
    schema = SCHEMAS[args.subcommand]
    params = {key: default for key, (_, default, _h) in schema.items()}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise OSError(f"cannot read config file {args.config}: {exc}") from exc
        for key, value in parse_config_file(text, list(schema)).items():
            params[key] = _coerce(key, value, schema[key][0])
    for key in schema:
        raw = getattr(args, key)
        if raw is not None:
            params[key] = _coerce(key, raw, schema[key][0])
    for lo, hi in _RANGES:
        if lo in params and params[lo] > params[hi]:
            raise UsageError(
                f"parameter {lo!r} ({params[lo]}) must not exceed {hi!r} ({params[hi]})"
            )
    return params


#: the CODATA constants each CSV header records, in this order
_HEADER_CONSTANTS = ("a_B", "e2_coulomb", "eV", "hbar", "m_e", "m_n", "m_p")


def _fmt(x: float) -> str:
    return f"{x:.11e}"


#: the header lines of those constants, formatted once
_CONSTANT_LINES = tuple(f"# constant {key}={_fmt(getattr(CODATA, key))}"
                        for key in _HEADER_CONSTANTS)


def _header(subcommand: str, params: dict) -> list[str]:
    lines = [f"# atomdecoh {__version__} subcommand={subcommand}"]
    for key in sorted(params):
        lines.append(f"# param {key}={params[key]}")
    lines.extend(_CONSTANT_LINES)
    return lines


class NumericFailure(Exception):
    """A computation of a subcommand failed; the message says which."""


def _given(params: dict) -> str:
    return ", ".join(f"{key}={params[key]}" for key in sorted(params))


@contextmanager
def _stage(subcommand: str, computation: str, params: dict):
    """Report an arithmetic failure inside the block as a NumericFailure
    that names the subcommand, the computation and the parameters."""
    try:
        yield
    except ArithmeticError as exc:
        raise NumericFailure(
            f"{subcommand}: {computation} failed for {_given(params)}: {exc}"
        ) from None


def _require_finite(subcommand: str, computation: str, params: dict, *columns) -> None:
    if not all(np.isfinite(column).all() for column in columns):
        raise NumericFailure(
            f"{subcommand}: {computation} gave non-finite values for {_given(params)}"
        )


def _write(path: str | None, text: str, default) -> None:
    if path is None:
        default.write(text)
        return
    try:
        fh = open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise OSError(f"cannot open output {path}: {exc}") from exc
    with fh:
        fh.write(text)


def _csv(header: list[str], names: list[str], columns, trailer: list[str] = ()) -> str:
    """The header lines, the names, a row per index of the equal-length
    columns and the trailer lines. The values are formatted as _fmt does,
    all of them in one % over a tuple of Python floats."""
    values = np.column_stack(columns).ravel().tolist()
    rows = (",".join(["%.11e"] * len(names)) + "\n") * (len(values) // len(names))
    lines = "".join(line + "\n" for line in header + [",".join(names)])
    return lines + rows % tuple(values) + "".join(line + "\n" for line in trailer)


def _quiet(runner):
    """The runner with numpy's floating-point warnings off: they would reach
    stderr, and the runner checks its results for non-finite values
    instead. Only the runners that compute with numpy take it, so that
    conditions never imports numpy."""

    @functools.wraps(runner)
    def quiet(params: dict):
        with np.errstate(all="ignore"):
            return runner(params)

    return quiet


@_quiet
def run_purity(params: dict) -> str:
    grid = np.logspace(math.log10(params["z_min"]), math.log10(params["z_max"]),
                       params["points"])
    with _stage("purity", "purity", params):
        values = [purity(z) for z in grid.tolist()]
    _require_finite("purity", "purity", params, values)
    return _csv(_header("purity", params), ["z", "tr_rho_sq"], [grid, values])


@_quiet
def run_momentum(params: dict) -> str:
    grid = np.logspace(math.log10(params["q_min"]), math.log10(params["q_max"]),
                       params["points"])
    with _stage("momentum", "momentum density", params):
        dist = momentum_distribution(params["z0"], grid)
    delta = 1.0 / params["z0"]
    with _stage("momentum", "Gaussian and electron limits", params):
        gaussian = gaussian_limit(dist.q_grid, delta)
        electron = electron_limit(dist.q_grid)
    _require_finite("momentum", "momentum density and its limits", params,
                    dist.values, gaussian, electron)
    return _csv(
        _header("momentum", params),
        ["q", "density", "gaussian_limit", "electron_limit"],
        [dist.q_grid, dist.values, gaussian, electron],
    )


@_quiet
def run_twoslit(params: dict) -> str:
    if params["t0"] == 0.0:
        raise UsageError(
            "parameter 't0' must be nonzero: at t0 = 0 the packets have not spread, "
            "so there are no fringes to scan"
        )
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
    with _stage("twoslit", "screen scan", params):
        coords, coh, dec = screen_scan(config, params["points"])
    _require_finite("twoslit", "screen scan", params, coords, coh, dec)
    with _stage("twoslit", "visibility", params):
        trailer = [f"# visibility coherent={_fmt(visibility(coh))} "
                   f"decohered={_fmt(visibility(dec))}"]
    return _csv(
        _header("twoslit", params),
        ["screen_coordinate", "coherent_P", "decohered_P"],
        [coords, coh, dec],
        trailer,
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


@_quiet
def run_xsection(params: dict) -> tuple[str, str]:
    """The CSV table and the JSON summary. The anomalous_fraction column
    and the h0_over_q_sq and hpi_over_q_sq keys hold h(theta)/q^2, the
    electron-cloud (decoherence) part of the asymptotic form's 1/q^2
    term; for z0 > 0 the packet's Doppler spread adds (3 z0^2 / 8) h/q^2
    to it (diff_cross_section_asymptotic)."""
    method = params["method"]
    config = ScatteringConfig(E_n_ev=params["energy_ev"], z0=params["z0"])
    with warnings.catch_warnings(record=True) as caught, \
            _stage("xsection", "cross-section scan", params):
        warnings.simplefilter("always")
        table = angular_scan(config, params["points"], method)
    computed = {"numeric": [table.dsigma_numeric], "asymptotic": [table.dsigma_asymptotic],
                "both": [table.dsigma_numeric, table.dsigma_asymptotic]}[method]
    _require_finite("xsection", "cross-section scan", params, *computed)
    q_sq = table.q**2
    with _stage("xsection", "anomalous fraction and condition margins", params):
        anomalous = h_theta(table.theta_grid) / q_sq
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
    csv = _csv(
        _header("xsection", params),
        ["theta_rad", "dsigma_numeric", "dsigma_asymptotic", "anomalous_fraction"],
        [table.theta_grid, table.dsigma_numeric, table.dsigma_asymptotic, anomalous],
    )
    return csv, json.dumps(_json_safe(summary), indent=2, sort_keys=True) + "\n"


def run_conditions(params: dict) -> str:
    config = ScatteringConfig(E_n_ev=params["energy_ev"], z0=params["z0"])
    d_over = params["d_over_a_b"] if params["d_over_a_b"] > 0.0 else None
    with _stage("conditions", "condition margins", params):
        report = check_conditions(config, d_over_a_b=d_over)
    report["tool_version"] = __version__
    report["energy_ev"] = params["energy_ev"]
    return json.dumps(_json_safe(report), indent=2, sort_keys=True) + "\n"


RUNNERS = {
    "purity": run_purity,
    "momentum": run_momentum,
    "twoslit": run_twoslit,
    "xsection": run_xsection,
    "conditions": run_conditions,
}


def main(argv: list[str] | None = None) -> int:
    """Compute everything first and write only then, so a failed run leaves
    no partial output on stdout or in --output."""
    params: dict = {}
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
        params = resolve_parameters(args)
        result = RUNNERS[args.subcommand](params)
        if args.subcommand == "xsection":
            csv, summary = result
            _write(args.output, csv, sys.stdout)
            _write(args.summary_output, summary, sys.stderr)
        else:
            _write(args.output, result, sys.stdout)
    except (UsageError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (NumericFailure, ArithmeticError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return NUMERIC_EXIT
    except MemoryError as exc:
        print(f"numeric failure: {args.subcommand}: out of memory for {_given(params)}: "
              f"{str(exc) or 'MemoryError'}", file=sys.stderr)
        return NUMERIC_EXIT
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return IO_EXIT
    return 0


if __name__ == "__main__":
    sys.exit(main())
