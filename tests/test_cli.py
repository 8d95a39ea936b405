import argparse
import json
import math
from pathlib import Path

import numpy as np
import pytest

from atomdecoh import cli, scattering
from atomdecoh.cli import (
    IO_EXIT,
    NUMERIC_EXIT,
    SCHEMAS,
    USAGE_EXIT,
    UsageError,
    main,
    parse_config_file,
)


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _data_rows(text):
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header, rows = lines[0].split(","), [ln.split(",") for ln in lines[1:]]
    return header, rows


# the Gaussian limit is truly out of range here: its exponential is 1 and
# delta^3 = 1e360
_LIMIT_OVERFLOW = ("momentum", "--z0", "1e-120", "--q-min", "1e-200", "--q-max", "1e-190",
                   "--points", "3")


def test_config_file_parsing_with_comments():
    text = "# comment\nz0=0.5  # inline\n\nenergy_ev=2.0\n"
    out = parse_config_file(text, ["z0", "energy_ev"])
    assert out == {"z0": "0.5", "energy_ev": "2.0"}


def test_config_file_malformed_line_reports_line_number():
    with pytest.raises(UsageError, match="line 2"):
        parse_config_file("z0=0.5\nnot a pair\n", ["z0"])


def test_config_file_unknown_key_lists_valid_keys():
    with pytest.raises(UsageError, match="energy_ev"):
        parse_config_file("bogus=1\n", ["energy_ev", "z0"])


def test_flag_overrides_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("z0=0.01\n")
    out_path = tmp_path / "out.csv"
    code, _, _ = _run(
        capsys, "momentum", "--config", str(cfg), "--z0", "0.5",
        "--points", "3", "--output", str(out_path),
    )
    assert code == 0
    assert "param z0=0.5" in out_path.read_text()


def test_negative_energy_is_usage_error(capsys):
    code, _, err = _run(capsys, "xsection", "--energy-ev", "-1")
    assert code == USAGE_EXIT
    assert "must be positive" in err


def test_non_numeric_parameter_is_usage_error(capsys):
    code, _, err = _run(capsys, "purity", "--z-min", "abc")
    assert code == USAGE_EXIT
    assert "expected number" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("purity", "--z-max", "nan"),
        ("momentum", "--z0", "nan"),
        ("momentum", "--q-max", "inf"),
    ],
)
def test_non_finite_parameter_is_usage_error(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert code == USAGE_EXIT
    assert out == ""
    assert err.count("\n") == 1
    assert "must be finite" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("twoslit", "--amp1", "0.5"),
        ("twoslit", "--points", "2"),
        ("twoslit", "--t0", "0"),
        ("xsection", "--points", "1"),
    ],
)
def test_domain_error_while_running_is_usage_error(capsys, argv):
    code, _, err = _run(capsys, *argv)
    assert code == USAGE_EXIT
    assert err.count("\n") == 1
    assert err.startswith("usage error: ")
    assert "Traceback" not in err


def test_twoslit_at_t0_zero_names_t0(capsys):
    code, out, err = _run(capsys, "twoslit", "--t0", "0")
    assert code == USAGE_EXIT
    assert out == ""
    assert err.count("\n") == 1
    assert "'t0'" in err
    assert "half_width" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("twoslit", "--delta-ab", "1e-300", "--points", "5"),
        _LIMIT_OVERFLOW,
    ],
)
def test_arithmetic_error_is_numeric_failure(capsys, argv):
    code, _, err = _run(capsys, *argv)
    assert code == NUMERIC_EXIT
    assert err.count("\n") == 1
    assert err.startswith("numeric failure: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv,names",
    [
        (_LIMIT_OVERFLOW,
         ("momentum: Gaussian and electron limits failed", "z0=1e-120", "points=3")),
        (("xsection", "--z0", "1e300", "--points", "3"),
         ("xsection: cross-section scan failed", "z0=1e+300", "energy_ev=1.0")),
        (("twoslit", "--delta-ab", "1e-300", "--points", "5"),
         ("twoslit: screen scan failed", "delta_ab=1e-300", "p0=0.0")),
        (("twoslit", "--p0", "1e200", "--points", "5"),
         ("twoslit: screen scan gave non-finite values", "p0=1e+200")),
        # both packets underflow to 0 on the scan line
        (("twoslit", "--separation-ab", "1e200", "--points", "5"),
         ("twoslit: screen scan failed", "separation_ab=1e+200", "underflow")),
        # the fringe period 4 pi dx^2 / (d theta) overflows
        (("twoslit", "--delta-ab", "1e150", "--points", "5"),
         ("twoslit: screen scan failed", "delta_ab=1e+150", "fringe period")),
        # the damping z0^2/8 overflows
        (("momentum", "--z0", "1e200", "--points", "3"),
         ("momentum: momentum density failed", "z0=1e+200", "points=3")),
        # cancellation in the far tail leaves a negative density (from
        # q ~ 3e4 on at z0 = 1e-3)
        (("momentum", "--z0", "1e-3", "--q-max", "1e6"),
         ("momentum: momentum density failed", "z0=0.001", "q_max=1000000.0")),
        # the fringe period, 2e307 a_B, leaves the envelope between two
        # samples, so no visibility can be read off the scan
        (("twoslit", "--separation-ab", "1e-300", "--points", "5"),
         ("twoslit: screen scan failed", "separation_ab=1e-300",
          "only 1 of 5 samples resolve the packet envelope")),
    ],
)
def test_numeric_failure_names_command_computation_and_parameters(capsys, argv, names):
    code, out, err = _run(capsys, *argv)
    assert code == NUMERIC_EXIT
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("numeric failure: ")
    for name in names:
        assert name in err


def test_readme_cross_section_values(capsys):
    # the README run's CSV, as written before the nested tanh-sinh ladder;
    # its values are compared parsed, not byte for byte
    code, out, _ = _run(capsys, "xsection", "--energy-ev", "1.0", "--method", "both",
                        "--points", "19")
    assert code == 0
    golden = (Path(__file__).parent / "readme_xsection.csv").read_text(encoding="utf-8")
    header, rows = _data_rows(out)
    golden_header, golden_rows = _data_rows(golden)
    assert header == golden_header
    assert len(rows) == len(golden_rows) == 19
    for row, golden_row in zip(rows, golden_rows):
        for value, expected in zip(map(float, row), map(float, golden_row)):
            assert abs(value - expected) <= 1e-11 * abs(expected)


def test_slow_neutrons_off_a_narrow_packet_scan(capsys):
    code, out, _ = _run(capsys, "xsection", "--energy-ev", "1e-5", "--z0", "12",
                        "--points", "5")
    assert code == 0
    _, rows = _data_rows(out)
    assert len(rows) == 5
    assert all(float(row[1]) > 0.0 for row in rows)


def test_fast_neutrons_off_a_narrow_packet_scan(capsys):
    # kappa is below 1e-55 at every node; the spectral weight is computed
    # at kappa = 1, so its moments neither overflow nor underflow
    code, out, _ = _run(capsys, "xsection", "--energy-ev", "1e120", "--z0", "12",
                        "--points", "3")
    assert code == 0
    _, rows = _data_rows(out)
    assert len(rows) == 3
    assert all(math.isfinite(float(value)) for row in rows for value in row)


def test_numeric_scan_limits_in_energy(capsys):
    # slow neutrons: from about 1e-11 eV down the forward angle is not
    # trusted at level 7; fast ones: at 1e300 eV q is 1.2e151 and every
    # angle is trusted
    code, out, err = _run(capsys, "xsection", "--energy-ev", "1e-11", "--method", "numeric")
    assert code == NUMERIC_EXIT
    assert out == ""
    assert "failed at theta=1e-06: " in err and err.count("\n") == 1
    code, out, err = _run(capsys, "xsection", "--energy-ev", "1e300")
    assert code == 0
    _, rows = _data_rows(out)
    assert len(rows) == 19
    assert all(float(row[1]) > 0.0 for row in rows)


def test_untrusted_cross_section_angle_is_one_exact_line(monkeypatch, capsys):
    # at z0 = 12 and 1e-5 eV the forward angle is trusted only at level 7;
    # a ladder cut at level 6 leaves its error estimate above 1e-10
    monkeypatch.setattr(scattering, "_LEVELS", (5, 6))
    code, out, err = _run(capsys, "xsection", "--energy-ev", "1e-5", "--z0", "12",
                          "--points", "5")
    assert code == NUMERIC_EXIT
    assert out == ""
    assert err == (
        "numeric failure: xsection: cross-section scan failed for energy_ev=1e-05, "
        "method=both, points=5, z0=12.0: cross-section integral "
        "failed at theta=1e-06: value 4.490095e+02, relative error estimate 4.979e-10 "
        "above 1e-10\n"
    )


def test_slits_a_tiny_distance_apart_are_distinct(capsys):
    # the separation is 1e-300 exactly, not its square rounded to 0: the
    # slits are not rejected as coincident (a usage error), and the scan
    # over the fringe period they give fails as a numeric one
    code, out, err = _run(capsys, "twoslit", "--separation-ab", "1e-300", "--points", "5")
    assert code == NUMERIC_EXIT
    assert out == ""
    assert "slit positions must differ" not in err


@pytest.mark.parametrize("subcommand", ["purity", "momentum", "twoslit", "xsection"])
def test_grid_too_large_for_memory_is_numeric_failure(monkeypatch, capsys, subcommand):
    # the grid allocation is made to fail: a real allocation past the
    # machine's memory could succeed where memory is overcommitted
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 745. GiB for an array")

    monkeypatch.setattr(np, "linspace", no_memory)
    monkeypatch.setattr(np, "logspace", no_memory)
    code, out, err = _run(capsys, subcommand, "--points", "7")
    assert code == NUMERIC_EXIT
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith(f"numeric failure: {subcommand}: out of memory for ")
    assert "points=7" in err
    assert "Unable to allocate" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("twoslit", "--p0", "1e200", "--points", "5"),
        _LIMIT_OVERFLOW,
        ("xsection", "--z0", "1e300", "--points", "3"),
        ("xsection", "--z0", "0.5", "--points", "1"),
    ],
)
def test_failed_run_writes_no_partial_output(tmp_path, capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert code != 0
    assert out == ""
    assert err.count("\n") == 1
    target = tmp_path / "kept.csv"
    target.write_text("earlier output\n")
    summary = tmp_path / "kept.json"
    summary.write_text("{}\n")
    code, out, err = _run(capsys, *argv, "--output", str(target),
                          "--summary-output", str(summary))
    assert code != 0
    assert out == ""
    assert err.count("\n") == 1
    assert target.read_text() == "earlier output\n"
    assert summary.read_text() == "{}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("purity", "--z-min", "10", "--z-max", "1"),
        ("momentum", "--q-min", "5", "--q-max", "1"),
        ("conditions", "--d-over-a-b", "-1"),
    ],
)
def test_inverted_or_negative_range_is_usage_error(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert code == USAGE_EXIT
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("usage error: ")


def test_unwritable_output_is_io_error(capsys):
    code, _, err = _run(
        capsys, "purity", "--points", "2", "--output", "/nonexistent/x.csv"
    )
    assert code == IO_EXIT
    assert "i/o failure" in err


@pytest.mark.parametrize("subcommand", ["purity", "momentum"])
def test_unreadable_config_file_is_io_error(tmp_path, capsys, subcommand):
    for config in (tmp_path / "missing.cfg", tmp_path):
        code, out, err = _run(capsys, subcommand, "--config", str(config))
        assert code == IO_EXIT
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith(f"i/o failure: cannot read config file {config}: ")


def test_purity_default_grid(capsys):
    code, out, _ = _run(capsys, "purity")
    assert code == 0
    header, rows = _data_rows(out)
    assert header == ["z", "tr_rho_sq"]
    assert len(rows) == 50
    z0, p0 = float(rows[0][0]), float(rows[0][1])
    assert z0 == pytest.approx(1e-3)
    assert p0 / z0**3 == pytest.approx(1.1637, rel=5e-3)


def test_momentum_columns(capsys):
    code, out, _ = _run(capsys, "momentum", "--points", "3", "--z0", "0.5")
    assert code == 0
    header, rows = _data_rows(out)
    assert header == ["q", "density", "gaussian_limit", "electron_limit"]
    assert len(rows) == 3
    assert all(float(v) >= 0.0 for row in rows for v in row)


def test_twoslit_summary_line(capsys):
    code, out, _ = _run(capsys, "twoslit", "--points", "51")
    assert code == 0
    header, _rows = _data_rows(out)
    assert header == ["screen_coordinate", "coherent_P", "decohered_P"]
    summary = [ln for ln in out.splitlines() if ln.startswith("# visibility")]
    assert len(summary) == 1
    assert "coherent=" in summary[0] and "decohered=" in summary[0]


def test_conditions_json_margins(capsys):
    code, out, _ = _run(capsys, "conditions", "--energy-ev", "1.0")
    assert code == 0
    report = json.loads(out)
    assert report["observability"]["margin"] == pytest.approx(3.5, rel=0.05)
    assert report["boundary_energy_ev"] == pytest.approx(0.08, rel=0.25)


def test_xsection_summary_headline_number(tmp_path, capsys):
    out_path = tmp_path / "xs.csv"
    summary_path = tmp_path / "xs.json"
    code, _, _ = _run(
        capsys, "xsection", "--energy-ev", "1.0", "--method", "asymptotic",
        "--points", "5", "--output", str(out_path),
        "--summary-output", str(summary_path),
    )
    assert code == 0
    summary = json.loads(summary_path.read_text())
    assert summary["warnings"] == []
    assert abs(summary["h0_over_q_sq"] - 8.2e-4) / 8.2e-4 <= 0.10
    assert summary["hpi_over_q_sq"] / summary["h0_over_q_sq"] == pytest.approx(
        25.0 / 9.0, rel=1e-10
    )
    header, rows = _data_rows(out_path.read_text())
    assert header == ["theta_rad", "dsigma_numeric", "dsigma_asymptotic", "anomalous_fraction"]
    assert len(rows) == 5


def test_xsection_summary_is_strict_json_below_q_5(capsys):
    # at 0.1 eV (q = 3.7) the asymptotic form warns; the warning goes into
    # the summary, not onto the stream that carries it
    code, _, err = _run(capsys, "xsection", "--energy-ev", "0.1", "--points", "3")
    assert code == 0
    summary = json.loads(err)
    assert len(summary["warnings"]) == 1
    assert "q = 3.68 < 5" in summary["warnings"][0]


def test_xsection_invalid_method_is_usage_error(capsys):
    code, out, err = _run(capsys, "xsection", "--method", "magic", "--points", "3")
    assert code == USAGE_EXIT
    assert out == ""
    assert err == "usage error: method must be numeric, asymptotic or both\n"


@pytest.mark.parametrize("subcommand", ["purity", "momentum", "twoslit", "conditions"])
def test_summary_output_is_an_xsection_flag(tmp_path, capsys, subcommand):
    path = tmp_path / "summary.json"
    code, out, err = _run(capsys, subcommand, "--summary-output", str(path))
    assert code == USAGE_EXIT
    assert out == ""
    assert err.count("\n") == 1
    assert "--summary-output" in err
    assert not path.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("purity", "--z-min", "1e-160", "--z-max", "1e-150", "--points", "3"),
        ("purity", "--z-min", "1e100", "--z-max", "1e200", "--points", "3"),
    ],
)
def test_purity_at_extreme_packet_widths(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert code == 0
    assert err == ""
    _, rows = _data_rows(out)
    assert all(0.0 <= float(row[1]) <= 1.0 for row in rows)


def test_momentum_of_a_very_wide_packet(capsys):
    # the Gaussian limit underflows to 0 where delta^3 = 1e480 would overflow
    code, out, err = _run(capsys, "momentum", "--z0", "1e-160", "--points", "3")
    assert code == 0
    assert err == ""
    header, rows = _data_rows(out)
    gaussian, electron = header.index("gaussian_limit"), header.index("electron_limit")
    for row in rows:
        assert float(row[gaussian]) == 0.0
        assert float(row[1]) == pytest.approx(float(row[electron]), rel=1e-12)


def test_alpha_mass_ratio_is_not_a_config_key(tmp_path, capsys):
    # the alpha mass is scattering.MASS_RATIO times m_n, and the physical
    # constants are CODATA's: a config file takes only the parameters
    for key, value in (("m_alpha_over_m_n", "3.99"), ("m_p", "3.34524385190e-27")):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"{key}={value}\n")
        code, out, err = _run(
            capsys, "conditions", "--config", str(cfg), "--energy-ev", "1.0"
        )
        assert code == USAGE_EXIT
        assert out == ""
        assert err.count("\n") == 1
        assert f"unknown key {key!r}" in err
        assert "valid keys: " in err and "energy_ev" in err


def test_csv_format_is_twelve_significant_digits(capsys):
    code, out, _ = _run(capsys, "purity", "--points", "2")
    assert code == 0
    _, rows = _data_rows(out)
    for row in rows:
        for cell in row:
            mantissa, _, _exp = cell.partition("e")
            assert len(mantissa.lstrip("-").replace(".", "")) == 12


def _csv_by_row(header, names, columns, trailer=()):
    """The formatter _csv replaces: one f-string per value, row by row."""
    rows = [",".join(f"{x:.11e}" for x in row) for row in zip(*columns)]
    return "\n".join(header + [",".join(names)] + rows + list(trailer)) + "\n"


@pytest.mark.parametrize("columns", [
    [np.array([1.5, -0.0, 5e-324]), [2.0, 1.7976931348623157e308, -1.7976931348623157e308]],
    [np.array([math.nan, math.inf, -math.inf]), [np.float64(0.1), 1.0 / 3.0, -5e-324]],
    [np.array([np.pi]), [math.e]],
    [np.logspace(-300, 300, 7), list(np.linspace(-1.0, 1.0, 7)), np.full(7, math.nan)],
])
@pytest.mark.parametrize("trailer", [(), ["# visibility coherent=1 decohered=0"]])
def test_csv_equals_the_row_by_row_formatter(columns, trailer):
    header = ["# atomdecoh test", "# param x=1"]
    names = [f"c{j}" for j in range(len(columns))]
    expected = _csv_by_row(header, names, columns, trailer)
    assert cli._csv(header, names, columns, trailer) == expected


def test_deterministic_output(capsys):
    _, first, _ = _run(capsys, "momentum", "--points", "4", "--z0", "1.0")
    _, second, _ = _run(capsys, "momentum", "--points", "4", "--z0", "1.0")
    assert first == second


def test_schema_defaults_documented():
    for schema in SCHEMAS.values():
        for _key, (typ, default, helptext) in schema.items():
            assert isinstance(default, typ)
            assert helptext


@pytest.mark.parametrize(
    "argv",
    [
        ("xsection", "--energy-ev", "1e-280"),
        ("xsection", "--energy-ev", "1e-300", "--method", "numeric"),
        ("xsection", "--energy-ev", "1e-300", "--method", "asymptotic"),
        ("xsection", "--energy-ev", "1e-320"),
    ],
)
def test_cross_section_at_a_zero_wavenumber_is_one_numeric_line(capsys, argv):
    # q, and from about 1e-289 eV down the energy in joules, underflow to 0
    code, out, err = _run(capsys, *argv, "--points", "3")
    assert code == NUMERIC_EXIT
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("numeric failure: xsection: cross-section scan failed for ")
    assert f"incident wavenumber q = 0.0, q^2 = 0 at E_n_ev = {float(argv[2])!r}" in err
    assert "division by zero" not in err
    assert "must be positive" not in err


@pytest.mark.parametrize(
    "argv, exit_code, message",
    [
        (("xsection", "--energy-ev", "1e307"), NUMERIC_EXIT, "q^2 = inf at E_n_ev = 1e+307"),
        (("twoslit", "--t0", "1e300"), NUMERIC_EXIT, "the fringe period is not finite"),
        (("twoslit", "--delta-ab", "1e200"), NUMERIC_EXIT, "the fringe period is not finite"),
        (("conditions", "--d-over-a-b", "1e308"), 0, None),
    ],
)
def test_a_square_that_overflows_is_reported_in_one_line(capsys, argv, exit_code, message):
    # squares formed as products overflow to inf, where x**2 raises an
    # OverflowError whose text is the bare errno tuple "(34, ...)"
    code, out, err = _run(capsys, *argv)
    assert code == exit_code
    assert "(34," not in err
    if message is None:
        assert err == ""
        assert json.loads(out)["boundary_energy_ev"] is None
    else:
        assert out == ""
        assert err.count("\n") == 1 and message in err


@pytest.mark.parametrize(
    "argv, q",
    [
        (("conditions", "--energy-ev", "1e-300"), 0.0),
        (("conditions", "--energy-ev", "1e-320"), 0.0),
        (("conditions", "--z0", "1e300"), None),
    ],
)
def test_conditions_at_extreme_energies_and_widths(capsys, argv, q):
    code, out, err = _run(capsys, *argv)
    assert code == 0
    assert err == ""
    report = json.loads(out)
    if q is not None:
        assert report["q"] == q
        assert 0.0 <= report["observability"]["margin"] < 1e-140
    else:
        assert report["born_oppenheimer"]["value"] == pytest.approx(1.4872672957379527e302,
                                                                    rel=1e-15)
        assert not report["born_oppenheimer"]["satisfied"]


def test_scattering_length_is_not_a_parameter(tmp_path, capsys):
    code, out, err = _run(capsys, "xsection", "--scatt-length-fm", "3.26")
    assert code == USAGE_EXIT
    assert out == ""
    assert err == "usage error: unrecognized arguments: --scatt-length-fm 3.26\n"
    cfg = tmp_path / "x.cfg"
    cfg.write_text("scatt_length_fm=3.26\n")
    code, out, err = _run(capsys, "xsection", "--config", str(cfg), "--points", "3")
    assert code == USAGE_EXIT
    assert out == ""
    assert err.count("\n") == 1
    assert "unknown key 'scatt_length_fm'" in err


@pytest.mark.parametrize("argv", [
    ("purity", "--z-min", "1e-3", "--z-max", "1e2", "--points", "50"),
    ("momentum", "--z0", "0.1", "--points", "100"),
    ("twoslit", "--separation-ab", "1000", "--delta-ab", "200", "--points", "201"),
    ("conditions", "--energy-ev", "1.0"),
])
def test_readme_purity_and_momentum_runs_are_byte_identical(capsys, argv):
    # tests/readme_<subcommand>.csv (.json for conditions) hold the stdout of
    # four of the five README runs: purity and momentum as written before the
    # float kernel of a real b and the array limits, twoslit and conditions
    # as written before the one wave-packet kernel call per scan
    code, out, err = _run(capsys, *argv)
    assert code == 0 and err == ""
    golden = f"readme_{argv[0]}.{'json' if argv[0] == 'conditions' else 'csv'}"
    assert out == (Path(__file__).parent / golden).read_text(encoding="utf-8")


def test_momentum_run_evaluates_each_limit_once(capsys, monkeypatch):
    calls = []
    for name in ("gaussian_limit", "electron_limit"):
        def counted(*args, name=name, original=getattr(cli, name)):
            calls.append(name)
            return original(*args)
        monkeypatch.setattr(cli, name, counted)
    code, _, _ = _run(capsys, "momentum", "--z0", "0.1", "--points", "100")
    assert code == 0
    assert sorted(calls) == ["electron_limit", "gaussian_limit"]


#: the five README runs
_README_RUNS = [
    ("purity", "--z-min", "1e-3", "--z-max", "1e2", "--points", "50"),
    ("momentum", "--z0", "0.1", "--points", "100"),
    ("twoslit", "--separation-ab", "1000", "--delta-ab", "200", "--points", "201"),
    ("xsection", "--energy-ev", "1.0", "--method", "both", "--points", "19"),
    ("conditions", "--energy-ev", "1.0"),
]


def _parsed(parse, argv):
    """vars() of the parsed argv, or the text of the UsageError it raises."""
    try:
        return vars(parse(list(argv)))
    except UsageError as exc:
        return f"UsageError: {exc}"


@pytest.mark.parametrize("argv", _README_RUNS + [
    ("purity", "--z-m", "1e-2"),
    ("momentum", "--q", "1"),
    ("momentum", "--config", "run.cfg", "--z0", "0.5"),
    ("twoslit", "--output", "out.csv", "--points=5"),
    ("xsection", "--summary-output", "summary.json", "--z0", "12"),
    ("purity", "--bogus"),
    ("purity", "--points"),
    ("purity", "--points", "x"),
    ("purity", "x"),
    ("purity", "--version"),
    ("purity", "--=x"),
    ("purity", "--", "x"),
    ("conditions", "--points", "3"),
    (),
    ("bogus",),
    ("--bogus", "purity"),
])
def test_one_pass_parse_is_the_full_parser(argv):
    fast = _parsed(cli._parse_args, argv)
    if argv == ("purity", "--=x"):
        # the one run that reads otherwise: the subcommand's parser names
        # its own options, where the full parser named --help and --version
        assert fast == ("UsageError: ambiguous option: --=x could match --help, --config, "
                        "--output, --z-min, --z-max, --points")
        return
    assert fast == _parsed(cli._parser().parse_args, argv)
    if argv and argv[0] in SCHEMAS and isinstance(fast, dict):
        assert fast["subcommand"] == argv[0]


@pytest.mark.parametrize("argv", _README_RUNS)
def test_readme_runs_parse_in_one_pass(capsys, monkeypatch, argv):
    passes = []
    parse = argparse.ArgumentParser.parse_known_args

    def spy(self, *args, **kwargs):
        passes.append(self.prog)
        return parse(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", spy)
    code, _, _ = _run(capsys, *argv)
    assert code == 0
    assert passes == [f"atomdecoh {argv[0]}"]
