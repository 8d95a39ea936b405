import json
import math

import pytest

from atomdecoh.cli import (
    IO_EXIT,
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
    # at 0.1 eV (q = 3.7) the asymptotic form warns once per angle; the
    # warnings go into the summary, not onto the stream that carries it
    code, _, err = _run(capsys, "xsection", "--energy-ev", "0.1", "--points", "3")
    assert code == 0
    summary = json.loads(err)
    assert len(summary["warnings"]) == 1
    assert "q = 3.68 < 5" in summary["warnings"][0]


def test_xsection_invalid_method_is_usage_error(capsys):
    code, _, err = _run(capsys, "xsection", "--method", "magic", "--points", "3")
    assert code == USAGE_EXIT
    assert "method" in err


def test_constants_override_via_config(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("m_alpha_over_m_n=3.99\n")
    code, out, _ = _run(
        capsys, "conditions", "--config", str(cfg), "--energy-ev", "1.0"
    )
    assert code == 0
    json.loads(out)


def test_csv_format_is_twelve_significant_digits(capsys):
    code, out, _ = _run(capsys, "purity", "--points", "2")
    assert code == 0
    _, rows = _data_rows(out)
    for row in rows:
        for cell in row:
            mantissa, _, _exp = cell.partition("e")
            assert len(mantissa.lstrip("-").replace(".", "")) == 12


def test_deterministic_output(capsys):
    _, first, _ = _run(capsys, "momentum", "--points", "4", "--z0", "1.0")
    _, second, _ = _run(capsys, "momentum", "--points", "4", "--z0", "1.0")
    assert first == second


def test_schema_defaults_documented():
    for schema in SCHEMAS.values():
        for _key, (typ, default, helptext) in schema.items():
            assert isinstance(default, typ)
            assert helptext
