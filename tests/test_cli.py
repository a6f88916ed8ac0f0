"""Command line front end: configuration round trips, artifact
schemas, determinism, provenance tagging, and the honest failure
paths.

The heavy subcommands run once per module into shared temp dirs; the
assertions then read the artifacts like a downstream consumer would.
Byte-identical rerun checks rewrite into the same directory and hash.
"""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import textwrap

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from navier_bubbles import cli, projection, reduction, solver
from navier_bubbles.bubble import (balance_constants, balance_scale,
                                   center_potential)
from navier_bubbles.green_robin import BallDomain, robin
from navier_bubbles.cli import (CliError, RunConfig, _cell, _pv,
                                _sweep_records, _write_table, _SWEEP_FIELDS)

PROVENANCE_VOCAB = {"formula", "quadrature", "solver", "fit"}


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def file_hashes(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def provenance_cells(header, row):
    cells = []
    for name, value in zip(header, row):
        if name.endswith("_provenance"):
            cells.append(value)
    return cells


def assert_table_matches_entries(header, rows, entries):
    """The CSV rows and the report entries of one artifact agree: the
    same names in order, each numeric entry the tagged value of its cell
    and provenance cell, each flag the cell's true or false."""
    assert len(entries) == len(rows)
    names = [k for k in header if not k.endswith("_provenance")]
    for row, entry in zip(rows, entries):
        cells = dict(zip(header, row))
        assert names == list(entry)
        for name, value in entry.items():
            if isinstance(value, bool):
                assert cells[name] == ("true" if value else "false")
            else:
                assert _pv(float(cells[name]),
                           cells[name + "_provenance"]) == value


# ---------------------------------------------------------------------------
# run configuration

def test_config_round_trip_is_lossless(tmp_path):
    config = RunConfig(n=6, radius=1.25,
                       eps_schedule=(0.3, 0.07000000000000001, 0.0123),
                       grid_nodes=512, out_dir="somewhere/else")
    path = tmp_path / "config.json"
    config.to_json(path)
    assert RunConfig.from_json(path) == config


def test_config_defaults_are_the_reference_sweep():
    config = RunConfig()
    assert config.n == 6
    assert config.eps_schedule == (0.3, 0.2, 0.1, 0.05, 0.02, 0.01, 0.005)
    assert config.grid_nodes == 2048


def test_config_rejects_increasing_schedule():
    with pytest.raises(CliError, match="decrease strictly"):
        RunConfig(eps_schedule=(0.1, 0.2))


def test_config_rejects_flat_schedule():
    with pytest.raises(CliError, match="decrease strictly"):
        RunConfig(eps_schedule=(0.1, 0.1))


def test_config_rejects_empty_schedule():
    with pytest.raises(CliError, match="must not be empty"):
        RunConfig(eps_schedule=())


def test_config_rejects_nonpositive_offsets():
    with pytest.raises(CliError, match="positive"):
        RunConfig(eps_schedule=(0.1, -0.05))


def test_config_rejects_low_dimension():
    with pytest.raises(CliError, match="at least 5"):
        RunConfig(n=4)


def test_config_rejects_coarse_grid():
    with pytest.raises(CliError, match="at least 256"):
        RunConfig(grid_nodes=255)


@pytest.mark.parametrize("field, value, message", [
    ("radius", "x", "radius must be a number, not 'x'"),
    ("eps_schedule", 0.1, "eps_schedule must be a list of numbers"),
    ("eps_schedule", [0.3, "0.1"], "eps_schedule must be a list of numbers"),
    ("grid_nodes", None, "grid_nodes must be a number"),
    ("grid_nodes", True, "grid_nodes must be a number"),
    ("n", 10**400, "n holds a number too large for a float"),
    ("radius", 10**400, "radius holds a number too large for a float"),
    ("grid_nodes", 10**400,
     "grid_nodes holds a number too large for a float"),
    ("eps_schedule", [0.3, 10**400],
     "eps_schedule holds a number too large for a float"),
], ids=["radius-text", "schedule-number", "schedule-text-entry",
        "grid-null", "grid-bool", "n-huge", "radius-huge", "grid-huge",
        "schedule-huge-entry"])
def test_config_file_refuses_non_numeric_fields(tmp_path, capsys, field,
                                                value, message):
    data = RunConfig(out_dir=str(tmp_path)).to_dict()
    data[field] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    with pytest.raises(CliError, match=message):
        RunConfig.from_dict(data)
    assert cli.main(["verify-blowup", "--config", str(path)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "verify-blowup").exists()


def test_config_rejects_unknown_schema(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema": "navier-bubbles/run-config/99"}))
    with pytest.raises(CliError, match="schema"):
        RunConfig.from_json(path)


def test_config_rejects_unknown_fields(tmp_path, capsys):
    # older config files carry quad_tol; the Newton target is a solver
    # constant, so the field is unknown and such a file is refused
    for name, value in (("extra_knob", 1), ("seed", 0),
                        ("quad_tol", 1e-10)):
        data = RunConfig(out_dir=str(tmp_path)).to_dict()
        data[name] = value
        with pytest.raises(CliError, match="unknown run-config fields: "
                                           + name):
            RunConfig.from_dict(data)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        assert cli.main(["verify-blowup", "--config", str(path)]) == 2
        assert "unknown run-config fields: " + name in capsys.readouterr().err


def test_config_rejects_missing_fields():
    data = RunConfig().to_dict()
    del data["radius"]
    with pytest.raises(CliError, match="missing run-config fields"):
        RunConfig.from_dict(data)


def test_config_file_errors_are_usage_errors(tmp_path):
    with pytest.raises(CliError, match="cannot read"):
        RunConfig.from_json(tmp_path / "absent.json")
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    with pytest.raises(CliError, match="not valid JSON"):
        RunConfig.from_json(bad)


# ---------------------------------------------------------------------------
# cell and provenance helpers

def test_cell_formats_are_lossless_and_typed():
    assert _cell(True) == "true" and _cell(False) == "false"
    assert _cell(7) == "7"
    assert float(_cell(0.1 + 0.2)) == 0.1 + 0.2
    assert _cell(float("nan")) == "nan"


def test_pv_wraps_value_with_tag_and_nulls_nonfinite():
    tagged = _pv(1.5, "solver")
    assert tagged == {"value": 1.5, "provenance": "solver"}
    assert _pv(float("nan"), "solver")["value"] is None
    assert _pv(float("inf"), "fit")["value"] is None


# ---------------------------------------------------------------------------
# constants

def test_constants_rows_match_library_formulas():
    rows = dict(cli.constants_rows(6))
    consts = balance_constants(6)
    assert rows["bubble amplitude c0"] == consts.c0
    assert rows["interaction constant c1"] == consts.c1
    assert rows["operative c2 (positive)"] == consts.c2
    assert rows["exponent response c2, full variant"] < 0
    assert rows["exponent response c2, half variant"] > 0
    assert rows["variant ratio full/half"] == pytest.approx(-2.0, rel=1e-12)
    assert rows["ratio c1/c2"] == pytest.approx(15.0, rel=1e-12)
    assert rows["scale law limit eps*lam^(n-4), unit ball"] == (
        pytest.approx(20.0, rel=1e-12))
    assert rows["peak law limit eps*M^2, unit ball"] == (
        pytest.approx(consts.c0 ** 2 * 20.0, rel=1e-12))


def test_constants_every_row_is_formula_provenance(tmp_path, capsys):
    # the field table carries the one provenance; the printed table and
    # the CSV both take it from there
    assert cli._CONSTANTS_FIELDS == (("name", None), ("value", "formula"))
    assert cli.main(["constants", "--out", str(tmp_path)]) == 0
    printed = capsys.readouterr().out.splitlines()[2:-1]
    assert len(printed) == len(cli.constants_rows(6))
    assert all(line.split()[-1] == "formula" for line in printed)
    _, rows = read_csv(tmp_path / "constants.csv")
    assert [r[2] for r in rows] == ["formula"] * len(printed)


def test_constants_stdout_is_deterministic(capsys):
    assert cli.main(["constants"]) == 0
    first = capsys.readouterr().out
    assert cli.main(["constants"]) == 0
    assert capsys.readouterr().out == first
    assert "provenance" in first


def test_constants_csv_round_trips(tmp_path, capsys):
    assert cli.main(["constants", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    header, rows = read_csv(tmp_path / "constants.csv")
    assert header == ["name", "value", "value_provenance"]
    values = {r[0]: float(r[1]) for r in rows}
    consts = balance_constants(6)
    assert values["interaction constant c1"] == consts.c1
    assert all(r[2] in PROVENANCE_VOCAB for r in rows)


def test_constants_csv_is_rfc4180(tmp_path, capsys):
    assert cli.main(["constants", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    raw = (tmp_path / "constants.csv").read_bytes()
    assert b"\r\n" in raw
    raw.decode("utf-8")


def test_constants_rejects_low_dimension(capsys):
    assert cli.main(["constants", "--n", "4"]) == 2
    assert "error:" in capsys.readouterr().err


def test_constants_refuses_dimensions_past_the_measured_limit(tmp_path,
                                                              capsys):
    # every row is a closed form; the largest, the peak law limit
    # c0^2 (c1/c2) phi(0), is finite up to n = 132 and overflows at
    # n = 133, so the limit is derived, not measured. The log-kernel
    # quadrature it replaced stopped converging from n = 90
    assert cli.CONSTANTS_N_MAX == 132
    assert math.isinf(cli.constants_rows(133)[-1][1])
    assert cli.main(["constants", "--n", "133", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        "error: dimension must be between 5 and 132\n")
    assert not (tmp_path / "constants.csv").exists()
    for n in ("48", "89", "132"):
        assert run_quietly(["constants", "--n", n,
                            "--out", str(tmp_path / n)], capsys) == 0
        _, rows = read_csv(tmp_path / n / "constants.csv")
        assert all(math.isfinite(float(row[1])) for row in rows)


@pytest.mark.parametrize("n", ["5", "6", "89", "132"])
def test_constants_rows_are_formulas_without_quadrature(n, tmp_path, capsys,
                                                        monkeypatch):
    # the formula provenance of every row: the table forms no quadrature
    def refuse(*args, **kwargs):
        raise AssertionError("constants must not integrate")

    for name, module in list(sys.modules.items()):
        if (name.startswith("navier_bubbles")
                and hasattr(module, "radial_integral")):
            monkeypatch.setattr(module, "radial_integral", refuse)
    assert run_quietly(["constants", "--n", n, "--out", str(tmp_path)],
                       capsys) == 0
    header, rows = read_csv(tmp_path / "constants.csv")
    assert header == ["name", "value", "value_provenance"]
    assert all(math.isfinite(float(row[1])) and row[2] == "formula"
               for row in rows)


def run_quietly(argv, capsys):
    """Exit code of a run, its output discarded. Like every run in the
    suite (filterwarnings in pyproject.toml), it fails on any warning,
    numpy's overflow, invalid value or division by zero included."""
    rc = cli.main(argv)
    capsys.readouterr()
    return rc


def assert_refused(argv, out, capsys, message="error: radius must lie in"):
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith(message)
    assert not out.exists()


# ---------------------------------------------------------------------------
# robin profile

@pytest.fixture(scope="module")
def robin_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("robin")
    rc = cli.main(["robin", "--stations", "9", "--out", str(out)])
    return rc, out


def test_robin_exit_code(robin_run):
    rc, _ = robin_run
    assert rc == 0


def test_robin_center_row_matches_closed_form(robin_run):
    _, out = robin_run
    header, rows = read_csv(out / "robin_profile.csv")
    coords = [float(r[header.index("axis_coordinate")]) for r in rows]
    center = rows[coords.index(0.0)]
    phi = float(center[header.index("phi")])
    grad = float(center[header.index("grad_norm")])
    assert phi == pytest.approx(4.0 / 3.0, rel=1e-6)
    assert grad <= 1e-6


def test_robin_default_stations_are_exactly_symmetric(tmp_path):
    # the default 21 stations: the center row sits exactly at 0 and the
    # mirrored coordinates are exact negatives of each other
    assert cli.main(["robin", "--out", str(tmp_path)]) == 0
    header, rows = read_csv(tmp_path / "robin_profile.csv")
    coords = [float(r[header.index("axis_coordinate")]) for r in rows]
    assert len(coords) == 21
    assert coords[10] == 0.0
    assert coords == [-c for c in coords[::-1]]


def test_robin_profile_is_even_in_the_coordinate(robin_run):
    _, out = robin_run
    header, rows = read_csv(out / "robin_profile.csv")
    phis = [r[header.index("phi")] for r in rows]
    assert phis == phis[::-1]


def test_robin_rows_carry_known_provenance(robin_run):
    _, out = robin_run
    header, rows = read_csv(out / "robin_profile.csv")
    assert header == ["station", "station_provenance",
                      "axis_coordinate", "axis_coordinate_provenance",
                      "phi", "phi_provenance",
                      "grad_norm", "grad_norm_provenance"]
    for row in rows:
        for tag in provenance_cells(header, row):
            assert tag in PROVENANCE_VOCAB
        assert row[header.index("phi_provenance")] == "solver"


def test_robin_fits_hit_boundary_exponents(robin_run):
    _, out = robin_run
    report = json.loads((out / "robin_fits.json").read_text())
    assert report["schema"] == "navier-bubbles/robin-profile/1"
    phi_fit = report["phi_boundary_exponent"]
    grad_fit = report["grad_boundary_exponent"]
    assert phi_fit["provenance"] == "fit"
    assert abs(phi_fit["value"] - (-2.0)) <= 0.15
    assert abs(grad_fit["value"] - (-3.0)) <= 0.2
    assert report["center_phi"]["value"] == pytest.approx(
        report["center_phi_closed_form"]["value"], rel=1e-6)


def test_robin_rerun_is_byte_identical(robin_run):
    _, out = robin_run
    before = file_hashes(out)
    assert cli.main(["robin", "--stations", "9", "--out", str(out)]) == 0
    assert file_hashes(out) == before


def test_robin_rejects_even_station_count(capsys):
    assert cli.main(["robin", "--stations", "8"]) == 2
    assert "odd" in capsys.readouterr().err


def test_robin_rejects_low_dimension(capsys):
    assert cli.main(["robin", "--n", "4"]) == 2
    capsys.readouterr()


def test_robin_refuses_dimensions_past_the_derived_limit(tmp_path, capsys):
    # the series' sums at the boundary fit's nearest station stay finite
    # up to n = 220 and overflow from n = 221; n = 150 was refused while
    # the limit was a measured 108
    assert cli.ROBIN_N_MAX == 220
    out = tmp_path / "robin"
    assert_refused(["robin", "--n", "221", "--out", str(out)], out, capsys,
                   "error: dimension must be between 5 and 220")
    for n in ("150", "220"):
        assert run_quietly(["robin", "--n", n, "--out", str(out)],
                           capsys) == 0
        assert_profile_normal(out)


def boundary_slopes(out):
    fits = json.loads((out / "robin_fits.json").read_text())
    return (fits["phi_boundary_exponent"]["value"],
            fits["grad_boundary_exponent"]["value"])


def is_normal(value):
    return sys.float_info.min <= value <= sys.float_info.max


def assert_profile_normal(out):
    """Every written phi and nonzero gradient norm is a positive normal
    double."""
    header, rows = read_csv(out / "robin_profile.csv")
    phi, grad = header.index("phi"), header.index("grad_norm")
    assert rows and all(is_normal(float(row[phi])) for row in rows)
    assert all(is_normal(float(row[grad])) for row in rows
               if float(row[grad]) != 0.0)


# the default 21 stations: the innermost nonzero one is at 0.09 R
DEFAULT_LEAST_STATION = 0.9 / 10


@pytest.mark.parametrize("n", [6, 40])
def test_robin_refuses_radii_past_its_written_values(n, tmp_path, capsys):
    # the window keeps every written phi and nonzero gradient norm a
    # positive normal double; inside it the boundary fit is scale
    # invariant, so its slopes at either end equal those of the unit ball
    lo, hi = cli._robin_radius_window(n, DEFAULT_LEAST_STATION)
    out = tmp_path / "robin"
    for radius in ("1e-160", "1e200", repr(lo * (1 - 1e-9)),
                   repr(hi * (1 + 1e-9))):
        assert_refused(["robin", "--n", str(n), "--radius", radius,
                        "--out", str(out)], out, capsys)
    assert run_quietly(["robin", "--n", str(n), "--out", str(out)],
                       capsys) == 0
    unit = boundary_slopes(out)
    for radius in (lo * (1 + 1e-9), hi * (1 - 1e-9)):
        assert run_quietly(["robin", "--n", str(n), "--radius", repr(radius),
                            "--out", str(out)], capsys) == 0
        assert boundary_slopes(out) == pytest.approx(unit, rel=1e-10)
        assert_profile_normal(out)


def test_robin_writes_normal_gradients_at_the_window_end(tmp_path, capsys):
    # R = 1e80 lay past the window kept from a squared gradient; each
    # written gradient is |phi~'|, which the unit ball gives by the
    # scaling phi~'(s; R) = R^(3-n) phi~'(s / R; 1), also at both ends of
    # the window, where the innermost gradient or the center phi is near
    # the smallest normal double
    n = 6
    lo, hi = cli._robin_radius_window(n, DEFAULT_LEAST_STATION)
    assert lo < 1e-100 and 1e102 < hi
    unit = BallDomain.unit(n)
    e1 = np.eye(n)[0]
    out = tmp_path / "robin"
    for radius in (1e80, lo, hi):
        assert run_quietly(["robin", "--radius", repr(radius), "--stations",
                            "21", "--out", str(out)], capsys) == 0
        assert_profile_normal(out)
        header, rows = read_csv(out / "robin_profile.csv")
        coord = header.index("axis_coordinate")
        grad = header.index("grad_norm")
        for row in rows:
            tau = abs(float(row[coord])) / radius
            expect = radius ** (3 - n) * abs(robin(unit, tau * e1).grad[0])
            assert float(row[grad]) == pytest.approx(expect, rel=1e-13,
                                                     abs=0.0)


# ---------------------------------------------------------------------------
# verify-blowup

@pytest.fixture(scope="module")
def vb_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("vb")
    rc = cli.main(["verify-blowup", "--out", str(base)])
    return rc, base / "verify-blowup"


def test_verify_blowup_reference_run_passes(vb_run):
    rc, out = vb_run
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["schema"] == "navier-bubbles/verify-blowup-report/1"
    assert report["passed"] is True
    assert all(c["passed"] for c in report["checks"])
    assert not (out / "failure.json").exists()


def test_verify_blowup_report_checks_carry_provenance(vb_run):
    _, out = vb_run
    report = json.loads((out / "report.json").read_text())
    names = {c["name"] for c in report["checks"]}
    assert {"final_energy_at_critical_level", "scale_law_limit_eps_model",
            "peak_law_limit_epslog_model",
            "remainder_decay_exponent"} <= names
    for check in report["checks"]:
        assert check["observed"]["provenance"] in PROVENANCE_VOCAB
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["scale_law_limit_eps_model"]["observed"][
        "provenance"] == "fit"
    assert by_name["final_energy_at_critical_level"]["observed"][
        "provenance"] == "quadrature"
    assert by_name["scale_law_limit_eps_model"]["target"] == (
        pytest.approx(20.0, rel=1e-6))


def test_verify_blowup_sweep_table(vb_run):
    _, out = vb_run
    header, rows = read_csv(out / "sweep.csv")
    assert header == [
        "eps", "eps_provenance", "peak", "peak_provenance",
        "alpha", "alpha_provenance", "lam", "lam_provenance",
        "v_norm", "v_norm_provenance", "eps_lam_pow", "eps_lam_pow_provenance",
        "eps_peak_sq", "eps_peak_sq_provenance",
        "peak_scale_ratio", "peak_scale_ratio_provenance",
        "newton_iters", "newton_iters_provenance",
        "residual", "residual_provenance",
        "pohozaev_defect", "pohozaev_defect_provenance"]
    assert len(rows) == 7
    eps = [float(r[header.index("eps")]) for r in rows]
    assert eps == [0.3, 0.2, 0.1, 0.05, 0.02, 0.01, 0.005]
    peaks = [float(r[header.index("peak")]) for r in rows]
    assert all(b > a for a, b in zip(peaks, peaks[1:]))
    scale_law = float(rows[-1][header.index("eps_lam_pow")])
    assert scale_law == pytest.approx(20.0, rel=0.15)
    for row in rows:
        for tag in provenance_cells(header, row):
            assert tag in PROVENANCE_VOCAB


def test_verify_blowup_solver_trace(vb_run):
    _, out = vb_run
    header, rows = read_csv(out / "sweep.csv")
    trace = json.loads((out / "report.json").read_text())["solver_trace"]
    assert set(trace) == {"newton_iters", "offsets"}
    assert trace["newton_iters"] == 35
    total = 0
    for offset, row in zip(trace["offsets"], rows):
        assert set(offset) == {"eps", "attempts"}
        assert offset["eps"]["value"] == float(row[header.index("eps")])
        (winner,) = offset["attempts"]
        assert winner["start"] == "law" and winner["exit"] == "converged"
        assert winner["newton_iters"] == int(row[header.index("newton_iters")])
        for attempt in offset["attempts"]:
            steps = attempt["iterations"]
            assert len(steps) == attempt["newton_iters"] + 1
            assert steps[-1]["damping"] is None
            for step in steps:
                assert step["residual"]["provenance"] == "solver"
            total += attempt["newton_iters"]
        assert steps[-1]["residual"]["value"] == float(
            row[header.index("residual")])
    assert total == trace["newton_iters"]


def trace_iterations(attempt):
    """A trace attempt's iterations as (residual, damping) pairs."""
    return tuple((it["residual"]["value"],
                  None if it["damping"] is None else it["damping"]["value"])
                 for it in attempt["iterations"])


def test_solver_trace_writes_each_attempt_as_it_is(vb_run,
                                                    subcritical_sweep):
    # the reference run solves the conftest schedule on the same grid,
    # so each offset's trace is its solution's one attempt, unchanged
    _, out = vb_run
    trace = json.loads((out / "report.json").read_text())["solver_trace"]
    assert len(trace["offsets"]) == len(subcritical_sweep)
    for offset, sol in zip(trace["offsets"], subcritical_sweep):
        (attempt,) = offset["attempts"]
        assert attempt["eps"] == offset["eps"] == _pv(-sol.eps, "formula")
        assert attempt["start"] == "law"
        assert attempt["exit"] == sol.attempt.exit
        assert trace_iterations(attempt) == sol.attempt.iterations


def test_failed_offset_is_the_aborted_attempt(tmp_path, capsys):
    # at radius 1e10 the law seed of offset 0.3 misses Newton's basin;
    # failure.json records the attempt the sweep's exception carries
    rc = cli.main(["verify-blowup", "--eps", "0.3", "0.1", "0.05", "0.02",
                   "--radius", "1e10", "--out", str(tmp_path)])
    capsys.readouterr()
    assert rc == 3
    failure = json.loads(
        (tmp_path / "verify-blowup" / "failure.json").read_text())
    config = RunConfig(radius=1e10, eps_schedule=(0.3, 0.1, 0.05, 0.02))
    domain = config.domain()
    with pytest.raises(solver.ContinuationError) as err:
        solver.continuation_sweep(list(config.eps_schedule), domain,
                                  grid=solver.default_grid(domain))
    assert err.value.partial == []
    expected = cli._trace_offset(0.3, err.value.attempt)
    assert failure["failed_offset"] == json.loads(json.dumps(expected))
    assert trace_iterations(failure["failed_offset"]["attempts"][0]) == (
        err.value.attempt.iterations)


def test_verify_blowup_config_echo(vb_run):
    _, out = vb_run
    config = RunConfig.from_json(out / "config.json")
    assert config.eps_schedule == RunConfig().eps_schedule
    assert list(json.loads((out / "config.json").read_text())) == [
        "schema", "n", "radius", "eps_schedule", "grid_nodes", "out_dir"]


def test_verify_blowup_rerun_is_byte_identical(vb_run):
    rc, out = vb_run
    assert rc == 0
    before = file_hashes(out)
    base = os.path.dirname(out)
    assert cli.main(["verify-blowup", "--out", base]) == 0
    assert file_hashes(out) == before


def test_verify_blowup_reruns_from_its_echoed_config(vb_run, capsys):
    # a run repeated from its own config.json, into the same directory,
    # writes every artifact byte for byte as the run from flags did
    rc, out = vb_run
    assert rc == 0
    before = file_hashes(out)
    assert cli.main(["verify-blowup", "--config",
                     str(out / "config.json")]) == 0
    capsys.readouterr()
    assert file_hashes(out) == before


def test_verify_blowup_shallow_schedule_fails_honestly(tmp_path):
    rc = cli.main(["verify-blowup", "--eps", "0.3", "0.2", "0.1", "0.05",
                   "--out", str(tmp_path)])
    assert rc == 1
    report = json.loads(
        (tmp_path / "verify-blowup" / "report.json").read_text())
    assert report["passed"] is False
    failed = {c["name"] for c in report["checks"] if not c["passed"]}
    assert "peak_law_limit_epslog_model" in failed
    # Each law line judges its own value: the eps model lands within
    # tolerance even though the epslog model does not.
    assert "peak_law_limit_eps_model" not in failed
    assert not (tmp_path / "verify-blowup" / "failure.json").exists()


def test_verify_blowup_rejects_two_point_schedule(tmp_path, capsys):
    rc = cli.main(["verify-blowup", "--eps", "0.3", "0.2",
                   "--out", str(tmp_path)])
    assert rc == 2
    assert "at least four" in capsys.readouterr().err
    assert not (tmp_path / "verify-blowup").exists()


def test_verify_blowup_rejects_config_flag_mix(tmp_path, capsys):
    path = tmp_path / "config.json"
    RunConfig().to_json(path)
    rc = cli.main(["verify-blowup", "--config", str(path), "--n", "6"])
    assert rc == 2
    assert "--config excludes" in capsys.readouterr().err


def test_config_flag_mix_names_the_fields(tmp_path, capsys):
    path = tmp_path / "config.json"
    RunConfig().to_json(path)
    for command in ("verify-blowup", "supercritical"):
        rc = cli.main([command, "--config", str(path), "--eps", "0.1",
                       "--grid-nodes", "4096", "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: --config excludes the run flags (eps_schedule, "
            "grid_nodes)\n")


def test_unencodable_json_leaves_no_file(tmp_path):
    # the value after the first key cannot be encoded: json.dump would
    # have written '{\n "ok": 1,\n "bad": ' before raising
    path = tmp_path / "report.json"
    with pytest.raises(TypeError):
        cli._write_json(path, {"ok": 1, "bad": object()})
    assert not path.exists()


def test_config_json_lists_every_field_in_order(tmp_path):
    path = tmp_path / "config.json"
    RunConfig().to_json(path)
    assert path.read_text() == textwrap.dedent("""\
        {
         "schema": "navier-bubbles/run-config/1",
         "n": 6,
         "radius": 1.0,
         "eps_schedule": [
          0.3,
          0.2,
          0.1,
          0.05,
          0.02,
          0.01,
          0.005
         ],
         "grid_nodes": 2048,
         "out_dir": "runs"
        }
        """)


def test_verify_blowup_rejects_other_dimensions(capsys):
    assert cli.main(["verify-blowup", "--n", "5"]) == 2
    assert "dimension 6" in capsys.readouterr().err


@pytest.mark.parametrize("nodes", [256, 2048])
def test_verify_blowup_refuses_radii_past_the_cell_volumes(nodes, tmp_path,
                                                           capsys):
    # 1e-160 overflowed R ** (4 - n); at either end of the window the
    # law seed misses Newton's basin and the sweep fails honestly, and at
    # 1e50 a solved offset no longer decomposes, which used to end in a
    # ValueError traceback while the partial sweep was written
    grid = solver.default_grid(BallDomain.unit(6), nodes)
    lo, hi = cli._grid_radius_window(grid)
    flags = ["--grid-nodes", str(nodes)]
    out = tmp_path / "verify-blowup"
    for radius in ("1e-160", repr(lo * (1 - 1e-9)), repr(hi * (1 + 1e-9))):
        assert_refused(["verify-blowup", *flags, "--radius", radius,
                        "--out", str(tmp_path)], out, capsys)
    for radius in (lo * (1 + 1e-9), hi * (1 - 1e-9), 1e50):
        assert run_quietly(["verify-blowup", *flags, "--radius",
                            repr(radius), "--out", str(tmp_path)],
                           capsys) == 3
        failure = json.loads((out / "failure.json").read_text())
        assert failure["stage"] == "sweep"
        _, rows = read_csv(out / "sweep.csv")
        assert len(rows) <= failure["completed"]


def test_verify_blowup_runs_from_config_file(tmp_path, capsys):
    config = RunConfig(eps_schedule=(0.3, 0.2, 0.1, 0.05),
                       out_dir=str(tmp_path))
    path = tmp_path / "config.json"
    config.to_json(path)
    rc = cli.main(["verify-blowup", "--config", str(path)])
    capsys.readouterr()
    assert rc == 1
    echoed = RunConfig.from_json(tmp_path / "verify-blowup" / "config.json")
    assert echoed == config


def test_verify_blowup_persists_failure_stage(tmp_path, capsys,
                                              monkeypatch):
    # an offset below the grid's floor is a configuration error, refused
    # before anything is written
    for below, shown in (("0.004", "0.004"), ("1e-7", "1e-07")):
        rc = cli.main(["verify-blowup", "--eps", "0.3", "0.2", "0.1", below,
                       "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            "error: offset %s is below the resolution floor 0.005 of a "
            "2048-node grid" % shown)
        assert not (tmp_path / "out").exists()

    # a one-step Newton cap: the first solve runs and fails, and
    # its attempt is written in the solver-trace offset shape
    monkeypatch.setattr(solver, "NEWTON_MAX_STEPS", 1)
    rc = cli.main(["verify-blowup", "--eps", "0.3", "0.2", "0.1", "0.05",
                   "--out", str(tmp_path / "aborted")])
    assert rc == 3
    assert "sweep aborted at offset 0.3" in capsys.readouterr().err
    out = tmp_path / "aborted" / "verify-blowup"
    failure = json.loads((out / "failure.json").read_text())
    assert failure["schema"] == "navier-bubbles/failure/1"
    assert failure["stage"] == "sweep" and failure["completed"] == 0
    assert (out / "config.json").exists()
    assert not (out / "report.json").exists()
    offset = failure["failed_offset"]
    assert set(offset) == {"eps", "attempts"}
    assert offset["eps"] == {"value": 0.3, "provenance": "formula"}
    assert [a["start"] for a in offset["attempts"]] == ["law"]
    for a in offset["attempts"]:
        assert a["exit"] in {"cap", "line search", "singular step",
                             "collapsed"}
        assert len(a["iterations"]) == a["newton_iters"] + 1
        assert a["iterations"][-1]["damping"] is None
        assert all(it["residual"]["provenance"] == "solver"
                   for it in a["iterations"])


def test_partial_sweep_rows_serialize_real_solutions(
        tmp_path, subcritical_sweep, sweep_decompositions):
    records = _sweep_records(6, subcritical_sweep[:3],
                             sweep_decompositions[:3])
    path = tmp_path / "partial.csv"
    _write_table(path, records, _SWEEP_FIELDS)
    header, data = read_csv(path)
    assert len(data) == 3
    for row, sol, dec in zip(data, subcritical_sweep,
                             sweep_decompositions):
        assert float(row[header.index("peak")]) == sol.M
        assert float(row[header.index("lam")]) == dec.lam
        assert float(row[header.index("eps")]) == abs(sol.eps)


# ---------------------------------------------------------------------------
# supercritical

@pytest.fixture(scope="module")
def sc_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("sc")
    rc = cli.main(["supercritical", "--eps", "0.02", "0.05",
                   "--out", str(base)])
    return rc, base / "supercritical"


def test_supercritical_certificate_passes(sc_run):
    rc, out = sc_run
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["schema"] == "navier-bubbles/supercritical-report/1"
    assert report["passed"] is True
    assert report["probe"]["any_concentrating"] is False
    for e in report["probe"]["entries"]:
        assert not e["concentrating"]
        # the certificate re-checked from the artifact: the left side's
        # coefficient n/(q+1) - (n-4)/2 at q = p + eps is negative
        q = 5.0 + e["eps"]["value"]
        assert e["pohozaev_coefficient"]["value"] == 6 / (q + 1) - 1.0
        assert e["pohozaev_coefficient"]["value"] < 0
    assert report["obstruction"]["all_positive"] is True


def test_supercritical_margin_matches_scan_identity(sc_run):
    _, out = sc_run
    report = json.loads((out / "report.json").read_text())
    consts = balance_constants(6)
    for entry in report["obstruction"]["entries"]:
        margin = entry["margin"]["value"]
        # minimum sits at the center station and the largest scale
        expected = consts.c1 * (4.0 / 3.0) / 1e4 ** 2
        assert margin == pytest.approx(expected, rel=1e-6)
        assert margin > 0


def test_supercritical_roots_match_closed_form(sc_run):
    # the matched subcritical root is written once, in closed form: the
    # law's balance_scale at the unit ball's center potential
    _, out = sc_run
    report = json.loads((out / "report.json").read_text())
    consts = balance_constants(6)
    for entry in report["obstruction"]["entries"]:
        eps = entry["eps"]["value"]
        closed = entry["subcritical_root_closed"]
        assert closed == {"value": balance_scale(consts, center_potential(6),
                                                 eps),
                          "provenance": "formula"}
        assert closed["value"] == pytest.approx(
            math.sqrt(consts.c1 * (4.0 / 3.0) / (consts.c2 * eps)),
            rel=1e-6)
        assert "subcritical_root" not in entry and "sign_change" not in entry


def test_supercritical_contrast_triple(sc_run):
    _, out = sc_run
    report = json.loads((out / "report.json").read_text())
    contrast = report["subcritical_contrast"]
    assert contrast["eps"]["value"] == 0.02
    assert contrast["small_remainder"] is True
    assert contrast["amplitude_near_unity"] is True
    assert contrast["concentrated"] is True
    assert contrast["lambda_d"]["value"] > 20.0
    assert contrast["passed"] is True
    # reported, not gated: near zero on a genuine solution
    assert 0 < contrast["pohozaev_defect"]["value"] < 1e-3


def test_supercritical_probe_table(sc_run):
    _, out = sc_run
    header, rows = read_csv(out / "probe.csv")
    assert len(rows) == 2
    assert header == [
        "eps", "eps_provenance",
        "pohozaev_coefficient", "pohozaev_coefficient_provenance",
        "concentrating"]
    assert [float(r[header.index("eps")]) for r in rows] == [0.02, 0.05]
    for row in rows:
        assert row[header.index("concentrating")] == "false"
        assert float(row[header.index("pohozaev_coefficient")]) < 0
        assert row[header.index("pohozaev_coefficient_provenance")] == (
            "formula")
        for tag in provenance_cells(header, row):
            assert tag in PROVENANCE_VOCAB
    report = json.loads((out / "report.json").read_text())
    assert_table_matches_entries(header, rows, report["probe"]["entries"])


def test_supercritical_obstruction_table(sc_run):
    _, out = sc_run
    header, rows = read_csv(out / "obstruction.csv")
    assert len(rows) == 2
    assert header == [
        "eps", "eps_provenance", "scan_min", "scan_min_provenance",
        "floor", "floor_provenance", "margin", "margin_provenance",
        "positive", "subcritical_root_closed",
        "subcritical_root_closed_provenance"]
    for row in rows:
        assert float(row[header.index("margin")]) > 0
        assert row[header.index("positive")] == "true"
        assert float(row[header.index("subcritical_root_closed")]) > 0
    # the report's entries carry the table's names and values
    report = json.loads((out / "report.json").read_text())
    assert_table_matches_entries(header, rows,
                                 report["obstruction"]["entries"])


def test_supercritical_rerun_is_byte_identical(sc_run):
    rc, out = sc_run
    assert rc == 0
    before = file_hashes(out)
    base = os.path.dirname(out)
    assert cli.main(["supercritical", "--eps", "0.02", "0.05",
                     "--out", base]) == 0
    assert file_hashes(out) == before


def test_supercritical_dimension_five_skips_contrast(tmp_path, capsys):
    rc = cli.main(["supercritical", "--n", "5", "--eps", "0.02",
                   "--out", str(tmp_path)])
    capsys.readouterr()
    assert rc == 0
    report = json.loads(
        (tmp_path / "supercritical" / "report.json").read_text())
    assert report["n"] == 5
    assert "skipped" in report["subcritical_contrast"]
    assert report["obstruction"]["all_positive"] is True
    assert report["passed"] is True


@pytest.mark.parametrize("n", ["7", "8", "9", "12"])
def test_supercritical_higher_dimension_certifies(tmp_path, capsys, n):
    rc = cli.main(["supercritical", "--n", n, "--out", str(tmp_path)])
    assert rc == 0
    assert capsys.readouterr().out.startswith(
        "supercritical probe: Pohozaev sign certified at every offset\n")
    report = json.loads(
        (tmp_path / "supercritical" / "report.json").read_text())
    assert report["n"] == int(n)
    assert "skipped" in report["subcritical_contrast"]
    assert report["probe"]["any_concentrating"] is False
    assert len(report["probe"]["entries"]) == 3
    dim = int(n)
    for e in report["probe"]["entries"]:
        q = (dim + 4) / (dim - 4) + e["eps"]["value"]
        coefficient = e["pohozaev_coefficient"]["value"]
        assert coefficient == dim / (q + 1) - (dim - 4) / 2
        assert not e["concentrating"] and coefficient < 0
    assert report["obstruction"]["all_positive"] is True
    for e in report["obstruction"]["entries"]:
        assert e["positive"] and e["margin"]["value"] > 0
    assert report["passed"] is True


def test_supercritical_refuses_radii_past_the_cell_volumes(tmp_path,
                                                         capsys):
    # 1e-160 overflowed R ** (4 - n) and 1e200 the ball's R ** n; at
    # either end of the window the probe and the obstruction still
    # certify, and only the subcritical contrast fails to solve
    grid = solver.default_grid(BallDomain.unit(6), 2048)
    lo, hi = cli._grid_radius_window(grid)
    out = tmp_path / "supercritical"
    for radius in ("1e-160", "1e200", repr(lo * (1 - 1e-9)),
                   repr(hi * (1 + 1e-9))):
        assert_refused(["supercritical", "--radius", radius,
                        "--out", str(tmp_path)], out, capsys)
    for radius in (lo * (1 + 1e-9), hi * (1 - 1e-9)):
        assert run_quietly(["supercritical", "--radius", repr(radius),
                            "--out", str(tmp_path)], capsys) == 1
        report = json.loads((out / "report.json").read_text())
        assert not report["probe"]["any_concentrating"]
        assert report["obstruction"]["all_positive"]
        assert "error" in report["subcritical_contrast"]


def test_supercritical_refuses_dimensions_without_a_radius(tmp_path,
                                                           capsys):
    # n = 82 ended in an OverflowError traceback at 1e4 ** (n - 4); off
    # n = 6 no grid is built, so n = 64, whose default grid's first cell
    # volume underflows at unit radius, runs there
    out = tmp_path / "supercritical"
    assert_refused(["supercritical", "--n", "82", "--out", str(tmp_path)],
                   out, capsys, "error: dimension must be between 5 and 81")
    assert run_quietly(["supercritical", "--n", "64",
                        "--out", str(tmp_path)], capsys) == 0


def assert_past_p_minus_one(argv, out, capsys):
    """The run is refused (exit 2) for an offset at or past p - 1,
    before anything is written and without a numpy warning."""
    assert_refused(argv, out, capsys,
                   "error: offset magnitude must stay below p - 1 = ")


def test_supercritical_probe_fails_on_an_overflowed_mass(tmp_path, capsys):
    # at eps = 2 the probe's seed, a field it no longer builds, overflowed
    # its mass and failed the certificate (exit 1); eps = 2 is past
    # p - 1 = 8/59 at n = 63, so the run is refused before it starts
    assert_past_p_minus_one(
        ["supercritical", "--n", "63", "--radius", "0.3", "--grid-nodes",
         "256", "--eps", "2", "1", "0.5", "--out", str(tmp_path)],
        tmp_path / "supercritical", capsys)


@pytest.mark.parametrize("eps", ["1e11", "1e50"])
def test_supercritical_probe_fails_on_an_underflowed_seed(tmp_path, capsys,
                                                          eps):
    # the probe's seed underflowed at these offsets and failed the
    # certificate (exit 1); they are past p - 1 = 4, where the matched
    # subcritical exponent p - eps is below one, and are refused
    assert_past_p_minus_one(["supercritical", "--eps", eps,
                             "--out", str(tmp_path / "out")],
                            tmp_path / "out", capsys)


@pytest.mark.parametrize("argv", [
    ["supercritical", "--eps", "1.7e308"],
    ["supercritical", "--n", "81", "--radius", "100", "--eps", "1e300"],
    ["supercritical", "--n", "40", "--radius", "5e7", "--eps", "1e50"],
    ["supercritical", "--n", "6", "--radius", "1e51", "--eps", "1e300"],
    ["verify-blowup", "--eps", "4", "3", "2", "1"],
], ids=["n6-1.7e308", "n81-1e300", "n40-1e50", "n6-R1e51-1e300",
        "verify-blowup-4"])
def test_run_offsets_stay_below_p_minus_one(tmp_path, capsys, argv):
    # the obstruction's three repros ended in a ZeroDivisionError
    # traceback, and without the rule 1.7e308 wrote an infinite floor
    # and passed
    assert_past_p_minus_one(argv + ["--out", str(tmp_path / "out")],
                            tmp_path / "out", capsys)


def test_config_refuses_offsets_past_p_minus_one():
    # p - 1 = 8/(n-4): 4 at n = 6, 0.4 at n = 24
    assert RunConfig(eps_schedule=(3.99,)).eps_schedule == (3.99,)
    for n, eps in ((6, 4.0), (24, 0.4)):
        with pytest.raises(CliError, match=r"below p - 1 = %g$" % eps):
            RunConfig(n=n, eps_schedule=(eps, 0.02))


@pytest.mark.parametrize("argv", [
    ["--n", "5", "--radius", "3e-57", "--eps", "1", "0.02"],
    ["--n", "20", "--eps", "0.49"],
    ["--eps", "3.99", "0.02"],
], ids=["n5-R3e-57", "n20-0.49", "n6-3.99"])
def test_supercritical_below_p_minus_one_writes_finite_values(tmp_path,
                                                              capsys, argv):
    # offsets just below p - 1 and radii at the window's end: the first
    # failed the seed's certificate on an overflowed mass (exit 1)
    assert run_quietly(["supercritical"] + argv + ["--out", str(tmp_path)],
                       capsys) == 0
    out = tmp_path / "supercritical"
    for name in ("probe.csv", "obstruction.csv"):
        header, rows = read_csv(out / name)
        for row in rows:
            for key, cell in zip(header, row):
                if not key.endswith("_provenance") and cell not in (
                        "true", "false"):
                    assert math.isfinite(float(cell)), (name, key, cell)
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is True


def test_supercritical_dimension_limit_is_where_the_margin_overflows(
        tmp_path, capsys):
    # the margin forms 1e4 ** (n - 4), finite up to n = 81; at R = 100,
    # inside the grid window of both, n = 81 certifies and n = 82 (an
    # OverflowError traceback without the limit) is refused
    assert cli.SUPERCRITICAL_N_MAX == 81
    assert math.isfinite(1e4 ** (81 - 4.0))
    with pytest.raises(OverflowError):
        1e4 ** (82 - 4.0)
    out = tmp_path / "supercritical"
    for n in (81, 82):
        grid = solver.default_grid(BallDomain.unit(n), 2048)
        lo, hi = cli._grid_radius_window(grid)
        assert lo < 100.0 < hi
    assert_refused(["supercritical", "--n", "82", "--radius", "100",
                    "--out", str(tmp_path)], out, capsys,
                   "error: dimension must be between 5 and 81")
    assert run_quietly(["supercritical", "--n", "81", "--radius", "100",
                        "--out", str(tmp_path)], capsys) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["n"] == 81 and report["passed"] is True


def test_supercritical_margin_does_not_bound_the_radius(tmp_path, capsys):
    # the obstruction's margin no longer depends on R, so at n = 72 every
    # radius of the grid window runs; the margin's own bound refused them
    # all
    out = tmp_path / "supercritical"
    assert run_quietly(["supercritical", "--n", "72", "--radius", "100",
                        "--out", str(tmp_path)], capsys) == 0
    report = json.loads((out / "report.json").read_text())
    consts = balance_constants(72)
    for entry in report["obstruction"]["entries"]:
        assert entry["margin"]["value"] == (
            consts.c1 * center_potential(72) / 1e4 ** (72 - 4.0))
        # the root is the unit ball's over R, and raises no power of R
        assert entry["subcritical_root_closed"]["value"] == balance_scale(
            consts, center_potential(72), entry["eps"]["value"]) / 100.0


def test_supercritical_refuses_unresolved_offsets(tmp_path, capsys):
    # the solver's resolution floor, applied before any artifact exists
    rc = cli.main(["supercritical", "--eps", "0.02", "0.001",
                   "--out", str(tmp_path)])
    assert rc == 2
    assert "below the resolution floor" in capsys.readouterr().err
    rc = cli.main(["supercritical", "--eps", "0.001", "--grid-nodes", "8192",
                   "--out", str(tmp_path)])
    assert rc == 2
    assert "below any supported resolution" in capsys.readouterr().err
    assert not (tmp_path / "supercritical").exists()


@pytest.mark.parametrize("argv", [
    ["--n", "8", "--eps", "0.003"],
    ["--n", "64"],
    ["--n", "81"],
], ids=["n8-eps0.003", "n64", "n81"])
def test_supercritical_builds_no_grid_off_dimension_six(tmp_path, capsys,
                                                        monkeypatch, argv):
    # each was refused on the grid's account, which only the n = 6
    # contrast reads: 0.003 by the 2,048-node resolution floor, n = 64 and
    # n = 81 at unit radius by the first cell volume
    def refuse(*args, **kwargs):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(solver, "default_grid", refuse)
    assert run_quietly(["supercritical", *argv, "--out", str(tmp_path)],
                       capsys) == 0
    report = json.loads(
        (tmp_path / "supercritical" / "report.json").read_text())
    assert report["passed"] is True
    assert "skipped" in report["subcritical_contrast"]


@pytest.mark.parametrize("n", [9, 40])
def test_supercritical_window_is_read_from_the_written_roots(tmp_path,
                                                           capsys, n):
    # off n = 6 the only number written that depends on R is the
    # subcritical root, the unit ball's over R: at both ends of the window
    # every written number is a normal double, and just past them the
    # run is refused. At n = 9 both ends come from the roots; at n = 40
    # the lower end is the least normal radius itself
    eps = (0.02, 0.05, 0.09)
    unit = reduction.supercritical_obstruction(eps, BallDomain.unit(n))
    roots = [e.subcritical_root_closed for e in unit.entries]
    lo, hi = cli._obstruction_radius_window(n, eps)
    assert hi == pytest.approx(min(roots) / sys.float_info.min, rel=1e-11)
    assert lo == pytest.approx(max(sys.float_info.min,
                                   max(roots) / sys.float_info.max),
                               rel=1e-11)
    out = tmp_path / "supercritical"
    argv = ["supercritical", "--n", str(n), "--out", str(tmp_path)]
    for radius in (lo * (1 - 1e-9), hi * (1 + 1e-9)):
        assert_refused(argv + ["--radius", repr(radius)], out, capsys)
    for radius in (lo, hi):
        assert run_quietly(argv + ["--radius", repr(radius)], capsys) == 0
        numbers = _written_numbers(out)
        assert numbers and all(is_normal(abs(v)) for v in numbers)


def test_supercritical_refuses_offsets_the_probe_cannot_sign(tmp_path,
                                                            capsys):
    # off n = 6 no grid floor applies; an offset within the rounding of
    # the Pohozaev coefficient (8.9e-15 at n = 5) is refused instead of
    # failing the certificate on a coefficient that rounds to zero
    out = tmp_path / "supercritical"
    for eps in ("1e-17", "8e-15", "1e-320"):
        assert_refused(["supercritical", "--n", "5", "--eps", "0.02", eps,
                        "--out", str(tmp_path)], out, capsys,
                       "error: probe offsets must be positive, finite and "
                       "above 8.88178e-15")
    assert run_quietly(["supercritical", "--n", "5", "--eps", "1e-14",
                        "--out", str(tmp_path)], capsys) == 0


# ---------------------------------------------------------------------------
# expansion orders

@pytest.fixture(scope="module")
def eo_run(tmp_path_factory):
    # each rung reads the bubble once, on all its axis samples
    out = tmp_path_factory.mktemp("eo")
    reads = []
    eval_delta = projection.eval_delta
    with pytest.MonkeyPatch.context() as m:
        m.setattr(projection, "eval_delta",
                  lambda p, x: reads.append(p.lam) or eval_delta(p, x))
        rc = cli.main(["expansion-orders", "--rungs", "5", "--out", str(out)])
    return rc, out, reads


def test_expansion_orders_slopes_within_bands(eo_run):
    rc, out, reads = eo_run
    assert rc == 0
    assert len(reads) == len(set(reads)) == 5
    report = json.loads((out / "orders.json").read_text())
    assert report["schema"] == "navier-bubbles/expansion-orders/1"
    fits = report["fits"]
    assert abs(fits["energy_norm"]["slope"]["value"] - (-1.0)) <= 0.3
    assert abs(fits["critical_norm"]["slope"]["value"] - (-1.0)) <= 0.3
    assert abs(fits["remainder_sup"]["slope"]["value"] - (-3.0)) <= 0.3
    assert report["passed"] is True


def test_expansion_orders_table(eo_run):
    _, out, _ = eo_run
    header, rows = read_csv(out / "orders.csv")
    assert header == ["quantity", "slope", "slope_provenance",
                      "expected", "expected_provenance",
                      "rms_residual", "rms_residual_provenance",
                      "within_band"]
    assert [r[0] for r in rows] == ["energy_norm", "critical_norm",
                                    "remainder_sup"]
    for row in rows:
        assert row[header.index("slope_provenance")] == "fit"
        assert row[header.index("within_band")] == "true"
    # orders.json keys its fits by quantity, under the CSV's other names
    fits = json.loads((out / "orders.json").read_text())["fits"]
    assert list(fits) == [r[0] for r in rows]
    assert_table_matches_entries(header[1:], [r[1:] for r in rows],
                                 list(fits.values()))


def test_expansion_orders_refuses_an_overflowing_ladder(tmp_path, capsys):
    # above the ceiling the top rung's (1 + (lam R)^2)^(n/2) overflows
    # (1e307 ended in an OverflowError traceback); just below it every
    # power stays finite and the fits run to a verdict
    ceiling = cli._lam_min_ceiling(6, 1.0)
    assert 5.9e49 < ceiling < 6.0e49
    out = tmp_path / "eo"
    for lam_min in ("1e307", repr(ceiling * (1 + 1e-9))):
        assert cli.main(["expansion-orders", "--lam-min", lam_min,
                         "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: lam_min must be "
                                                  "at most")
    assert not out.exists()
    rc = cli.main(["expansion-orders", "--lam-min",
                   repr(ceiling * (1 - 1e-9)), "--out", str(out)])
    assert rc in (0, 1)
    assert (out / "orders.json").exists()


@pytest.mark.parametrize("radius, lam_min", [
    ("1e-200", "1e203"), ("1e100", "6e-99"), ("1e50", "6e-49"),
    ("1e-100", "6e101")])
def test_expansion_orders_far_from_the_unit_radius(tmp_path, capsys, radius,
                                                   lam_min):
    # the fits depend on lam and R only through lam R; built on the ball
    # of radius R, these runs ended in an OverflowError (the first two),
    # an unconverged quadrature and an overflow warning
    out = tmp_path / "far"
    assert run_quietly(["expansion-orders", "--radius", radius, "--lam-min",
                        lam_min, "--out", str(out)], capsys) == 0
    report = json.loads((out / "orders.json").read_text())
    assert report["ladder"][0]["value"] == float(lam_min)
    # the unit-radius run at lam_min R rounds its ladder differently, so
    # the slopes agree to the quadrature tolerance, not bit for bit
    unit = tmp_path / "unit"
    assert run_quietly(["expansion-orders", "--lam-min",
                        repr(float(lam_min) * float(radius)),
                        "--out", str(unit)], capsys) == 0
    reference = json.loads((unit / "orders.json").read_text())
    for name, fit in report["fits"].items():
        assert fit["slope"]["value"] == pytest.approx(
            reference["fits"][name]["slope"]["value"], rel=1e-10)


def test_expansion_orders_rejects_short_ladder(tmp_path, capsys):
    assert cli.main(["expansion-orders", "--rungs", "3"]) == 2
    assert cli.main(["expansion-orders", "--lam-min", "10"]) == 2
    assert cli.main(["expansion-orders", "--n", "4"]) == 2
    capsys.readouterr()
    # a negative radius and scale pass lam_min * radius >= 30, and an
    # infinite radius passes it too; both are refused before any build
    out = tmp_path / "eo"
    for flags in (["--radius", "-1", "--lam-min", "-60"],
                  ["--radius", "inf"]):
        assert cli.main(["expansion-orders", *flags, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("n", [5, 7, 8])
def test_expansion_orders_other_dimensions(tmp_path, capsys, n):
    # the closed forms carry no dimension-6 calibration: the default
    # ladder lands on -(n-4)/2 for both norms and -n/2 for the remainder
    assert cli.main(["expansion-orders", "--n", str(n),
                     "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    report = json.loads((tmp_path / "orders.json").read_text())
    assert report["n"] == n and report["passed"] is True
    targets = {"energy_norm": -(n - 4) / 2.0,
               "critical_norm": -(n - 4) / 2.0,
               "remainder_sup": -n / 2.0}
    for name, target in targets.items():
        fit = report["fits"][name]
        assert fit["within_band"] is True
        assert abs(fit["slope"]["value"] - target) <= 1e-3


# ---------------------------------------------------------------------------
# range contract of the commands that run no sweep


def _written_numbers(out_dir):
    """Every number the run wrote under out_dir: each CSV cell that
    parses as a float, each JSON number, and each tagged value (null
    stands for a value that was not finite)."""
    numbers = []

    def walk(node):
        if isinstance(node, dict):
            if node.get("value", 0.0) is None:
                numbers.append(math.nan)
            for value in node.values():
                walk(value)
        elif isinstance(node, list):
            for value in node:
                walk(value)
        elif isinstance(node, (int, float)) and not isinstance(node, bool):
            numbers.append(float(node))

    paths = sorted(os.path.join(base, name)
                   for base, _, names in os.walk(out_dir) for name in names)
    for path in paths:
        if path.endswith(".json"):
            with open(path, encoding="utf-8") as fh:
                walk(json.load(fh))
        else:
            for cell in [c for row in read_csv(path)[1] for c in row]:
                try:
                    numbers.append(float(cell))
                except ValueError:
                    pass
    return numbers


def _run_in_range_contract(argv, written=math.isfinite):
    """Run one command under warnings-as-errors into a fresh directory:
    it exits 0, 1 or 2, writes nothing when it exits 2, and otherwise
    writes only numbers that pass written, finite ones by default."""
    with tempfile.TemporaryDirectory() as base:
        out = os.path.join(base, "out")
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main([*argv, "--out", out])
        assert rc in (0, 1, 2), argv
        if rc == 2:
            assert not os.path.exists(out), argv
        else:
            numbers = _written_numbers(out)
            assert numbers and all(map(written, numbers)), argv


# Random draws keep the arguments a command checks on their own (n,
# station and rung counts, the sign of a radius) admitted, so they reach
# the limits derived from the values written: the radius window, the
# dimension limit, the ladder's ceiling. Radii span the double range,
# half of them near the unit ball. The refusals of single arguments are
# fixed examples.
_RADII = st.one_of(st.floats(-3.0, 3.0), st.floats(-300.0, 300.0)).map(
    lambda e: 10.0 ** e)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(-2, 150))
def test_constants_range_contract(n):
    _run_in_range_contract(["constants", "--n=%d" % n])


@settings(max_examples=100, deadline=None)
@given(n=st.integers(5, 240), radius=_RADII,
       stations=st.integers(2, 20).map(lambda k: 2 * k + 1))
@example(n=4, radius=1.0, stations=21)
@example(n=6, radius=1.0, stations=20)
@example(n=6, radius=1.0, stations=3)
@example(n=6, radius=0.0, stations=21)
@example(n=6, radius=-1.0, stations=21)
@example(n=6, radius=math.inf, stations=21)
@example(n=6, radius=math.nan, stations=21)
def test_robin_range_contract(n, radius, stations):
    _run_in_range_contract(["robin", "--n=%d" % n, "--radius=%r" % radius,
                            "--stations=%d" % stations])


@settings(max_examples=150, deadline=None)
@given(n=st.integers(5, 150), radius=_RADII,
       lam_r=st.floats(1.5, 4.0).map(lambda e: 10.0 ** e),
       rungs=st.integers(4, 9))
@example(n=4, radius=1.0, lam_r=60.0, rungs=6)
@example(n=6, radius=1.0, lam_r=60.0, rungs=3)
@example(n=6, radius=1.0, lam_r=29.0, rungs=6)
@example(n=6, radius=0.0, lam_r=60.0, rungs=6)
@example(n=6, radius=-1.0, lam_r=60.0, rungs=6)
@example(n=6, radius=math.inf, lam_r=60.0, rungs=6)
@example(n=6, radius=math.nan, lam_r=60.0, rungs=6)
@example(n=6, radius=1.0, lam_r=math.inf, rungs=6)
@example(n=6, radius=1.0, lam_r=-60.0, rungs=6)
def test_expansion_orders_range_contract(n, radius, lam_r, rungs):
    # lam_min * radius = lam_r from 32 to 1e4, so most ladders are
    # admitted or refused on their top rung
    lam_min = lam_r / radius if 0.0 < radius < math.inf else lam_r
    _run_in_range_contract(["expansion-orders", "--n=%d" % n,
                            "--radius=%r" % radius, "--rungs=%d" % rungs,
                            "--lam-min=%r" % lam_min])


# Off n = 6 supercritical runs no sweep, so each run takes milliseconds.
# Offsets are drawn as fractions 10^e of p - 1: a third near the
# default schedule, a third around the probe's resolution (1e-15 to
# 2e-14 of p - 1) and a third over the double range; those past p - 1
# are drawn too.
_OFFSET_EXPONENTS = st.one_of(st.floats(-3.0, 0.0), st.floats(-17.0, 0.1),
                              st.floats(-330.0, 0.1))


@settings(max_examples=100, deadline=None)
@given(n=st.integers(5, 90).filter(lambda n: n != 6), radius=_RADII,
       exponents=st.lists(_OFFSET_EXPONENTS, min_size=1, max_size=3))
@example(n=8, radius=1.0, exponents=[math.log10(0.003 / 2.0)])
@example(n=64, radius=1.0, exponents=[-0.5, -1.5])
@example(n=81, radius=1.0, exponents=[-1.0, -2.0])
@example(n=82, radius=1.0, exponents=[-1.0])
@example(n=5, radius=1.0, exponents=[-17.0])
@example(n=5, radius=1e-300, exponents=[-13.0])
@example(n=5, radius=1.0, exponents=[-330.0])
def test_supercritical_range_contract(n, radius, exponents):
    # every number written is a normal double: nonzero, finite and not
    # subnormal
    p_minus_one = 8.0 / (n - 4)
    _run_in_range_contract(["supercritical", "--n=%d" % n,
                            "--radius=%r" % radius, "--eps",
                            *(repr(p_minus_one * 10.0 ** e)
                              for e in exponents)],
                           written=lambda v: is_normal(abs(v)))


# ---------------------------------------------------------------------------
# process-level entry point

def _fresh_python(code, *args):
    """Run code in a new interpreter that imports this package; its last
    stdout line is JSON."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code),
                           *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_closed_form_commands_load_no_scipy(tmp_path):
    # supercritical off n = 6 is formulas only: it solves nothing
    code = """
        import json, os, sys
        from navier_bubbles.cli import main
        codes = [main([*cmd, "--out", os.path.join(sys.argv[1], cmd[0])])
                 for cmd in (["constants"], ["robin"], ["expansion-orders"],
                             ["supercritical", "--n", "8"])]
        print(json.dumps([codes, sorted(
            m for m in sys.modules if m.split(".")[0] == "scipy")]))
    """
    codes, loaded = _fresh_python(code, str(tmp_path))
    assert codes == [0, 0, 0, 0]
    assert loaded == []
    assert (tmp_path / "expansion-orders" / "orders.json").exists()
    assert (tmp_path / "supercritical" / "supercritical" /
            "report.json").exists()


def test_solver_imports_no_optimize_or_special():
    # importing the package loads no scipy; a Newton solve loads
    # scipy.linalg for gbsv, and nothing loads optimize or special
    code = """
        import json, math, sys
        import navier_bubbles.cli, navier_bubbles.solver
        import navier_bubbles.reduction
        from navier_bubbles.green_robin import BallDomain
        def scipy_modules():
            return sorted(m for m in sys.modules
                          if m.split(".")[0] == "scipy")
        on_import = scipy_modules()
        navier_bubbles.solver.solve_radial(
            -0.3, BallDomain.unit(6),
            navier_bubbles.solver.BubbleGuess(lam=math.sqrt(20 / 0.3)))
        print(json.dumps([on_import, scipy_modules()]))
    """
    on_import, after_solve = _fresh_python(code)
    assert on_import == []
    assert "scipy.linalg" in after_solve
    assert not [m for m in after_solve
                if m.startswith(("scipy.optimize", "scipy.special"))]


def test_module_invocation_prints_constants():
    proc = subprocess.run(
        [sys.executable, "-m", "navier_bubbles.cli", "constants"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "interaction constant c1" in proc.stdout
