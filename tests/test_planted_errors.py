"""Planted errors: each must be rejected by a verify-blowup check.

A plant multiplies one ingredient of the verdict by a factor f and runs
the command end to end. Here the ingredient is phi(0) as the verdict's
law targets read it (reduction.center_potential); the solver's law seed
reads its own binding, so the sweep and its artifacts are unchanged and
only the targets move. Measured on the default run: f from 0.875 to 1.17
passes, 0.87 fails three law checks and 1.18 two, and 0.85 and 1.20 fail
all four. The README records this band.

The law also seeds every solve of the sweep. A seed planted off the law
must reach the same discrete solutions, so that the data the law checks
judge do not lean on the law that seeded them.
"""

import json

import pytest

from navier_bubbles import cli, reduction, solver
from navier_bubbles.solver import continuation_sweep

LAW_CHECKS = {"scale_law_limit_eps_model", "scale_law_limit_epslog_model",
              "peak_law_limit_eps_model", "peak_law_limit_epslog_model"}


def run_planted(tmp_path, monkeypatch, capsys, factor):
    """Exit code, report and sweep.csv bytes of a default verify-blowup
    run with phi(0) multiplied by factor in the verdict's targets."""
    true_phi = reduction.center_potential
    monkeypatch.setattr(reduction, "center_potential",
                        lambda n, R=1.0: factor * true_phi(n, R))
    rc = cli.main(["verify-blowup", "--out", str(tmp_path)])
    capsys.readouterr()
    out = tmp_path / "verify-blowup"
    report = json.loads((out / "report.json").read_text())
    return rc, report, (out / "sweep.csv").read_bytes()


@pytest.fixture(scope="module")
def unplanted(tmp_path_factory):
    out = tmp_path_factory.mktemp("unplanted")
    assert cli.main(["verify-blowup", "--out", str(out)]) == 0
    report = json.loads((out / "verify-blowup" / "report.json").read_text())
    return report, (out / "verify-blowup" / "sweep.csv").read_bytes()


def test_unit_factor_passes(tmp_path, monkeypatch, capsys, unplanted):
    rc, report, sweep = run_planted(tmp_path, monkeypatch, capsys, 1.0)
    assert rc == 0 and report["passed"] is True
    assert (report, sweep) == unplanted


@pytest.mark.parametrize("factor", [0.85, 1.20])
def test_planted_center_potential_fails_the_law_checks(
        tmp_path, monkeypatch, capsys, unplanted, factor):
    rc, report, sweep = run_planted(tmp_path, monkeypatch, capsys, factor)
    assert rc == 1 and report["passed"] is False
    failed = {c["name"] for c in report["checks"] if not c["passed"]}
    assert failed == LAW_CHECKS
    # the plant reached the targets only: the sweep is the unplanted one
    assert sweep == unplanted[1]
    for check, true_check in zip(report["checks"], unplanted[0]["checks"]):
        assert check["observed"] == true_check["observed"]
        if check["name"] in LAW_CHECKS:
            assert check["target"] == pytest.approx(
                factor * true_check["target"], rel=1e-15)


@pytest.mark.parametrize("factor", [0.90, 1.14])
def test_planted_law_seed_reaches_the_same_solutions(
        monkeypatch, unit_ball6, subcritical_sweep, factor):
    # the seeds' peak law limit is multiplied by factor; the departure
    # the sweep measured from the true law is passed through, so the plant
    # stays in every seed. Measured on the default schedule: peaks within
    # 1.1e-10 (0.90) and 1.7e-10 (1.14) of the unplanted sweep's, both at
    # eps = 0.005. At 0.85 the solve at eps = 0.005 stops at the 30-step
    # cap. The plant shows in the work: 44 and 54 Newton steps against 25.
    seed = solver._law_seed
    monkeypatch.setattr(
        solver, "_law_seed",
        lambda grid, peak_limit, e, departure: seed(
            grid, factor * peak_limit, e, departure))
    sweep = continuation_sweep([-sol.eps for sol in subcritical_sweep],
                               unit_ball6)
    assert [sol.eps for sol in sweep] == [sol.eps for sol in subcritical_sweep]
    assert (sum(sol.newton_iters for sol in sweep)
            > sum(sol.newton_iters for sol in subcritical_sweep))
    for sol, reference in zip(sweep, subcritical_sweep):
        assert abs(sol.M / reference.M - 1.0) <= 2e-10
