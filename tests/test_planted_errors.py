"""Planted errors: each must be rejected by a verify-blowup check.

A plant multiplies one ingredient of the verdict by a factor f and runs
the command end to end. Here the ingredient is phi(0) as the verdict's
law targets read it (reduction.center_potential); the solver's law seed
reads its own binding, so the sweep and its artifacts are unchanged and
only the targets move. Measured on the default run: f from 0.875 to 1.17
passes, 0.87 fails three law checks and 1.18 two, and 0.85 and 1.20 fail
all four. The README records this band.
"""

import json

import pytest

from navier_bubbles import cli, reduction

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
