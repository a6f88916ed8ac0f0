"""The benchmark's workloads, each a list of steps that make one pass.

A step has a timed part, ``run``, which makes the program calls, and an
untimed part, ``judge``, which reads the outputs afterwards. ``judge``
returns an ``Outcome``: a verdict per operation, the tracked outputs
compared against the frozen references, and the sha256 and size of
every artifact the step wrote. An operation is one check line of a CLI
command (one check in its report) or one acceptance criterion; a
command without check lines is one operation. A step whose ``run``
raised, or whose command exited nonzero, fails all its operations.

Only the order of the permutable steps depends on the seed.
"""

import contextlib
import csv
import hashlib
import io
import json
import os
import shutil
import traceback
from dataclasses import dataclass, field
from typing import Callable

from navier_bubbles import cli

import gate

OUT_ROOT = ".bench_out"


@dataclass
class Outcome:
    ops: dict                                      # operation -> passed
    tracked: dict = field(default_factory=dict)    # name -> float
    artifacts: dict = field(default_factory=dict)  # path -> sha256
    bytes_written: int = 0


@dataclass
class Step:
    label: str
    ops: tuple
    run: Callable[[], object]
    judge: Callable[[object], Outcome]
    permutable: bool = True


def _failed(step):
    return Outcome(ops={op: False for op in step.ops})


def judge_step(step, result):
    """The step's outcome. A step whose run raised, or whose outputs
    cannot be read, fails every operation."""
    if isinstance(result, BaseException):
        return _failed(step)
    try:
        outcome = step.judge(result)
    except (OSError, LookupError, ValueError, TypeError):
        traceback.print_exc()
        return _failed(step)
    for op in step.ops:
        outcome.ops.setdefault(op, False)
    return outcome


# ---------------------------------------------------------------------------
# CLI steps


def _hash_tree(root):
    artifacts = {}
    size = 0
    for dirpath, _dirs, files in os.walk(root):
        for name in sorted(files):
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                data = fh.read()
            artifacts[path.replace(os.sep, "/")] = hashlib.sha256(
                data).hexdigest()
            size += len(data)
    return artifacts, size


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _constants_checks(out):
    rows = {r["name"]: float(r["value"])
            for r in _read_csv(os.path.join(out, "constants.csv"))}
    return {"constants": True}, {"c1": rows["interaction constant c1"],
                                 "c2": rows["operative c2 (positive)"]}


def _robin_checks(out):
    fits = _read_json(os.path.join(out, "robin_fits.json"))
    return {"robin": True}, {"phi0": float(fits["center_phi"]["value"])}


def _verify_checks(out):
    report = _read_json(os.path.join(out, "report.json"))
    last = _read_csv(os.path.join(out, "sweep.csv"))[-1]
    checks = {c["name"]: bool(c["passed"]) and bool(report["passed"])
              for c in report["checks"]}
    return checks, {"M_last": float(last["peak"]),
                    "lam_last": float(last["lam"])}


def _supercritical_checks(out):
    report = _read_json(os.path.join(out, "report.json"))
    passed = bool(report["passed"])
    checks = {
        "probe_not_concentrating":
            passed and not report["probe"]["any_concentrating"],
        "obstruction_margin_positive":
            passed and report["obstruction"]["all_positive"],
        "subcritical_contrast":
            passed and bool(report["subcritical_contrast"].get("passed")),
    }
    tracked = {"margin@%s" % r["eps"]: float(r["margin"])
               for r in _read_csv(os.path.join(out, "obstruction.csv"))}
    return checks, tracked


def _orders_checks(out):
    report = _read_json(os.path.join(out, "orders.json"))
    return ({name: bool(fit["within_band"]) and bool(report["passed"])
             for name, fit in report["fits"].items()}, {})


VERIFY_CHECKS = ("peak_monotone_increasing", "final_amplitude_near_unity",
                 "final_peak_scale_ratio", "final_energy_at_critical_level",
                 "final_mass_at_critical_level", "scale_law_limit_eps_model",
                 "scale_law_limit_epslog_model", "peak_law_limit_eps_model",
                 "peak_law_limit_epslog_model", "remainder_decay_exponent")

# subcommand -> (operations, reader of the command's artifacts)
CLI_READERS = {
    "constants": (("constants",), _constants_checks),
    "robin": (("robin",), _robin_checks),
    "verify-blowup": (VERIFY_CHECKS, _verify_checks),
    "supercritical": (("probe_not_concentrating",
                       "obstruction_margin_positive",
                       "subcritical_contrast"), _supercritical_checks),
    "expansion-orders": (("energy_norm", "critical_norm", "remainder_sup"),
                         _orders_checks),
}


def cli_step(argv, out):
    """One in-process CLI invocation writing into ``out``. The step's
    operations are the command's checks, or the command itself when it
    has none; a nonzero exit or a missing check fails them."""
    subcommand = argv[0]
    names, reader = CLI_READERS[subcommand]

    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                return cli.main(list(argv))
            except SystemExit as exc:
                return exc.code

    def judge(code):
        checks, tracked = reader(out)
        artifacts, size = _hash_tree(out)
        ok = code == 0
        ops = {op: ok and checks.get(op, False) for op in names}
        return Outcome(ops=ops, tracked=tracked, artifacts=artifacts,
                       bytes_written=size)

    return Step(label=subcommand, ops=names, run=run, judge=judge)


def cli_default_steps():
    runs = os.path.join(OUT_ROOT, "cli-default", "runs")
    return [
        cli_step(["constants", "--out", os.path.join(runs, "constants")],
                 os.path.join(runs, "constants")),
        cli_step(["robin", "--stations", "21",
                  "--out", os.path.join(runs, "robin")],
                 os.path.join(runs, "robin")),
        cli_step(["verify-blowup", "--out", runs],
                 os.path.join(runs, "verify-blowup")),
        cli_step(["supercritical", "--eps", "0.09", "0.05", "0.02",
                  "--out", runs],
                 os.path.join(runs, "supercritical")),
        cli_step(["expansion-orders",
                  "--out", os.path.join(runs, "expansion-orders")],
                 os.path.join(runs, "expansion-orders")),
    ]


def fine_sweep_steps():
    runs = os.path.join(OUT_ROOT, "fine-sweep", "runs")
    return [cli_step(["verify-blowup", "--grid-nodes", "8192", "--eps",
                      "0.3", "0.2", "0.1", "0.05", "0.02", "0.01", "0.005",
                      "0.003", "0.002", "--out", runs],
                     os.path.join(runs, "verify-blowup"))]


# ---------------------------------------------------------------------------
# acceptance gate


def _criterion_step(number, fn, state):
    op = "criterion_%d" % number

    def judge(result):
        passed, tracked = result
        return Outcome(ops={op: bool(passed)}, tracked=tracked)

    return Step(label=op, ops=(op,), run=lambda: fn(state), judge=judge)


def acceptance_gate_steps():
    state = {}

    def build_sweep():
        # a sweep that fails must not leave the last pass's sweep behind
        state.clear()
        return gate.build_sweep(state)

    sweep = Step(label="reference_sweep", ops=(), run=build_sweep,
                 judge=lambda tracked: Outcome(ops={}, tracked=tracked),
                 permutable=False)
    return [sweep] + [_criterion_step(k + 1, fn, state)
                      for k, fn in enumerate(gate.CRITERIA)]


BUILDERS = {
    "cli-default": cli_default_steps,
    "acceptance-gate": acceptance_gate_steps,
    "fine-sweep": fine_sweep_steps,
}


def clear_outputs(workload):
    """Remove the previous pass's artifacts so that a file the program
    stops writing cannot pass the hash check as a stale copy."""
    shutil.rmtree(os.path.join(OUT_ROOT, workload, "runs"),
                  ignore_errors=True)
