"""Benchmark of the navier-bubbles verifier.

    python3 bench/run_bench.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run_bench.py --freeze-refs

Run from any directory; the checkout is the parent of this file's
directory and the package is imported from its ``src``. Workloads, each
a closed loop of passes run by one client in one process:

  cli-default      the README quick start in process at the documented
                   defaults: constants, robin --stations 21,
                   verify-blowup, supercritical at eps 0.09/0.05/0.02,
                   expansion-orders. What users run; solver and
                   green_robin do most of it, coercivity never runs.
  acceptance-gate  the reference sweep and the nine acceptance criteria,
                   with the arguments and tolerances of the tests;
                   reduction (coercivity basis, reduced system) does most
                   of it, solver about a tenth.
  fine-sweep       verify-blowup --grid-nodes 8192 down to eps 0.002:
                   the same solver at 4x the unknowns, where per-node
                   assembly and LU dominate, not per-call overhead.

The seed only permutes the order of a pass's steps; each pass draws its
own order. The host's speed drifts by tens of percent over tens of
seconds, so every time of the end-to-end metrics is rescaled by a fixed
calibration (``calibrate.py``) run between the steps of a pass: a step's
time is multiplied by REFERENCE_S over the mean of the calibrations
within CAL_WINDOW_S of it, and reads as seconds on the host at the
speed it has when the calibration takes REFERENCE_S. The raw times and
the calibrations are printed and kept in the record. With ``--trace 0``
the run reports the end-to-end metrics:

  setup_s          median over SETUP_SAMPLES fresh interpreters of the
                   time until the package is imported and the inputs
                   built, each rescaled by a calibration that follows it
  verdict_s        median rescaled wall time of one pass
  cpu_s            median rescaled process CPU time of one pass
  peak_rss_mb      peak resident memory of the workload process

The run also prints, and keeps in the record, verdict_s_tail: the
highest order statistic of the rescaled pass wall times with at least
ten passes above it, capped at the passes there are, with its
percentile and the pass count. It is not an end-to-end metric: a run
of 30 s has 2 to 12 passes, so the rule picks the fastest or
second-fastest pass, and that extreme spread from run to run more than
twice as much as the median.

With ``--trace 1`` untraced and traced passes alternate after an
untraced warm-up pass, and the run reports per-layer numbers of the
median traced pass, in raw (not rescaled) time: inclusive and self
time of the named public functions, the self time of every layer, the
counts of ``per_layer_names``, the import breakdown from a fresh
``python -X importtime -c "import navier_bubbles.cli"``, the time
outside every span, the tracing overhead (median rescaled traced pass
minus median rescaled untraced pass) and the median calibration time
of the run. Layer self times plus the time outside spans add up to the
traced pass time. Which end-to-end metric each layer should move, and
where:

  cli, solver      verdict_s on cli-default and fine-sweep (solver only
                   a little on acceptance-gate)
  reduction        verdict_s and peak_rss_mb on acceptance-gate only
  green_robin      verdict_s on cli-default (a little on acceptance-gate)
  projection       verdict_s on cli-default and acceptance-gate
  numerics         verdict_s on acceptance-gate
  bubble           verdict_s everywhere, a little
  import           setup_s everywhere
  host             none: it is the host's speed, which rescales the rest

Every run checks correctness. An operation (a check of a CLI report, a
command without checks, or an acceptance criterion) fails if it reads
FAIL, raises, exits nonzero, or writes an artifact whose bytes differ
from the first pass. ``ref_drift``, the largest relative deviation of
the tracked outputs from ``refs.json``, must stay within DRIFT_GATE;
traced runs also require the counts in ``REPEATED_COUNTS`` to repeat
exactly across traced passes. ``failed_frac`` and ``ref_drift`` are 0
at a healthy commit, so they are printed and gate ``correct`` rather
than being end-to-end metrics.

BLAS runs on one thread (OPENBLAS_NUM_THREADS and friends are set in
the environment of the processes the benchmark starts, not in the
program): on two cores, two OpenBLAS threads made the coercivity
criterion slower. The last line of output is one JSON object with the
keys correct, attempted, failed and metrics; a fuller record goes to
``.bench_out/<workload>/record-trace<0|1>.json``.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

import stats

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "bench")
REFS = os.path.join(HERE, "refs.json")
OUT_ROOT = os.path.join(ROOT, ".bench_out")

WORKLOADS = ("cli-default", "acceptance-gate", "fine-sweep")
SETUP_SAMPLES = 5
# the largest relative drift of a tracked output that still counts as
# the same numbers: the speedups on the roadmap move them by 1e-13 to
# 1e-7, and a drift this large means the numerics changed
DRIFT_GATE = 1e-6
RUN_LIMIT_S = 170.0
# calibrations this close to a step rescale it: the two around it and,
# for a long step or a short pass, a few more, which evens out the
# round-to-round noise of the calibration without averaging over the
# drift of the host
CAL_WINDOW_S = 3.0
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}

END_TO_END = (("setup_s", "s"), ("verdict_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MB"))

LAYERS = ("cli", "solver", "reduction", "green_robin", "projection",
          "numerics", "bubble")
SUBCOMMANDS = (("constants", "cli.cmd_constants"),
               ("robin", "cli.cmd_robin"),
               ("verify-blowup", "cli.cmd_verify_blowup"),
               ("supercritical", "cli.cmd_supercritical"),
               ("expansion-orders", "cli.cmd_expansion_orders"))
# spans reported as .calls, and as inclusive .s with .self_s
CALLED_SPANS = ("solver.solve_radial", "solver.decompose",
                "reduction.coercivity_check",
                "reduction.solve_reduced_system", "green_robin.robin",
                "green_robin.boundary_blowup_fit", "projection.deficit",
                "numerics.radial_bilaplacian", "numerics.radial_integral",
                "bubble.balance_constants")
TIMED_SPANS = ("solver.continuation_sweep", "solver.supercritical_probe",
               "reduction.supercritical_obstruction",
               "reduction.blowup_verdict", "reduction.bubble_quadratic_form",
               "projection.expansion_orders")
# counts that two traced passes of the same code must reproduce exactly
REPEATED_COUNTS = ("solver.solve_radial.calls", "solver.newton_iters",
                   "green_robin.robin.calls", "reduction.coercivity_modes",
                   "reduction.reduced_iterations", "cli.bytes_written")
IMPORT_GROUPS = ("scipy", "numpy", "navier_bubbles")


def per_layer_names():
    """(name, unit) of every per-layer metric, in report order."""
    names = []
    for sub, _span in SUBCOMMANDS:
        names += [("cli.%s.s" % sub, "s"), ("cli.%s.self_s" % sub, "s")]
    names.append(("cli.bytes_written", "bytes"))
    for span in CALLED_SPANS:
        names.append((span + ".calls", "count"))
        if span == "solver.solve_radial":
            names.append((span + ".failed", "count"))
        names += [(span + ".s", "s"), (span + ".self_s", "s")]
    for span in TIMED_SPANS:
        names += [(span + ".s", "s"), (span + ".self_s", "s")]
    names += [("solver.newton_iters", "count"),
              ("solver.s_per_newton_iter", "s"),
              ("solver.useful_ratio", "ratio"),
              ("reduction.coercivity_modes", "count"),
              ("reduction.reduced_iterations", "count")]
    names += [(layer + ".self_s", "s") for layer in LAYERS]
    names += [("import.%s_s" % g, "s") for g in IMPORT_GROUPS + ("other",)]
    names += [("trace.verdict_s", "s"), ("trace.untraced_verdict_s", "s"),
              ("trace.overhead_s", "s"), ("trace.outside_spans_s", "s"),
              ("trace.spans", "count"),
              ("host.calibration_s", "s")]
    return names


# ---------------------------------------------------------------------------
# processes


def _child_env():
    env = dict(os.environ)
    env.update(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"  # one source of process-to-process spread
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def _run(cmd, deadline, capture_stderr=False):
    """Run a child to completion within the run's deadline; a child
    that overruns is killed and waited for by subprocess.run."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise TimeoutError("run deadline passed before %s" % cmd[1:3])
    return subprocess.run(cmd, cwd=ROOT, env=_child_env(), timeout=timeout,
                          stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE if capture_stderr else None,
                          text=True, check=False)


def _worker(args, deadline, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = _run(cmd + list(extra), deadline)
    if proc.returncode != 0:
        raise RuntimeError("worker exited with code %d" % proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_samples(args, deadline):
    """Wall time from starting a fresh interpreter to the package
    imported and the workload's inputs built, raw and rescaled by the
    calibration the interpreter runs next."""
    raw, scaled = [], []
    for _ in range(SETUP_SAMPLES):
        t0 = time.monotonic()
        ready = _worker(args, deadline, ["--setup-only"])
        raw.append(ready["ready_monotonic"] - t0)
        scaled.append(raw[-1] * ready["scale"])
    return raw, scaled


def parse_importtime(text):
    """Self time of each import, summed per top-level package group."""
    totals = dict.fromkeys(IMPORT_GROUPS + ("other",), 0.0)
    for line in text.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+\d+ \|\s*(\S+)", line)
        if not m:
            continue
        top = m.group(2).split(".")[0]
        group = top if top in IMPORT_GROUPS else "other"
        totals[group] += int(m.group(1)) * 1e-6
    return totals


def import_breakdown(deadline):
    proc = _run([sys.executable, "-X", "importtime", "-c",
                 "import navier_bubbles.cli"], deadline, capture_stderr=True)
    if proc.returncode != 0:
        raise RuntimeError("import of navier_bubbles.cli failed:\n"
                           + proc.stderr)
    return parse_importtime(proc.stderr)


def machine(seed):
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "loadavg_at_start": list(os.getloadavg()),
        "blas_threads": BLAS_THREADS,
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# judging


def judge(passes, refs):
    """Operation counts, artifact identity and reference drift."""
    attempted = failed = 0
    first = passes[0]["artifacts"]
    drift = 0.0
    for p in passes:
        for op, ok in p["ops"].items():
            label = op.split("/", 1)[0]
            identical = p["artifacts"].get(label) == first.get(label)
            attempted += 1
            failed += not (ok and identical)
        for key, ref in refs.items():
            value = p["tracked"].get(key)
            if value is None:
                drift = float("inf")
            else:
                drift = max(drift, abs(value - ref) / (abs(ref) or 1.0))
    return attempted, failed, drift


def _calibration_times(passes):
    """Duration of every calibration of the run, each counted once
    though it closes one pass and opens the next."""
    return [d for _t, d in sorted({tuple(c) for p in passes
                                   for c in p["calibrations"]})]


def end_to_end(passes, setups, peak_rss_mb):
    """The end-to-end metrics from the rescaled times, with notes that
    give verdict_s_tail and the raw times beside them. ``setups`` is
    (raw, rescaled)."""
    walls = [p["scaled_wall_s"] for p in passes]
    tail, pct, count = stats.tail(walls)
    metrics = {
        "setup_s": statistics.median(setups[1]),
        "verdict_s": statistics.median(walls),
        "cpu_s": statistics.median([p["scaled_cpu_s"] for p in passes]),
        "peak_rss_mb": peak_rss_mb,
    }
    q1, q2, q3 = stats.quartiles(walls)
    r1, r2, r3 = stats.quartiles([p["wall_s"] for p in passes])
    cals = _calibration_times(passes)
    notes = ["pass wall time, rescaled: quartiles %.4f / %.4f / %.4f s of "
             "%d passes; raw: %.4f / %.4f / %.4f s"
             % (q1, q2, q3, count, r1, r2, r3),
             "verdict_s_tail %.4f s: p%.1f of %d passes, with %d passes "
             "beyond it" % (tail, pct, count,
                            count - round(pct * count / 100.0)),
             "calibration: median %.4f s over %d rounds, min %.4f, max "
             "%.4f; raw setup median %.4f s"
             % (statistics.median(cals), len(cals), min(cals), max(cals),
                statistics.median(setups[0]))]
    return metrics, notes


def layer_values(p):
    """Every per-layer quantity of one traced pass, by metric name."""
    spans = p["trace"]["spans"]
    counts = p["trace"]["counts"]

    def span(name):
        return spans.get(name, [0, 0.0, 0.0])

    out = {}
    for sub, name in SUBCOMMANDS:
        out["cli.%s.s" % sub] = span(name)[1]
        out["cli.%s.self_s" % sub] = span(name)[2]
    out["cli.bytes_written"] = p["bytes_written"]
    for name in CALLED_SPANS + TIMED_SPANS:
        calls, incl, self_s = span(name)
        out[name + ".calls"] = calls
        out[name + ".s"] = incl
        out[name + ".self_s"] = self_s
    out["solver.solve_radial.failed"] = counts.get(
        "solver.solve_radial.failed", 0)
    iters = counts.get("solver.newton_iters", 0)
    calls = span("solver.solve_radial")[0]
    out["solver.newton_iters"] = iters
    out["solver.s_per_newton_iter"] = (
        span("solver.solve_radial")[1] / iters if iters else 0.0)
    out["solver.useful_ratio"] = (
        counts.get("solver.solves_kept", 0) / calls if calls else 0.0)
    for name in ("reduction.coercivity_modes",
                 "reduction.reduced_iterations"):
        out[name] = counts.get(name, 0)
    for layer in LAYERS:
        out[layer + ".self_s"] = sum(v[2] for k, v in spans.items()
                                     if k.startswith(layer + "."))
    out["trace.outside_spans_s"] = p["wall_s"] - p["trace"]["top_level_s"]
    out["trace.spans"] = sum(v[0] for v in spans.values())
    return out


def traced_report(passes, imports):
    """Per-layer metrics of the median traced pass, and the self-checks:
    counts repeat exactly and self times account for the pass time."""
    traced = [p for p in passes if p["traced"]]
    # pass 0 is the warm-up
    untraced = [p["wall_s"] for p in passes[1:] if not p["traced"]]
    values = [layer_values(p) for p in traced]
    problems = []
    for name in REPEATED_COUNTS:
        seen = sorted({v[name] for v in values})
        if len(seen) > 1:
            problems.append("%s differs between traced passes: %s"
                            % (name, seen))
    rank = sorted(range(len(traced)), key=lambda i: traced[i]["wall_s"])
    mid = rank[(len(rank) - 1) // 2]
    out = values[mid]
    wall = traced[mid]["wall_s"]
    covered = sum(out[layer + ".self_s"] for layer in LAYERS)
    if abs(covered + out["trace.outside_spans_s"] - wall) > 1e-6 * wall:
        problems.append("layer self times %.6f s plus outside %.6f s do "
                        "not make the pass time %.6f s"
                        % (covered, out["trace.outside_spans_s"], wall))
    out["trace.verdict_s"] = wall
    out["trace.untraced_verdict_s"] = statistics.median(untraced)
    # the host's drift swamps a raw difference, so compare rescaled times
    out["trace.overhead_s"] = (
        statistics.median([p["scaled_wall_s"] for p in traced])
        - statistics.median([p["scaled_wall_s"] for p in passes[1:]
                             if not p["traced"]]))
    for group, seconds in imports.items():
        out["import.%s_s" % group] = seconds
    out["host.calibration_s"] = statistics.median(_calibration_times(passes))
    return out, problems


# ---------------------------------------------------------------------------
# entry points


def _load_refs(workload):
    with open(REFS, encoding="utf-8") as fh:
        return json.load(fh)[workload]


def run(args):
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    env_record = machine(args.seed)
    refs = _load_refs(args.workload)
    setups = ([], []) if args.trace else setup_samples(args, deadline)
    imports = import_breakdown(deadline) if args.trace else {}
    data = _worker(args, deadline)
    passes = data["passes"]
    env_record.update(data["environment"])
    for p, (wall, cpu) in zip(passes, stats.rescale(
            passes, data["reference_s"], CAL_WINDOW_S)):
        p["scaled_wall_s"], p["scaled_cpu_s"] = wall, cpu

    attempted, failed, drift = judge(passes, refs)
    problems = []
    if args.trace:
        values, problems = traced_report(passes, imports)
        units = dict(per_layer_names())
        notes = ["%d traced and %d untraced passes after a warm-up; "
                 "tracing overhead %+.4f s (rescaled) on a traced pass of "
                 "%.4f s"
                 % (sum(p["traced"] for p in passes),
                    sum(not p["traced"] for p in passes[1:]),
                    values["trace.overhead_s"], values["trace.verdict_s"])]
    else:
        values, notes = end_to_end(passes, setups, data["peak_rss_mb"])
        units = dict(END_TO_END)
    correct = failed == 0 and drift <= DRIFT_GATE and not problems
    notes += ["failed_frac %d/%d = %.4g" % (failed, attempted,
                                             failed / attempted),
              "ref_drift %.3g (gate %g)" % (drift, DRIFT_GATE)]
    notes += problems

    record = {"workload": args.workload, "trace": args.trace,
              "environment": env_record, "setup_samples_s": setups[0],
              "setup_samples_scaled_s": setups[1],
              "ref_drift": drift, "failed": failed, "attempted": attempted,
              "notes": notes, "metrics": values, "passes": passes,
              "elapsed_s": time.monotonic() - start}
    path = os.path.join(OUT_ROOT, args.workload,
                        "record-trace%d.json" % args.trace)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print("workload %s, seed %d: %d passes in %.1f s"
          % (args.workload, args.seed, len(passes), record["elapsed_s"]))
    print("environment: %s" % json.dumps(env_record, sort_keys=True))
    for note in notes:
        print(note)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


def freeze_refs(seed):
    """Write refs.json from one pass of every workload; every operation
    must pass."""
    refs = {}
    deadline = time.monotonic() + 3 * RUN_LIMIT_S
    for workload in WORKLOADS:
        args = argparse.Namespace(workload=workload, seed=seed, seconds=0,
                                  trace=0)
        p = _worker(args, deadline)["passes"][0]
        bad = [op for op, ok in p["ops"].items() if not ok]
        if bad:
            raise RuntimeError("%s: failing operations %s" % (workload, bad))
        refs[workload] = p["tracked"]
    with open(REFS, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--freeze-refs", action="store_true",
                    help="rewrite refs.json from this commit's outputs")
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "navier_bubbles")):
        print("no package source at %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    if args.freeze_refs:
        return freeze_refs(args.seed)
    if args.workload is None:
        ap.error("--workload is required")
    try:
        return run(args)
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired,
            OSError, ValueError, LookupError) as exc:
        print("benchmark failed: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
