"""One benchmark process: runs a workload's passes as a closed loop.

Started by ``run_bench.py`` in a fresh interpreter with the checkout's
``src`` on PYTHONPATH and the BLAS thread count pinned. One client runs
one pass after another; the next pass starts when the previous one has
finished, until ``--seconds`` have elapsed. With ``--trace 1`` an
untraced warm-up pass comes first, then traced and untraced passes
alternate in pairs, (traced, untraced) then (untraced, traced), for at
least two pairs, so the same process gives both the per-layer numbers
and the tracing overhead. The calibration of ``calibrate.py`` runs
before the first pass and after every step, outside the step timings;
the record gives the start of every step and the midpoint of every
calibration, so that ``run_bench.py`` can rescale each step by the
calibrations near it.

Prints one JSON object on its last line of output: the raw record of
every pass (wall and CPU time, the steps in the order run with the
start and times of each, the calibrations, operation verdicts,
tracked outputs, artifact hashes, and the per-layer aggregates of
traced passes), the peak resident memory, the calibration's reference
time and the environment. Judging and rescaling are left to
``run_bench.py``.

``--setup-only`` stops once the package is imported and the inputs
are built, and prints the CLOCK_MONOTONIC time at that point, then
runs one calibration and prints the factor that rescales the set-up
time.
"""

import argparse
import json
import os
import random
import resource
import sys
import time
import traceback

from calibrate import REFERENCE_S, Calibration

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    return ap.parse_args(argv)


def _environment():
    import numpy
    import scipy

    def blas(config):
        dep = config.get("Build Dependencies", {}).get("blas", {})
        return "%s %s" % (dep.get("name", "?"), dep.get("version", "?"))

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
    }


def _traced(trace, k):
    """Whether pass k is traced: never without tracing; with tracing,
    pass 0 is an untraced warm-up and then pairs alternate,
    (traced, untraced), (untraced, traced), ..."""
    if not trace or k == 0:
        return False
    pair, second = divmod(k - 1, 2)
    return second == pair % 2


def calibrate(calibration):
    """One calibration round as (midpoint, duration), on the
    perf_counter clock of the step timings."""
    t0 = time.perf_counter()
    duration = calibration.run()
    return t0 + duration / 2.0, duration


def run_pass(order, traced, tracer, calibration, first_cal):
    """One pass of ``order``. ``first_cal`` is the calibration just
    before the pass, as (midpoint, duration) on the perf_counter clock;
    one more runs after every step, outside the step's timing. The
    pass's wall and CPU time are the sums over its steps."""
    from workloads import judge_step

    results = []
    steps = []
    cals = [first_cal]
    if traced:
        tracer.install()
    try:
        for step in order:
            s0 = time.perf_counter()
            c0 = time.process_time()
            try:
                results.append(step.run())
            except Exception as exc:  # the step fails; the pass goes on
                traceback.print_exc()
                results.append(exc)
            steps.append((step.label, s0, time.perf_counter() - s0,
                          time.process_time() - c0))
            cals.append(calibrate(calibration))
        spans = tracer.collect() if traced else None
    finally:
        if traced:
            tracer.restore()

    record = {"traced": traced, "steps": steps, "calibrations": cals,
              "wall_s": sum(s[2] for s in steps),
              "cpu_s": sum(s[3] for s in steps),
              "ops": {}, "tracked": {}, "artifacts": {}, "bytes_written": 0,
              "trace": spans}
    for step, result in zip(order, results):
        outcome = judge_step(step, result)
        for op, ok in outcome.ops.items():
            record["ops"]["%s/%s" % (step.label, op)] = ok
        record["tracked"].update(outcome.tracked)
        record["artifacts"][step.label] = outcome.artifacts
        record["bytes_written"] += outcome.bytes_written
    return record


def main(argv=None):
    args = _parse(argv)
    import navier_bubbles
    source = os.path.join(ROOT, "src", "navier_bubbles")
    if os.path.dirname(os.path.abspath(navier_bubbles.__file__)) != source:
        print("navier_bubbles was imported from %s, not from %s"
              % (navier_bubbles.__file__, source), file=sys.stderr)
        return 2
    import workloads
    from spans import Tracer

    if args.workload not in workloads.BUILDERS:
        print("unknown workload %r" % args.workload, file=sys.stderr)
        return 2
    steps = workloads.BUILDERS[args.workload]()
    ready = time.monotonic()
    calibration = Calibration()
    cal = calibrate(calibration)
    if args.setup_only:
        print(json.dumps({"ready_monotonic": ready,
                          "scale": REFERENCE_S / cal[1]}))
        return 0

    rng = random.Random(args.seed)
    fixed = [s for s in steps if not s.permutable]
    free = [s for s in steps if s.permutable]
    tracer = Tracer()
    passes = []
    start = time.perf_counter()
    while True:
        k = len(passes)
        workloads.clear_outputs(args.workload)
        order = fixed + rng.sample(free, len(free))
        passes.append(run_pass(order, _traced(args.trace, k), tracer,
                               calibration, cal))
        cal = passes[-1]["calibrations"][-1]
        done = time.perf_counter() - start >= args.seconds
        pairs, odd = divmod(k, 2)
        if done and (not args.trace or (pairs >= 2 and not odd)):
            break

    usage = resource.getrusage(resource.RUSAGE_SELF)
    print(json.dumps({
        "passes": passes,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "reference_s": REFERENCE_S,
        "environment": _environment(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
