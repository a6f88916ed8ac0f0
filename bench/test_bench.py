"""Self-tests of the benchmark: statistics, wrapper installation and
restoration, span accounting, judging, and agreement of BENCHMARK.json
with the metrics the benchmark emits.

    python3 -m pytest bench
"""

import json
import os
import statistics
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import gate  # noqa: E402  binds library functions by from-import
import run_bench  # noqa: E402
import stats  # noqa: E402
import worker  # noqa: E402
from navier_bubbles import cli, green_robin, reduction, solver  # noqa: E402
from spans import Tracer, public_functions  # noqa: E402
from workloads import Outcome, Step  # noqa: E402


# ---------------------------------------------------------------------------
# statistics


def test_quartiles_match_statistics():
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0]
    assert stats.quartiles(values) == tuple(
        statistics.quantiles(values, n=4))
    assert stats.quartiles(values)[1] == statistics.median(values) == 3.0
    assert stats.quartiles([2.5]) == (2.5, 2.5, 2.5)


def test_tail_keeps_ten_samples_beyond():
    values = [float(v) for v in range(20, 0, -1)]   # 1..20, shuffled order
    value, pct, count = stats.tail(values)
    assert (value, pct, count) == (10.0, 50.0, 20)
    assert sum(v > value for v in values) == 10

    eleven = [float(v) for v in range(1, 12)]
    assert stats.tail(eleven) == (1.0, pytest.approx(100.0 / 11), 11)


def test_tail_is_capped_at_the_samples_there_are():
    assert stats.tail([2.0, 7.0, 3.0]) == (2.0, pytest.approx(100.0 / 3), 3)
    assert stats.tail([float(v) for v in range(10)])[:2] == (0.0, 10.0)
    with pytest.raises(ValueError):
        stats.tail([])


# ---------------------------------------------------------------------------
# wrappers


def _robin_bindings():
    return [green_robin.robin, reduction.robin, cli.robin, gate.robin]


def test_every_binding_is_wrapped_and_restored():
    originals = {name: fn for name, fn in public_functions()}
    robin = originals["green_robin.robin"]
    assert all(b is robin for b in _robin_bindings())

    tracer = Tracer()
    patched = tracer.install()
    try:
        assert patched >= len(originals)
        bindings = _robin_bindings()
        assert all(b is not robin for b in bindings)
        assert all(b is bindings[0] for b in bindings)
        assert bindings[0].__wrapped__ is robin
        with pytest.raises(RuntimeError):
            tracer.install()
        ball = green_robin.BallDomain.unit(6)
        cli.robin(ball, ball.center)
        reduction.robin(ball, ball.center)
    finally:
        tracer.restore()

    assert all(b is robin for b in _robin_bindings())
    for name, fn in public_functions():
        assert originals[name] is fn
    assert tracer.collect()["spans"]["green_robin.robin"][0] == 2


def test_self_times_account_for_top_level_time():
    tracer = Tracer()
    tracer.install()
    try:
        reduction.solve_reduced_system(
            0.05, [0.0] * 6, green_robin.BallDomain.unit(6))
    finally:
        tracer.restore()
    data = tracer.collect()
    spans = data["spans"]
    outer = spans["reduction.solve_reduced_system"]
    assert outer[0] == 1
    assert outer[1] == pytest.approx(data["top_level_s"], rel=1e-12)
    assert sum(v[2] for v in spans.values()) == pytest.approx(
        data["top_level_s"], rel=1e-9)
    assert spans["green_robin.robin"][0] == 1
    assert data["counts"]["reduction.reduced_iterations"] > 0


def test_failed_solve_is_counted():
    ball = green_robin.BallDomain.unit(6)
    guess = solver.BubbleGuess(lam=3.0)
    tracer = Tracer()
    tracer.install()
    try:
        with pytest.raises(ValueError):
            solver.solve_radial(-0.001, ball, guess)
    finally:
        tracer.restore()
    data = tracer.collect()
    assert data["spans"]["solver.solve_radial"][0] == 1
    assert data["counts"]["solver.solve_radial.failed"] == 1
    assert data["counts"].get("solver.newton_iters", 0) == 0


# ---------------------------------------------------------------------------
# judging and reporting


def _pass(ops, artifacts, tracked, wall=1.0, traced=False, trace=None,
          scale=1.0):
    return {"ops": ops, "artifacts": artifacts, "tracked": tracked,
            "wall_s": wall, "cpu_s": wall, "scaled_wall_s": wall * scale,
            "scaled_cpu_s": wall * scale,
            "calibrations": [(0.0, 0.1), (wall, 0.1 / scale)],
            "traced": traced, "bytes_written": 10, "trace": trace}


def test_judge_counts_changed_artifacts_and_drift():
    first = _pass({"robin/robin": True}, {"robin": {"a.csv": "x"}},
                  {"phi0": 2.0})
    same = _pass({"robin/robin": True}, {"robin": {"a.csv": "x"}},
                 {"phi0": 2.0})
    changed = _pass({"robin/robin": True}, {"robin": {"a.csv": "y"}},
                    {"phi0": 2.0 * (1 + 3e-7)})
    assert run_bench.judge([first, same], {"phi0": 2.0}) == (2, 0, 0.0)
    attempted, failed, drift = run_bench.judge([first, changed],
                                               {"phi0": 2.0})
    assert (attempted, failed) == (2, 1)
    assert drift == pytest.approx(3e-7)
    assert run_bench.judge([_pass({}, {}, {})], {"phi0": 2.0})[2] == \
        float("inf")


def _timed_pass(steps, calibrations):
    return {"steps": [("s", start, wall, wall / 2) for start, wall in steps],
            "calibrations": calibrations}


def test_rescale_uses_the_calibrations_near_each_step():
    # calibrations as (midpoint, duration); the second pass's first is
    # the first pass's last
    first = _timed_pass([(0.0, 1.0), (1.1, 4.0)],
                        [(-0.05, 0.1), (1.05, 0.1), (5.2, 0.4)])
    second = _timed_pass([(5.4, 1.0)], [(5.2, 0.4), (9.0, 0.2)])
    (wall1, cpu1), (wall2, cpu2) = stats.rescale([first, second], 0.2, 0.5)
    # step 1 sees 0.1 and 0.1, step 2 sees 0.1 and 0.4
    assert wall1 == pytest.approx(1.0 * 2.0 + 4.0 * 0.8)
    assert cpu1 == pytest.approx(wall1 / 2)
    # the last step sees only 0.4: the end calibration is 2.6 s away
    assert wall2 == pytest.approx(0.5)
    (wall2_wide, _), = stats.rescale([second], 0.2, 3.0)
    assert wall2_wide == pytest.approx(1.0 * 0.2 / 0.3)
    with pytest.raises(ValueError):
        stats.rescale([_timed_pass([(0.0, 1.0)], [(9.0, 0.1)])], 0.2, 0.5)


def test_run_pass_records_steps_and_calibrations():
    rounds = iter([0.2, 0.05])

    class FixedCalibration:
        def run(self):
            return next(rounds)

    steps = [Step(label=k, ops=(k,), run=lambda: None,
                  judge=lambda _r, k=k: Outcome(ops={k: True}))
             for k in ("a", "b")]
    rec = worker.run_pass(steps, False, None, FixedCalibration(),
                          (0.0, 0.1))
    (la, start_a, wall_a, cpu_a), (lb, start_b, wall_b, _) = rec["steps"]
    (_, c0), (mid_a, c1), (mid_b, c2) = rec["calibrations"]
    assert (la, lb, c0, c1, c2) == ("a", "b", 0.1, 0.2, 0.05)
    # each calibration follows its step, outside the step's timing
    assert start_a + wall_a <= mid_a - 0.1 < start_b
    assert start_b + wall_b <= mid_b - 0.025
    assert rec["wall_s"] == pytest.approx(wall_a + wall_b)
    assert rec["ops"] == {"a/a": True, "b/b": True}


def test_end_to_end_takes_medians_of_rescaled_times_and_the_tail():
    walls = [2.0, 1.0, 3.0, 4.0]
    passes = [_pass({}, {}, {}, wall=w, scale=0.5) for w in walls]
    setups = ([1.4, 1.0, 1.2], [0.7, 0.5, 0.6])
    metrics, notes = run_bench.end_to_end(passes, setups, 99.0)
    assert metrics == {"setup_s": 0.6, "verdict_s": 1.25, "cpu_s": 1.25,
                       "peak_rss_mb": 99.0}
    assert [m for m, _ in run_bench.END_TO_END] == list(metrics)
    assert "verdict_s_tail 0.5000 s: p25.0 of 4 passes, with 3 passes " \
        "beyond it" in notes[1]


def _traced(wall, newton_iters):
    trace = {"spans": {"cli.cmd_robin": [1, 0.6 * wall, 0.2 * wall],
                       "green_robin.robin": [4, 0.4 * wall, 0.4 * wall]},
             "counts": {"solver.newton_iters": newton_iters},
             "top_level_s": 0.6 * wall}
    return _pass({}, {}, {}, wall=wall, traced=True, trace=trace)


def test_traced_report_accounts_and_checks_counts():
    imports = dict.fromkeys(("scipy", "numpy", "navier_bubbles", "other"),
                            0.1)
    passes = [_pass({}, {}, {}, wall=9.0), _traced(2.0, 5),
              _pass({}, {}, {}, wall=1.5, scale=2.0), _traced(3.0, 5)]
    out, problems = run_bench.traced_report(passes, imports)
    assert problems == []
    assert out["trace.verdict_s"] == 2.0
    assert out["trace.untraced_verdict_s"] == 1.5
    # rescaled: traced median 2.5 s, untraced 3.0 s
    assert out["trace.overhead_s"] == pytest.approx(-0.5)
    assert out["trace.outside_spans_s"] == pytest.approx(0.8)
    assert out["cli.self_s"] + out["green_robin.self_s"] + \
        out["trace.outside_spans_s"] == pytest.approx(2.0)
    assert set(out) >= {n for n, _ in run_bench.per_layer_names()}

    passes[3] = _traced(3.0, 6)
    _out, problems = run_bench.traced_report(passes, imports)
    assert len(problems) == 1 and "solver.newton_iters" in problems[0]


def test_parse_importtime():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |   numpy.core",
        "import time:      2000 |       2100 | numpy",
        "import time:       500 |        500 |     scipy._lib",
        "import time:        30 |         30 |   navier_bubbles.bubble",
        "import time:        70 |         70 | json",
    ])
    totals = run_bench.parse_importtime(text)
    assert totals["numpy"] == pytest.approx(2.1e-3)
    assert totals["scipy"] == pytest.approx(5e-4)
    assert totals["navier_bubbles"] == pytest.approx(3e-5)
    assert totals["other"] == pytest.approx(7e-5)


def test_benchmark_json_lists_the_emitted_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run_bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        run_bench.per_layer_names()
    assert [w["name"] for w in spec["workloads"]] == \
        list(run_bench.WORKLOADS)
    with open(run_bench.REFS, encoding="utf-8") as fh:
        assert sorted(json.load(fh)) == sorted(run_bench.WORKLOADS)
