"""Order statistics used by the benchmark report.

Stdlib only, so the orchestrator can judge a run without importing the
package under test.
"""

import statistics

# the tail rule: report the highest order statistic that still has at
# least this many samples above it
TAIL_BEYOND = 10


def quartiles(values):
    """First quartile, median and third quartile, as
    ``statistics.quantiles(values, n=4)`` gives them (exclusive method).
    A single sample is its own quartiles."""
    if len(values) == 1:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail(values, beyond=TAIL_BEYOND):
    """The highest order statistic with at least ``beyond`` samples above
    it, as (value, percentile, sample_count).

    The percentile is the share of samples at or below the value. A
    sample of ``beyond`` or fewer has no such order statistic; the rule
    is then capped at the samples there are, which gives the minimum.
    The cap keeps the statistic continuous in the sample count, and the
    minimum of a few passes is steadier than their maximum.
    """
    ordered = sorted(values)
    count = len(ordered)
    if count == 0:
        raise ValueError("tail of an empty sample")
    idx = max(0, count - 1 - beyond)
    return ordered[idx], 100.0 * (idx + 1) / count, count


def rescale(passes, reference, window):
    """Wall and CPU time of every pass, each step rescaled by the host's
    speed around it, as [(wall, cpu), ...].

    A pass holds ``steps`` as (label, start, wall, cpu) and
    ``calibrations`` as (midpoint, duration), on one clock; a pass's
    first calibration is the last of the pass before. A step's factor
    is ``reference`` over the mean duration of every calibration of the
    run whose midpoint lies within ``window`` seconds of the step, so
    the two around it always count and a long step draws on its
    neighbours' as well.
    """
    cals = sorted({tuple(c) for p in passes for c in p["calibrations"]})
    out = []
    for p in passes:
        wall = cpu = 0.0
        for _label, start, step_wall, step_cpu in p["steps"]:
            near = [d for t, d in cals
                    if start - window <= t <= start + step_wall + window]
            if not near:
                raise ValueError("no calibration within %g s of a step"
                                 % window)
            factor = reference * len(near) / sum(near)
            wall += step_wall * factor
            cpu += step_cpu * factor
        out.append((wall, cpu))
    return out
