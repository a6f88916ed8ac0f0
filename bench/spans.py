"""Span tracing from outside the package.

Every public function defined in one of the package's layer modules is
wrapped, and the wrapper is installed at every module attribute bound
to the original: ``from .green_robin import robin`` gives ``reduction``
and ``cli`` their own name for ``robin``, and a trace that patched
``green_robin`` alone would miss those calls. ``restore`` puts every
original back.

Spans are aggregated as they close, per name: calls, inclusive time
(outermost activation only, so recursion is not counted twice) and
self time (duration minus the time covered by child spans). A few
functions also feed counters through hooks that read their arguments,
results or exceptions. ``collect`` returns the aggregates of the pass
and resets them, so all spans of one pass share its pass id.
"""

import functools
import inspect
import math
import sys
import time
from collections import Counter

PACKAGE = "navier_bubbles"
LAYERS = ("cli", "solver", "reduction", "green_robin", "projection",
          "numerics", "bubble")


def _solve_radial(counts, bound, result, exc):
    if exc is None:
        counts["solver.newton_iters"] += int(result.newton_iters)
        return
    counts["solver.solve_radial.failed"] += 1
    last = getattr(exc, "last", None)
    if last is not None:
        counts["solver.newton_iters"] += int(last.newton_iters)


def _continuation_sweep(counts, bound, result, exc):
    kept = result if exc is None else getattr(exc, "partial", ())
    counts["solver.solves_kept"] += len(kept)


def _supercritical_probe(counts, bound, result, exc):
    if exc is None:
        counts["solver.solves_kept"] += sum(
            1 for e in result.entries if e.converged)


def _coercivity_check(counts, bound, result, exc):
    if exc is None:
        args = bound.arguments
        lam_r = args["params"].lam * args["domain"].radius
        counts["reduction.coercivity_modes"] += (
            args["trial_count"] * max(1, math.ceil(lam_r / 10.0)))


def _solve_reduced_system(counts, bound, result, exc):
    if exc is None:
        counts["reduction.reduced_iterations"] += int(result.iterations)
    else:
        counts["reduction.reduced_iterations"] += len(
            getattr(exc, "history", ()))


# span name -> hook(counts, bound_arguments, result, exception)
HOOKS = {
    "solver.solve_radial": _solve_radial,
    "solver.continuation_sweep": _continuation_sweep,
    "solver.supercritical_probe": _supercritical_probe,
    "reduction.coercivity_check": _coercivity_check,
    "reduction.solve_reduced_system": _solve_reduced_system,
}


def public_functions():
    """(span name, function) for every public function defined in a
    layer module, e.g. ``("green_robin.robin", robin)``."""
    out = []
    for layer in LAYERS:
        module = sys.modules["%s.%s" % (PACKAGE, layer)]
        for attr, obj in vars(module).items():
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__):
                out.append(("%s.%s" % (layer, attr), obj))
    return out


class Tracer:
    """Wraps the package's public functions and aggregates their spans.

    Import the package's layer modules, and any module that binds their
    functions, before ``install``; bindings made afterwards are not
    seen.
    """

    def __init__(self):
        self.stats = {}          # span name -> [calls, inclusive, self]
        self.counts = Counter()
        self.top_level_s = 0.0   # time covered by spans with no parent
        self._stack = []         # child time accumulated per open span
        self._active = Counter()  # open activations per span name
        self._patches = []       # (module, attribute, original)

    def _wrap(self, name, fn):
        stack = self._stack
        active = self._active
        hook = HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            active[name] += 1
            result = exc = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as error:
                exc = error
                raise
            finally:
                dt = clock() - t0
                child = stack.pop()
                active[name] -= 1
                if stack:
                    stack[-1] += dt
                else:
                    self.top_level_s += dt
                entry = self.stats.get(name)
                if entry is None:
                    entry = self.stats[name] = [0, 0.0, 0.0]
                entry[0] += 1
                if active[name] == 0:
                    entry[1] += dt
                entry[2] += dt - child
                if hook is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    hook(self.counts, bound, result, exc)

        return functools.wraps(fn)(wrapper)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer is already installed")
        wrappers = {id(fn): (fn, self._wrap(name, fn))
                    for name, fn in public_functions()}
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for attr, value in list(namespace.items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    namespace[attr] = hit[1]
                    self._patches.append((module, attr, value))
        return len(self._patches)

    def restore(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def collect(self):
        """The aggregates since the last collect, then reset."""
        if self._stack:
            raise RuntimeError("collect called inside an open span")
        out = {
            "spans": {k: list(v) for k, v in self.stats.items()},
            "counts": dict(self.counts),
            "top_level_s": self.top_level_s,
        }
        self.stats = {}
        self.counts = Counter()
        self.top_level_s = 0.0
        return out
