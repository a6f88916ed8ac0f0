"""Command line front end for the package.

Five subcommands drive the library end to end:

  constants         closed-form constant table for a dimension
  robin             potential profile along a diameter plus boundary fits
  verify-blowup     law-seeded sweep, decomposition, blow-up verdict
  supercritical     obstruction certificate, probe, subcritical contrast
  expansion-orders  fitted decay exponents of the projection deficit

Output contract. Every run is deterministic given its configuration:
reruns write byte-identical artifacts (no timestamps, no environment
echoes, floats serialized by repr). Every numeric in an output table
carries a provenance tag, one of

  formula     closed form evaluated directly
  quadrature  numerical integral of known fields
  solver      output of an iterative solve (Newton, BVP, root finding,
              finite differences of solved fields)
  fit         least-squares fit over other outputs

Every CSV column and every table-shaped report entry comes from one
field table, a tuple of (name, provenance) pairs: _SWEEP_FIELDS
(sweep.csv), _ROBIN_FIELDS (robin_profile.csv), _CONSTANTS_FIELDS
(constants.csv and the printed table), _ORDERS_FIELDS (orders.csv and
the orders.json fits), _PROBE_FIELDS and _OBSTRUCTION_FIELDS
(probe.csv, obstruction.csv and their report.json entries).
_write_table writes the CSV and _record_json the report entry, so the
two always agree. A provenance of None marks a label or a flag,
written bare; every other column is followed by its
``<name>_provenance`` column.

JSON artifacts are pretty printed and carry a ``schema`` string; CSV
artifacts are RFC 4180 (CRLF rows, UTF-8). Column meanings are
documented in the repository README. When a pipeline stage fails,
everything computed before the failure is still written, along with a
``failure.json`` naming the stage.

Exit codes: 0 all checks passed, 1 a check failed, 2 usage or
configuration error, 3 a pipeline stage failed partway.

Dimension policy: the constant table, the potential profile and the
deficit expansion orders are closed-form surfaces. ``constants``
accepts 5 <= n <= 132 (CONSTANTS_N_MAX, derived: its peak law limit
overflows from n = 133) and ``robin`` 5 <= n <= 220 (ROBIN_N_MAX,
derived: its series sums at 0.98 R overflow from n = 221);
``expansion-orders`` accepts
any n >= 5 under its lam_min ceiling. ``verify-blowup`` runs at n = 6:
at n = 5 the default grid does not resolve eps = 0.02 (the law-seeded
solve stops at the 30-step Newton cap, scaled residual 1.0e-5).
``supercritical`` accepts 5 <= n <= 81 (SUPERCRITICAL_N_MAX, derived:
its obstruction's margin forms 1e4^(n-4)): its probe and obstruction
are closed forms that solve nothing, and only its subcritical contrast,
a sweep solve at n = 6, builds a grid; elsewhere it is skipped. Both
run commands take offsets below p - 1 = 8/(n-4), where the matched
subcritical exponent p - eps exceeds one.

Radius windows: a radius outside a command's window is refused before
anything is written. Where a grid is built, every cell volume stays
normal (solver._grid_radius_window): R in [4.3e-47, 1.3e51] on the
default n = 6 grid. ``robin`` and, off n = 6, ``supercritical`` keep
every written number that depends on R a positive normal double, read
from the unit-ball values it scales from (_robin_radius_window,
_obstruction_radius_window): [7.1e-102, 2.7e102] for ``robin`` at
n = 6 with the default 21 stations.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import numbers
import os
import sys
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .bubble import (BubbleParams, balance_constants, center_potential,
                     critical_exponent, law_limits, law_quantities,
                     sobolev_energy)
from .green_robin import (BOUNDARY_FIT_WINDOW, BallDomain, _first_axis,
                          boundary_blowup_fit, robin)
from .projection import expansion_orders
from .reduction import (LAW_RTOL, blowup_verdict, subcritical_roots,
                        supercritical_obstruction)

# the solver is imported only by the commands that use it; no module
# loads scipy on import, so only a Newton step loads scipy.linalg

SCHEMA_PREFIX = "navier-bubbles"
SCHEMA_VERSION = 1

PROV_FORMULA = "formula"
PROV_QUADRATURE = "quadrature"
PROV_SOLVER = "solver"
PROV_FIT = "fit"

DEFAULT_SCHEDULE = (0.3, 0.2, 0.1, 0.05, 0.02, 0.01, 0.005)

# check tolerances mirrored by the acceptance tests; the law limits are
# judged at reduction.LAW_RTOL
AMP_TOL = 0.05           # |alpha - 1| at the sharpest offset
RATIO_TOL = 0.10         # |peak/scale ratio - 1| at the sharpest offset
ENERGY_RTOL = 0.05       # final energies vs the critical level
VNORM_SLOPE_TOL = 0.5    # remainder decay exponent in eps vs 1
ORDER_SLOPE_TOL = 0.3    # deficit exponents vs their targets
LADDER_DECADES = 1.6     # the expansion-orders ladder spans lam_min to
                         # lam_min * 10^LADDER_DECADES
CONTRAST_EPS_CAP = 0.02  # contrast solve runs at or below this offset
# Largest dimensions, both derived. CONSTANTS_N_MAX: every row is a
# closed form, and the largest, the peak law limit c0^2 (c1/c2) phi(0),
# is 1.2e308 at n = 132 and overflows from n = 133. ROBIN_N_MAX: the
# largest values robin forms are the unit ball's phi~ and phi~' at the
# boundary fit's nearest station, tau = 0.98, which the radius window
# scales from; phi~' there is 8.6e306 at n = 220, and its series sum
# overflows from n = 221.
CONSTANTS_N_MAX = 132
ROBIN_N_MAX = 220
# Largest dimension of supercritical, derived: the obstruction's margin
# c1 phi(0) / 1e4^(n-4) forms 1e4^(n-4), which is finite up to n = 81.
SUPERCRITICAL_N_MAX = 81


class CliError(ValueError):
    """Configuration or usage problem detected before any solve."""


def _schema(name):
    return "%s/%s/%d" % (SCHEMA_PREFIX, name, SCHEMA_VERSION)


# ---------------------------------------------------------------------------
# run configuration


def _is_real(value):
    """A JSON number or its Python counterpart; true and false are not."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _fits_float(value):
    """False for an integer too large for a double."""
    try:
        float(value)
    except OverflowError:
        return False
    return True


@dataclass(frozen=True)
class RunConfig:
    """One run's full parameterization, round-trippable through JSON.

    eps_schedule holds positive offset magnitudes below p - 1, strictly
    decreasing; the sweep solves at exponent p - eps for each entry, and
    supercritical matches p + eps with that same p - eps. grid_nodes goes
    to the radial solver, whose Newton target is fixed.
    """

    n: int = 6
    radius: float = 1.0
    eps_schedule: tuple = DEFAULT_SCHEDULE
    grid_nodes: int = 2048
    out_dir: str = "runs"

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "out_dir":
                continue
            if f.name == "eps_schedule":
                if not (isinstance(value, (list, tuple))
                        and all(map(_is_real, value))):
                    raise CliError("eps_schedule must be a list of numbers, "
                                   "not %r" % (value,))
            elif not _is_real(value):
                raise CliError("%s must be a number, not %r"
                               % (f.name, value))
            entries = value if f.name == "eps_schedule" else (value,)
            if not all(map(_fits_float, entries)):
                raise CliError("%s holds a number too large for a float"
                               % f.name)
        if not (float(self.n).is_integer() and self.n >= 5):
            raise CliError("dimension must be an integer at least 5")
        object.__setattr__(self, "n", int(self.n))
        _require_positive("radius", self.radius)
        object.__setattr__(self, "radius", float(self.radius))
        sched = tuple(float(e) for e in self.eps_schedule)
        if not sched:
            raise CliError("eps schedule must not be empty")
        if any(not (math.isfinite(e) and e > 0) for e in sched):
            raise CliError("eps schedule entries must be positive and "
                           "finite")
        if any(b >= a for a, b in zip(sched, sched[1:])):
            raise CliError("eps schedule must decrease strictly")
        p = critical_exponent(self.n)
        if not sched[0] < p - 1:
            raise CliError("offset magnitude must stay below p - 1 = %g"
                           % (p - 1))
        object.__setattr__(self, "eps_schedule", sched)
        if not (float(self.grid_nodes).is_integer()
                and self.grid_nodes >= 256):
            raise CliError("grid_nodes must be an integer at least 256")
        object.__setattr__(self, "grid_nodes", int(self.grid_nodes))
        if not isinstance(self.out_dir, str) or not self.out_dir:
            raise CliError("out_dir must be a nonempty path string")

    def to_dict(self):
        data = {"schema": _schema("run-config"), **asdict(self)}
        data["eps_schedule"] = list(self.eps_schedule)
        return data

    def to_json(self, path):
        _write_json(path, self.to_dict())

    @classmethod
    def from_dict(cls, data):
        if not isinstance(data, dict):
            raise CliError("run configuration must be a JSON object")
        schema = data.get("schema")
        if schema != _schema("run-config"):
            raise CliError("unrecognized run-config schema %r" % (schema,))
        names = {f.name for f in fields(cls)}
        extra = set(data) - names - {"schema"}
        if extra:
            raise CliError("unknown run-config fields: %s"
                           % ", ".join(sorted(extra)))
        missing = names - set(data)
        if missing:
            raise CliError("missing run-config fields: %s"
                           % ", ".join(sorted(missing)))
        return cls(**{name: data[name] for name in names})

    @classmethod
    def from_json(cls, path):
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise CliError("cannot read config file: %s" % exc) from exc
        except json.JSONDecodeError as exc:
            raise CliError("config file is not valid JSON: %s"
                           % exc) from exc
        return cls.from_dict(data)

    def domain(self):
        return BallDomain(self.n, np.zeros(self.n), self.radius)


# ---------------------------------------------------------------------------
# serialization helpers


def _write_json(path, obj):
    # encoded whole before the file opens: json.dump writes chunk by
    # chunk, and a value it cannot encode would leave a truncated file
    text = json.dumps(obj, indent=1) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


def _cell(value):
    """String form of one CSV cell; floats go through repr so the
    round trip is lossless and reruns are byte identical."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_table(path, records, table):
    """One CSV row per record, a plain dict keyed by the table's names:
    a label or flag (provenance None) is written bare, every other
    field is followed by its provenance column."""
    header = []
    for name, prov in table:
        header += [name] if prov is None else [name, name + "_provenance"]
    rows = [[cell for name, prov in table
             for cell in ([_cell(record[name])] if prov is None
                          else [_cell(record[name]), prov])]
            for record in records]
    _write_csv(path, header, rows)


def _record_json(record, table):
    """The report form of one record, under the CSV's names: a flag
    bare, every other field as its value with its provenance."""
    return {name: bool(record[name]) if prov is None
            else _pv(record[name], prov) for name, prov in table}


def _require_positive(name, value):
    if not (math.isfinite(value) and value > 0):
        raise CliError("%s must be positive and finite" % name)


def _pv(value, provenance):
    """A numeric with its provenance tag; non-finite values serialize
    as null so the JSON stays standard."""
    v = float(value)
    return {"value": v if math.isfinite(v) else None,
            "provenance": provenance}


def _check(name, observed, provenance, target, tolerance):
    """A check that passes when |observed / target - 1| <= tolerance, so
    the verdict rests on the target and tolerance it reports."""
    return {
        "name": name,
        "observed": _pv(observed, provenance),
        "target": target,
        "tolerance": tolerance,
        "passed": bool(abs(observed / target - 1.0) <= tolerance),
    }


def _ensure_dir(path):
    os.makedirs(path, exist_ok=True)
    return path


def _require_dimension(n, n_max):
    if not 5 <= n <= n_max:
        raise CliError("dimension must be between 5 and %d" % n_max)


def _require_radius(radius, window, kept):
    """Refuse a radius outside window = (lo, hi), the radii that keep
    the numbers named by kept in the double range."""
    lo, hi = window
    if lo > hi:
        raise CliError("no radius at this dimension keeps %s" % kept)
    if not lo <= radius <= hi:
        raise CliError("radius must lie in [%.6g, %.6g] at this dimension, "
                       "which keeps %s" % (lo, hi, kept))


# ---------------------------------------------------------------------------
# constants


# every constant is a closed form; none is a quadrature
_CONSTANTS_FIELDS = (("name", None), ("value", PROV_FORMULA))


def constants_rows(n):
    """The closed-form constant table as (label, value) pairs."""
    consts = balance_constants(n)
    phi0 = center_potential(n)
    scale_limit, peak_limit = law_limits(consts, phi0)
    return [
        ("dimension", n),
        ("critical exponent p", consts.p),
        ("bubble amplitude c0", consts.c0),
        ("best quotient level S", consts.S),
        ("free bubble energy S^(n/4)", sobolev_energy(n)),
        ("interaction constant c1", consts.c1),
        ("exponent response c2, full variant", consts.c2_variant_full),
        ("exponent response c2, half variant", consts.c2_variant_half),
        ("variant ratio full/half",
         consts.c2_variant_full / consts.c2_variant_half),
        ("operative c2 (positive)", consts.c2),
        ("ratio c1/c2", consts.c1 / consts.c2),
        ("unit-ball center potential", phi0),
        ("scale law limit eps*lam^(n-4), unit ball", scale_limit),
        ("peak law limit eps*M^2, unit ball", peak_limit),
    ]


def cmd_constants(n, out_dir=None):
    _require_dimension(n, CONSTANTS_N_MAX)
    rows = constants_rows(n)
    prov = dict(_CONSTANTS_FIELDS)["value"]
    print("constant table for dimension n = %d" % n)
    print("%-44s %-22s %s" % ("name", "value", "provenance"))
    for label, value in rows:
        text = str(value) if isinstance(value, int) else "%.10g" % value
        print("%-44s %-22s %s" % (label, text, prov))
    if out_dir is not None:
        _ensure_dir(out_dir)
        _write_table(os.path.join(out_dir, "constants.csv"),
                     [{"name": label, "value": value}
                      for label, value in rows],
                     _CONSTANTS_FIELDS)
        print("wrote %s" % os.path.join(out_dir, "constants.csv"))
    return 0


# ---------------------------------------------------------------------------
# robin profile


_ROBIN_FIELDS = (("station", PROV_FORMULA), ("axis_coordinate", PROV_FORMULA),
                 ("phi", PROV_SOLVER), ("grad_norm", PROV_SOLVER))


def _robin_radius_window(n, least):
    """The radii at which every phi and every nonzero gradient norm the
    command writes is a positive normal double. Both scale from the unit
    ball, phi~(s; R) = R^(4-n) phi~(s/R; 1) and phi~'(s; R) =
    R^(3-n) phi~'(s/R; 1), and both grow along the radius, so the
    extremes are three unit-ball values: phi at the center (the closed
    form center_potential), the gradient at the smallest nonzero
    station tau = least, and both at the boundary fit's nearest station.
    A relative 1e-12 is kept back for the rounding of the powers."""
    axis = _first_axis(n)
    unit = BallDomain.unit(n)
    near, _ = BOUNDARY_FIT_WINDOW
    edge = robin(unit, (1.0 - near) * axis)
    inner = abs(float(robin(unit, least * axis).grad[0]))
    tiny, huge = sys.float_info.min, sys.float_info.max
    phi_pow, grad_pow = 1.0 / (n - 4), 1.0 / (n - 3)
    lo = max((edge.phi / huge) ** phi_pow,
             (abs(float(edge.grad[0])) / huge) ** grad_pow)
    hi = min(center_potential(n) ** phi_pow / tiny ** phi_pow,
             inner ** grad_pow / tiny ** grad_pow)
    return lo * (1.0 + 1e-12), hi * (1.0 - 1e-12)


def cmd_robin(n, radius, stations, out_dir):
    _require_dimension(n, ROBIN_N_MAX)
    _require_positive("radius", radius)
    if stations < 5 or stations % 2 == 0:
        raise CliError("stations must be odd and at least 5 so the "
                       "center row exists")
    # integer multiples: the center is exactly 0, and mirrored stations
    # are exact negatives, which share one evaluation (phi is even)
    half = stations // 2
    fractions = 0.9 * np.arange(-half, half + 1) / half
    _require_radius(radius, _robin_radius_window(n, fractions[half + 1]),
                    "every written phi and nonzero gradient norm a "
                    "positive normal double")
    domain = BallDomain(n, np.zeros(n), radius)
    axis = _first_axis(n)

    evaluations = [robin(domain, domain.center + float(frac) * radius * axis)
                   for frac in fractions[half:]]
    records = []
    for idx, frac in enumerate(fractions):
        ev = evaluations[abs(idx - half)]
        records.append({"station": idx,
                        "axis_coordinate": float(frac) * radius,
                        "phi": float(ev.phi),
                        "grad_norm": abs(float(ev.grad[0]))})

    _ensure_dir(out_dir)
    profile_path = os.path.join(out_dir, "robin_profile.csv")
    _write_table(profile_path, records, _ROBIN_FIELDS)

    fits = boundary_blowup_fit(domain)
    center_phi = records[half]["phi"]
    center_grad = records[half]["grad_norm"]
    closed_center = center_potential(n, radius)
    report = {
        "schema": _schema("robin-profile"),
        "n": n,
        "radius": _pv(radius, PROV_FORMULA),
        "stations": stations,
        "center_phi": _pv(center_phi, PROV_SOLVER),
        "center_phi_closed_form": _pv(closed_center, PROV_FORMULA),
        "center_grad_norm": _pv(center_grad, PROV_SOLVER),
        "phi_boundary_exponent": {
            "value": fits.phi.slope,
            "expected": 4.0 - n,
            "rms_residual": fits.phi.rms_residual,
            "provenance": PROV_FIT,
        },
        "grad_boundary_exponent": {
            "value": fits.grad_norm.slope,
            "expected": 3.0 - n,
            "rms_residual": fits.grad_norm.rms_residual,
            "provenance": PROV_FIT,
        },
    }
    fits_path = os.path.join(out_dir, "robin_fits.json")
    _write_json(fits_path, report)

    print("wrote %s (%d stations)" % (profile_path, stations))
    print("wrote %s" % fits_path)
    print("center potential %.10g (closed form %.10g)"
          % (center_phi, closed_center))
    print("boundary exponents: phi %.4f (expect %g), gradient %.4f "
          "(expect %g)" % (fits.phi.slope, 4.0 - n,
                           fits.grad_norm.slope, 3.0 - n))
    return 0


# ---------------------------------------------------------------------------
# verify-blowup


_SWEEP_FIELDS = (("eps", PROV_FORMULA), ("peak", PROV_SOLVER),
                 ("alpha", PROV_SOLVER), ("lam", PROV_SOLVER),
                 ("v_norm", PROV_SOLVER), ("eps_lam_pow", PROV_SOLVER),
                 ("eps_peak_sq", PROV_SOLVER),
                 ("peak_scale_ratio", PROV_SOLVER),
                 ("newton_iters", PROV_SOLVER), ("residual", PROV_SOLVER),
                 ("pohozaev_defect", PROV_SOLVER))


def _sweep_records(n, solutions, decomps):
    records = []
    for sol, dec in zip(solutions, decomps):
        eps, peak, lam = abs(float(sol.eps)), float(sol.M), float(dec.lam)
        scale_pow, peak_sq, ratio = law_quantities(n, eps, peak, lam)
        records.append({"eps": eps, "peak": peak,
                        "alpha": float(dec.alpha), "lam": lam,
                        "v_norm": float(dec.v_norm),
                        "eps_lam_pow": scale_pow, "eps_peak_sq": peak_sq,
                        "peak_scale_ratio": ratio,
                        "newton_iters": int(sol.newton_iters),
                        "residual": float(sol.residual),
                        "pohozaev_defect": float(sol.pohozaev_defect())})
    return records


def _trace_offset(eps, attempt):
    """One offset of a solver trace: its one Newton attempt, with the
    seed it started from ("law" at the sweep's first offset,
    "law-corrected" after it: the law seed corrected by the previous
    offset's departure) and the scaled residual and damping of each
    iterate. Deterministic: no timings."""
    iterations = [{"residual": _pv(res, PROV_SOLVER),
                   "damping": None if t is None else _pv(t, PROV_SOLVER)}
                  for res, t in attempt.iterations]
    return {"eps": _pv(eps, PROV_FORMULA),
            "attempts": [{"eps": _pv(eps, PROV_FORMULA),
                          "start": attempt.start, "exit": attempt.exit,
                          "newton_iters": len(iterations) - 1,
                          "iterations": iterations}]}


def _solver_trace(solutions):
    """The Newton attempt of every sweep offset, offset by offset."""
    return {
        "newton_iters": sum(sol.newton_iters for sol in solutions),
        "offsets": [_trace_offset(abs(float(sol.eps)), sol.attempt)
                    for sol in solutions],
    }


def _persist_failure(out_dir, stage, error, completed, failed_offset=None):
    """failure.json; failed_offset is the solver-trace record of the
    offset a sweep could not reach, and None only at the decompose
    stage, where every offset was solved."""
    _write_json(os.path.join(out_dir, "failure.json"), {
        "schema": _schema("failure"),
        "stage": stage,
        "error": str(error),
        "completed": completed,
        "failed_offset": failed_offset,
    })


def cmd_verify_blowup(config, out_dir):
    from .solver import (ContinuationError, _grid_radius_window,
                         check_eps_floor, continuation_sweep, decompose,
                         default_grid, vnorm_diagnostics)
    if len(config.eps_schedule) < 4:
        raise CliError("the blow-up verdict extrapolates over a tail of "
                       "four offsets; give a schedule with at least four")
    if config.n != 6:
        raise CliError("verify-blowup runs in dimension 6 only; at n = 5 "
                       "the default grid does not resolve eps = 0.02")
    domain = config.domain()
    grid = default_grid(domain, config.grid_nodes)
    try:
        check_eps_floor(config.eps_schedule[-1], grid)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    _require_radius(config.radius, _grid_radius_window(grid),
                    "every cell volume of the %d-node grid a normal double"
                    % len(grid))
    _ensure_dir(out_dir)
    config.to_json(os.path.join(out_dir, "config.json"))

    def write_sweep(sols, decs):
        records = _sweep_records(config.n, sols, decs)
        _write_table(os.path.join(out_dir, "sweep.csv"), records,
                     _SWEEP_FIELDS)
        return records

    def decompose_each(sols):
        """Decompositions of sols up to the first that fails, with that
        failure, or None."""
        decs = []
        try:
            for sol in sols:
                decs.append(decompose(sol, domain))
        except (ValueError, RuntimeError) as exc:
            return decs, exc
        return decs, None

    try:
        solutions = continuation_sweep(list(config.eps_schedule), domain,
                                       grid=grid)
    except ContinuationError as exc:
        partial = list(exc.partial)
        decs, _ = decompose_each(partial)
        write_sweep(partial[:len(decs)], decs)
        _persist_failure(out_dir, "sweep", exc, len(partial), _trace_offset(
            config.eps_schedule[len(partial)], exc.attempt))
        print("sweep failed after %d offsets: %s" % (len(partial), exc),
              file=sys.stderr)
        return 3

    decomps, exc = decompose_each(solutions)
    if exc is not None:
        done = len(decomps)
        write_sweep(solutions[:done], decomps)
        _persist_failure(out_dir, "decompose", exc, done)
        print("decomposition failed at offset index %d: %s" % (done, exc),
              file=sys.stderr)
        return 3

    records = write_sweep(solutions, decomps)

    verdict = blowup_verdict(
        [(s.eps, d, s.M) for s, d in zip(solutions, decomps)],
        domain.center, domain)

    final_sol = solutions[-1]
    final_dec = decomps[-1]
    peaks = [float(s.M) for s in solutions]
    energy = final_sol.energy_norm_sq()
    mass = final_sol.nonlinear_mass()
    level = sobolev_energy(config.n)

    checks = [
        _check("peak_monotone_increasing",
               1.0 if all(b > a for a, b in zip(peaks, peaks[1:])) else 0.0,
               PROV_SOLVER, 1.0, 0.0),
        _check("final_amplitude_near_unity", final_dec.alpha, PROV_SOLVER,
               1.0, AMP_TOL),
        _check("final_peak_scale_ratio", records[-1]["peak_scale_ratio"],
               PROV_SOLVER, 1.0, RATIO_TOL),
        _check("final_energy_at_critical_level", energy, PROV_QUADRATURE,
               level, ENERGY_RTOL),
        _check("final_mass_at_critical_level", mass, PROV_QUADRATURE,
               level, ENERGY_RTOL),
        _check("scale_law_limit_eps_model", verdict.scale_limit_eps,
               PROV_FIT, verdict.scale_target, LAW_RTOL),
        _check("scale_law_limit_epslog_model", verdict.scale_limit_epslog,
               PROV_FIT, verdict.scale_target, LAW_RTOL),
        _check("peak_law_limit_eps_model", verdict.peak_limit_eps,
               PROV_FIT, verdict.peak_target, LAW_RTOL),
        _check("peak_law_limit_epslog_model", verdict.peak_limit_epslog,
               PROV_FIT, verdict.peak_target, LAW_RTOL),
    ]

    remainder = {"fitted": False}
    if len(solutions) >= 5:
        diag = vnorm_diagnostics(decomps, [abs(s.eps) for s in solutions])
        checks.append(_check("remainder_decay_exponent",
                             diag.eps_fit.slope, PROV_FIT,
                             1.0, VNORM_SLOPE_TOL))
        remainder = {
            "fitted": True,
            "eps_exponent": _pv(diag.eps_fit.slope, PROV_FIT),
            "scale_exponent": _pv(diag.lambda_fit.slope, PROV_FIT),
            "uniform_bound_ratio": _pv(diag.bound_ratio, PROV_SOLVER),
        }

    passed = all(c["passed"] for c in checks)
    report = {
        "schema": _schema("verify-blowup-report"),
        "n": config.n,
        "eps_schedule": list(config.eps_schedule),
        "checks": checks,
        "remainder": remainder,
        "solver_trace": _solver_trace(solutions),
        "passed": passed,
    }
    _write_json(os.path.join(out_dir, "report.json"), report)

    for c in checks:
        print("%-34s %s" % (c["name"], "pass" if c["passed"] else "FAIL"))
    print("overall: %s" % ("pass" if passed else "FAIL"))
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# supercritical


_PROBE_FIELDS = (("eps", PROV_FORMULA),
                 ("pohozaev_coefficient", PROV_FORMULA),
                 ("concentrating", None))
_OBSTRUCTION_FIELDS = (("eps", PROV_FORMULA), ("scan_min", PROV_FORMULA),
                       ("floor", PROV_FORMULA), ("margin", PROV_FORMULA),
                       ("positive", None),
                       ("subcritical_root_closed", PROV_FORMULA))


def _obstruction_radius_window(n, eps_list):
    """The radii that keep R and every written subcritical root, the unit
    ball's over R, positive normal doubles; nothing else written off
    n = 6 depends on R. A relative 1e-12 is kept back for rounding."""
    roots = subcritical_roots(n, eps_list)
    tiny, huge = sys.float_info.min, sys.float_info.max
    return (max(tiny, max(roots) / huge * (1.0 + 1e-12)),
            min(huge, min(roots) / tiny * (1.0 - 1e-12)))


def _contrast_section(eps_list, domain, grid):
    """Solve the matched subcritical problem at the smallest requested
    offset (capped at 0.02, where the concentration test λ·d > 20
    holds) and report the three-part contrast with the supercritical
    probe, and the solution's Pohozaev defect, which is reported, not
    gated. Errors are recorded, not raised. Off n = 6 grid is None and
    the section is skipped: the sweep is validated at n = 6 only."""
    if grid is None:
        return {"skipped": "the subcritical contrast runs in dimension 6 "
                           "only, the one dimension where the law-seeded "
                           "sweep is validated"}
    from .solver import concentration, continuation_sweep, decompose
    target = min(CONTRAST_EPS_CAP, min(eps_list))
    try:
        (sol,) = continuation_sweep([target], domain, grid=grid)
        dec = decompose(sol, domain)
    except (ValueError, RuntimeError) as exc:
        return {"eps": _pv(target, PROV_FORMULA), "error": str(exc)}
    v_rel, lambda_d, (small_remainder, amp_near_one,
                      concentrated) = concentration(sol, dec, domain)
    return {
        "eps": _pv(target, PROV_FORMULA),
        "relative_remainder": _pv(v_rel, PROV_SOLVER),
        "alpha": _pv(float(dec.alpha), PROV_SOLVER),
        "lambda_d": _pv(lambda_d, PROV_SOLVER),
        "small_remainder": bool(small_remainder),
        "amplitude_near_unity": bool(amp_near_one),
        "concentrated": bool(concentrated),
        "passed": bool(small_remainder and amp_near_one and concentrated),
        "pohozaev_defect": _pv(sol.pohozaev_defect(), PROV_SOLVER),
    }


def cmd_supercritical(config, out_dir):
    from .solver import (_grid_radius_window, check_eps_floor, default_grid,
                         supercritical_probe)
    _require_dimension(config.n, SUPERCRITICAL_N_MAX)
    domain = config.domain()
    eps_list = sorted(config.eps_schedule)
    try:
        if config.n == 6:  # the one dimension where the contrast solves
            grid = default_grid(domain, config.grid_nodes)
            check_eps_floor(eps_list[0], grid)
            window = _grid_radius_window(grid)
            kept = ("every cell volume of the %d-node grid a normal double"
                    % len(grid))
        else:
            grid = None
            window = _obstruction_radius_window(config.n, eps_list)
            kept = ("the radius and every subcritical root a positive "
                    "normal double")
        probe = supercritical_probe(eps_list, domain)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    _require_radius(config.radius, window, kept)
    _ensure_dir(out_dir)
    config.to_json(os.path.join(out_dir, "config.json"))

    probe_records = [asdict(e) for e in probe.entries]
    _write_table(os.path.join(out_dir, "probe.csv"), probe_records,
                 _PROBE_FIELDS)

    obstruction = supercritical_obstruction(eps_list, domain)
    obstruction_records = [asdict(e) for e in obstruction.entries]
    _write_table(os.path.join(out_dir, "obstruction.csv"),
                 obstruction_records, _OBSTRUCTION_FIELDS)

    contrast = _contrast_section(eps_list, domain, grid)
    contrast_ok = bool(contrast.get("passed", "skipped" in contrast))

    report = {
        "schema": _schema("supercritical-report"),
        "n": config.n,
        "radius": _pv(config.radius, PROV_FORMULA),
        "eps_list": [_pv(e, PROV_FORMULA) for e in eps_list],
        "probe": {
            "any_concentrating": bool(probe.any_concentrating),
            "entries": [_record_json(r, _PROBE_FIELDS)
                        for r in probe_records],
        },
        "obstruction": {
            "all_positive": bool(obstruction.all_positive),
            "entries": [_record_json(r, _OBSTRUCTION_FIELDS)
                        for r in obstruction_records],
        },
        "subcritical_contrast": contrast,
        "passed": bool((not probe.any_concentrating)
                       and obstruction.all_positive and contrast_ok),
    }
    _write_json(os.path.join(out_dir, "report.json"), report)

    print("supercritical probe: %s" % (
        "Pohozaev sign NOT certified at eps %s" % " ".join(
            "%g" % e.eps for e in probe.entries if e.concentrating)
        if probe.any_concentrating
        else "Pohozaev sign certified at every offset"))
    print("balance obstruction: %s" % (
        "margin positive at every offset" if obstruction.all_positive
        else "margin NOT positive everywhere"))
    if "skipped" in contrast:
        print("subcritical contrast: skipped (%s)" % contrast["skipped"])
    elif "error" in contrast:
        print("subcritical contrast: failed (%s)" % contrast["error"])
    else:
        print("subcritical contrast at eps %g: %s"
              % (contrast["eps"]["value"],
                 "pass" if contrast_ok else "FAIL"))
    print("overall: %s" % ("pass" if report["passed"] else "FAIL"))
    return 0 if report["passed"] else 1


# ---------------------------------------------------------------------------
# expansion orders


# within_band judges |slope - expected| <= ORDER_SLOPE_TOL, an absolute
# band on the exponent
_ORDERS_FIELDS = (("quantity", None), ("slope", PROV_FIT),
                  ("expected", PROV_FORMULA), ("rms_residual", PROV_FIT),
                  ("within_band", None))


def _lam_min_ceiling(n, radius):
    """The largest lam_min whose top rung, lam_min * 10^LADDER_DECADES,
    keeps every power the fits raise finite. The largest is
    (1 + (lam R)^2)^(n/2), in the curvature energy Delta delta(R), so
    the top rung times R must stay below the n-th root of the largest
    double; a relative 1e-12 is kept back for the rounding of the
    power."""
    top = sys.float_info.max ** (1.0 / n) * (1.0 - 1e-12) / radius
    return top / 10.0 ** LADDER_DECADES


def cmd_expansion_orders(n, radius, rungs, lam_min, out_dir):
    if n < 5:
        raise CliError("dimension must be at least 5")
    if rungs < 4:
        raise CliError("the exponent fits need at least four ladder rungs")
    _require_positive("radius", radius)
    _require_positive("lam_min", lam_min)
    if not lam_min * radius >= 30.0:
        raise CliError("lam_min * radius must be at least 30 so every "
                       "rung is sharply concentrated")
    ceiling = _lam_min_ceiling(n, radius)
    if not lam_min <= ceiling:
        raise CliError("lam_min must be at most %.6g at n = %d and radius "
                       "%g, so the top rung's powers stay finite"
                       % (ceiling, n, radius))
    # the slopes depend on lam and R only through lam R: fit on the unit
    # ball at lam R, where no power of R overflows; the ladder stays in lam
    domain = BallDomain.unit(n)
    lams = lam_min * 10.0 ** np.linspace(0.0, LADDER_DECADES, rungs)
    family = [BubbleParams(a=domain.center, lam=float(l * radius), n=n)
              for l in lams]
    fits = expansion_orders(family, domain)

    norm_order = -(n - 4.0) / 2.0
    rows = [{"quantity": name, "slope": fit.slope, "expected": expected,
             "rms_residual": fit.rms_residual,
             "within_band": bool(abs(fit.slope - expected)
                                 <= ORDER_SLOPE_TOL)}
            for name, fit, expected in (
                ("energy_norm", fits.energy_norm, norm_order),
                ("critical_norm", fits.critical_norm, norm_order),
                ("remainder_sup", fits.remainder_sup, -n / 2.0))]
    all_ok = all(row["within_band"] for row in rows)

    _ensure_dir(out_dir)
    _write_table(os.path.join(out_dir, "orders.csv"), rows, _ORDERS_FIELDS)
    _write_json(os.path.join(out_dir, "orders.json"), {
        "schema": _schema("expansion-orders"),
        "n": n,
        "radius": _pv(radius, PROV_FORMULA),
        "ladder": [_pv(float(l), PROV_FORMULA) for l in lams],
        "fits": {row["quantity"]: _record_json(row, _ORDERS_FIELDS[1:])
                 for row in rows},
        "band": ORDER_SLOPE_TOL,
        "passed": all_ok,
    })

    for row in rows:
        print("%-15s slope %+.4f (expect %+.1f)"
              % (row["quantity"], row["slope"], row["expected"]))
    print("overall: %s" % ("pass" if all_ok else "FAIL"))
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="navier-bubbles",
        description="Desk-scale numerics for near-critical fourth-order "
                    "concentration on balls.")
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("constants",
                       help="print the closed-form constant table")
    c.add_argument("--n", type=int, default=6, help="dimension (>= 5)")
    c.add_argument("--out", default=None,
                   help="also write constants.csv into this directory")

    r = sub.add_parser("robin",
                       help="potential profile along a diameter plus "
                            "boundary blow-up fits")
    r.add_argument("--n", type=int, default=6, help="dimension (>= 5)")
    r.add_argument("--radius", type=float, default=1.0)
    r.add_argument("--stations", type=int, default=21,
                   help="odd station count along the diameter")
    r.add_argument("--out", default=os.path.join("runs", "robin"))

    v = sub.add_parser("verify-blowup",
                       help="run the law-seeded sweep and judge the "
                            "blow-up laws")
    _add_run_flags(v, "decreasing positive offsets")

    s = sub.add_parser("supercritical",
                       help="obstruction certificate, Pohozaev probe "
                            "and subcritical contrast")
    _add_run_flags(s, "positive supercritical offsets")

    e = sub.add_parser("expansion-orders",
                       help="fit the deficit decay exponents over a "
                            "scale ladder")
    e.add_argument("--n", type=int, default=6, help="dimension (>= 5)")
    e.add_argument("--radius", type=float, default=1.0)
    e.add_argument("--rungs", type=int, default=6)
    e.add_argument("--lam-min", type=float, default=60.0)
    e.add_argument("--out", default=os.path.join("runs",
                                                 "expansion-orders"))
    return parser


def _add_run_flags(parser, eps_help):
    """The run flags verify-blowup and supercritical share. Each but
    --config stores into the RunConfig field it sets."""
    parser.add_argument("--config", default=None,
                        help="JSON run configuration (excludes other run "
                             "flags)")
    parser.add_argument("--n", type=int)
    parser.add_argument("--radius", type=float)
    parser.add_argument("--eps", dest="eps_schedule", type=float, nargs="+",
                        help=eps_help)
    parser.add_argument("--grid-nodes", type=int)
    parser.add_argument("--out", dest="out_dir")


def _config_from_args(args, default_schedule):
    """Build the run configuration from --config or from flags; mixing
    the two is rejected so the on-disk file stays authoritative, except
    --out, which replaces the file's out_dir. Fields no flag sets keep
    the RunConfig defaults."""
    explicit = {f.name: getattr(args, f.name) for f in fields(RunConfig)
                if getattr(args, f.name) is not None}
    if args.config is not None:
        flags = sorted(set(explicit) - {"out_dir"})
        if flags:
            raise CliError("--config excludes the run flags (%s)"
                           % ", ".join(flags))
        config = RunConfig.from_json(args.config)
        if "out_dir" in explicit:
            config = replace(config, out_dir=explicit["out_dir"])
        return config
    return RunConfig(**{"eps_schedule": default_schedule, **explicit})


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "constants":
            return cmd_constants(args.n, out_dir=args.out)
        if args.command == "robin":
            return cmd_robin(args.n, args.radius, args.stations, args.out)
        if args.command == "verify-blowup":
            config = _config_from_args(args, DEFAULT_SCHEDULE)
            out = os.path.join(config.out_dir, "verify-blowup")
            return cmd_verify_blowup(config, out)
        if args.command == "supercritical":
            if args.eps_schedule is not None:
                args.eps_schedule = sorted(set(args.eps_schedule),
                                           reverse=True)
            config = _config_from_args(args, (0.09, 0.05, 0.02))
            out = os.path.join(config.out_dir, "supercritical")
            return cmd_supercritical(config, out)
        if args.command == "expansion-orders":
            return cmd_expansion_orders(args.n, args.radius, args.rungs,
                                        args.lam_min, args.out)
        raise AssertionError("unreachable subcommand %r" % args.command)
    except CliError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
