"""Acceptance gate: the nine headline checks, each at its stated
tolerance, each emitting exactly one pass/fail line.

Every criterion is computed from the public library surface, never
from internals, so this module doubles as an end-to-end exercise of
the package. Heavy artifacts (the reference subcritical sweep) come
from the session fixtures and are shared with the module tests; run
with -s (or read captured stdout) to see the per-criterion lines.
"""

import math

import numpy as np
import pytest

from navier_bubbles.bubble import (BubbleParams, balance_constants,
                                   critical_exponent, eval_delta,
                                   radial_profile,
                                   radial_profile_laplacian,
                                   sobolev_energy)
from navier_bubbles.green_robin import (BallDomain, boundary_blowup_fit,
                                        robin)
from navier_bubbles.numerics import (RadialGrid, radial_bilaplacian,
                                     radial_integral)
from navier_bubbles.projection import deficit, expansion_orders
from navier_bubbles.reduction import (blowup_verdict, bubble_quadratic_form,
                                      coercivity_check, solve_reduced_system,
                                      supercritical_obstruction)
from navier_bubbles.solver import supercritical_probe, vnorm_diagnostics


def _report(num, name, ok, detail):
    print("criterion %d (%s): %s - %s"
          % (num, name, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %d (%s) failed: %s" % (num, name, detail)


# ---------------------------------------------------------------------------
# 1. discrete bilaplacian residual of the free profile


def test_criterion_1_bubble_residual():
    results = {}
    ok = True
    for n in (5, 6, 8):
        p = critical_exponent(n)
        errs = []
        for N in (1024, 2048, 4096):
            grid = RadialGrid.arctan_graded(n, N, R=10.0, stretch=0.8)
            r = np.asarray(grid.nodes, dtype=np.longdouble)
            u = radial_profile(n, 1.0, r)
            rhs = u ** np.longdouble(p)
            out = radial_bilaplacian(u, grid)
            errs.append(float(np.max(np.abs(out - rhs))
                              / float(rhs.max())))
        second_order = 3.4 <= errs[0] / errs[1] <= 4.6
        still_falling = errs[1] / errs[2] > 1.2
        small = errs[2] < 1e-6
        ok = ok and second_order and still_falling and small
        results[n] = errs[2]
    detail = ("rel residual at 4096 nodes: " + ", ".join(
        "n=%d %.2e" % (n, results[n]) for n in (5, 6, 8))
        + " (tol 1e-6, refinement ratio in [3.4, 4.6])")
    _report(1, "bubble residual", ok, detail)


# ---------------------------------------------------------------------------
# 2. curvature energy equals critical mass equals the closed form


def test_criterion_2_sobolev_identity():
    ok = True
    gaps = {}
    for n in (5, 6):
        p1 = critical_exponent(n) + 1.0
        energy = radial_integral(
            n, lambda r: radial_profile_laplacian(n, 1.0, r) ** 2)
        mass = radial_integral(
            n, lambda r: radial_profile(n, 1.0, r) ** p1)
        level = sobolev_energy(n)
        gap = max(abs(energy / mass - 1.0), abs(energy / level - 1.0))
        gaps[n] = gap
        ok = ok and gap <= 1e-8
    detail = ("max relative gap " + ", ".join(
        "n=%d %.1e" % (n, gaps[n]) for n in (5, 6)) + " (tol 1e-8)")
    _report(2, "energy identity", ok, detail)


# ---------------------------------------------------------------------------
# 3. closed-form constants


def test_criterion_3_constants():
    consts = balance_constants(6)
    c1_closed = 384.0 ** 1.5 * math.pi ** 3 / 24.0
    c1_ok = abs(consts.c1 / c1_closed - 1.0) <= 1e-9
    half_positive = consts.c2_variant_half > 0
    ratio = consts.c2_variant_full / consts.c2_variant_half
    ratio_ok = abs(ratio + 2.0) <= 1e-9
    ok = c1_ok and half_positive and ratio_ok
    detail = ("c1 rel err %.1e (tol 1e-9), half variant %+.7g > 0, "
              "variant ratio %#.4g"
              % (abs(consts.c1 / c1_closed - 1.0),
                 consts.c2_variant_half, ratio))
    _report(3, "constants", ok, detail)


# ---------------------------------------------------------------------------
# 4. potential at the center, dilation covariance, boundary rates


def test_criterion_4_robin_function():
    ok = True
    center_errs = {}
    for n in (5, 6, 8):
        ball = BallDomain.unit(n)
        phi0 = robin(ball, ball.center).phi
        target = (2.0 * n - 4.0) / n
        err = abs(phi0 / target - 1.0)
        center_errs[n] = err
        ok = ok and err <= 1e-4
    R = 1.7
    scaled = BallDomain(6, np.zeros(6), R)
    phi_scaled = robin(scaled, scaled.center).phi
    phi_unit = robin(BallDomain.unit(6), np.zeros(6)).phi
    dil_err = abs(phi_scaled / (R ** (4 - 6) * phi_unit) - 1.0)
    ok = ok and dil_err <= 1e-6
    fits = boundary_blowup_fit(BallDomain.unit(6))
    phi_ok = abs(fits.phi.slope - (-2.0)) <= 0.15
    grad_ok = abs(fits.grad_norm.slope - (-3.0)) <= 0.2
    ok = ok and phi_ok and grad_ok
    detail = ("center rel err " + ", ".join(
        "n=%d %.1e" % (n, center_errs[n]) for n in (5, 6, 8))
        + " (tol 1e-4); dilation err %.1e (tol 1e-6); slopes "
          "%.3f/%.3f (targets -2+-0.15, -3+-0.2)"
        % (dil_err, fits.phi.slope, fits.grad_norm.slope))
    _report(4, "potential on balls", ok, detail)


# ---------------------------------------------------------------------------
# 5. deficit decay orders and pointwise squeeze


def test_criterion_5_projection_orders():
    ball = BallDomain.unit(6)
    lams = 60.0 * 10 ** np.linspace(0.0, 1.6, 5)
    family = [BubbleParams(a=ball.center, lam=float(l), n=6)
              for l in lams]
    fits = expansion_orders(family, ball)
    energy_ok = abs(fits.energy_norm.slope - (-1.0)) <= 0.2
    remainder_ok = abs(fits.remainder_sup.slope - (-3.0)) <= 0.3

    params = family[0]
    squeeze_ok = True
    axis = np.zeros(6)
    axis[0] = 1.0
    for frac in np.linspace(0.0, 0.95, 40):
        x = ball.center + frac * axis
        theta = deficit(params, ball, x)
        delta = eval_delta(params, x)
        if theta < -1e-12 or theta > delta * (1 + 1e-9) + 1e-12:
            squeeze_ok = False
            break
    ok = energy_ok and remainder_ok and squeeze_ok
    detail = ("deficit exponents %.3f (target -1+-0.2) and %.3f "
              "(target -3+-0.3); 0 <= theta <= delta at 40 stations: %s"
              % (fits.energy_norm.slope, fits.remainder_sup.slope,
                 squeeze_ok))
    _report(5, "projection orders", ok, detail)


# ---------------------------------------------------------------------------
# 6. subcritical sweep laws


def test_criterion_6_blowup_law(unit_ball6, subcritical_sweep,
                                sweep_decompositions):
    consts = balance_constants(6)
    final_sol = subcritical_sweep[-1]
    final_dec = sweep_decompositions[-1]
    level = sobolev_energy(6)
    energy = final_sol.energy_norm_sq()
    mass = final_sol.nonlinear_mass()
    a_ok = (abs(energy / level - 1.0) <= 0.05
            and abs(mass / level - 1.0) <= 0.05)

    vnorms = [d.v_norm for d in sweep_decompositions]
    decreasing = all(b < a for a, b in zip(vnorms, vnorms[1:]))
    diag = vnorm_diagnostics(sweep_decompositions,
                             [abs(s.eps) for s in subcritical_sweep])
    uniform = max(diag.ratios) / min(diag.ratios) <= 2.0
    b_ok = decreasing and uniform

    c_ok = abs(final_dec.alpha - 1.0) < 0.05
    peak_ratio = final_sol.M / (consts.c0 * final_dec.lam)
    d_ok = 0.9 <= peak_ratio <= 1.1

    verdict = blowup_verdict(
        [(s.eps, d, s.M) for s, d in zip(subcritical_sweep,
                                         sweep_decompositions)],
        unit_ball6.center, unit_ball6, consts=consts)
    e_ok = verdict.verdict and verdict.peak_ok and verdict.scale_ok

    ok = a_ok and b_ok and c_ok and d_ok and e_ok
    detail = ("energies %.0f/%.0f vs %.0f (5%%); remainder decreasing "
              "with ratio spread %.2f (<= 2); final alpha %.4f "
              "(+-0.05); peak ratio %.4f ([0.9, 1.1]); extrapolated "
              "laws within 15%% of the positive-c2 targets"
              % (energy, mass, level, max(diag.ratios) / min(diag.ratios),
                 final_dec.alpha, peak_ratio))
    _report(6, "blow-up law", ok, detail)


# ---------------------------------------------------------------------------
# 7. reduced balance system


def test_criterion_7_reduced_system(unit_ball6):
    offsets = (0.05, 0.02, 0.01)
    states = [solve_reduced_system(e, unit_ball6.center, unit_ball6)
              for e in offsets]
    contraction = all(max(s.ratios) < 1.0 for s in states)
    k_beta = [abs(s.beta) / (e * abs(math.log(e)))
              for s, e in zip(states, offsets)]
    k_rho = [abs(s.rho) / math.sqrt(e) for s, e in zip(states, offsets)]
    beta_stable = all(0.5 * np.mean(k_beta) <= k <= 1.5 * np.mean(k_beta)
                      for k in k_beta)
    rho_stable = all(0.5 * np.mean(k_rho) <= k <= 1.5 * np.mean(k_rho)
                     for k in k_rho)
    ok = contraction and beta_stable and rho_stable
    detail = ("contraction ratios all < 1: %s; K_beta %s and K_rho %s "
              "each within +-50%% of their means"
              % (contraction,
                 "/".join("%.2e" % k for k in k_beta),
                 "/".join("%.2e" % k for k in k_rho)))
    _report(7, "reduced system", ok, detail)


# ---------------------------------------------------------------------------
# 8. supercritical obstruction and contrast


def test_criterion_8_supercritical_obstruction(unit_ball6,
                                               subcritical_sweep,
                                               sweep_decompositions):
    eps_list = [0.02, 0.05, 0.09]
    report = supercritical_obstruction(eps_list, unit_ball6)
    consts = balance_constants(6)
    floor_ok = all(e.positive and e.scan_min >= e.floor
                   and abs(e.floor - consts.c2 * e.eps) <= 1e-12 * e.floor
                   for e in report.entries)

    probe = supercritical_probe(eps_list, unit_ball6)
    probe_ok = not probe.any_concentrating

    idx = [abs(s.eps) for s in subcritical_sweep].index(0.02)
    sol, dec = subcritical_sweep[idx], sweep_decompositions[idx]
    v_rel = dec.v_norm / math.sqrt(sol.energy_norm_sq())
    d = unit_ball6.radius - float(np.linalg.norm(dec.a))
    triple = (v_rel < 0.1 and abs(dec.alpha - 1.0) < 0.1
              and dec.lam * d > 20.0)
    ok = floor_ok and probe_ok and triple
    detail = ("scan min >= c2*eps at all offsets: %s; no concentrating "
              "supercritical branch: %s; matched subcritical triple at "
              "eps 0.02 (v_rel %.4f, alpha %.4f, lam*d %.1f): %s"
              % (floor_ok, probe_ok, v_rel, dec.alpha, dec.lam * d,
                 triple))
    _report(8, "supercritical obstruction", ok, detail)


# ---------------------------------------------------------------------------
# 9. constrained coercivity


def test_criterion_9_coercivity(unit_ball6):
    gaps = {}
    ok = True
    for lam in (10.0, 20.0, 40.0):
        params = BubbleParams(a=unit_ball6.center, lam=lam, n=6)
        gap = coercivity_check(params, unit_ball6, trial_count=40)
        gaps[lam] = gap
        ok = ok and gap >= 0.05
    params40 = BubbleParams(a=unit_ball6.center, lam=40.0, n=6)
    doubled = coercivity_check(params40, unit_ball6, trial_count=80)
    stable = abs(doubled / gaps[40.0] - 1.0) <= 1e-2
    negative_dir = bubble_quadratic_form(
        BubbleParams(a=unit_ball6.center, lam=10.0, n=6), unit_ball6) < 0
    ok = ok and stable and negative_dir
    detail = ("gaps %s (all >= 0.05); doubling drift %.1e (<= 1e-2); "
              "unconstrained direction negative: %s"
              % ("/".join("%.4f" % gaps[l] for l in (10.0, 20.0, 40.0)),
                 abs(doubled / gaps[40.0] - 1.0), negative_dir))
    _report(9, "constrained coercivity", ok, detail)
