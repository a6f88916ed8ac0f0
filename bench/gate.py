"""The nine acceptance criteria as benchmark steps.

Each criterion makes the same public-library calls, with the same
arguments and tolerances, as the acceptance tests of the package. The
benchmark keeps its own copy so that editing a test cannot change the
workload. A criterion returns ``(passed, tracked)``: its verdict and the
outputs whose drift against the frozen references is reported.

``build_sweep`` is the reference 7-offset sweep with its
decompositions, the same object the test fixtures build; criteria 6
and 8 read it from the shared ``state`` dictionary.
"""

import math

import numpy as np

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
from navier_bubbles.solver import (continuation_sweep, decompose,
                                   supercritical_probe, vnorm_diagnostics)

SWEEP_OFFSETS = (0.3, 0.2, 0.1, 0.05, 0.02, 0.01, 0.005)


def build_sweep(state):
    ball = BallDomain.unit(6)
    sweep = continuation_sweep(list(SWEEP_OFFSETS), ball)
    state["sweep"] = sweep
    state["decompositions"] = [decompose(s, ball) for s in sweep]
    return {"M_last": float(sweep[-1].M),
            "lam_last": float(state["decompositions"][-1].lam)}


def criterion_1(state):
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
    return ok, {}


def criterion_2(state):
    ok = True
    for n in (5, 6):
        p1 = critical_exponent(n) + 1.0
        energy = radial_integral(
            n, lambda r: radial_profile_laplacian(n, 1.0, r) ** 2)
        mass = radial_integral(
            n, lambda r: radial_profile(n, 1.0, r) ** p1)
        level = sobolev_energy(n)
        gap = max(abs(energy / mass - 1.0), abs(energy / level - 1.0))
        ok = ok and gap <= 1e-8
    return ok, {}


def criterion_3(state):
    consts = balance_constants(6)
    c1_closed = 384.0 ** 1.5 * math.pi ** 3 / 24.0
    c1_ok = abs(consts.c1 / c1_closed - 1.0) <= 1e-9
    half_positive = consts.c2_variant_half > 0
    ratio = consts.c2_variant_full / consts.c2_variant_half
    ratio_ok = abs(ratio + 2.0) <= 1e-9
    return (c1_ok and half_positive and ratio_ok,
            {"c1": float(consts.c1), "c2": float(consts.c2)})


def criterion_4(state):
    ok = True
    tracked = {}
    for n in (5, 6, 8):
        ball = BallDomain.unit(n)
        phi0 = robin(ball, ball.center).phi
        if n == 6:
            tracked["phi0"] = float(phi0)
        target = (2.0 * n - 4.0) / n
        ok = ok and abs(phi0 / target - 1.0) <= 1e-4
    R = 1.7
    scaled = BallDomain(6, np.zeros(6), R)
    phi_scaled = robin(scaled, scaled.center).phi
    phi_unit = robin(BallDomain.unit(6), np.zeros(6)).phi
    dil_err = abs(phi_scaled / (R ** (4 - 6) * phi_unit) - 1.0)
    ok = ok and dil_err <= 1e-6
    fits = boundary_blowup_fit(BallDomain.unit(6))
    phi_ok = abs(fits.phi.slope - (-2.0)) <= 0.15
    grad_ok = abs(fits.grad_norm.slope - (-3.0)) <= 0.2
    return ok and phi_ok and grad_ok, tracked


def criterion_5(state):
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
    return energy_ok and remainder_ok and squeeze_ok, {}


def criterion_6(state):
    ball = BallDomain.unit(6)
    sweep, decomps = state["sweep"], state["decompositions"]
    consts = balance_constants(6)
    final_sol = sweep[-1]
    final_dec = decomps[-1]
    level = sobolev_energy(6)
    energy = final_sol.energy_norm_sq()
    mass = final_sol.nonlinear_mass()
    a_ok = (abs(energy / level - 1.0) <= 0.05
            and abs(mass / level - 1.0) <= 0.05)

    vnorms = [d.v_norm for d in decomps]
    decreasing = all(b < a for a, b in zip(vnorms, vnorms[1:]))
    diag = vnorm_diagnostics(decomps, [abs(s.eps) for s in sweep])
    uniform = max(diag.ratios) / min(diag.ratios) <= 2.0
    b_ok = decreasing and uniform

    c_ok = abs(final_dec.alpha - 1.0) < 0.05
    peak_ratio = final_sol.M / (consts.c0 * final_dec.lam)
    d_ok = 0.9 <= peak_ratio <= 1.1

    verdict = blowup_verdict(
        [(s.eps, d, s.M) for s, d in zip(sweep, decomps)],
        ball.center, ball, consts=consts)
    e_ok = verdict.verdict and verdict.peak_ok and verdict.scale_ok
    return a_ok and b_ok and c_ok and d_ok and e_ok, {}


def criterion_7(state):
    ball = BallDomain.unit(6)
    offsets = (0.05, 0.02, 0.01)
    states = [solve_reduced_system(e, ball.center, ball) for e in offsets]
    contraction = all(max(s.ratios) < 1.0 for s in states)
    k_beta = [abs(s.beta) / (e * abs(math.log(e)))
              for s, e in zip(states, offsets)]
    k_rho = [abs(s.rho) / math.sqrt(e) for s, e in zip(states, offsets)]
    beta_stable = all(0.5 * np.mean(k_beta) <= k <= 1.5 * np.mean(k_beta)
                      for k in k_beta)
    rho_stable = all(0.5 * np.mean(k_rho) <= k <= 1.5 * np.mean(k_rho)
                     for k in k_rho)
    tracked = {}
    for s, e in zip(states, offsets):
        tracked["beta@%g" % e] = float(s.beta)
        tracked["rho@%g" % e] = float(s.rho)
    return contraction and beta_stable and rho_stable, tracked


def criterion_8(state):
    ball = BallDomain.unit(6)
    sweep, decomps = state["sweep"], state["decompositions"]
    eps_list = [0.02, 0.05, 0.09]
    report = supercritical_obstruction(eps_list, ball)
    consts = balance_constants(6)
    floor_ok = all(e.positive and e.scan_min >= e.floor
                   and abs(e.floor - consts.c2 * e.eps) <= 1e-12 * e.floor
                   for e in report.entries)

    probe = supercritical_probe(eps_list, ball)
    probe_ok = not probe.any_concentrating

    idx = [abs(s.eps) for s in sweep].index(0.02)
    sol, dec = sweep[idx], decomps[idx]
    v_rel = dec.v_norm / math.sqrt(sol.energy_norm_sq())
    d = ball.radius - float(np.linalg.norm(dec.a))
    triple = (v_rel < 0.1 and abs(dec.alpha - 1.0) < 0.1
              and dec.lam * d > 20.0)
    tracked = {"margin@%g" % e.eps: float(e.margin) for e in report.entries}
    return floor_ok and probe_ok and triple, tracked


def criterion_9(state):
    ball = BallDomain.unit(6)
    gaps = {}
    ok = True
    for lam in (10.0, 20.0, 40.0):
        params = BubbleParams(a=ball.center, lam=lam, n=6)
        gap = coercivity_check(params, ball, trial_count=40)
        gaps[lam] = gap
        ok = ok and gap >= 0.05
    params40 = BubbleParams(a=ball.center, lam=40.0, n=6)
    doubled = coercivity_check(params40, ball, trial_count=80)
    stable = abs(doubled / gaps[40.0] - 1.0) <= 1e-2
    negative_dir = bubble_quadratic_form(
        BubbleParams(a=ball.center, lam=10.0, n=6), ball) < 0
    tracked = {"gap@%g" % lam: float(g) for lam, g in gaps.items()}
    return ok and stable and negative_dir, tracked


CRITERIA = (criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
            criterion_6, criterion_7, criterion_8, criterion_9)
