"""Tests for the radial Newton continuation solver.

The oracle for correctness is a two-parameter shooting method coded
here, independent of the production discretization: it integrates the
radial ODE system outward from a series expansion at the origin and
adjusts (u(0), w(0)) until both fields vanish at the boundary. The
discrete defining equation is additionally re-checked with a fresh
loop-built flux stencil, and the grid convergence and exact scaling
covariance pin the discretization order and the radius handling.
"""

import dataclasses
import gc
import math
import weakref
from collections import Counter

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline
from scipy.linalg import solve_banded
from scipy.linalg.lapack import dgbsv
from scipy.optimize import fsolve, minimize_scalar

from navier_bubbles import solver as solver_module
from navier_bubbles.bubble import (
    _projected_profile,
    _projected_profile_laplacian,
    _projected_scale_derivative_laplacian,
    balance_constants,
    balance_scale,
    c0,
    center_potential,
    critical_exponent,
    law_limits,
    law_scale,
    radial_profile,
    radial_profile_laplacian,
    sobolev_energy,
)
from navier_bubbles.green_robin import BallDomain
from navier_bubbles.numerics import RadialGrid
from navier_bubbles.solver import (
    NEWTON_TOL,
    BubbleGuess,
    ContinuationError,
    Decomposition,
    NewtonAttempt,
    RadialSolution,
    SolverDivergence,
    _bubble_fields,
    _cell_weights,
    _Discretization,
    _fv_geometry,
    _grid_arrays,
    _law_seed,
    _newton_step,
    _pohozaev_sides,
    concentration_checks,
    continuation_sweep,
    decompose,
    default_grid,
    solve_radial,
    supercritical_probe,
    vnorm_diagnostics,
)

N6 = 6
P6 = 5.0  # (n+4)/(n-4) at n = 6


# ---------------------------------------------------------------------------
# oracles


def shooting_profile(n, q, U0_guess, W0_guess, r_eval, R=1.0):
    """Independent shooting solve of u'' + (n-1)/r u' = w,
    w'' + (n-1)/r w' = u^q with u(R) = w(R) = 0.

    Starts from the even series u = U0 + W0 r^2/(2n) + ..., integrates
    with a high-order explicit scheme at tight tolerance, and solves the
    two boundary conditions for (U0, W0). Returns the root, the profile
    at r_eval, and the fsolve status flag.
    """
    r0 = 1e-8

    def rhs(r, y):
        u, up, w, wp = y
        return [up, w - (n - 1) / r * up, wp,
                np.abs(u) ** q * np.sign(u) - (n - 1) / r * wp]

    def series_start(U0, W0):
        return [
            U0 + W0 * r0**2 / (2 * n),
            W0 * r0 / n,
            W0 + np.abs(U0) ** q * r0**2 / (2 * n),
            np.abs(U0) ** q * r0 / n,
        ]

    def boundary_defect(z):
        U0, W0 = z
        sol = solve_ivp(rhs, (r0, R), series_start(U0, W0), method="DOP853",
                        rtol=1e-12, atol=1e-12)
        return [sol.y[0, -1] / U0, sol.y[2, -1] / abs(W0)]

    root, _, status, _ = fsolve(boundary_defect, [U0_guess, W0_guess],
                                full_output=True, xtol=1e-13)
    dense = solve_ivp(rhs, (r0, R), series_start(*root), method="DOP853",
                      rtol=1e-13, atol=1e-13, dense_output=True)
    profile = dense.sol(np.clip(r_eval, r0, R))[0]
    return root, profile, status


def loop_flux_laplacian(r, n):
    """Plain-python reimplementation of the conservative radial stencil,
    kept deliberately naive: faces at midpoints, flux differences over
    exact shell volumes. Used only to re-check the defining equation."""
    N = len(r)
    out_rows = []
    for i in range(N - 1):
        if i == 0:
            f_hi = 0.5 * (r[0] + r[1])
            vol = f_hi**n / n
            flux_lo_coeff = None
        else:
            f_lo = 0.5 * (r[i - 1] + r[i])
            f_hi = 0.5 * (r[i] + r[i + 1])
            vol = (f_hi**n - f_lo**n) / n
            flux_lo_coeff = f_lo ** (n - 1) / (r[i] - r[i - 1])
        flux_hi_coeff = f_hi ** (n - 1) / (r[i + 1] - r[i])
        out_rows.append((flux_lo_coeff, flux_hi_coeff, vol))

    def apply(u):
        out = np.zeros(N - 1)
        for i, (clo, chi, vol) in enumerate(out_rows):
            acc = chi * (u[i + 1] - u[i])
            if clo is not None:
                acc -= clo * (u[i] - u[i - 1])
            out[i] = acc / vol
        return out

    return apply


def declared_solution(grid, u, w, eps=-0.05):
    """Fields declared a solution as they are: one Newton record with no
    step taken and a zero residual."""
    return RadialSolution(grid=grid, u=u, w=w, eps=eps,
                          attempt=NewtonAttempt(((0.0, None),), "converged"))


def ladder_to_easy(ball, grid=None):
    """Continue the bubble branch upward to exponent 3 (offset 2.0).

    The tail is deliberately dense: a direct 1.6 -> 2.0 step makes the
    damped iteration slide onto the zero branch, which the solver then
    reports as a collapse."""
    sol = solve_radial(-0.3, ball, BubbleGuess(lam=math.sqrt(20 / 0.3)),
                       grid=grid)
    for e in (0.5, 0.8, 1.2, 1.6, 1.8, 2.0):
        sol = solve_radial(-e, ball, (sol.u, sol.w), grid=sol.grid)
    return sol


@pytest.fixture(scope="module")
def easy_solution(unit_ball6):
    return ladder_to_easy(unit_ball6)


# ---------------------------------------------------------------------------
# construction and validation


def test_bubble_guess_validation():
    with pytest.raises(ValueError):
        BubbleGuess(lam=-1.0)
    with pytest.raises(ValueError):
        BubbleGuess(lam=5.0, amplitude=0.0)


def test_solve_radial_preconditions(unit_ball6):
    with pytest.raises(ValueError, match="below p - 1"):
        solve_radial(-4.0, unit_ball6, BubbleGuess(lam=5.0))
    # nonpositive initial iterate
    grid = default_grid(unit_ball6, nodes=256)
    u0 = np.ones(len(grid))
    u0[3] = -1.0
    u0[-1] = 0.0
    w0 = np.zeros(len(grid))
    with pytest.raises(ValueError, match="positive"):
        solve_radial(-0.3, unit_ball6, (u0, w0), grid=grid)
    # grid/domain mismatch
    wrong = RadialGrid.sinh_graded(5, 256)
    with pytest.raises(ValueError, match="does not match"):
        solve_radial(-0.3, unit_ball6, BubbleGuess(lam=8.0), grid=wrong)


def test_solution_invariants_enforced(unit_ball6):
    grid = default_grid(unit_ball6, nodes=256)
    u, w = np.ones(len(grid)), -np.ones(len(grid))
    u[-1] = 0.0
    w[-1] = 0.0
    good = dict(grid=grid, u=u, w=w, eps=-0.1,
                attempt=NewtonAttempt(((1e-3, 1.0), (0.0, None)),
                                      "converged"))
    sol = RadialSolution(**good)
    # peak, residual and step count are read from u and the one attempt
    assert (sol.M, sol.residual, sol.newton_iters) == (1.0, 0.0, 1)
    bad = dict(good)
    bad["u"] = u.copy()
    bad["u"][5] = -1.0
    with pytest.raises(ValueError, match="positive"):
        RadialSolution(**bad)
    bad = dict(good)
    bad["w"] = w.copy()
    bad["w"][-1] = 0.5
    with pytest.raises(ValueError, match="vanish"):
        RadialSolution(**bad)
    bad = dict(good)
    bad["attempt"] = NewtonAttempt(((1e-3, None),), "cap")
    with pytest.raises(ValueError, match="tolerance"):
        RadialSolution(**bad)


def test_records_hold_each_fact_once():
    # a solve's residuals, steps and peak live in its attempt and fields
    # only; the decomposition does not copy the offset
    assert NewtonAttempt._fields == ("iterations", "exit")
    assert [f.name for f in dataclasses.fields(RadialSolution)] == [
        "grid", "u", "w", "eps", "attempt", "tolerance"]
    assert "eps" not in {f.name for f in dataclasses.fields(Decomposition)}


# ---------------------------------------------------------------------------
# solving


def test_cold_start_easy_offset(unit_ball6):
    sol = solve_radial(-0.3, unit_ball6, BubbleGuess(lam=math.sqrt(20 / 0.3)))
    assert sol.residual <= 1e-10
    assert sol.newton_iters <= 12
    assert sol.eps == -0.3
    # frozen regression value on the default 2048-node grid
    assert math.isclose(sol.M, 43.997853, rel_tol=1e-6)
    assert sol.M == sol.u[0]


def test_matches_shooting_oracle_in_easy_regime(unit_ball6, easy_solution):
    # exponent 3: broad profile, the regime where every method is
    # comfortable. The discrete family is second order, so compare the
    # Richardson extrapolant of the 2048/4096 profiles to the oracle.
    coarse = easy_solution
    fine_grid = default_grid(unit_ball6, nodes=4096)
    u0, w0 = (np.interp(fine_grid.nodes, coarse.grid.nodes, f)
              for f in (coarse.u, coarse.w))
    u0[-1] = w0[-1] = 0.0
    fine = solve_radial(-2.0, unit_ball6, (u0, w0), grid=fine_grid)
    root, oracle, status = shooting_profile(
        N6, 3.0, coarse.M, coarse.w[0], coarse.grid.nodes
    )
    assert status == 1
    fine_on_coarse = CubicSpline(fine.grid.nodes, fine.u)(coarse.grid.nodes)
    extrapolated = (4.0 * fine_on_coarse - coarse.u) / 3.0
    sup_gap = np.max(np.abs(extrapolated - oracle))
    assert sup_gap <= 1e-6 * coarse.M
    # and the raw fine-grid profile is already within a few truncation
    # units of the oracle
    _, oracle_fine, _ = shooting_profile(N6, 3.0, fine.M, fine.w[0],
                                         fine.grid.nodes)
    assert np.max(np.abs(fine.u - oracle_fine)) <= 5e-6 * fine.M


def test_defining_equation_under_independent_stencil(subcritical_sweep):
    sol = subcritical_sweep[3]  # eps = -0.05
    q = P6 + sol.eps
    apply_lap = loop_flux_laplacian(sol.grid.nodes, N6)
    interior_u = apply_lap(sol.u) - sol.w[:-1]
    interior_w = apply_lap(sol.w) - np.abs(sol.u[:-1]) ** q
    rhs_scale = np.max(sol.u**q)
    assert np.max(np.abs(interior_w)) <= 1e-8 * rhs_scale
    assert np.max(np.abs(interior_u)) <= 1e-8 * np.max(np.abs(sol.w))


def test_energy_identity_along_sweep(subcritical_sweep):
    # sum V w^2 == sum V u^{q+1} is exact for the continuum problem and
    # survives discretization because the flux Laplacian is self-adjoint
    # in the cell-volume inner product
    for sol in subcritical_sweep:
        gap = abs(sol.energy_norm_sq() / sol.nonlinear_mass() - 1.0)
        assert gap <= 1e-6


def test_sweep_monotone_blowup(subcritical_sweep):
    Ms = [s.M for s in subcritical_sweep]
    assert all(b > a for a, b in zip(Ms, Ms[1:]))
    assert all(s.eps < 0 for s in subcritical_sweep)
    assert all(s.residual <= s.tolerance for s in subcritical_sweep)


def test_sweep_energy_approaches_bubble_energy(subcritical_sweep):
    target = sobolev_energy(N6)
    gaps = [s.energy_norm_sq() / target - 1.0 for s in subcritical_sweep]
    assert all(g > 0 for g in gaps)
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 0.05
    mass_gaps = [s.nonlinear_mass() / target - 1.0 for s in subcritical_sweep]
    assert abs(mass_gaps[-1]) < 0.05


def test_sobolev_quotient_reports_hypothesis(subcritical_sweep):
    # the ratio ||u||^2 / |u|^2_{q+1} should drift down toward the best
    # Sobolev constant; a numeric check, not a proof
    S = sobolev_energy(N6) ** (2.0 / 3.0)
    p = critical_exponent(N6)
    quotients = [s.energy_norm_sq()
                 / s.nonlinear_mass() ** (2.0 / (p + s.eps + 1))
                 for s in subcritical_sweep]
    assert all(b < a for a, b in zip(quotients, quotients[1:]))
    assert abs(quotients[-1] / S - 1.0) < 0.01


def test_sweep_validation(unit_ball6):
    with pytest.raises(ValueError, match="decrease"):
        continuation_sweep([0.3, 0.3], unit_ball6)
    with pytest.raises(ValueError, match="positive"):
        continuation_sweep([0.3, -0.1], unit_ball6)
    with pytest.raises(ValueError, match="resolution floor"):
        continuation_sweep([0.3, 0.004], unit_ball6)
    with pytest.raises(ValueError, match="below any supported"):
        continuation_sweep([0.3, 0.001], unit_ball6,
                           grid=default_grid(unit_ball6, nodes=4200))


def test_grid_refinement_ratio(unit_ball6):
    Ms = {}
    for nodes in (1024, 2048, 4096):
        sol = solve_radial(-0.1, unit_ball6, BubbleGuess(lam=math.sqrt(200.0)),
                           grid=default_grid(unit_ball6, nodes=nodes))
        Ms[nodes] = sol.M
    ratio = (Ms[1024] - Ms[2048]) / (Ms[2048] - Ms[4096])
    assert 3.5 <= ratio <= 4.5


def test_subcritical_solutions_radially_decreasing(subcritical_sweep):
    for sol in subcritical_sweep:
        steps = np.diff(sol.u)
        assert np.all(steps <= 1e-12 * sol.M)


def test_exact_radius_covariance(unit_ball6):
    # u_R(x) = R^{-4/(q-1)} u(x/R) maps the unit-ball problem to radius
    # R, and the flux discretization commutes with the map exactly, so
    # the two computed maxima agree to solver tolerance, not truncation
    ball2 = BallDomain(6, np.zeros(6), 2.0)
    sol1 = solve_radial(-0.3, unit_ball6, BubbleGuess(lam=math.sqrt(20 / 0.3)))
    sol2 = solve_radial(-0.3, ball2,
                        BubbleGuess(lam=math.sqrt(20 / 0.3) / 2.0),
                        grid=default_grid(ball2))
    q = P6 - 0.3
    scale = 2.0 ** (-4.0 / (q - 1.0))
    assert abs(sol2.M / (scale * sol1.M) - 1.0) < 1e-6


def test_divergence_reports_last_iterate(unit_ball6):
    with pytest.raises(SolverDivergence) as err:
        solve_radial(+0.05, unit_ball6, BubbleGuess(lam=20.0))
    last = err.value.last
    assert isinstance(last, RadialSolution)
    assert np.all(last.u[:-1] > 0)
    assert last.residual > 1e-10


def test_trivial_branch_collapse_detected(unit_ball6):
    sol = solve_radial(-0.3, unit_ball6, BubbleGuess(lam=math.sqrt(20 / 0.3)))
    for e in (0.5, 0.8, 1.2, 1.6):
        sol = solve_radial(-e, unit_ball6, (sol.u, sol.w), grid=sol.grid)
    with pytest.raises(SolverDivergence, match="zero branch") as err:
        solve_radial(-2.0, unit_ball6, (sol.u, sol.w), grid=sol.grid)
    assert err.value.last.attempt.exit == "collapsed"


def test_solution_is_not_an_init(unit_ball6, subcritical_sweep):
    # a solve continues from a solution's fields on the solution's grid;
    # the solution itself is not a kind of init
    sol = subcritical_sweep[0]
    with pytest.raises(TypeError):
        solve_radial(sol.eps, unit_ball6, sol, grid=sol.grid)


def test_line_search_stall_is_named(unit_ball6, monkeypatch):
    # at eps = +0.02 from the bubble at the balance scale the scaled
    # residual plateaus near 4.4e-6; given room, the line search itself
    # runs out of Armijo decrease before the cap
    monkeypatch.setattr(solver_module, "NEWTON_MAX_STEPS", 120)
    guess = BubbleGuess(lam=balance_scale(balance_constants(6),
                                          center_potential(6), 0.02))
    with pytest.raises(SolverDivergence) as err:
        solve_radial(+0.02, unit_ball6, guess)
    message = str(err.value)
    assert message.startswith("line search found no Armijo decrease at "
                              "iteration ")
    assert "iteration cap" not in message
    last = err.value.last
    assert 40 < last.newton_iters < 120
    assert np.all(last.u[:-1] > 0)


def failing_gbsv(info, fill=0.0):
    """A stand-in for LAPACK gbsv that reports info and returns a solution
    of fill values."""
    def gbsv(kl, ku, ab, b, **kwargs):
        return ab, np.zeros(b.size, dtype=np.int32), np.full(b.size, fill), info
    return gbsv


@pytest.mark.parametrize("broken", ["raise", "nan"])
def test_singular_banded_step_fails_with_last_iterate(unit_ball6,
                                                      monkeypatch, broken):
    # "raise": gbsv reports a zero pivot (info > 0), the case a banded
    # solver raises on; "nan": it returns a non-finite solution
    bad = failing_gbsv(1) if broken == "raise" else failing_gbsv(0, np.nan)
    monkeypatch.setattr("scipy.linalg.lapack.dgbsv", bad)
    grid = default_grid(unit_ball6, nodes=256)
    u0, w0 = _bubble_fields(grid, math.sqrt(20 / 0.3))
    with pytest.raises(SolverDivergence, match="singular or non-finite") as err:
        solve_radial(-0.3, unit_ball6, (u0, w0), grid=grid)
    last = err.value.last
    assert last.newton_iters == 0
    assert np.array_equal(last.u[:-1], u0[:-1])
    assert np.all(np.isfinite(last.u)) and np.all(last.u[:-1] > 0)


# ---------------------------------------------------------------------------
# law seeds and the pinned Newton exit

FINE_OFFSETS = (0.3, 0.2, 0.1, 0.05, 0.02, 0.01, 0.005, 0.003, 0.002)


def total_newton_iters(sweep):
    """Newton steps over the one attempt of each solution of a sweep."""
    return sum(len(sol.attempt.iterations) - 1 for sol in sweep)


@pytest.fixture(scope="module")
def forced_jump(unit_ball6):
    # 0.1 -> 0.005 in one step: every offset is solved from its own law
    # seed, so the gaps of the schedule do not matter
    return continuation_sweep([0.3, 0.1, 0.005], unit_ball6)


def assert_one_law_solve_each(sweep):
    for sol in sweep:
        assert sol.attempt.exit == "converged"
        assert sol.newton_iters == len(sol.attempt.iterations) - 1


def full_system_band(disc, q, u, w):
    """The unreduced Newton system at (u, w), built here from the flux
    diagonals: the (5, 2N) band of the interleaved unknowns (du_0, dw_0,
    du_1, ...), entry (r, c) at band[2 + r - c, c], rows divided by the
    row scales, and its right side."""
    au, uq = np.abs(u), np.abs(u) ** q
    Fu, Fw = disc.residual(u, w, uq)
    su, sw = disc.scales(au, np.abs(w), uq)
    N = u.size
    inv = np.empty(2 * N)
    inv[0::2], inv[1::2] = 1.0 / su, 1.0 / sw
    band = np.zeros((5, 2 * N))

    def put(rows, cols, values):
        band[2 + rows - cols, cols] = values * inv[rows]

    i = np.arange(N)
    for f in (0, 1):
        put(2 * i + f, 2 * i + f, disc.di)
        put(2 * i[1:] + f, 2 * i[1:] - 2 + f, disc.lo[1:])
        put(2 * i[:-1] + f, 2 * i[:-1] + 2 + f, disc.up[:-1])
    put(2 * i, 2 * i + 1, -disc.mask)
    put(2 * i + 1, 2 * i, -disc.mask * q * au ** (q - 1))
    rhs = np.empty(2 * N)
    rhs[0::2], rhs[1::2] = -Fu / su, -Fw / sw
    return band, rhs


def full_banded_step(disc, q, u, w):
    """(du, dw) from scipy's solve_banded on full_system_band."""
    y = solve_banded((2, 2), *full_system_band(disc, q, u, w))
    return y[0::2], y[1::2]


def pinned_peak(sol, steps):
    """The peak after undamped Newton steps from a solution, each solved
    on the unreduced system rather than by the solver's step."""
    disc = _grid_arrays(sol.grid)
    q = critical_exponent(sol.grid.n) + sol.eps
    u, w = sol.u, sol.w
    for _ in range(steps):
        du, dw = full_banded_step(disc, q, u, w)
        u, w = u + du, w + dw
    return u[0]


def test_default_sweep_predicts_without_bisection(subcritical_sweep):
    # measured 35 Newton iterations, 5 per offset
    assert total_newton_iters(subcritical_sweep) <= 40
    assert_one_law_solve_each(subcritical_sweep)


def test_exit_step_kept_whatever_the_seed_bits(unit_ball6, monkeypatch):
    # c1 six ulp up moves the law seeds by round-off; the exit step is
    # kept on its residual below target, not on an order of two residuals
    # near 2e-16, so the sweep still takes 35 steps and keeps every exit
    # step (keeping it only when the residual did not rise gave 34)
    consts = balance_constants(6)
    c1 = consts.c1
    for _ in range(6):
        c1 = math.nextafter(c1, math.inf)
    monkeypatch.setattr(solver_module, "balance_constants",
                        lambda n: dataclasses.replace(consts, c1=c1))
    # the default schedule, as the shared reference sweep
    sweep = continuation_sweep(list(FINE_OFFSETS[:7]), unit_ball6)
    assert total_newton_iters(sweep) == 35
    assert_one_law_solve_each(sweep)
    for sol in sweep:
        (res, damping), (res_exit, _) = sol.attempt.iterations[-2:]
        assert damping == 1.0 and res < sol.tolerance / 10
        assert res_exit < sol.tolerance / 10


def test_fine_schedule_predicts_without_bisection(unit_ball6):
    sweep = continuation_sweep(list(FINE_OFFSETS), unit_ball6,
                               grid=default_grid(unit_ball6, nodes=8192))
    assert total_newton_iters(sweep) == 43
    assert_one_law_solve_each(sweep)


def test_forced_jump_is_route_independent(forced_jump, subcritical_sweep):
    assert_one_law_solve_each(forced_jump)
    assert total_newton_iters(forced_jump) <= 20  # measured 15
    assert forced_jump[-1].eps == -0.005
    # the pinned exit makes the solution independent of the schedule
    assert math.isclose(forced_jump[-1].M, subcritical_sweep[-1].M,
                        rel_tol=1e-9)


def test_single_offset_sweep_matches_the_reference(unit_ball6,
                                                   subcritical_sweep):
    (sol,) = continuation_sweep([0.02], unit_ball6)
    (reference,) = [s for s in subcritical_sweep if s.eps == -0.02]
    assert math.isclose(sol.M, reference.M, rel_tol=1e-9)


@pytest.mark.parametrize("first", [1.0, 0.5])
def test_sweep_starts_far_from_critical(unit_ball6, first):
    # far from critical the law seed still lands in Newton's basin
    sweep = continuation_sweep([first, 0.3, 0.1], unit_ball6)
    assert_one_law_solve_each(sweep)
    assert all(b.M > a.M for a, b in zip(sweep, sweep[1:]))


def test_attempt_record_matches_the_solve(subcritical_sweep):
    for sol in subcritical_sweep:
        record = sol.attempt
        assert record.exit == "converged"
        residuals = [r for r, _ in record.iterations]
        damping = [t for _, t in record.iterations]
        assert len(damping) == sol.newton_iters + 1
        assert damping[-1] is None
        assert residuals[-1] == sol.residual
        assert all(type(r) is float for r in residuals)
        assert all(0 < t <= 1 for t in damping[:-1])
        # the exit step is a full step from below target
        assert damping[-2] == 1.0
        assert residuals[-2] < sol.tolerance / 10


def test_sweep_builds_each_solution_once(unit_ball6, monkeypatch):
    # the sweep returns what solve_radial returns: one RadialSolution,
    # checked once, per offset
    built = []
    post_init = RadialSolution.__post_init__

    def spy(self):
        built.append(self.eps)
        post_init(self)

    monkeypatch.setattr(RadialSolution, "__post_init__", spy)
    sweep = continuation_sweep([0.3, 0.1, 0.02], unit_ball6)
    assert built == [-0.3, -0.1, -0.02]
    assert [sol.eps for sol in sweep] == built


def test_converged_solutions_are_pinned(unit_ball6, subcritical_sweep,
                                        forced_jump, easy_solution):
    # a scaled residual below target alone admits peaks up to 1.5e-6
    # apart on this grid; the exit's extra full step pins the discrete
    # solution, so further Newton steps only move round-off
    cold = solve_radial(-0.3, unit_ball6,
                        BubbleGuess(lam=math.sqrt(20 / 0.3)))
    for sol in (*subcritical_sweep, *forced_jump, easy_solution, cold):
        assert abs(pinned_peak(sol, 3) / sol.M - 1.0) <= 1e-9


@pytest.mark.parametrize("n, nodes", [(6, 32768), (7, 8192)])
def test_fine_grid_solutions_are_pinned(n, nodes):
    # a full step from below target can land short of round-off with the
    # peak still off the discrete one: at n = 6 on 32,768 nodes at 3e-13
    # and 4.1e-6 (eps = 0.05), at n = 7 on 8,192 nodes 4.1e-6 off.
    # Converging only at NEWTON_ROUNDOFF leaves at most 6.2e-8 and 4.2e-9
    # for six more full steps to move
    ball = BallDomain.unit(n)
    sweep = continuation_sweep(list(FINE_OFFSETS), ball,
                               grid=default_grid(ball, nodes=nodes))
    assert_one_law_solve_each(sweep)
    for sol in sweep:
        assert abs(pinned_peak(sol, 6) / sol.M - 1.0) <= 1e-7


def test_singular_step_below_target_fails_with_the_start_iterate(
        unit_ball6, subcritical_sweep, monkeypatch):
    # started at a solution the residual is already below target, but no
    # iterate is converged until a full step from below target reached
    # it: a singular first step fails the solve, with the start as last
    monkeypatch.setattr("scipy.linalg.lapack.dgbsv", failing_gbsv(1))
    sol = subcritical_sweep[3]
    assert sol.residual < NEWTON_TOL / 10
    with pytest.raises(SolverDivergence,
                       match="singular or non-finite") as err:
        solve_radial(sol.eps, unit_ball6, (sol.u, sol.w), grid=sol.grid)
    last = err.value.last
    assert last.newton_iters == 0
    assert np.array_equal(last.u, sol.u) and np.array_equal(last.w, sol.w)
    assert last.attempt.exit == "singular step"
    assert last.attempt.iterations == ((last.residual, None),)


def test_cap_spares_the_full_step_from_below_target(unit_ball6,
                                                    monkeypatch):
    # at eps = 0.3 the fourth step lands below target and the fifth, the
    # full step from there, converges: a cap of four steps lets it
    # through, a cap of three stops the solve above target
    monkeypatch.setattr(solver_module, "NEWTON_MAX_STEPS", 4)
    (sol,) = continuation_sweep([0.3], unit_ball6)
    assert sol.newton_iters == 5 and sol.attempt.exit == "converged"
    monkeypatch.setattr(solver_module, "NEWTON_MAX_STEPS", 3)
    with pytest.raises(ContinuationError, match="iteration cap 3 reached"):
        continuation_sweep([0.3], unit_ball6)


@pytest.mark.parametrize("eps, moved", [(0.003, 3.2e-3), (0.002, 2.2e-3)])
def test_fine_grid_law_seed_below_target_is_not_returned(unit_ball6, eps,
                                                         moved):
    # on 100,000 nodes these law seeds start below target; their full
    # steps leave it, and Newton goes on to a peak well away from the
    # seed's instead of returning the seed unchanged
    grid = default_grid(unit_ball6, nodes=100000)
    peak_limit = law_limits(balance_constants(6), center_potential(6))[1]
    seed_peak = _law_seed(grid, peak_limit, eps)[0][0]
    (sol,) = continuation_sweep([eps], unit_ball6, grid=grid)
    assert sol.newton_iters >= 1
    assert sol.attempt.exit == "converged"
    assert sol.residual < NEWTON_TOL / 10
    assert abs(sol.M / seed_peak - 1.0) == pytest.approx(moved, rel=0.05)
    assert abs(sol.M / seed_peak - 1.0) > 1e-3


# ---------------------------------------------------------------------------
# reduced Newton step


def bubble_system(grid):
    """A discretization at a bubble iterate, exponent p - 0.3."""
    u, w = _bubble_fields(grid, 6.0)
    return _grid_arrays(grid), P6 - 0.3, u, w


@pytest.fixture(scope="module")
def small_grid(unit_ball6):
    return default_grid(unit_ball6, nodes=64)


@pytest.fixture(scope="module")
def small_system(small_grid):
    """A 64-node discretization at a bubble iterate, exponent p - 0.3."""
    return bubble_system(small_grid)


def law_seed_system(ball, nodes, e):
    grid = default_grid(ball, nodes=nodes)
    peak_limit = law_limits(balance_constants(ball.n),
                            center_potential(ball.n, ball.radius))[1]
    u, w = _law_seed(grid, peak_limit, e)
    return _grid_arrays(grid), P6 - e, u, w


def step_args(disc, q, u, w):
    """_newton_step's arguments at (u, w)."""
    au, uq = np.abs(u), np.abs(u) ** q
    Fu, Fw = disc.residual(u, w, uq)
    su, sw = disc.scales(au, np.abs(w), uq)
    return disc, q, au, Fu, Fw, su, sw


def reduced(disc, q, au, Fu, Fw, su, sw):
    """The reduced system _newton_step solves for these arguments."""
    return disc.reduced_system(au, q, Fu, Fw, su, sw)


def interleaved(a, b):
    out = np.empty(2 * a.size)
    out[0::2], out[1::2] = a, b
    return out


def interleaved_residual(disc, q, x):
    """(Fu_0, Fw_0, Fu_1, ...) at the interleaved unknowns x."""
    u, w = x[0::2], x[1::2]
    return interleaved(*disc.residual(u, w, np.abs(u) ** q))


def dense_jacobian(disc, q, u):
    """The unscaled two-field Jacobian at u in the interleaved unknowns,
    built entry by entry from the flux diagonals."""
    N = u.size
    J = np.zeros((2 * N, 2 * N))
    for i in range(N):
        for f in (0, 1):
            J[2 * i + f, 2 * i + f] = disc.di[i]
            if i > 0:
                J[2 * i + f, 2 * i - 2 + f] = disc.lo[i]
            if i < N - 1:
                J[2 * i + f, 2 * i + 2 + f] = disc.up[i]
        J[2 * i, 2 * i + 1] = -disc.mask[i]
        J[2 * i + 1, 2 * i] = -disc.mask[i] * q * abs(u[i]) ** (q - 1)
    return J


def test_jacobian_matches_finite_difference(small_system):
    disc, q, u, w = small_system
    dense = dense_jacobian(disc, q, u)
    x = interleaved(u, w)
    size = x.size
    # central differences in unknowns scaled by each field's size
    cols = interleaved(np.full(u.size, np.abs(u).max()),
                       np.full(w.size, np.abs(w).max()))
    h = 1e-5
    fd = np.empty((size, size))
    for j in range(size):
        e = np.zeros(size)
        e[j] = h * cols[j]
        fd[:, j] = (interleaved_residual(disc, q, x + e)
                    - interleaved_residual(disc, q, x - e)) / (2 * h)
    dense = dense * cols
    # the stencil couples nothing outside the documented pattern, so the
    # finite differences vanish exactly there
    for r in range(size):
        i = r // 2
        allowed = ({2 * i - 2, 2 * i, 2 * i + 1, 2 * i + 2} if r % 2 == 0
                   else {2 * i - 1, 2 * i, 2 * i + 1, 2 * i + 3})
        assert set(np.flatnonzero(fd[r])) <= allowed
        assert set(np.flatnonzero(dense[r])) <= allowed
    # measured: 1.5e-11 of the row's largest entry at h = 1e-5
    row_scale = np.abs(dense).max(axis=1)
    assert np.all(np.abs(fd - dense).max(axis=1) <= 1e-8 * row_scale)


@pytest.mark.parametrize("nodes", [64, 65])
def test_step_solves_the_full_system(unit_ball6, nodes):
    # the boundary node is odd on 64 nodes and even on 65, so it is
    # eliminated in one and kept in the reduced band in the other
    disc, q, u, w = bubble_system(default_grid(unit_ball6, nodes=nodes))
    du, dw = _newton_step(*step_args(disc, q, u, w))
    dense = np.linalg.solve(dense_jacobian(disc, q, u),
                            -interleaved_residual(disc, q, interleaved(u, w)))
    # measured: 4.3e-13 (du) and 2.2e-14 (dw) of the field's largest
    # entry on 64 nodes, 1.1e-13 and 1.4e-14 on 65; the unreduced gbsv
    # step agreed to 4.4e-13 and 1.2e-13, the dense solve's own error
    for step, ref in ((du, dense[0::2]), (dw, dense[1::2])):
        assert np.abs(step - ref).max() <= 2e-12 * np.abs(ref).max()


def test_step_matches_the_full_banded_solve_at_the_law_seed(unit_ball6):
    # the finest seed the suite solves from: 8,192 nodes at eps = 0.002
    disc, q, u, w = law_seed_system(unit_ball6, 8192, 0.002)
    du, dw = _newton_step(*step_args(disc, q, u, w))
    ref_u, ref_w = full_banded_step(disc, q, u, w)
    # measured: 8.1e-10 of each field's largest entry; row scaling of the
    # reduced rows is what keeps it there (unscaled, 1.7e-5)
    for step, ref in ((du, ref_u), (dw, ref_w)):
        assert np.abs(step - ref).max() <= 1e-8 * np.abs(ref).max()


def test_even_part_matches_solve_banded_bit_for_bit(small_system,
                                                    unit_ball6):
    # the step factors the reduced band with the same LAPACK routine that
    # scipy's solve_banded calls on the 7-row view, so it is equal exactly
    for system in (small_system, law_seed_system(unit_ball6, 8192, 0.002)):
        args = step_args(*system)
        ab, rhs, _ = reduced(*args)
        x = solve_banded((3, 3), ab[3:], rhs)
        du, dw = _newton_step(*args)
        assert np.array_equal(du[0::2], x[0::2])
        assert np.array_equal(dw[0::2], x[1::2])


@pytest.mark.parametrize("nodes", [64, 65])
def test_reduced_band_is_fresh_fortran_storage_with_zero_fill_rows(
        unit_ball6, nodes):
    args = step_args(*bubble_system(default_grid(unit_ball6, nodes=nodes)))
    ab, rhs, _ = reduced(*args)
    even = (nodes + 1) // 2
    assert ab.shape == (10, 2 * even) and rhs.shape == (2 * even,)
    assert ab.flags["F_CONTIGUOUS"]
    assert not np.any(ab[:3])
    # gbsv overwrites the band and the right side, so no two calls may
    # share them
    again, rhs_again, _ = reduced(*args)
    assert not np.shares_memory(ab, again)
    assert not np.shares_memory(rhs, rhs_again)
    assert np.array_equal(ab, again) and np.array_equal(rhs, rhs_again)


def test_zero_reduced_column_is_a_singular_step(small_system, monkeypatch):
    # no stand-in for LAPACK: a zero column makes gbsv itself report the
    # zero pivot there (info = 11 for column 10, counted from one)
    args = step_args(*small_system)
    assert _newton_step(*args) is not None
    ab, rhs, _ = reduced(*args)
    ab[:, 10] = 0.0
    assert dgbsv(3, 3, ab, rhs)[3] == 11
    system = _Discretization.reduced_system

    def zero_column(*system_args):
        ab, rhs, odd = system(*system_args)
        ab[:, 10] = 0.0
        return ab, rhs, odd

    monkeypatch.setattr(_Discretization, "reduced_system", zero_column)
    assert small_system[0].reduced_system is not system
    assert _newton_step(*args) is None


def test_zero_odd_determinant_is_a_singular_step(small_system):
    # at q = 2 the determinant di^2 - 2 |u| of odd node 11 is exactly zero
    # at |u| = di^2 / 2; the step ends singular, with no warning
    disc, _, u, w = small_system
    u = u.copy()
    u[11] = disc.di[11] ** 2 / 2
    args = step_args(disc, 2.0, u, w)
    assert disc.di[11] ** 2 - 2.0 * np.abs(u[11]) == 0.0
    assert _newton_step(*args) is None


def test_illegal_gbsv_argument_raises(unit_ball6, monkeypatch):
    # info < 0 is a malformed call, not a singular step: it must surface
    # as an error, never as a Newton exit
    monkeypatch.setattr("scipy.linalg.lapack.dgbsv", failing_gbsv(-3))
    grid = default_grid(unit_ball6, nodes=256)
    u0, w0 = _bubble_fields(grid, math.sqrt(20 / 0.3))
    with pytest.raises(ValueError, match="argument 3 of gbsv") as err:
        solve_radial(-0.3, unit_ball6, (u0, w0), grid=grid)
    assert "singular" not in str(err.value)


def test_flux_diagonals_match_per_entry_loop(small_system, small_grid):
    # same per-entry arithmetic as a row-by-row build, so equal exactly
    disc = small_system[0]
    _, h, area, vol = _fv_geometry(small_grid)
    g = area / h
    N = len(small_grid)
    lo, di, up = np.zeros(N), np.zeros(N), np.zeros(N)
    di[0], up[0] = -g[0] / vol[0], g[0] / vol[0]
    for i in range(1, N - 1):
        lo[i] = g[i - 1] / vol[i]
        di[i] = -(g[i - 1] + g[i]) / vol[i]
        up[i] = g[i] / vol[i]
    di[-1] = 1.0
    assert np.array_equal(disc.lo, lo)
    assert np.array_equal(disc.di, di)
    assert np.array_equal(disc.up, up)


def test_residual_matches_loop_stencil(small_system, small_grid):
    disc, q, u, w, *_ = small_system
    rng = np.random.default_rng(7)
    u = u * (1.0 + 0.1 * rng.random(u.size))
    w = w * (1.0 + 0.1 * rng.random(w.size))
    Fu, Fw = disc.residual(u, w, np.abs(u) ** q)
    apply_lap = loop_flux_laplacian(small_grid.nodes, N6)
    lu, lw = apply_lap(u), apply_lap(w)
    assert np.allclose(Fu[:-1], lu - w[:-1], rtol=0,
                       atol=1e-12 * np.abs(lu).max())
    assert np.allclose(Fw[:-1], lw - np.abs(u[:-1]) ** q, rtol=0,
                       atol=1e-12 * np.abs(lw).max())
    assert Fu[-1] == u[-1] and Fw[-1] == w[-1]


# ---------------------------------------------------------------------------
# decomposition


def pure_bubble_solution(ball, lam, grid=None):
    grid = grid or default_grid(ball)
    r = grid.nodes
    u = _projected_profile(ball.n, lam, r, ball.radius)
    w = _projected_profile_laplacian(ball.n, lam, r, ball.radius)
    u[-1] = 0.0
    w[-1] = 0.0
    return declared_solution(grid, u, w)


def test_decompose_pure_bubble_is_exact(unit_ball6):
    sol = pure_bubble_solution(unit_ball6, 15.0)
    dec = decompose(sol, unit_ball6)
    assert abs(dec.alpha - 1.0) <= 1e-12
    assert abs(dec.lam - 15.0) <= 1e-9
    assert dec.v_norm <= 1e-10 * math.sqrt(sol.energy_norm_sq())
    assert np.allclose(dec.a, np.zeros(6))
    assert all(abs(x) <= 1e-12 for x in dec.ortho_residuals)


def test_decompose_scaling_consistency(subcritical_sweep, sweep_decompositions):
    for sol, dec in zip(subcritical_sweep, sweep_decompositions):
        eps = -sol.eps
        lam_law = c0(N6) ** (2.0 / (4 - N6)) * sol.M ** ((P6 - 1 - eps) / 4.0)
        assert abs(dec.lam / lam_law - 1.0) < 0.10


def test_decompose_alpha_tends_to_one(sweep_decompositions):
    devs = [abs(d.alpha - 1.0) for d in sweep_decompositions]
    assert all(b < a for a, b in zip(devs, devs[1:]))
    assert devs[-1] < 0.05


def test_decompose_orthogonality_residuals(sweep_decompositions):
    for dec in sweep_decompositions:
        amp, scale, trans = dec.ortho_residuals
        assert abs(amp) <= 1e-8
        assert abs(scale) <= 1e-8
        assert trans == 0.0


def test_decompose_local_minimality(unit_ball6, subcritical_sweep,
                                    sweep_decompositions):
    sol = subcritical_sweep[4]
    dec = sweep_decompositions[4]
    wts = _cell_weights(sol.grid)
    r = sol.grid.nodes

    def misfit(alpha, lam):
        lp = _projected_profile_laplacian(N6, lam, r, 1.0)
        return math.sqrt(float(np.sum(wts * (sol.w - alpha * lp) ** 2)))

    base = misfit(dec.alpha, dec.lam)
    assert abs(base - dec.v_norm) <= 1e-9 * max(dec.v_norm, 1.0)
    for da, dl in ((1.01, 1.0), (0.99, 1.0), (1.0, 1.01), (1.0, 0.99)):
        assert misfit(dec.alpha * da, dec.lam * dl) > base


def test_decompose_matches_brent_oracle(subcritical_sweep,
                                       sweep_decompositions):
    # Brent on the profile objective from a bracket around the law's
    # scale, then secant steps on its exact derivative: the objective is
    # flat to rounding over a relative width of a few 1e-10 in lam, which
    # is as far as Brent alone resolves the minimizer
    for sol, dec in zip(subcritical_sweep, sweep_decompositions):
        wts = _cell_weights(sol.grid)
        r = sol.grid.nodes

        def fit(x):
            lp = _projected_profile_laplacian(N6, math.exp(x), r, 1.0)
            return lp, np.sum(wts * sol.w * lp) / np.sum(wts * lp * lp)

        def objective(x):
            lp, alpha = fit(x)
            return float(np.sum(wts * (sol.w - alpha * lp) ** 2))

        def derivative(x):
            lp, alpha = fit(x)
            ds = _projected_scale_derivative_laplacian(N6, math.exp(x), r,
                                                       1.0)
            return float(np.sum(wts * (sol.w - alpha * lp) * ds))

        seed = math.log(c0(N6) ** -1.0 * sol.M ** ((P6 - 1 + sol.eps) / 4))
        opt = minimize_scalar(objective, bracket=(seed - 0.5, seed + 0.5),
                              method="brent", options={"xtol": 1e-12})
        assert abs(math.exp(opt.x) / dec.lam - 1.0) <= 1e-9
        x0, x1 = opt.x, opt.x * (1 + 1e-7)
        g0, g1 = derivative(x0), derivative(x1)
        for _ in range(8):
            if g1 == g0:
                break
            x0, g0, x1 = x1, g1, x1 - g1 * (x1 - x0) / (g1 - g0)
            g1 = derivative(x1)
        assert abs(math.exp(x1) / dec.lam - 1.0) <= 1e-10


def test_decompose_brackets_at_the_law_seed(subcritical_sweep, monkeypatch):
    # the stationarity condition changes sign across the law seed's
    # log lam +- 0.1 at every offset of the reference sweep and of a
    # law-seeded n = 8 sweep on 4,096 nodes at sinh strength 10, and
    # decompose's first two stationarity calls are at exactly those ends
    ball8 = BallDomain.unit(8)
    grid8 = RadialGrid.sinh_graded(8, 4096, R=1.0, strength=10.0)
    cases = [(BallDomain.unit(N6), sol) for sol in subcritical_sweep]
    cases += [(ball8, sol) for sol in
              continuation_sweep([0.1, 0.05, 0.02], ball8, grid=grid8)]
    profile, scale = (solver_module._projected_profile_laplacian,
                      solver_module._projected_scale_derivative_laplacian)
    calls = []

    def spy(n, lam, r, R):
        calls.append(lam)
        return scale(n, lam, r, R)

    monkeypatch.setattr(solver_module,
                        "_projected_scale_derivative_laplacian", spy)
    for ball, sol in cases:
        n, r, wts = ball.n, sol.grid.nodes, _cell_weights(sol.grid)
        seed = math.log(law_scale(n, sol.M, sol.eps))
        ends = [math.exp(seed - 0.1), math.exp(seed + 0.1)]
        signs = []
        for lam in ends:
            lp = profile(n, lam, r, 1.0)
            alpha = np.sum(wts * sol.w * lp) / np.sum(wts * lp * lp)
            ds = scale(n, lam, r, 1.0)
            signs.append(np.sign(np.sum(wts * (sol.w - alpha * lp) * ds)))
        assert signs[0] * signs[1] < 0
        calls.clear()
        decompose(sol, ball)
        assert calls[:2] == ends


def test_decompose_refuses_unconverged_secant(subcritical_sweep,
                                              monkeypatch):
    # one secant step does not reach the rounding floor, and a scale
    # left short of it is refused, not returned
    monkeypatch.setattr(solver_module, "_SECANT_MAX_STEPS", 1)
    with pytest.raises(RuntimeError,
                       match="secant did not converge in 1 steps"):
        decompose(subcritical_sweep[2], BallDomain.unit(N6))


@pytest.mark.parametrize("skew", ["flat", "steep"])
def test_decompose_refuses_a_secant_off_the_bracket(skew, subcritical_sweep,
                                                    monkeypatch):
    # "flat": every scale inside the bracket reads the profile of its
    # upper end, so the second secant step has g1 == g0; "steep": the
    # scale direction weighted by (lam / lam_seed)^20 keeps the root but
    # bends the condition so far that a secant step leaves the bracket
    sol = subcritical_sweep[2]
    seed = math.log(law_scale(N6, sol.M, sol.eps))
    ends = (math.exp(seed - 0.1), math.exp(seed + 0.1))
    profile, scale = (solver_module._projected_profile_laplacian,
                      solver_module._projected_scale_derivative_laplacian)
    if skew == "flat":
        def pinned(fn):
            return lambda n, lam, r, R: fn(n, lam if lam in ends
                                           else ends[1], r, R)

        profile, scale = pinned(profile), pinned(scale)
    else:
        scale = (lambda n, lam, r, R, fn=scale:
                 (lam / math.exp(seed)) ** 20 * fn(n, lam, r, R))
    monkeypatch.setattr(solver_module, "_projected_profile_laplacian",
                        profile)
    monkeypatch.setattr(solver_module,
                        "_projected_scale_derivative_laplacian", scale)
    match = "is flat" if skew == "flat" else "left the bracket"
    with pytest.raises(RuntimeError, match=match):
        decompose(sol, BallDomain.unit(N6))


def test_decompose_refuses_unbracketed_scale(unit_ball6):
    # u concentrated at a scale e^3 times that of w: the law's seed puts
    # the bracket far above the true scale, with no sign change of the
    # derivative across it
    grid = default_grid(unit_ball6)
    u = _projected_profile(N6, 15.0 * math.exp(3.0), grid.nodes, 1.0)
    w = _projected_profile_laplacian(N6, 15.0, grid.nodes, 1.0)
    u[-1] = w[-1] = 0.0
    sol = declared_solution(grid, u, w)
    with pytest.raises(RuntimeError, match="failed to bracket"):
        decompose(sol, unit_ball6)


def test_decompose_rejects_wrong_energy(unit_ball6):
    sol = pure_bubble_solution(unit_ball6, 15.0)
    shrunk = declared_solution(sol.grid, 0.25 * sol.u, 0.25 * sol.w,
                               eps=sol.eps)
    with pytest.raises(ValueError, match="factor 2"):
        decompose(shrunk, unit_ball6)


def test_decompose_input_checks(unit_ball6):
    with pytest.raises(TypeError):
        decompose(np.ones(10), unit_ball6)
    sol = pure_bubble_solution(unit_ball6, 15.0)
    other = BallDomain(6, np.zeros(6), 2.0)
    with pytest.raises(ValueError, match="does not match"):
        decompose(sol, other)


# ---------------------------------------------------------------------------
# each quantity once: per Newton point, per grid, per decomposition scale


def test_sweep_evaluates_each_residual_once(unit_ball6, subcritical_sweep,
                                            monkeypatch):
    # the accepted line-search trial's residual is the next iterate's, so
    # no (u, w) point of the reference sweep is evaluated twice
    seen = []
    residual = _Discretization.residual

    def spy(self, u, w, *rest):
        seen.append((u.tobytes(), w.tobytes()))
        return residual(self, u, w, *rest)

    monkeypatch.setattr(_Discretization, "residual", spy)
    sweep = continuation_sweep([-sol.eps for sol in subcritical_sweep],
                               unit_ball6)
    assert total_newton_iters(sweep) == 35
    assert len(seen) >= 35 + len(sweep)
    assert len(set(seen)) == len(seen)


def test_geometry_is_built_once_per_grid(unit_ball6, monkeypatch):
    # the solves of a sweep, their solutions' integrals and decompositions
    # all read the grid's one set of flux diagonals and cell weights
    grids = []
    geometry = solver_module._fv_geometry

    def spy(grid):
        grids.append(grid)
        return geometry(grid)

    monkeypatch.setattr(solver_module, "_fv_geometry", spy)
    grid = default_grid(unit_ball6)
    sweep = continuation_sweep([0.3, 0.1, 0.02], unit_ball6, grid=grid)
    for sol in sweep:
        decompose(sol, unit_ball6)
        sol.nonlinear_mass()
        sol.pohozaev_defect()
    assert len(grids) == 1 and grids[0] is grid


def test_grid_arrays_are_read_only(small_system, small_grid):
    disc = small_system[0]
    # one discretization object per grid, holding the weights itself
    assert _grid_arrays(small_grid) is disc
    wts = _cell_weights(small_grid)
    assert wts is disc.wts
    for a in (disc.lo, disc.di, disc.up, *disc.abs_diags, disc.mask, wts,
              *disc.pair_products, disc.di_odd_sq):
        assert not a.flags.writeable
    with pytest.raises(ValueError):
        wts[0] = 0.0


def test_grid_arrays_die_with_the_grid(unit_ball6):
    # the arrays hang off the grid and never point back to it, so the grid
    # is freed by reference counting alone, with the cycle collector off
    grid = default_grid(unit_ball6)
    ref = weakref.ref(grid)
    gc.disable()
    try:
        sweep = continuation_sweep([0.3, 0.1], unit_ball6, grid=grid)
        decs = [decompose(sol, unit_ball6) for sol in sweep]
        assert grid._derived
        del grid, sweep, decs
        assert ref() is None
    finally:
        gc.enable()


def test_decompose_evaluates_each_scale_once(subcritical_sweep,
                                             monkeypatch):
    calls = Counter()
    for name in ("_projected_profile_laplacian",
                 "_projected_scale_derivative_laplacian"):
        def spy(n, lam, r, R, name=name, fn=getattr(solver_module, name)):
            calls[name, lam] += 1
            return fn(n, lam, r, R)
        monkeypatch.setattr(solver_module, name, spy)
    ball = BallDomain.unit(N6)
    for sol in subcritical_sweep:
        calls.clear()
        decompose(sol, ball)
        assert calls and max(calls.values()) == 1


# ---------------------------------------------------------------------------
# sweep diagnostics


def test_vnorm_diagnostics_slopes(subcritical_sweep, sweep_decompositions):
    eps_list = [-s.eps for s in subcritical_sweep]
    diag = vnorm_diagnostics(sweep_decompositions, eps_list)
    vns = [d.v_norm for d in sweep_decompositions]
    assert all(b < a for a, b in zip(vns, vns[1:]))
    assert 0.9 <= diag.eps_fit.slope <= 1.1
    assert abs(diag.lambda_fit.slope + 2.0) <= 0.2
    ratios = np.array(diag.ratios)
    assert diag.bound_ratio == ratios.max()
    # the remainder norm tracks eps + (lam d)^{4-n} with a flat constant;
    # measured spread on this sweep is about 7 percent
    assert ratios.max() / ratios.min() < 1.2


def test_vnorm_diagnostics_validation(sweep_decompositions):
    with pytest.raises(ValueError, match="at least 5"):
        vnorm_diagnostics(sweep_decompositions[:4], [0.3, 0.2, 0.1, 0.05])
    with pytest.raises(ValueError, match="one offset per"):
        vnorm_diagnostics(sweep_decompositions, [0.3, 0.2])


# ---------------------------------------------------------------------------
# supercritical probe


@pytest.fixture(scope="module")
def probe(unit_ball6):
    return supercritical_probe([0.05, 0.02, 0.01], unit_ball6)


def test_probe_finds_no_concentrating_branch(probe):
    assert not probe.any_concentrating
    for entry in probe.entries:
        assert not entry.concentrating
        assert not entry.converged  # the probe runs no solve


def test_probe_records_certificate_per_offset(probe):
    # every entry carries the left side's coefficient of the identity,
    # n/(q+1) - (n-4)/2 at q = p + eps, equal to the cancellation-free
    # -(n-4)^2 eps / (4n + 2(n-4) eps) because p + 1 = 2n/(n-4)
    n = 6
    assert [e.eps for e in probe.entries] == [0.05, 0.02, 0.01]
    for entry in probe.entries:
        q = P6 + entry.eps
        assert entry.pohozaev_coefficient == n / (q + 1) - (n - 4) / 2
        assert entry.pohozaev_coefficient == pytest.approx(
            -(n - 4) ** 2 * entry.eps / (4 * n + 2 * (n - 4) * entry.eps),
            rel=1e-12)
        assert entry.pohozaev_coefficient < 0


@pytest.mark.parametrize("radius", [1.0, 1.7])
@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_probe_sides_have_opposite_signs(n, radius):
    # the left side: the coefficient is negative at every supercritical
    # offset, with the radius-free small-eps slope -(n-4)^2 / (4n); the
    # right side: a positive solution has u'(R) < 0 < w'(R), checked on
    # a subcritical solve at the same n and R
    domain = BallDomain(n, np.zeros(n), radius)
    probe = supercritical_probe([1e-6, 0.02, 0.09], domain)
    assert not probe.any_concentrating
    for entry in probe.entries:
        assert entry.pohozaev_coefficient < 0
        assert not entry.concentrating
    assert probe.entries[0].pohozaev_coefficient / 1e-6 == pytest.approx(
        -(n - 4) ** 2 / (4 * n), rel=1e-5)
    assert probe == supercritical_probe([1e-6, 0.02, 0.09],
                                        BallDomain.unit(n))
    (sol,) = continuation_sweep([0.1], domain)
    _, u_slope, w_slope, _, _ = _pohozaev_sides(
        sol.grid, sol.u, sol.w, critical_exponent(n) + sol.eps)
    assert u_slope < 0 < w_slope


def test_probe_records_failures_per_offset(unit_ball6, monkeypatch):
    # a failed certificate is recorded at its own offset, not raised:
    # with the critical exponent planted 0.1 low, p + 0.05 is below the
    # true p, its coefficient is positive, and only that offset fails
    monkeypatch.setattr(solver_module, "critical_exponent",
                        lambda n: critical_exponent(n) - 0.1)
    probe = supercritical_probe([0.2, 0.05], unit_ball6)
    assert probe.any_concentrating
    assert [e.concentrating for e in probe.entries] == [False, True]
    assert probe.entries[1].pohozaev_coefficient > 0


def test_pohozaev_defect_is_second_order(subcritical_sweep, unit_ball6):
    # a genuine solution closes the identity up to truncation: the defect
    # falls by four per doubling of the grid and stays near zero along
    # the default sweep (largest 3.8e-3 at eps = 0.005); its slopes have
    # the signs u'(R) < 0 < w'(R) that the supercritical probe assumes
    coarse = next(s for s in subcritical_sweep if s.eps == -0.05)
    (fine,) = continuation_sweep([0.05], unit_ball6,
                                 grid=default_grid(unit_ball6, nodes=4096))
    assert 3.5 <= coarse.pohozaev_defect() / fine.pohozaev_defect() <= 4.5
    for sol in subcritical_sweep:
        assert abs(sol.pohozaev_defect()) <= 1e-2
        _, u_slope, w_slope, _, _ = _pohozaev_sides(
            sol.grid, sol.u, sol.w, P6 + sol.eps)
        assert u_slope < 0 < w_slope


def test_concentration_checks_bounds():
    assert concentration_checks(0.018, 0.9996, 20.4) == (True, True, True)
    # the bounds are inclusive
    assert concentration_checks(0.1, 0.9, 20.0) == (True, True, True)
    assert concentration_checks(0.11, 0.9996, 20.4) == (False, True, True)
    assert concentration_checks(0.018, 0.85, 20.4) == (True, False, True)
    assert concentration_checks(0.018, 0.9996, 19.9) == (True, True, False)
    assert concentration_checks(math.nan, math.nan, math.nan) == (
        False, False, False)


def test_probe_validation(unit_ball6):
    with pytest.raises(ValueError, match="positive"):
        supercritical_probe([0.05, -0.01], unit_ball6)


@pytest.mark.parametrize("eps", [math.nan, math.inf])
def test_probe_refuses_offsets_that_are_not_finite(unit_ball6, eps):
    # nan failed the certificate (no comparison holds) and inf passed it
    with pytest.raises(ValueError, match="positive, finite and above"):
        supercritical_probe([0.05, eps], unit_ball6)


@pytest.mark.parametrize("n", [5, 6, 8, 20, 81])
def test_probe_signs_every_offset_it_admits(n):
    # the rounded coefficient is within 4 u (n-4)/2 of
    # -(n-4)^2 eps / (4n + 2(n-4) eps), u = 2^-53, so its sign is exact
    # above 4 u (p + 1); the probe admits offsets above twice that, and
    # below it the coefficient rounds to zero or even to positive values
    ball = BallDomain.unit(n)
    bound = 2.0 ** -50 * (critical_exponent(n) + 1)
    admitted = bound * (1.0 + 2.0 ** -40) * np.arange(1, 200)
    probe = supercritical_probe(admitted, ball)
    assert not probe.any_concentrating
    for entry in probe.entries:
        exact = -(n - 4) ** 2 * entry.eps / (4 * n + 2 * (n - 4) * entry.eps)
        assert abs(entry.pohozaev_coefficient - exact) <= (
            4 * 2.0 ** -53 * (n - 4) / 2)
    with pytest.raises(ValueError, match="above %.6g" % bound):
        supercritical_probe([0.05, bound], ball)


def test_subcritical_contrast_achieves_the_triple(subcritical_sweep,
                                                  sweep_decompositions):
    # the same criterion the probe applies: small remainder, amplitude
    # near one, strong concentration. The subcritical branch achieves it
    # at matching offsets, the supercritical probe never does.
    hits = 0
    for sol, dec in zip(subcritical_sweep, sweep_decompositions):
        if -sol.eps > 0.02 + 1e-12:
            continue
        d = dec.domain.radius - float(np.linalg.norm(dec.a - dec.domain.center))
        assert dec.v_norm < 0.1
        assert abs(dec.alpha - 1.0) < 0.1
        assert dec.lam * d > 20.0
        hits += 1
    assert hits == 3
