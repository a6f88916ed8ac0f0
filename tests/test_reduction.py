"""Reduced system, spectral gap, verdicts.

Oracles used here and nowhere in the package:

* A conservative finite-volume discretization of the constrained
  quadratic form on a graded grid. It shares no code with the Bessel
  trial basis in the package and agrees with it to a few parts in 1e5;
  the tests ask for half a percent. At n = 8 it agrees to about 2e-3,
  at n = 40 to about 4e-3.
* scipy's general-order jv and its jn_zeros (the package uses
  neither) as the references for the series and recurrence Bessel
  values, the Newton zeros and the mode norms of the trial basis.
* The null-space route to the constrained gap: an orthonormal basis of
  the constraints' null space and the projected form basis^T F basis,
  with the mass weight applied by a general product.
* The whole-space gap 8 / (n + 6) from the Paneitz spectrum on S^n,
  which the ball's gap reaches once lam^(4 - n) is below round-off.
* Closed-form balance laws. The exact identity for the leading-order
  scale balance at a reconstructed scale is checked from first
  principles.

Numeric literals below are frozen measurements from this suite's first
runs; relative bars reflect quadrature determinism, not optimism.
"""

import functools
import math
import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import eigh
from scipy.sparse import diags
from scipy.special import jn_zeros, jv

from navier_bubbles import cli
from navier_bubbles.bubble import (
    BubbleParams,
    _laplacian_prefactor,
    _laplacians,
    _projected_profile,
    _scale_derivative_from,
    balance_constants,
    balance_scale,
    center_potential,
    critical_exponent,
    law_limits,
    law_quantities,
    radial_profile,
    sobolev_energy,
)
from navier_bubbles.green_robin import BallDomain, robin
from navier_bubbles import bubble, green_robin, reduction
from navier_bubbles.numerics import (QUAD_RTOL, core_seams, radial_integral,
                                     sphere_measure)
from navier_bubbles.solver import Decomposition
from navier_bubbles.reduction import (
    BlowupVerdict,
    NonContractionError,
    ReducedState,
    blowup_verdict,
    bubble_quadratic_form,
    coercivity_check,
    solve_reduced_system,
    supercritical_obstruction,
)

N6 = 6
REDUCED_OFFSETS = (0.05, 0.02, 0.01)


def centered(lam, n=N6):
    return BubbleParams(np.zeros(n), lam, n)


# ---------------------------------------------------------------------------
# oracles

def scale_derivative(n, lam, r):
    # lam d(delta)/d(lam) from delta(r), as the package forms it
    return _scale_derivative_from(n, (lam * r) ** 2, radial_profile(n, lam, r))


def _householder(x):
    """v of the reflector I - 2 v v^T / (v.v) that maps x onto a
    multiple of the first coordinate vector."""
    v = x.copy()
    v[0] += math.copysign(np.linalg.norm(x), x[0])
    return v


def _reflected(v, mat):
    """H mat H for the reflector H of v and a symmetric mat, as the
    rank-two update mat - v w^T - w v^T, in O(m^2)."""
    tau = 2.0 / (v @ v)
    w = tau * (mat @ v)
    w -= 0.5 * tau * (v @ w) * v
    mat = mat - np.outer(v, w)
    mat -= np.outer(w, v)
    return mat


def grid_gap_oracle(lam, domain, m=1536, strength=5.0):
    """Constrained gap through a finite-volume grid discretization.

    Builds the conservative three-point radial Laplacian on a graded
    grid (conductances on face midpoints, exact shell volumes), forms
    energy and weighted-mass matrices and rescales them diagonally, which
    keeps the Cholesky factorization well posed. Two Householder
    reflectors map the span of the two constraint directions onto the
    first two coordinates; the generalized eigenproblem on the remaining
    coordinates is the constrained one, whichever null-space basis is
    used.
    """
    n, R = domain.n, domain.radius
    p = critical_exponent(n)
    sm = sphere_measure(n)
    s = np.linspace(0.0, 1.0, m + 1)
    nodes = R * np.sinh(strength * s) / np.sinh(strength)
    r = nodes[:-1]
    faces = (nodes[1:] + nodes[:-1]) / 2.0
    inner_faces = np.concatenate([[0.0], faces[:-1]])
    volumes = sm * (faces ** n - inner_faces ** n) / n
    # conductance of the face right of each node; the last face leads to
    # the boundary node, where the trial functions vanish
    right = sm * faces ** (n - 1) / np.diff(nodes)
    left = np.concatenate([[0.0], right[:-1]])
    lap = diags([left[1:] / volumes[1:], -(right + left) / volumes,
                 right[:-1] / volumes[:-1]], [-1, 0, 1])
    weight = radial_profile(n, lam, r) ** (p - 1.0)
    energy = lap.T @ diags(volumes) @ lap
    rescale = 1.0 / np.sqrt(energy.diagonal())
    energy_r = (diags(rescale) @ energy @ diags(rescale)).toarray()
    form_r = energy_r.copy()
    form_r.flat[::m + 1] -= p * volumes * weight * rescale ** 2
    against_bubble = volumes * radial_profile(n, lam, r) ** p * rescale
    against_scale = (volumes * p * weight * scale_derivative(n, lam, r)
                     * rescale)
    first = _householder(against_bubble)
    reflected_scale = against_scale - (
        2.0 * (first @ against_scale) / (first @ first)) * first
    second = np.concatenate([[0.0], _householder(reflected_scale[1:])])
    for v in (first, second):
        form_r = _reflected(v, form_r)
        energy_r = _reflected(v, energy_r)
    vals = eigh(form_r[2:, 2:], energy_r[2:, 2:], eigvals_only=True,
                subset_by_index=[0, 0])
    return float(vals[0])


# ---------------------------------------------------------------------------
# fixtures

@pytest.fixture(scope="module")
def reduced_states(unit_ball6):
    return {
        eps: solve_reduced_system(eps, unit_ball6.center, unit_ball6)
        for eps in REDUCED_OFFSETS
    }


@pytest.fixture(scope="module")
def reference_verdict(unit_ball6, subcritical_sweep, sweep_decompositions):
    sweep = [(s.eps, d, s.M)
             for s, d in zip(subcritical_sweep, sweep_decompositions)]
    return blowup_verdict(sweep, unit_ball6.center, unit_ball6)


# ---------------------------------------------------------------------------
# constrained spectral gap

GAP_FROZEN = {10.0: 0.684637, 20.0: 0.671609, 40.0: 0.668015}


@pytest.mark.parametrize("lam", sorted(GAP_FROZEN))
def test_gap_value_frozen(unit_ball6, lam):
    q = coercivity_check(centered(lam), unit_ball6, 40)
    assert q == pytest.approx(GAP_FROZEN[lam], abs=2e-3)
    assert q >= 0.05


@pytest.mark.parametrize("lam", sorted(GAP_FROZEN))
def test_gap_stable_under_basis_doubling(unit_ball6, lam):
    q40 = coercivity_check(centered(lam), unit_ball6, 40)
    q80 = coercivity_check(centered(lam), unit_ball6, 80)
    assert abs(q80 - q40) <= 5e-3 * abs(q40)


@pytest.mark.parametrize("lam", [10.0, 40.0])
def test_gap_matches_grid_discretization_oracle(unit_ball6, lam):
    spectral = coercivity_check(centered(lam), unit_ball6, 40)
    grid = grid_gap_oracle(lam, unit_ball6)
    assert abs(grid - spectral) <= 5e-3 * abs(spectral)


# Gaps at the converged panel quadrature. The fixed 30001-node trapezoid
# these replaced sat 3.1e-9 to 3.3e-9 relative below them.
GAP_CONVERGED = {(10.0, 40): 0.684637309175, (20.0, 40): 0.671609342394,
                 (40.0, 40): 0.668014888842, (40.0, 80): 0.667906320034}


@pytest.mark.parametrize("lam,trials", sorted(GAP_CONVERGED))
def test_gap_converged_value(unit_ball6, lam, trials):
    q = coercivity_check(centered(lam), unit_ball6, trials)
    assert q == pytest.approx(GAP_CONVERGED[lam, trials], rel=1e-8)


def test_gap_matches_grid_discretization_oracle_n8():
    ball8 = BallDomain.unit(8)
    spectral = coercivity_check(centered(10.0, 8), ball8, 40)
    grid = grid_gap_oracle(10.0, ball8)
    assert abs(grid - spectral) <= 5e-3 * abs(spectral)


@pytest.mark.parametrize("nu", [2, 3, 4])
def test_bessel_over_power_matches_jv(nu):
    switch = nu + 2.0
    near = switch + np.concatenate([-np.logspace(-12, 0, 200), [0.0],
                                    np.logspace(-12, 0, 200)])
    # The grid's first positive sample is 0.0055: much closer to the
    # origin, jv(nu, x) / x^nu itself loses digits, so the origin is
    # checked against its closed value instead.
    x = np.concatenate([np.linspace(0.0, 1100.0, 200001), near])
    origin = 1.0 / (2.0 ** nu * math.factorial(nu))
    got = reduction._bessel_over_power(nu, x)
    pos = x > 0
    expected = jv(nu, x[pos]) / x[pos] ** nu
    assert np.max(np.abs(got[pos] - expected)) <= 1e-14 * origin
    assert np.all(got[~pos] == pytest.approx(origin, rel=1e-15))


@pytest.mark.parametrize("nu", [1, 2, 3, 4, 5, 6, 10, 18, 19, 40, 79])
def test_bessel_zeros_match_jn_zeros(nu):
    got = reduction._bessel_zeros(nu, 400)
    expected = jn_zeros(nu, 400)
    assert np.all(np.abs(got - expected) <= np.spacing(expected))
    assert np.all(np.diff(got) > 0.0)


@pytest.mark.parametrize("nu", [2, 3, 4])
def test_mode_norms_match_jv(nu):
    # _trial_gap normalizes mode k by J_(nu+1)(z_k), taken from the
    # package's own J_nu / x^nu
    z = reduction._bessel_zeros(nu, 400)
    got = z ** (nu + 1) * reduction._bessel_over_power(nu + 1, z)
    expected = jv(nu + 1.0, z)
    assert np.all(np.abs(got - expected) <= 1e-14 * np.abs(expected))


def _unchecked_bessel_over_power(nu, x):
    # _bessel_over_power before its overflow was contained: the
    # recurrence's overflow near the origin warns, and no sample is checked
    from scipy.special import j0, j1
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv_sq = 1.0 / (x * x)
        lower, out = j0(x), j1(x) / x
        for k in range(1, nu):
            lower, out = out, (2.0 * k * out - lower) * inv_sq
    small = np.flatnonzero(x < nu + 2.0)
    xs = np.take(x, small)
    quarter = -0.25 * xs * xs
    origin = 1.0 / (2.0 ** nu * math.factorial(nu))
    term = np.full_like(xs, origin)
    total = term.copy()
    k = 0
    while np.any(np.abs(term) > 1e-17 * origin):
        k += 1
        term = term * quarter / (k * (k + nu))
        total += term
    np.put(out, small, total)
    return out


@pytest.mark.parametrize("n", [76, 78])
def test_gap_below_the_overflow_is_unchanged(n, monkeypatch):
    # where the recurrence does not overflow, containing it moves no bit
    ball = BallDomain.unit(n)
    gap = coercivity_check(centered(10.0, n), ball, 40)
    monkeypatch.setattr(reduction, "_bessel_over_power",
                        _unchecked_bessel_over_power)
    assert coercivity_check(centered(10.0, n), ball, 40) == gap


@pytest.mark.parametrize("n", [90, 100])
def test_gap_past_the_overflow_raises_without_warning(n):
    # at these orders the unresolved gap is refused by its quadrature;
    # the recurrence, which would overflow near the origin, runs only
    # from the series switch on, so no numpy warning is raised on the way
    ball = BallDomain.unit(n)
    with pytest.raises(RuntimeError, match="did not converge"):
        coercivity_check(centered(10.0, n), ball, 40)
    x = np.concatenate([[0.0], np.geomspace(1e-4, 60.0, 600)])
    assert np.all(np.isfinite(reduction._bessel_over_power(n // 2 - 1, x)))


def test_bessel_over_power_refuses_non_finite_samples():
    with pytest.raises(RuntimeError, match="not finite"):
        reduction._bessel_over_power(2, np.array([1.0, np.nan]))


def test_bessel_zeros_refuse_step_cap(monkeypatch):
    monkeypatch.setattr(reduction, "_ZERO_MAX_STEPS", 1)
    with pytest.raises(RuntimeError, match="did not converge"):
        reduction._bessel_zeros(2, 40)


def test_bessel_zeros_refuse_missed_zero(monkeypatch):
    # a first seed next to the second zero converges to it, so two zeros
    # coincide (McMahon's seeds did this from order 19)
    seeds = reduction._bessel_zero_seeds

    def missed(nu, count):
        x = seeds(nu, count)
        x[0] = x[1]
        return x

    monkeypatch.setattr(reduction, "_bessel_zero_seeds", missed)
    with pytest.raises(RuntimeError, match="out of order"):
        reduction._bessel_zeros(19, 40)


def test_gap_at_n40_matches_grid_oracle_and_sphere_spectrum():
    # n = 40 takes order-19 zeros. At lam = 10 the ball's correction,
    # of order lam^(4 - n), is far below round-off, so the gap is the
    # whole-space one: the Paneitz operator's eigenvalues on S^n,
    # Gamma(k + n/2 + 2) / Gamma(k + n/2 - 2) on degree k, put the
    # radial linearization's third eigenvalue at mu_2 with
    # 1 - p / mu_2 = 8 / (n + 6). 160 trials resolve it (40 do not: a
    # mode of order 19 reaches the core only once z > 19 lam).
    n = 40
    ball = BallDomain.unit(n)
    spectral = coercivity_check(centered(10.0, n), ball, 160)
    assert spectral == pytest.approx(8.0 / (n + 6.0), rel=1e-8)
    grid = grid_gap_oracle(10.0, ball)
    assert abs(grid - spectral) <= 5e-3 * abs(spectral)


def null_space_gap(n, R, lam, z, density):
    # the constrained gap through a dense null-space basis of the two
    # constraints, with the norms from jv and the weighted mass by a
    # general product
    nu = n // 2 - 1
    p = critical_exponent(n)
    sm = sphere_measure(n)
    r, w = reduction._gap_panels(R, lam, z[-1], density)
    U = reduction._bessel_over_power(nu, z[:, None] * (r / R))
    energy_diag = ((z / R) ** 4 * sm * R * R * jv(nu + 1.0, z) ** 2 / 2.0)
    U *= ((z / R) ** nu / np.sqrt(energy_diag))[:, None]
    wvol = w * r ** (n - 1)
    dpm1 = radial_profile(n, lam, r) ** (p - 1.0)
    form = np.eye(len(z)) - p * (sm * (U * (dpm1 * wvol)) @ U.T)
    against_bubble = sm * U @ (radial_profile(n, lam, r) ** p * wvol)
    against_scale = sm * U @ (
        p * dpm1 * scale_derivative(n, lam, r) * wvol)
    _, sv, vh = np.linalg.svd(np.vstack([against_bubble, against_scale]))
    assert np.all(sv > sv.max() * np.finfo(float).eps * len(z))
    basis = vh[2:].T
    return float(np.linalg.eigvalsh(basis.T @ form @ basis)[0])


@pytest.mark.parametrize("n,lam,trials", [(6, 10.0, 40), (6, 20.0, 40),
                                          (6, 40.0, 40), (6, 40.0, 80),
                                          (8, 10.0, 40)])
def test_trial_gap_matches_null_space_route(n, lam, trials):
    z = reduction._bessel_zeros(n // 2 - 1, trials * math.ceil(lam / 10.0))
    got = reduction._trial_gap(n, 1.0, lam, z, 2)
    expected = null_space_gap(n, 1.0, lam, z, 2)
    assert abs(got - expected) <= 1e-13 * abs(expected)


def test_trial_gap_refuses_parallel_constraints(monkeypatch):
    # p f^(p-1) (f / p) = f^p: the scale pairing becomes the bubble's
    monkeypatch.setattr(reduction, "_scale_derivative_from",
                        lambda n, t, delta: delta / critical_exponent(n))
    z = reduction._bessel_zeros(2, 40)
    with pytest.raises(RuntimeError, match="trial basis degenerate"):
        reduction._trial_gap(N6, 1.0, 10.0, z, 1)


def test_gap_returns_the_doubling_checked_value(unit_ball6):
    z = reduction._bessel_zeros(2, 80)
    gap, density = reduction._converged_gap(N6, 1.0, 20.0, z)
    assert gap == coercivity_check(centered(20.0), unit_ball6, 40)
    direct = reduction._trial_gap(N6, 1.0, 20.0, z, 2 * density)
    assert abs(direct - gap) <= QUAD_RTOL * abs(gap)


# the four gaps of acceptance criterion 9, as (lam, trials per band)
CRITERION_9_GAPS = ((10.0, 40), (20.0, 40), (40.0, 40), (40.0, 80))


@pytest.mark.parametrize("lam,trials", CRITERION_9_GAPS)
def test_gap_converges_at_first_doubling(lam, trials):
    # the doubling starts at one 16-node panel per 12 periods of the
    # fastest trial-mode product and at least two panels per seam piece,
    # where the gap already agrees with its first doubling
    z = reduction._bessel_zeros(2, trials * math.ceil(lam / 10.0))
    assert reduction._converged_gap(N6, 1.0, lam, z)[1] == 2


@pytest.mark.parametrize("lam,trials", CRITERION_9_GAPS)
def test_gap_first_doubling_agrees_with_margin(lam, trials):
    # a fifth of the tolerance: the start density certifies each gap
    # with room to spare, not by a hair
    z = reduction._bessel_zeros(2, trials * math.ceil(lam / 10.0))
    start = reduction._trial_gap(N6, 1.0, lam, z, 1)
    doubled = reduction._trial_gap(N6, 1.0, lam, z, 2)
    assert abs(doubled - start) <= QUAD_RTOL / 5.0 * abs(doubled)


def test_gap_needs_two_panels_per_piece(monkeypatch):
    # one panel on the core piece [0.5 / lam, 3 / lam] cannot integrate
    # the mass weight (1 + lam^2 r^2)^-4, which falls by about 10^4 there
    monkeypatch.setattr(reduction, "_GAP_MIN_PANELS", 1)
    densities = [reduction._converged_gap(
        N6, 1.0, lam, reduction._bessel_zeros(
            2, trials * math.ceil(lam / 10.0)))[1]
        for lam, trials in CRITERION_9_GAPS]
    assert max(densities) > 2


@pytest.mark.parametrize("lam,trials", CRITERION_9_GAPS)
def test_gap_starts_at_one_panel_per_twelve_periods(lam, trials):
    z_max = reduction._bessel_zeros(2, trials * math.ceil(lam / 10.0))[-1]
    r, _ = reduction._gap_panels(1.0, lam, z_max, 1)
    edges = [0.0] + core_seams(lam, 1.0) + [1.0]
    for a, b in zip(edges, edges[1:]):
        # periods of the product, wavenumber 2 z_max, on the piece
        periods = (b - a) * z_max / math.pi
        nodes = np.count_nonzero((r > a) & (r < b))
        assert nodes == 16 * max(2, math.ceil(periods / 12.0))


# traced peak of one 320-mode gap (lam 40, 80 trials per band): measured
# 4.8 MB at density 2 and 4 with the trial integrals streamed over
# 256-node blocks; sampled as one modes x nodes array it was 17.6 MB at
# density 2 and 35.3 MB at 4
GAP_PEAK_MB = 8.0


def test_gap_memory_does_not_grow_with_density():
    z = reduction._bessel_zeros(2, 320)
    peaks = []
    for density in (2, 4):
        tracemalloc.start()
        try:
            reduction._trial_gap(N6, 1.0, 40.0, z, density)
            peaks.append(tracemalloc.get_traced_memory()[1] / 1e6)
        finally:
            tracemalloc.stop()
    assert peaks[0] <= GAP_PEAK_MB
    assert abs(peaks[1] / peaks[0] - 1.0) <= 0.1


@pytest.mark.parametrize("block_panels", [1, 10 ** 6])
@pytest.mark.parametrize("lam,trials", CRITERION_9_GAPS)
def test_gap_does_not_depend_on_the_block(lam, trials, block_panels,
                                          monkeypatch):
    # one panel per block, and every node in one block, sum the same
    # products in another order
    z = reduction._bessel_zeros(2, trials * math.ceil(lam / 10.0))
    expected = reduction._converged_gap(N6, 1.0, lam, z)
    monkeypatch.setattr(reduction, "_GAP_BLOCK_PANELS", block_panels)
    gap, density = reduction._converged_gap(N6, 1.0, lam, z)
    assert density == expected[1]
    assert abs(gap - expected[0]) <= 1e-13 * abs(expected[0])


def test_gap_refuses_unconverged_quadrature(unit_ball6, monkeypatch):
    monkeypatch.setattr(reduction, "_GAP_MAX_DENSITY", 1)
    with pytest.raises(RuntimeError, match="did not converge"):
        coercivity_check(centered(10.0), unit_ball6, 40)


def test_gap_extrapolates_to_free_profile_constant(unit_ball6):
    q20 = coercivity_check(centered(20.0), unit_ball6, 40)
    q40 = coercivity_check(centered(40.0), unit_ball6, 40)
    richardson = (4.0 * q40 - q20) / 3.0
    assert richardson == pytest.approx(2.0 / 3.0, rel=1e-2)


def test_bubble_direction_is_negative(unit_ball6):
    q10 = bubble_quadratic_form(centered(10.0), unit_ball6)
    q40 = bubble_quadratic_form(centered(40.0), unit_ball6)
    assert q10 == pytest.approx(-14437.2178, rel=1e-6)
    assert q10 < 0 and q40 < 0
    level = (1.0 - critical_exponent(N6)) * sobolev_energy(N6)
    assert 0.95 <= q40 / level <= 1.02


def test_bubble_quadratic_form_builds_the_profiles_once(unit_ball6,
                                                       monkeypatch):
    # one projected-profile map per call, read at every panel density
    built = []
    real = bubble._projected_profiles
    spy = lambda *a: built.append(a) or real(*a)
    monkeypatch.setattr(bubble, "_projected_profiles", spy)
    monkeypatch.setattr(reduction, "_projected_profiles", spy)
    bubble_quadratic_form(centered(10.0), unit_ball6)
    assert built == [(N6, 10.0, 1.0)]


def test_gap_validation(unit_ball6):
    with pytest.raises(ValueError, match="at least 5"):
        coercivity_check(centered(10.0), unit_ball6, 4)
    # 40.5 would build 41 modes and "40" would fail on a str comparison
    for count in (40.5, "40", True, np.float64(40.0)):
        with pytest.raises(ValueError, match="must be an integer"):
            coercivity_check(centered(10.0), unit_ball6, count)
    assert (coercivity_check(centered(10.0), unit_ball6, np.int64(40))
            == coercivity_check(centered(10.0), unit_ball6, 40))
    with pytest.raises(ValueError, match="too large"):
        coercivity_check(centered(40.0), unit_ball6, 200)
    with pytest.raises(ValueError, match="even dimensions"):
        coercivity_check(BubbleParams(np.zeros(5), 10.0, 5),
                         BallDomain.unit(5), 40)
    off = np.zeros(N6)
    off[1] = 0.4
    with pytest.raises(ValueError, match="centered"):
        coercivity_check(BubbleParams(off, 10.0, N6), unit_ball6, 40)


# ---------------------------------------------------------------------------
# the reduced system

REDUCED_FROZEN = {
    0.05: (3.543219e-04, 1.011116e-02, 19.7692),
    0.02: (1.390561e-04, 4.329922e-03, 31.4655),
    0.01: (6.907249e-05, 2.241196e-03, 44.6059),
}


def test_reduced_fixed_points_frozen(reduced_states):
    for eps, (beta, rho, lam) in REDUCED_FROZEN.items():
        st = reduced_states[eps]
        assert st.beta == pytest.approx(beta, rel=1e-5)
        assert st.rho == pytest.approx(rho, rel=1e-5)
        assert st.lam == pytest.approx(lam, rel=1e-4)


def test_reduced_contraction_certificates(reduced_states):
    for st in reduced_states.values():
        assert st.ratios
        assert max(st.ratios) < 0.45
        assert st.iterations <= 25


def test_reduced_scale_law_approaches_limit(reduced_states):
    laws = [eps * reduced_states[eps].lam ** 2 for eps in REDUCED_OFFSETS]
    target = 20.0
    assert all(b > a for a, b in zip(laws, laws[1:]))
    for law in laws:
        assert abs(law / target - 1.0) < 0.025


def test_reduced_amplitude_bound_is_stable(reduced_states):
    constants = [
        abs(reduced_states[eps].beta) / (eps * abs(math.log(eps)))
        for eps in REDUCED_OFFSETS
    ]
    mean = sum(constants) / len(constants)
    for k in constants:
        assert 0.5 * mean <= k <= 1.5 * mean


def test_reduced_scale_offset_bound_is_stable(reduced_states):
    sqrt_read = [abs(reduced_states[eps].rho) / math.sqrt(eps)
                 for eps in REDUCED_OFFSETS]
    mean = sum(sqrt_read) / len(sqrt_read)
    for k in sqrt_read:
        assert 0.5 * mean <= k <= 1.5 * mean
    # the measured behavior is in fact linear in eps, which is sharper
    linear_read = [abs(reduced_states[eps].rho) / eps
                   for eps in REDUCED_OFFSETS]
    mean_lin = sum(linear_read) / len(linear_read)
    for k in linear_read:
        assert 0.9 * mean_lin <= k <= 1.1 * mean_lin


def test_reduced_balance_identity(unit_ball6, reduced_states):
    consts = balance_constants(N6)
    h0 = robin(unit_ball6, unit_ball6.center).phi
    scaled = []
    for eps in REDUCED_OFFSETS:
        st = reduced_states[eps]
        residual = consts.c2 * eps - consts.c1 * h0 / st.lam ** (N6 - 4.0)
        identity = -consts.c2 * eps * (
            2.0 * math.sqrt(h0) * st.rho + h0 * st.rho ** 2)
        assert residual == pytest.approx(identity, rel=1e-9)
        scaled.append(abs(residual / eps))
    assert all(b < a for a, b in zip(scaled, scaled[1:]))


@pytest.mark.parametrize("n,eps", [(6, 0.05), (6, 0.02), (6, 0.002),
                                   (8, 0.05), (8, 0.01)])
def test_reduced_integrals_match_separate_integrals(n, eps):
    # the four pairings share one panel set per density; each agrees with
    # its own converged radial_integral
    p = critical_exponent(n)
    lam = balance_scale(balance_constants(n), center_potential(n), eps)
    ball = lambda f: radial_integral(n, f, 1.0, seams=core_seams(lam, 1.0))
    dpow = lambda r: radial_profile(n, lam, r) ** p
    pd = lambda r: _projected_profile(n, lam, r, 1.0)
    # lam d/dlam Pdelta written out: the scale derivative minus the
    # Navier extension of its traces at R = 1
    scale_lap = _laplacians(n, _laplacian_prefactor(n, lam, 1.0), lam ** 2)[1]
    pds = lambda r: (scale_derivative(n, lam, r)
                     - scale_derivative(n, lam, 1.0)
                     - scale_lap * (r ** 2 - 1.0) / (2.0 * n))
    separate = (
        ball(lambda r: dpow(r) * pd(r)),
        ball(lambda r: np.abs(pd(r)) ** (p - eps) * pd(r)),
        ball(lambda r: dpow(r) * pds(r)),
        ball(lambda r: np.abs(pd(r)) ** (p - 1.0 - eps) * pd(r) * pds(r)),
    )
    shared = reduction._reduced_integrals(n, 1.0, lam, eps)
    for got, want in zip(shared, separate):
        assert abs(got - want) <= QUAD_RTOL * abs(want)


@pytest.mark.parametrize("eps", REDUCED_OFFSETS)
def test_reduced_system_integrates_each_scale_once(unit_ball6,
                                                   reduced_states, eps,
                                                   monkeypatch):
    # the Jacobian's amplitude differences and the first iterate sit at
    # the origin's scale, so the scales are the origin's, the two of the
    # Jacobian's scale differences and one per later iterate; each is
    # integrated once, and the state matches a run that integrates at
    # every evaluation to the bit
    scales = []
    integrals = reduction._reduced_integrals
    with monkeypatch.context() as m:
        m.setattr(reduction, "_reduced_integrals",
                  lambda *a: scales.append(a[2]) or integrals(*a))
        st = solve_reduced_system(eps, unit_ball6.center, unit_ball6)
    assert len(scales) == len(set(scales)) == st.iterations + 2
    monkeypatch.setattr(functools, "cache", lambda f: f)
    assert solve_reduced_system(eps, unit_ball6.center, unit_ball6) == st
    assert st == reduced_states[eps]


def test_reduced_validation(unit_ball6):
    with pytest.raises(ValueError, match="positive"):
        solve_reduced_system(-0.01, unit_ball6.center, unit_ball6)
    with pytest.raises(ValueError, match="at most 0.1"):
        solve_reduced_system(0.2, unit_ball6.center, unit_ball6)
    off = np.zeros(N6)
    off[0] = 0.1
    with pytest.raises(ValueError, match="centered critical point"):
        solve_reduced_system(0.01, off, unit_ball6)


def test_reduced_noncontraction_carries_history(unit_ball6, monkeypatch):
    monkeypatch.setattr(reduction, "_REDUCED_MAX_STEPS", 2)
    with pytest.raises(NonContractionError) as err:
        solve_reduced_system(0.05, unit_ball6.center, unit_ball6)
    assert len(err.value.history) == 2
    beta, rho, step = err.value.history[-1]
    assert math.isfinite(beta) and math.isfinite(rho) and step > 0


def test_reduced_state_invariants(reduced_states):
    st = reduced_states[0.05]
    with pytest.raises(ValueError, match="contraction"):
        ReducedState(eps=st.eps, beta=st.beta, rho=st.rho, lam=st.lam,
                     ratios=(0.5, 1.0), iterations=st.iterations)
    with pytest.raises(ValueError, match="at least 1"):
        ReducedState(eps=st.eps, beta=st.beta, rho=st.rho, lam=st.lam,
                     ratios=st.ratios, iterations=0)


# ---------------------------------------------------------------------------
# blow-up verdicts

def test_verdict_passes_on_reference_sweep(reference_verdict):
    v = reference_verdict
    assert v.verdict is True
    assert v.peak_ok and v.scale_ok
    assert v.peak_limit_eps == pytest.approx(394.1123, rel=1e-6)
    assert v.peak_limit_epslog == pytest.approx(390.3408, rel=1e-6)
    assert v.scale_limit_eps == pytest.approx(20.033619, rel=1e-6)
    assert v.scale_limit_epslog == pytest.approx(20.111932, rel=1e-6)


def test_verdict_targets_are_closed_form(reference_verdict):
    v = reference_verdict
    assert v.peak_target == pytest.approx(20.0 * math.sqrt(384.0), rel=1e-12)
    assert v.scale_target == pytest.approx(20.0, rel=1e-12)


def test_sweep_records_carry_the_laws(subcritical_sweep,
                                      sweep_decompositions):
    records = cli._sweep_records(N6, subcritical_sweep, sweep_decompositions)
    assert len(records) == len(subcritical_sweep)
    for rec, sol in zip(records, subcritical_sweep):
        assert rec["eps"] == abs(sol.eps)
        assert rec["eps_peak_sq"] == pytest.approx(
            rec["eps"] * rec["peak"] ** 2, rel=1e-14)
        assert rec["eps_lam_pow"] == pytest.approx(
            rec["eps"] * rec["lam"] ** 2, rel=1e-14)
    assert records[-1]["peak_scale_ratio"] == pytest.approx(
        1.0065158, rel=1e-6)
    laws = [rec["eps_lam_pow"] for rec in records]
    assert all(b > a for a, b in zip(laws, laws[1:]))


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_every_law_consumer_reads_the_law_home(n):
    # the constant table, the verdict's targets, the sweep records and
    # the obstruction's closed-form root agree with bubble's law bit for
    # bit, each at the closed-form center potential
    consts = balance_constants(n)
    ball = BallDomain.unit(n)
    rows = dict(cli.constants_rows(n))
    scale, peak = law_limits(consts, center_potential(n))
    assert rows["unit-ball center potential"] == center_potential(n)
    assert rows["scale law limit eps*lam^(n-4), unit ball"] == scale
    assert rows["peak law limit eps*M^2, unit ball"] == peak

    offsets = (0.05, 0.02, 0.01, 0.005)
    sweep = []
    for k, eps in enumerate(offsets):
        lam = 10.0 * (k + 1)
        dec = Decomposition(alpha=1.0, a=np.zeros(n), lam=lam, v_norm=0.01,
                            ortho_residuals=(0.0, 0.0), domain=ball)
        sweep.append((-eps, dec, 3.0 * lam))
    verdict = blowup_verdict(sweep, ball.center, ball, consts=consts)
    phi = center_potential(n)
    assert (verdict.scale_target, verdict.peak_target) == law_limits(
        consts, phi)
    sols = [SimpleNamespace(eps=eps, M=peak_value, newton_iters=0,
                            residual=0.0, pohozaev_defect=lambda: 0.0)
            for eps, _, peak_value in sweep]
    records = cli._sweep_records(n, sols, [dec for _, dec, _ in sweep])
    for rec, (eps, dec, peak_value) in zip(records, sweep):
        assert (rec["eps_lam_pow"], rec["eps_peak_sq"],
                rec["peak_scale_ratio"]) == law_quantities(
                    n, abs(eps), peak_value, dec.lam)

    report = supercritical_obstruction(offsets, ball)
    for entry in report.entries:
        assert entry.subcritical_root_closed == balance_scale(
            consts, phi, entry.eps)


def test_verdict_validation(unit_ball6, subcritical_sweep,
                            sweep_decompositions):
    sweep = [(s.eps, d, s.M)
             for s, d in zip(subcritical_sweep, sweep_decompositions)]
    with pytest.raises(ValueError, match="at least four"):
        blowup_verdict(sweep[:3], unit_ball6.center, unit_ball6)
    shuffled = sweep[:3] + [sweep[2]]
    with pytest.raises(ValueError, match="decreasing"):
        blowup_verdict(shuffled, unit_ball6.center, unit_ball6)
    bad_peak = [(e, d, -1.0) if i == 2 else (e, d, m)
                for i, (e, d, m) in enumerate(sweep)]
    with pytest.raises(ValueError, match="positive"):
        blowup_verdict(bad_peak, unit_ball6.center, unit_ball6)
    off = np.zeros(N6)
    off[0] = 0.2
    with pytest.raises(ValueError, match="centered"):
        blowup_verdict(sweep, off, unit_ball6)
    other = BallDomain(N6, np.zeros(N6), 2.0)
    with pytest.raises(ValueError, match="share the domain"):
        blowup_verdict(sweep, other.center, other)


def test_verdict_requires_matching_constants(unit_ball6, subcritical_sweep,
                                             sweep_decompositions):
    sweep = [(s.eps, d, s.M)
             for s, d in zip(subcritical_sweep, sweep_decompositions)]
    with pytest.raises(ValueError, match="do not match"):
        blowup_verdict(sweep, unit_ball6.center, unit_ball6,
                       consts=balance_constants(5))


# ---------------------------------------------------------------------------
# supercritical obstruction

@pytest.fixture(scope="module")
def obstruction(unit_ball6):
    return supercritical_obstruction([0.05, 0.02, 0.01], unit_ball6)


def test_obstruction_margin_identity():
    # margin is the smallest domain term over lam <= 1e4 / R, at the
    # center where phi is least: c1 phi(0) / (1e4 / R)^(n-4), which is
    # c1 center_potential(n) / 1e4^(n-4) at every radius, computed as that
    # product; scan_min is the sum of the two terms, both exactly
    for n in (5, 6, 7, 8):
        consts = balance_constants(n)
        margin = consts.c1 * center_potential(n) / 1e4 ** (n - 4.0)
        for radius in (1.0, 1.7, 0.5):
            ball = BallDomain(n, np.zeros(n), radius)
            report = supercritical_obstruction([0.09, 0.05, 0.02], ball)
            for entry in report.entries:
                assert entry.positive
                assert entry.margin == margin
                assert entry.floor == consts.c2 * entry.eps
                assert entry.scan_min == entry.floor + entry.margin
            assert report.all_positive


@pytest.mark.parametrize("n,radius", [(5, 1e40), (6, 1e-30), (9, 1e20)])
def test_obstruction_root_in_units_of_the_radius(n, radius):
    # the root is the unit ball's over R, which raises no power of R; far
    # from unit radius it meets the closed form at the ball's own center
    # potential, whose powers of R round to a relative 1.3e-14 at most
    # (measured over n = 5 to 81 and R = 1e-300 to 1e300)
    consts = balance_constants(n)
    ball = BallDomain(n, np.zeros(n), radius)
    unit = supercritical_obstruction([0.09, 0.02], BallDomain.unit(n))
    report = supercritical_obstruction([0.09, 0.02], ball)
    for entry, unit_entry in zip(report.entries, unit.entries):
        assert entry.subcritical_root_closed == (
            unit_entry.subcritical_root_closed / radius)
        assert entry.subcritical_root_closed == pytest.approx(
            balance_scale(consts, center_potential(n, radius), entry.eps),
            rel=1e-13, abs=0.0)


def test_reduction_reads_the_center_potential_in_closed_form(
        monkeypatch, unit_ball6, subcritical_sweep, sweep_decompositions):
    # the verdict and the obstruction take phi(0) from
    # bubble.center_potential and sum no Robin series; the reduced system
    # evaluates the Robin function once, at its center
    calls = []
    original = robin

    def counted(domain, x):
        calls.append(np.asarray(x, dtype=float))
        return original(domain, x)

    monkeypatch.setattr(green_robin, "robin", counted)
    monkeypatch.setattr(reduction, "robin", counted)
    sweep = [(s.eps, d, s.M)
             for s, d in zip(subcritical_sweep, sweep_decompositions)]
    verdict = blowup_verdict(sweep, unit_ball6.center, unit_ball6)
    assert (verdict.scale_target, verdict.peak_target) == law_limits(
        balance_constants(N6), center_potential(N6))
    supercritical_obstruction([0.05, 0.02], unit_ball6)
    assert calls == []
    solve_reduced_system(0.05, unit_ball6.center, unit_ball6)
    assert len(calls) == 1
    assert np.array_equal(calls[0], unit_ball6.center)


def test_obstruction_contrast_roots(obstruction):
    consts = balance_constants(N6)
    roots = []
    for entry in obstruction.entries:
        assert entry.subcritical_root_closed == balance_scale(
            consts, center_potential(N6), entry.eps)
        roots.append(entry.subcritical_root_closed)
    assert roots[0] == pytest.approx(20.0, rel=1e-10)
    assert all(b > a for a, b in zip(roots, roots[1:]))


def test_balance_radius_invariance():
    # the closed-form root of the leading-order scale balance, as the
    # obstruction records it, scales with the radius
    invariants = []
    for radius in (1.0, 2.0, 3.7):
        ball = BallDomain(N6, np.zeros(N6), radius)
        entry = supercritical_obstruction([0.01], ball).entries[0]
        root = entry.subcritical_root_closed
        invariants.append(0.01 * root ** (N6 - 4.0) * radius ** (N6 - 4.0))
    assert invariants[0] == pytest.approx(invariants[1], rel=1e-8)
    assert invariants[0] == pytest.approx(invariants[2], rel=1e-8)
    consts = balance_constants(N6)
    assert invariants[0] == pytest.approx(
        consts.c1 / consts.c2 * (2.0 * N6 - 4.0) / N6, rel=1e-10)


@pytest.mark.parametrize("n,eps", [(6, 0.9)] + [
    (n, eps) for n in (8, 9, 12) for eps in (0.02, 0.05, 0.09)])
def test_obstruction_root_bracket_from_closed_form(n, eps):
    # the closed-form root balances the matched subcritical terms,
    # c2 eps = c1 phi(0) / lam^(n-4), also where it falls below lam = 5,
    # the lower end of the bisection bracket this root replaced: at
    # n = 6, eps = 0.9, at n = 8, eps = 0.09, at n = 9, eps >= 0.05 and at
    # n = 12 at every offset here
    consts = balance_constants(n)
    entry = supercritical_obstruction([eps], BallDomain.unit(n)).entries[0]
    lam = entry.subcritical_root_closed
    assert consts.c1 * center_potential(n) / lam ** (n - 4.0) == (
        pytest.approx(consts.c2 * eps, rel=1e-13))
    assert entry.positive


def test_obstruction_runs_in_dimension_five():
    ball5 = BallDomain.unit(5)
    report = supercritical_obstruction([0.05, 0.01], ball5)
    assert report.all_positive
    # at n = 5 the balance is linear in 1 / lam: lam = c1 phi(0) / (c2 eps)
    consts = balance_constants(5)
    for entry in report.entries:
        assert entry.subcritical_root_closed == pytest.approx(
            consts.c1 * center_potential(5) / (consts.c2 * entry.eps),
            rel=1e-14)


def test_obstruction_validation(unit_ball6):
    with pytest.raises(ValueError, match="not be empty"):
        supercritical_obstruction([], unit_ball6)
    with pytest.raises(ValueError, match="positive"):
        supercritical_obstruction([0.05, -0.01], unit_ball6)


def test_obstruction_refuses_offsets_past_p_minus_one():
    # the closed-form root (c1 phi(0) / (c2 eps))^(1/(n-4)) underflowed
    # here and the subcritical balance divided by 0 ** (n - 4): a
    # ZeroDivisionError, where solve_radial refuses the same offset
    ball = BallDomain(81, np.zeros(81), 100.0)
    with pytest.raises(ValueError, match=r"below p - 1 = 0\.103896"):
        supercritical_obstruction([1e300], ball)
    with pytest.raises(ValueError, match="below p - 1 = 4"):
        supercritical_obstruction([0.05, 4.0], BallDomain.unit(N6))


@pytest.mark.parametrize("end", [0, 1])
@pytest.mark.parametrize("n", [5, 6, 9, 20, 40, 63, 81])
def test_obstruction_is_finite_just_below_p_minus_one(n, end):
    # the largest offset admitted, at either end of the radius window the
    # CLI derives off n = 6 from the written roots (at n = 6 it applies
    # the narrower grid window): every term a positive normal double
    eps = (critical_exponent(n) - 1) * (1 - 1e-15)
    radius = cli._obstruction_radius_window(n, [eps])[end]
    (entry,) = supercritical_obstruction(
        [eps], BallDomain(n, np.zeros(n), radius)).entries
    for value in (entry.scan_min, entry.floor, entry.margin,
                  entry.subcritical_root_closed):
        assert sys.float_info.min <= value <= sys.float_info.max
    assert entry.positive
