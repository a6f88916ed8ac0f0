"""Quadrature, discrete-calculus and fitting kernels.

Expected values come from closed forms worked out independently of the
implementation: Gamma-function values for sphere measures, the Beta
integral int_0^inf r^{n-1} (1+r^2)^{-b} dr = B(n/2, b-n/2)/2 for the decay
family, and symbolic differentiation for the polynomial stencil checks.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import beta as beta_fn

from navier_bubbles import numerics
from navier_bubbles.bubble import critical_exponent, radial_profile
from navier_bubbles.numerics import (
    QUAD_RTOL,
    RadialGrid,
    _unit_panels,
    converged_quadrature,
    gauss_legendre_panels,
    _laplacian_stencil,
    _stencil_weights,
    SlopeFit,
    fit_loglog,
    radial_bilaplacian,
    radial_integral,
    sphere_measure,
)
from zonal_oracle import ball_axisymmetric_integral

PI = math.pi


# ---------------------------------------------------------------------------
# sphere_measure


def test_sphere_measure_circle():
    assert math.isclose(sphere_measure(2), 2 * PI, rel_tol=1e-15)


def test_sphere_measure_frozen_values():
    # 2 pi^3 / Gamma(3) = pi^3 and 2 pi^{5/2} / Gamma(5/2) = 8 pi^2 / 3
    assert math.isclose(sphere_measure(6), PI ** 3, rel_tol=1e-14)
    assert math.isclose(sphere_measure(5), 8 * PI ** 2 / 3, rel_tol=1e-14)


def test_sphere_measure_rejects_low_dimension():
    with pytest.raises(ValueError):
        sphere_measure(1)


# ---------------------------------------------------------------------------
# radial_integral


def test_radial_integral_decay_kernel_n6():
    # Beta oracle: int_0^inf r^5 (1+r^2)^{-5} dr = B(3,2)/2 = 1/24
    val = radial_integral(6, lambda r: (1 + r * r) ** -5.0)
    assert math.isclose(val, PI ** 3 / 24, rel_tol=1e-10)


def test_radial_integral_ball_volume():
    val = radial_integral(6, lambda r: 1.0, r_max=1.0)
    assert math.isclose(val, PI ** 3 / 6, rel_tol=1e-12)


def test_radial_integral_decay_kernel_n5():
    # B(5/2, 2)/2 * |S^4| = (4/35)/2 * 8 pi^2/3 = 16 pi^2 / 105
    val = radial_integral(5, lambda r: (1 + r * r) ** -4.5)
    assert math.isclose(val, 16 * PI ** 2 / 105, rel_tol=1e-10)


@pytest.mark.parametrize("n,b", [(5, 4.0), (5, 4.5), (6, 5.0), (6, 6.0),
                                 (8, 6.5), (8, 8.0)])
def test_radial_integral_matches_beta_family(n, b):
    val = radial_integral(n, lambda r: (1 + r * r) ** -b)
    oracle = sphere_measure(n) * beta_fn(n / 2.0, b - n / 2.0) / 2.0
    assert math.isclose(val, oracle, rel_tol=1e-9)


# 1/(1+r^2) against r^5 is not integrable at infinity, r^-6.5 against r^5
# not at the origin; every quadrature route, the test oracle's
# axisymmetric one included, must refuse instead of returning a number
@pytest.mark.parametrize("route", [
    lambda: radial_integral(6, lambda r: 1.0 / (1.0 + r * r)),
    lambda: radial_integral(6, lambda r: r ** -6.5),
    lambda: radial_integral(6, lambda r: r ** -6.5, r_max=1.0),
    lambda: ball_axisymmetric_integral(
        6, lambda r, c: r ** -6.5 * np.ones_like(c), 1.0),
], ids=["slow-decay", "origin-infinite", "origin-unit",
        "origin-axisymmetric"])
def test_radial_integral_flags_slow_decay(route):
    with pytest.raises(RuntimeError):
        route()


def direct_panels(edges, counts):
    # the composite rule built piece by piece from its panel cuts
    gl_x, gl_w = np.polynomial.legendre.leggauss(16)
    nodes, weights = [], []
    for a, b, count in zip(edges, edges[1:], counts):
        cuts = np.linspace(a, b, count + 1)
        half = np.diff(cuts)[:, None] / 2.0
        nodes.append((cuts[:-1, None] + half * (1.0 + gl_x)).ravel())
        weights.append((half * gl_w).ravel())
    return np.concatenate(nodes), np.concatenate(weights)


PANEL_LAYOUTS = [([0.0, 1.0], [1]), ([0.0, 0.05, 0.3, 1.0], [3, 7, 16]),
                 ([-2.0, 0.5, 7.0], [64, 5])]


@pytest.mark.parametrize("edges,counts", PANEL_LAYOUTS)
def test_gauss_legendre_panels_match_direct_construction(edges, counts):
    x, w = gauss_legendre_panels(edges, counts)
    x_direct, w_direct = direct_panels(edges, counts)
    scale = max(abs(e) for e in edges)
    assert np.max(np.abs(x - x_direct)) <= 4e-16 * scale
    assert np.max(np.abs(w - w_direct) / w_direct) <= 1e-14


@pytest.mark.parametrize("edges,counts", PANEL_LAYOUTS)
def test_gauss_legendre_panels_exact_to_degree_31(edges, counts):
    rng = np.random.default_rng(31)
    x, w = gauss_legendre_panels(edges, counts)
    for _ in range(4):
        poly = np.polynomial.Polynomial(rng.standard_normal(32))
        antiderivative = poly.integ()
        exact = antiderivative(edges[-1]) - antiderivative(edges[0])
        size = np.polynomial.Polynomial(np.abs(poly.coef)).integ()(
            max(abs(e) for e in edges)) * 2.0
        assert abs(w @ poly(x) - exact) <= 1e-14 * size


def test_gauss_legendre_panels_cache_is_read_only():
    x, w = gauss_legendre_panels([0.0, 1.0], [4])
    unit_x, unit_w = _unit_panels(4)
    for cached in (unit_x, unit_w):
        with pytest.raises(ValueError, match="read-only"):
            cached[0] = 0.5
    # the returned arrays are the caller's own
    x[:] = 0.0
    w[:] = 0.0
    again_x, again_w = gauss_legendre_panels([0.0, 1.0], [4])
    assert np.array_equal(again_x, unit_x)
    assert np.array_equal(again_w, unit_w)


def test_converged_quadrature_waits_for_every_component():
    # the first component is settled from the start, the second moves
    # until density 64; the pair converges only where both agree
    def evaluate(density):
        return np.array([1.0, 1.0 + (1e-3 / density if density < 64 else 0)])

    value, density = converged_quadrature(evaluate)
    assert density == 128
    assert np.array_equal(value, [1.0, 1.0])
    assert converged_quadrature(lambda d: evaluate(d)[0])[1] == 2
    with pytest.raises(RuntimeError, match="did not converge"):
        converged_quadrature(lambda d: np.array([1.0, 1.0 + 1e-3 / d]))


@pytest.mark.parametrize("r_max", [1.0, math.inf])
def test_radial_integral_rows_match_separate_integrals(r_max):
    powers = (4.0, 5.0, 6.5)
    rows = radial_integral(
        6, lambda r: np.array([(1 + r * r) ** -b for b in powers]), r_max,
        seams=(0.5, 3.0))
    assert rows.shape == (3,)
    for got, b in zip(rows, powers):
        alone = radial_integral(6, lambda r: (1 + r * r) ** -b, r_max,
                                seams=(0.5, 3.0))
        assert abs(got - alone) <= QUAD_RTOL * abs(alone)


# ---------------------------------------------------------------------------
# discrete operators


def uniform_grid(n, N, R):
    return RadialGrid(n, np.linspace(0.0, R, N), float(R))


def grid6(N=128):
    # coarse on purpose: the stencils are exact on these polynomials, so
    # the only residue is rounding, which grows like 1/h^4 as N rises
    return uniform_grid(6, N, 2.0)


def ld_nodes(g):
    # polynomial samples built in extended precision, per the operator's
    # stated contract for tight error floors
    return np.asarray(g.nodes, dtype=np.longdouble)


def test_bilaplacian_annihilates_quadratic():
    g = grid6()
    out = radial_bilaplacian(ld_nodes(g) ** 2, g)
    assert np.max(np.abs(out)) < 1e-8


def test_bilaplacian_annihilates_boundary_compatible_profile():
    # a + b r^2 with the mix chosen so u(R) = 0; still exactly biharmonic
    g = grid6()
    u = np.longdouble(g.R) ** 2 - ld_nodes(g) ** 2
    out = radial_bilaplacian(u, g)
    assert np.max(np.abs(out)) < 1e-8


def test_bilaplacian_quartic_frozen_value():
    # Delta r^4 = 32 r^2 at n = 6, then Delta 32 r^2 = 384
    g = grid6()
    out = radial_bilaplacian(ld_nodes(g) ** 4, g)
    assert np.max(np.abs(out - 384.0)) < 1e-6


def test_bilaplacian_second_order_on_smooth_profile():
    errs = []
    for N in (256, 512, 1024):
        g = uniform_grid(6, N, 2.0)
        u = np.cos(g.nodes ** 2)
        exact = _bilap_cos_r2(g.nodes, 6)
        out = radial_bilaplacian(u, g)
        errs.append(np.max(np.abs(out - exact)))
    assert errs[0] / errs[1] > 3.4
    assert errs[1] / errs[2] > 3.4


def _bilap_cos_r2(r, n):
    # symbolic oracle for u = cos(r^2):
    #   Delta u = -2 n sin(r^2) - 4 r^2 cos(r^2)
    #   Delta^2 u = (-4 (2 n + 4) + 16 r^4) cos(r^2)
    #               + (-4 n^2 - 16 n + 16 r^2 + 32 r^2) ... expanded below
    t = r * r
    s, c = np.sin(t), np.cos(t)
    # w = Delta u = -2n s - 4 t c
    # w' (in r) = -4 n r c - 8 r c + 16 ... differentiate in t then chain
    # dw/dt = -2n c - 4 c + 4 t s ; d2w/dt2 = (2n + 8) s + 4 t c
    # Delta w = 4 t d2w/dt2 + 2 n dw/dt
    d1 = -2 * n * c - 4 * c + 4 * t * s
    d2 = (2 * n + 8) * s + 4 * t * c
    return 4 * t * d2 + 2 * n * d1


def test_laplacian_matches_oracle():
    # the inner stage of radial_bilaplacian, one application of Delta on
    # the interior rows
    g = grid6(1024)
    u = np.exp(-g.nodes ** 2).astype(np.longdouble)
    t = g.nodes ** 2
    exact = (4 * t - 2 * 6) * np.exp(-t)
    lower, middle, upper, den = _laplacian_stencil(ld_nodes(g), 6)
    out = np.asarray((lower * u[:-2] + middle * u[1:-1] + upper * u[2:])
                     / den, dtype=float)
    assert np.max(np.abs(out - exact[1:-1])) < 2e-4


@settings(max_examples=60, deadline=None)
@given(J=st.integers(5, 9), seed=st.integers(0, 2 ** 32 - 1))
def test_stencil_weights_differentiate_polynomials(J, seed):
    # random integer polynomials of degree J - 1 have exact derivative
    # coefficients (polyder); the weights must reproduce derivatives 0-4
    # at random points to longdouble rounding of the weighted sum
    P = np.polynomial.polynomial
    rng = np.random.default_rng(seed)
    x = -1 + np.cumsum(rng.uniform(0.1, 0.5, (3, J)), axis=1)
    x = x.astype(np.longdouble)
    z = rng.uniform(-1.2, 1.5, 3).astype(np.longdouble)
    coef = rng.integers(-9, 10, J).astype(np.longdouble)
    w = _stencil_weights(z, x, 4)
    assert w.dtype == np.longdouble and w.shape == (3, 5, J)
    f = P.polyval(x, coef)
    for k in range(5):
        exact = P.polyval(z, P.polyder(coef, k))
        terms = w[:, k] * f
        bound = 64 * np.finfo(np.longdouble).eps * (
            np.sum(np.abs(terms), axis=-1) + np.abs(exact))
        assert np.all(np.abs(np.sum(terms, axis=-1) - exact) <= bound)


@pytest.mark.parametrize("n", [5, 6, 8])
@pytest.mark.parametrize("N", [1024, 4096])
def test_bilaplacian_local_zones_on_bubble(n, N):
    # the criterion-1 grids, zone by zone: the head interpolant in r^2
    # (r < 0.008 R) and the strided band windows (0.008 R to 0.04 R)
    # sit far below the O(h^2) interior error, relative to max u^p
    grid = RadialGrid.arctan_graded(n, N, R=10.0, stretch=0.8)
    u = radial_profile(n, 1.0, np.asarray(grid.nodes, dtype=np.longdouble))
    rhs = u ** np.longdouble(critical_exponent(n))
    err = np.abs(radial_bilaplacian(u, grid) - rhs) / float(rhs.max())
    r = grid.nodes / grid.R
    assert err[r < 0.008].max() <= 2e-9
    assert err[(r >= 0.008) & (r < 0.04)].max() <= 5e-8


# ---------------------------------------------------------------------------
# shared work of radial_bilaplacian against the per-row routes it replaced


def _leading_rows_weights(z, x, m):
    # Fornberg's recurrence with the stencils leading and the nodes in the
    # last axis: the route _stencil_weights ran before its recurrence
    # moved the node axis to the front
    z = np.asarray(z, dtype=np.asarray(x).dtype)
    x = np.broadcast_to(x, z.shape + np.shape(x)[-1:])
    k = np.arange(m + 1, dtype=x.dtype)
    w = np.zeros(x.shape[:-1] + (m + 2, x.shape[-1]), dtype=x.dtype)
    w[..., 1, 0] = 1
    c1 = np.ones_like(z)[..., None]
    c4 = (x[..., 0] - z)[..., None]
    for i in range(1, x.shape[-1]):
        top = min(i, m) + 1
        d = x[..., i, None] - x[..., :i]
        c2 = np.prod(d, axis=-1)[..., None]
        c5, c4 = c4, (x[..., i] - z)[..., None]
        w[..., 1:top + 1, i] = c1 / c2 * (k[:top] * w[..., :top, i - 1]
                                          - c5 * w[..., 1:top + 1, i - 1])
        w[..., 1:top + 1, :i] = (c4[..., None] * w[..., 1:top + 1, :i]
                                 - k[:top, None] * w[..., :top, :i]
                                 ) / d[..., None, :]
        c1 = c2
    return w[..., 1:, :]


def _self_contained_laplacian(u, r, n):
    # one application of Delta on the interior rows r[1:-1] that builds
    # its own coefficients and denominator
    hm = r[1:-1] - r[:-2]
    hp = r[2:] - r[1:-1]
    den = hm * hp * (hm + hp)
    g = (n - 1) / r[1:-1]
    return ((2 * hp - g * hp * hp) * u[:-2]
            + (-2 * (hm + hp) + g * (hp * hp - hm * hm)) * u[1:-1]
            + (2 * hm + g * hm * hm) * u[2:]) / den


def _head_zone(grid):
    # radial_bilaplacian's head rows and the fit nodes of their polynomial
    nodes = grid.nodes
    r_head = 0.008 * grid.R
    fit_radii = r_head * np.array([1.0, 1.4, 1.8, 2.2, 2.6, 3.0, 3.5, 4.0])
    js = np.unique(np.searchsorted(nodes, fit_radii))
    js = np.concatenate([[0], js[js < nodes.size]])
    return int(np.searchsorted(nodes, r_head)), js


def _per_row_head(u, grid):
    # every head row's own Fornberg table in t = r^2, the route the one
    # polynomial at t = 0 replaced
    n = grid.n
    head, js = _head_zone(grid)
    r = grid.nodes.astype(np.longdouble)
    u = np.asarray(u).astype(np.longdouble)
    t = r[:head] ** 2
    F2, F3, F4 = np.einsum("ikj,j->ki",
                           _leading_rows_weights(t, r[js] ** 2, 4)[:, 2:],
                           u[js] - u[0])
    return np.asarray(16 * t * t * F4 + 16 * (n + 2) * t * F3
                      + 4 * n * (n + 2) * F2, dtype=np.float64)


def _stencil_shapes():
    # the four call shapes of _stencil_weights: the head polynomial, the
    # band and tail windows, and the three-point slope of
    # solver._pohozaev_sides (float64); and a one-sided second derivative
    # on the last four nodes
    grid = RadialGrid.arctan_graded(6, 4096, R=10.0, stretch=0.8)
    r = grid.nodes.astype(np.longdouble)
    head, js = _head_zone(grid)
    band = np.arange(300, 600)
    f = RadialGrid.sinh_graded(6, 2048, strength=5.0).nodes
    return {
        "outer": (r[-1], r[-4:], 2),
        "head": (np.longdouble(0), r[js] ** 2, len(js) - 1),
        "head_rows": (r[:head] ** 2, r[js] ** 2, 4),
        "band": (r[band], r[band[:, None] + 3 * np.arange(-3, 4)], 4),
        "tail": (r[[-2, -1]], r[np.arange(r.size - 19, r.size, 3)], 4),
        "pohozaev": (f[-1], f[-3:], 1),
    }


@pytest.mark.parametrize("shape", ["outer", "head", "head_rows", "band",
                                   "tail", "pohozaev"])
def test_stencil_weights_match_leading_rows_recurrence(shape):
    z, x, m = _stencil_shapes()[shape]
    got = _stencil_weights(z, x, m)
    want = _leading_rows_weights(z, x, m)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.flags.c_contiguous
    assert np.array_equal(got, want)


@pytest.mark.parametrize("n", [5, 6, 8])
def test_shared_laplacian_stencil_matches_self_contained(n, monkeypatch):
    # the rows of radial_bilaplacian that no local model writes, rows 2 to
    # N - 3 past the head and outside the band, are two applications of a
    # self-contained 3-point stencil to the bit, and the shared stencil is
    # built once per call
    grid = RadialGrid.arctan_graded(n, 2048, R=10.0, stretch=0.8)
    r = grid.nodes.astype(np.longdouble)
    u = radial_profile(n, 1.0, r)
    twice = _self_contained_laplacian(_self_contained_laplacian(u, r, n),
                                      r[1:-1], n)
    composed = np.zeros(r.size, dtype=bool)
    composed[2:-2] = True
    composed[:_head_zone(grid)[0]] = False
    # the band runs from row 10 at the earliest (a stride-3 window's
    # reach) to 0.04 R
    composed[10:int(np.searchsorted(grid.nodes, 0.04 * grid.R))] = False
    built = []
    monkeypatch.setattr(numerics, "_laplacian_stencil",
                        lambda *a: built.append(a) or _laplacian_stencil(*a))
    out = radial_bilaplacian(u, grid)
    assert len(built) == 1
    assert composed.sum() > r.size // 2
    assert np.array_equal(out[composed],
                          np.asarray(twice, dtype=float)[composed[2:-2]])


HEAD_GRIDS = [
    RadialGrid.arctan_graded(n, N, R=10.0, stretch=0.8)
    for n in (5, 6, 8) for N in (1024, 2048, 4096)
] + [RadialGrid.sinh_graded(n, N, strength=5.0)
     for n in (5, 9, 12) for N in (256, 2048)]


@pytest.mark.parametrize("grid", HEAD_GRIDS,
                         ids=lambda g: "n%d-%d" % (g.n, len(g)))
@pytest.mark.parametrize("lam,dtype", [(1.0, np.longdouble),
                                       (30.0, np.float64)])
def test_head_rows_match_per_row_fornberg(grid, lam, dtype, monkeypatch):
    # the one polynomial at t = 0, evaluated by Horner, against a
    # Fornberg table per head row, relative to max |Delta^2 u|; every
    # other row is unchanged to the bit
    u = radial_profile(grid.n, lam, grid.nodes.astype(dtype))
    head, js = _head_zone(grid)
    points = []

    def counted(z, x, m):
        if np.all(np.asarray(x)[..., 0] == 0):
            points.append(np.size(z))
        return _stencil_weights(z, x, m)

    monkeypatch.setattr(numerics, "_stencil_weights", counted)
    out = radial_bilaplacian(u, grid)
    assert head > 1 and points == [1]
    drift = np.abs(out[:head] - _per_row_head(u, grid))
    assert drift.max() <= 1e-12 * np.abs(out).max()


def test_criterion_1_errors_keep_their_digits():
    # criterion 1's error ratios with the one head polynomial match those
    # of the per-row head to seven digits
    for n in (5, 6, 8):
        p = critical_exponent(n)
        new, old = [], []
        for N in (1024, 2048, 4096):
            grid = RadialGrid.arctan_graded(n, N, R=10.0, stretch=0.8)
            u = radial_profile(n, 1.0, grid.nodes.astype(np.longdouble))
            rhs = u ** np.longdouble(p)
            out = radial_bilaplacian(u, grid)
            per_row = out.copy()
            per_row[:_head_zone(grid)[0]] = _per_row_head(u, grid)
            new.append(float(np.max(np.abs(out - rhs)) / float(rhs.max())))
            old.append(float(np.max(np.abs(per_row - rhs))
                             / float(rhs.max())))
        for a, b in ((0, 1), (1, 2)):
            assert new[a] / new[b] == pytest.approx(old[a] / old[b],
                                                    rel=1e-7)


def test_bilaplacian_refuses_grids_too_coarse_at_the_origin():
    # the composition writes rows 2 to N - 3 only, so the head polynomial
    # must write rows 0 and 1: 64 uniform nodes on [0, 1] put one node
    # below 0.008 R, and three nodes below it with none out to 0.05 R
    # leave two fit nodes
    g = uniform_grid(6, 64, 1.0)
    with pytest.raises(ValueError, match="two nodes below 0.008 R"):
        radial_bilaplacian(np.cos(g.nodes ** 2), g)
    nodes = np.concatenate([[0.0, 0.004, 0.007], np.linspace(0.05, 1, 61)])
    g = RadialGrid(6, nodes, 1.0)
    with pytest.raises(ValueError, match="got 3 and 2"):
        radial_bilaplacian(np.cos(g.nodes ** 2), g)


def test_bilaplacian_rejects_mismatched_samples():
    g = grid6()
    with pytest.raises(ValueError):
        radial_bilaplacian(np.zeros(len(g) + 1), g)


# ---------------------------------------------------------------------------
# grids


def test_grid_invariants_enforced():
    with pytest.raises(ValueError):
        RadialGrid(6, np.linspace(0.1, 1.0, 64), 1.0)  # no origin node
    with pytest.raises(ValueError):
        RadialGrid(6, np.linspace(0.0, 0.9, 64), 1.0)  # last node != R
    with pytest.raises(ValueError):
        RadialGrid(4, np.linspace(0.0, 1.0, 64), 1.0)  # dimension too low
    with pytest.raises(ValueError):
        RadialGrid(6, np.linspace(0.0, 1.0, 32), 1.0)  # too few nodes


@settings(max_examples=25, deadline=None)
@given(N=st.integers(min_value=64, max_value=700),
       R=st.floats(min_value=0.5, max_value=20.0),
       kind=st.sampled_from(["uniform", "sinh", "arctan"]))
def test_grid_constructors_satisfy_invariants(N, R, kind):
    if kind == "uniform":
        g = uniform_grid(6, N, R)
    elif kind == "sinh":
        g = RadialGrid.sinh_graded(6, N, R, strength=4.0)
    else:
        g = RadialGrid.arctan_graded(6, N, R, stretch=0.8)
    assert g.nodes[0] == 0.0
    assert g.nodes[-1] == g.R == R
    assert np.all(np.diff(g.nodes) > 0)
    assert len(g) == N


# ---------------------------------------------------------------------------
# axisymmetric ball integral of the test oracle


def test_axisymmetric_volume():
    val = ball_axisymmetric_integral(6, lambda r, c: np.ones_like(c), 1.0)
    assert math.isclose(val, PI ** 3 / 6, rel_tol=1e-9)


def test_axisymmetric_cosine_second_moment():
    # mean of c^2 over S^{n-1} is 1/n, so the ball integral is |B_1|/n
    val = ball_axisymmetric_integral(6, lambda r, c: c * c, 1.0)
    assert math.isclose(val, PI ** 3 / 36, rel_tol=1e-9)


# ---------------------------------------------------------------------------
# fit_loglog


def test_fit_exact_square_law():
    xs = np.geomspace(0.1, 10.0, 12)
    fit = fit_loglog(xs, xs ** 2)
    assert abs(fit.slope - 2.0) < 1e-10
    assert fit.rms_residual < 1e-12


def test_fit_exact_inverse_law():
    xs = np.geomspace(0.5, 50.0, 9)
    fit = fit_loglog(xs, 3.0 / xs)
    assert abs(fit.slope + 1.0) < 1e-10
    assert abs(fit.intercept - math.log(3.0)) < 1e-10


def test_fit_perturbed_square_law():
    xs = np.geomspace(0.1, 10.0, 40)
    ys = xs ** 2 * (1 + 0.01 * np.sin(np.log(xs)))
    fit = fit_loglog(xs, ys)
    assert abs(fit.slope - 2.0) < 0.02
    assert fit.rms_residual < 0.02


def test_fit_rejects_bad_input():
    with pytest.raises(ValueError):
        fit_loglog([1.0, 2.0, 3.0], [1.0, 4.0, 9.0])  # too few points
    with pytest.raises(ValueError):
        fit_loglog([1.0, -2.0, 3.0, 4.0], [1.0, 4.0, 9.0, 16.0])


def test_slopefit_rejects_negative_rms():
    with pytest.raises(ValueError):
        SlopeFit(slope=1.0, intercept=0.0, rms_residual=-1.0)
