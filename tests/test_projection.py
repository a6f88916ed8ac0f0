"""Tests for the projected bubble and its deficit.

The package evaluates the deficit of a centered bubble in closed form
(constant boundary data force a quadratic). The independent route is the
general zonal solve of tests/zonal_oracle.py, which handles a bubble
anywhere in the ball: the closed form must agree with it pointwise, and
the oracle is pinned on its own off center by its boundary traces, the
pointwise squeeze and the exact two-term sphere-mean identity for
biharmonic functions. The decay laws are pinned by lam-sweeps.
"""

import math

import numpy as np
import pytest
from scipy.special import roots_jacobi

from navier_bubbles import projection
from navier_bubbles.bubble import (
    BubbleParams,
    _deficit_profile,
    _projected_laplacians,
    c0,
    eval_delta,
    radial_profile,
    radial_profile_laplacian,
    sobolev_energy,
)
from navier_bubbles.green_robin import BallDomain
from navier_bubbles.numerics import QUAD_RTOL, core_seams, radial_integral
from navier_bubbles.projection import (
    deficit,
    deficit_critical_norm,
    deficit_energy_norm,
    deficit_expansion,
    expansion_orders,
)
from zonal_oracle import ball_axisymmetric_integral, regular_part_H, \
    zonal_deficit


def e1(n):
    v = np.zeros(n)
    v[0] = 1.0
    return v


def centered(n, lam):
    return BubbleParams(a=np.zeros(n), lam=lam, n=n)


def test_deficit_center_closed_form():
    # Constant traces delta(R) and (Delta delta)(R) admit the exact
    # solution delta(R) + (Delta delta)(R) (|y|^2 - R^2)/(2n); deficit
    # evaluates it at the distance of the point from the center.
    for R, lam in ((1.0, 10.0), (2.0, 6.0)):
        n = 6
        dom = BallDomain(n=n, center=np.zeros(n), radius=R)
        p = centered(n, lam)
        base = radial_profile(n, lam, np.float64(R))
        curv = radial_profile_laplacian(n, lam, np.float64(R))
        for r in (0.0, 0.37 * R, 0.8 * R, R):
            got = deficit(p, dom, r * e1(n))
            expect = base + curv * (r * r - R * R) / (2 * n)
            assert math.isclose(got, expect, rel_tol=1e-12)


def test_deficit_boundary_trace_off_center():
    n = 6
    dom = BallDomain.unit(n)
    p = BubbleParams(a=0.3 * e1(n), lam=12.0, n=n)
    for theta_ang in (0.0, 1.0, 2.2, math.pi):
        xb = np.zeros(n)
        xb[0], xb[1] = math.cos(theta_ang), math.sin(theta_ang)
        expect = eval_delta(p, xb)
        got = zonal_deficit(p, dom).value(xb)
        assert math.isclose(got, expect, rel_tol=1e-10)


def test_deficit_squeezed_between_zero_and_bubble():
    n = 6
    dom = BallDomain.unit(n)
    p = BubbleParams(a=0.25 * e1(n), lam=20.0, n=n)
    bvp = zonal_deficit(p, dom)
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 100:
        x = rng.uniform(-1, 1, size=n)
        if np.linalg.norm(x) >= 0.999:
            continue
        th = bvp.value(x)
        assert 0.0 < th <= eval_delta(p, x)
        checked += 1


def test_deficit_center_leading_term():
    # lam * deficit(center) approaches c0 * H(0,0) = c0 * 4/3 at the
    # O(lam^-2) relative rate.
    n = 6
    dom = BallDomain.unit(n)
    errs = []
    for lam in (20.0, 40.0, 80.0):
        val = deficit(centered(n, lam), dom, np.zeros(n))
        errs.append(abs(lam * val / c0(n) - 4.0 / 3.0))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-3
    assert errs[0] / errs[2] > 8.0  # consistent with a quadratic rate


def test_deficit_is_biharmonic_sphere_mean():
    # Two-term Pizzetti identity: for biharmonic u the average over any
    # interior sphere of radius rho equals u(z0) + rho^2 Delta u(z0)/(2n),
    # with no higher corrections. This pins biharmonicity without a
    # discretized operator.
    n = 6
    dom = BallDomain.unit(n)
    p = BubbleParams(a=0.3 * e1(n), lam=15.0, n=n)
    bvp = zonal_deficit(p, dom)
    z0 = -0.2 * e1(n)
    rho = 0.35
    t, w = roots_jacobi(48, 0.5 * (n - 3), 0.5 * (n - 3))
    e_perp = np.zeros(n)
    e_perp[1] = 1.0
    vals = [bvp.value(z0 + rho * (ti * e1(n) + math.sqrt(1 - ti * ti) * e_perp))
            for ti in t]
    avg = float(np.dot(w, vals) / np.sum(w))
    expect = bvp.value(z0) + rho * rho * bvp.laplacian(z0) / (2 * n)
    assert math.isclose(avg, expect, rel_tol=5e-10)


def test_projected_bubble_boundary_zero():
    n = 6
    dom = BallDomain.unit(n)
    p = BubbleParams(a=0.2 * e1(n), lam=30.0, n=n)
    for ang in (0.0, 0.9, 2.6):
        xb = np.zeros(n)
        xb[0], xb[1] = math.cos(ang), math.sin(ang)
        projected = eval_delta(p, xb) - zonal_deficit(p, dom).value(xb)
        assert abs(projected) <= 1e-9 * eval_delta(p, xb)


def test_projected_bubble_positive_inside():
    n = 6
    dom = BallDomain.unit(n)
    p = BubbleParams(a=0.2 * e1(n), lam=30.0, n=n)
    rng = np.random.default_rng(9)
    bvp = zonal_deficit(p, dom)
    for _ in range(40):
        x = rng.uniform(-0.7, 0.7, size=n)
        if np.linalg.norm(x) < 0.98:
            assert eval_delta(p, x) - bvp.value(x) > 0


def test_projected_bubble_energy_approaches_sobolev_level():
    # the centered projected bubble the solver decomposes against; its
    # Laplacian is Delta delta - Delta delta(R)
    n = 6
    level = sobolev_energy(n)
    gaps = []
    lams = (8.0, 16.0, 32.0, 64.0)
    for lam in lams:
        en = radial_integral(
            n, lambda r: _projected_laplacians(n, lam, r, 1.0)[0] ** 2,
            1.0, seams=core_seams(lam, 1.0))
        gap = level - en
        assert gap > 0
        gaps.append(gap)
    slope = np.polyfit(np.log(lams), np.log(gaps), 1)[0]
    assert abs(slope - (4 - n)) < 0.3


def test_expansion_orders_exponents():
    n = 6
    dom = BallDomain.unit(n)
    fam = [centered(n, lam) for lam in np.geomspace(8.0, 256.0, 6)]
    fits = expansion_orders(fam, dom)
    assert abs(fits.energy_norm.slope - (-1.0)) < 0.2
    assert abs(fits.critical_norm.slope - (-1.0)) < 0.2
    assert abs(fits.remainder_sup.slope - (-3.0)) < 0.3


def test_expansion_orders_span_rejected():
    n = 6
    dom = BallDomain.unit(n)
    fam = [centered(n, lam) for lam in (10.0, 20.0, 40.0, 80.0)]
    with pytest.raises(ValueError):
        expansion_orders(fam, dom)


def test_expansion_orders_requires_centered_family():
    n = 6
    dom = BallDomain.unit(n)
    fam = [BubbleParams(a=0.1 * e1(n), lam=lam, n=n)
           for lam in (8.0, 30.0, 100.0, 300.0)]
    with pytest.raises(ValueError):
        expansion_orders(fam, dom)


def test_deficit_admissibility_gate():
    n = 6
    dom = BallDomain.unit(n)
    with pytest.raises(ValueError):
        deficit(centered(n, 4.0), dom, np.zeros(n))
    with pytest.raises(ValueError):
        deficit(BubbleParams(a=np.zeros(5), lam=50.0, n=5), dom, np.zeros(6))
    with pytest.raises(ValueError):
        deficit(BubbleParams(a=1.5 * e1(n), lam=50.0, n=n), dom, np.zeros(n))


def test_deficit_expansion_structure():
    # the remainder is measured against the leading term
    # c0 H(center, .) / lam^{(n-4)/2}, here with H from the zonal oracle,
    # over the 30 axis samples of the core ball of radius R/2
    n = 6
    dom = BallDomain.unit(n)
    p = centered(n, 40.0)
    remainder = deficit_expansion(p, dom)
    want = max(abs(deficit(p, dom, x)
                   - c0(n) / 40.0 * regular_part_H(dom, dom.center, x))
               for x in np.linspace(-0.5, 0.5, 30)[:, None] * e1(n))
    assert remainder > 0
    assert math.isclose(remainder, want, rel_tol=1e-9)
    with pytest.raises(ValueError):
        deficit_expansion(BubbleParams(a=0.2 * e1(n), lam=40.0, n=n), dom)


def _per_point_expansion(params, domain):
    # the per-point loop deficit_expansion ran before its 30 axis samples
    # became arrays: the remainder sup, and the first sample failing the
    # squeeze (None when none does)
    n, R = domain.n, domain.radius
    amplitude = c0(n) * params.lam ** (-0.5 * (n - 4))
    worst = 0.0
    for t in np.linspace(-0.5 * R, 0.5 * R, 30):
        x = domain.center + t * e1(n)
        th = _deficit_profile(n, params.lam, abs(t), R)
        if not 0.0 <= th <= projection.eval_delta(params, x) * (1 + 1e-12):
            return worst, x
        r = np.linalg.norm(x - domain.center)
        worst = max(worst, abs(th - amplitude * projection
                               ._center_regular_part(n, r, R)))
    return worst, None


@pytest.mark.parametrize("n", [5, 6, 8, 13])
@pytest.mark.parametrize("radius", [1.0, 1.7])
def test_deficit_expansion_matches_per_point_loop(n, radius, monkeypatch):
    # bit for bit, with the bubble evaluated once per expansion on the
    # stack of samples, not once per sample
    center = np.zeros(n) if radius == 1.0 else np.linspace(-0.1, 0.2, n)
    dom = BallDomain(n, center, radius)
    calls = []
    monkeypatch.setattr(projection, "eval_delta",
                        lambda p, x: calls.append(x) or eval_delta(p, x))
    for lam in 60.0 * 10 ** np.linspace(0.0, 1.6, 6):
        params = BubbleParams(a=center, lam=float(lam), n=n)
        want, failed = _per_point_expansion(params, dom)
        calls.clear()
        got = deficit_expansion(params, dom)
        assert failed is None and got == want
        assert len(calls) == 1


def test_deficit_expansion_names_the_first_failing_sample(monkeypatch):
    # a planted bubble that vanishes past x_1 = 0.2 breaks the squeeze on
    # every sample there; the error names the first along the axis
    n = 6
    dom = BallDomain.unit(n)
    params = centered(n, 60.0)
    monkeypatch.setattr(
        projection, "eval_delta",
        lambda p, x: np.where(np.asarray(x)[..., 0] > 0.2, 0.0,
                              eval_delta(p, x)))
    _, first = _per_point_expansion(params, dom)
    assert 0.2 < first[0] < 0.3
    with pytest.raises(RuntimeError) as err:
        deficit_expansion(params, dom)
    assert str(err.value) == ("pointwise squeeze 0 <= deficit <= bubble "
                              f"fails at {first}")


def test_deficit_leading_term_pointwise_rate():
    # lam^{(n-4)/2} deficit -> c0 H(center, x) pointwise, quadratically in
    # 1/lam for fixed x
    n = 6
    dom = BallDomain.unit(n)
    x = 0.4 * e1(n)
    href = c0(n) * regular_part_H(dom, np.zeros(n), x)
    err20 = abs(20.0 * deficit(centered(n, 20.0), dom, x) - href)
    err80 = abs(80.0 * deficit(centered(n, 80.0), dom, x) - href)
    assert err80 < err20 / 8.0


def test_deficit_norms_positive_and_ordered():
    # curvature energy dominates the critical norm by the sharp embedding
    # constant; both are positive and finite here
    n = 6
    dom = BallDomain.unit(n)
    p = centered(n, 16.0)
    en = deficit_energy_norm(p, dom)
    cr = deficit_critical_norm(p, dom)
    assert en > 0 and cr > 0
    assert cr < en


@pytest.mark.parametrize("n", [5, 6, 7, 8])
@pytest.mark.parametrize("lam", [40.0, 200.0, 2000.0])
def test_closed_form_deficit_matches_zonal_oracle(n, lam):
    # the closed form against the general zonal solve, which knows
    # nothing of the center: value and Laplacian pointwise on stations
    # across [0, R], and both norms against the oracle's ball integrals.
    tol = 1e-13
    R = 1.3
    dom = BallDomain(n=n, center=np.zeros(n), radius=R)
    p = centered(n, lam)
    bvp = zonal_deficit(p, dom)
    lap = float(radial_profile_laplacian(n, lam, R))
    for r in np.linspace(0.0, R, 27):
        x = r * e1(n)
        ref = bvp.value(x)
        assert abs(deficit(p, dom, x) - ref) <= tol * abs(ref)
        assert abs(lap - bvp.laplacian(x)) <= tol * abs(lap)
    energy = math.sqrt(ball_axisymmetric_integral(
        n, lambda r, c: bvp.laplacian_rc(r, c) ** 2, R))
    assert abs(deficit_energy_norm(p, dom) - energy) <= QUAD_RTOL * energy
    q = 2.0 * n / (n - 4)
    critical = ball_axisymmetric_integral(
        n, lambda r, c: np.abs(bvp.value_rc(r, c)) ** q, R) ** (1 / q)
    assert abs(deficit_critical_norm(p, dom) - critical) \
        <= QUAD_RTOL * critical
