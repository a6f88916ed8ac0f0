"""Tests for the Robin function on balls and for the zonal oracle.

Oracle strategy: a Poisson-splitting formula for the radial Robin profile,
and the general zonal solve H(x, y) of tests/zonal_oracle.py for its
derivatives. The zonal oracle is pinned on its own by closed forms where
they exist (center polynomial, dilation, image kernels) and by two
independent pins on the fundamental normalization constant (a sharp
pointwise identity against the second-order kernel, which checks the
oracle's Laplacian route, and a coarse iterated-kernel quadrature).
"""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate
from scipy.special import eval_gegenbauer, gammaln

from navier_bubbles.green_robin import (
    BallDomain,
    RobinEval,
    boundary_blowup_fit,
    robin,
)
from navier_bubbles.bubble import center_potential
from navier_bubbles.cli import ROBIN_N_MAX
from navier_bubbles.numerics import sphere_measure
from zonal_oracle import (
    _gegenbauer_at_one,
    _gegenbauer_matrix,
    _terms_needed,
    ball_axisymmetric_integral,
    biharmonic_green,
    fundamental_normalization,
    laplace_green_ball,
    regular_part_H,
    regular_part_H_laplacian,
)


def e1(n):
    v = np.zeros(n)
    v[0] = 1.0
    return v


def interior_pairs(n, radius, count, seed):
    rng = np.random.default_rng(seed)
    pairs = []
    while len(pairs) < count:
        x = rng.uniform(-radius, radius, size=n)
        y = rng.uniform(-radius, radius, size=n)
        if (np.linalg.norm(x) < 0.9 * radius and np.linalg.norm(y) < 0.9 * radius
                and np.linalg.norm(x - y) > 0.05 * radius):
            pairs.append((x, y))
    return pairs


# ---------------------------------------------------------------------------
# domain and result types


def test_domain_validation():
    with pytest.raises(ValueError):
        BallDomain(n=4, center=np.zeros(4), radius=1.0)
    with pytest.raises(ValueError):
        BallDomain(n=6, center=np.zeros(6), radius=0.0)
    with pytest.raises(ValueError):
        BallDomain(n=6, center=np.zeros(5), radius=1.0)
    d = BallDomain.unit(6)
    assert d.radius == 1.0 and d.center.shape == (6,)


@pytest.mark.parametrize("radius", [math.inf, -math.inf, math.nan])
def test_domain_refuses_a_radius_that_is_not_finite(radius):
    # an infinite radius passed `radius > 0`, and the obstruction's
    # bisection then divided by zero; a nan was refused already
    with pytest.raises(ValueError, match="positive and finite"):
        BallDomain(6, np.zeros(6), radius)


def test_robin_eval_rejects_nonpositive_phi():
    with pytest.raises(ValueError):
        RobinEval(phi=0.0, grad=np.zeros(6))


def test_gegenbauer_recurrence_matches_scipy():
    rng = np.random.default_rng(7)
    c = np.concatenate([rng.uniform(-1, 1, size=5), [-1.0, 0.0, 1.0]])
    for nu in (0.5, 1.5, 2.0, 3.0):
        for J in (1, 2, 13):
            got = _gegenbauer_matrix(c, nu, J)
            ref = np.array([eval_gegenbauer(k, nu, c) for k in range(J)])
            assert got.shape == (J, c.size)
            assert np.allclose(got, ref, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_gegenbauer_at_one_matches_gamma_and_exact_products(n):
    # the oracle's own C_k(1), which weights its projection tails, over
    # every k a series sums at the 0.9 R station
    nu = (n - 2) / 2.0
    J = _terms_needed(0.81, n - 1)
    got = _gegenbauer_at_one(nu, J)
    assert got.shape == (J,)
    # exact rational values of (2 nu)_k / k!
    exact = []
    c = Fraction(n - 2)
    term = Fraction(1)
    for k in range(J):
        exact.append(float(term))
        term = term * (c + k) / (k + 1)
    assert np.max(np.abs(got / np.array(exact) - 1.0)) <= 1e-14
    # the gamma-function formula carries its own round-off: log-gamma
    # values near 2000 at k ~ 400, each good to a few 1e-13 absolute
    # (measured up to 6.4e-13 off the exact values above)
    k = np.arange(J)
    gamma_form = np.exp(gammaln(k + 2 * nu) - gammaln(2 * nu)
                        - gammaln(k + 1.0))
    assert np.max(np.abs(got / gamma_form - 1.0)) <= 1e-12


# ---------------------------------------------------------------------------
# second-order kernel


def test_laplace_green_symmetry():
    dom = BallDomain.unit(6)
    for x, y in interior_pairs(6, 1.0, 20, seed=11):
        a = laplace_green_ball(dom, x, y)
        b = laplace_green_ball(dom, y, x)
        assert abs(a - b) <= 1e-12 * abs(a)


@pytest.mark.parametrize("n", [5, 6, 8])
def test_laplace_green_center_closed_form(n):
    # Radial solution of -(r^{n-1} w')' = 0 off the pole, w(R) = 0, with
    # unit flux through every sphere: w(r) = k (r^{2-n} - R^{2-n}) and the
    # flux condition |S^{n-1}| k (n-2) = 1 fixes k.
    dom = BallDomain.unit(n)
    k = 1.0 / ((n - 2) * sphere_measure(n))
    for r in (0.2, 0.5, 0.8):
        got = laplace_green_ball(dom, np.zeros(n), r * e1(n))
        assert math.isclose(got, k * (r ** (2 - n) - 1.0), rel_tol=1e-14)


def test_laplace_green_boundary_vanishing():
    dom = BallDomain.unit(6)
    x = 0.3 * e1(6)
    ds = np.geomspace(1e-2, 1e-4, 7)
    vals = np.array([laplace_green_ball(dom, x, -(1.0 - d) * e1(6))
                     for d in ds])
    assert np.all(vals > 0)
    slope = np.polyfit(np.log(ds), np.log(vals), 1)[0]
    assert abs(slope - 1.0) < 0.05


def test_laplace_green_rejections():
    dom = BallDomain.unit(6)
    p = 0.25 * e1(6)
    with pytest.raises(ValueError):
        laplace_green_ball(dom, p, p)
    with pytest.raises(ValueError):
        laplace_green_ball(dom, p, 1.5 * e1(6))


# ---------------------------------------------------------------------------
# regular part of the fourth-order kernel


def test_regular_part_center_polynomial():
    # Biharmonic a + b|y|^2 matching the two boundary conditions on the
    # unit 6-ball: a + b = 1 and 2nb = 2(4-n), so H(0,y) = 4/3 - |y|^2/3.
    dom = BallDomain.unit(6)
    rng = np.random.default_rng(3)
    for _ in range(6):
        y = rng.normal(size=6)
        y *= rng.uniform(0, 0.95) / np.linalg.norm(y)
        expect = 4.0 / 3.0 - np.dot(y, y) / 3.0
        assert math.isclose(regular_part_H(dom, np.zeros(6), y), expect,
                            rel_tol=1e-12)


def test_regular_part_boundary_consistency():
    dom = BallDomain.unit(6)
    x = 0.3 * e1(6)
    for theta in (0.0, 0.7, math.pi / 2, 2.5, math.pi):
        xi = np.zeros(6)
        xi[0], xi[1] = math.cos(theta), math.sin(theta)
        expect = np.linalg.norm(x - xi) ** -2.0
        assert math.isclose(regular_part_H(dom, x, xi), expect, rel_tol=1e-8)


def test_regular_part_laplacian_boundary_consistency():
    n = 6
    dom = BallDomain.unit(n)
    x = 0.3 * e1(n)
    for theta in (0.0, 1.1, 2.7):
        xi = np.zeros(n)
        xi[0], xi[1] = math.cos(theta), math.sin(theta)
        expect = 2.0 * (4 - n) * np.linalg.norm(x - xi) ** (2 - n)
        got = regular_part_H_laplacian(dom, x, xi)
        assert math.isclose(got, expect, rel_tol=1e-8)


@pytest.mark.parametrize("n", [5, 6, 8])
@pytest.mark.parametrize("radius", [1.0, 2.5])
def test_center_value_scaling(n, radius):
    dom = BallDomain(n=n, center=np.zeros(n), radius=radius)
    got = regular_part_H(dom, dom.center, dom.center)
    assert math.isclose(got, radius ** (4 - n) * (2 * n - 4) / n,
                        rel_tol=1e-12)


def test_reciprocity():
    for n in (5, 6):
        dom = BallDomain.unit(n)
        for x, y in interior_pairs(n, 1.0, 8, seed=n):
            a = regular_part_H(dom, x, y)
            b = regular_part_H(dom, y, x)
            assert abs(a - b) <= 1e-9 * abs(a)


def test_dilation_covariance():
    n = 6
    base = BallDomain.unit(n)
    for lam in (2.0, 0.5):
        scaled = BallDomain(n=n, center=np.zeros(n), radius=lam)
        for x, y in interior_pairs(n, 1.0, 5, seed=21):
            ref = regular_part_H(base, x, y)
            got = regular_part_H(scaled, lam * x, lam * y)
            assert abs(got - lam ** (4 - n) * ref) <= 1e-6 * abs(ref)


def test_translation_covariance():
    n = 6
    shift = np.arange(1.0, 7.0)
    dom = BallDomain(n=n, center=shift, radius=1.0)
    base = BallDomain.unit(n)
    for x, y in interior_pairs(n, 1.0, 4, seed=5):
        ref = regular_part_H(base, x, y)
        got = regular_part_H(dom, x + shift, y + shift)
        assert math.isclose(got, ref, rel_tol=1e-12)


def test_green_positive_on_ball():
    dom = BallDomain.unit(6)
    for x, y in interior_pairs(6, 1.0, 12, seed=13):
        assert biharmonic_green(dom, x, y) > 0


def test_regular_part_rejections():
    dom = BallDomain.unit(6)
    with pytest.raises(ValueError):
        regular_part_H(dom, 1.2 * e1(6), np.zeros(6))
    with pytest.raises(ValueError):
        regular_part_H(dom, np.zeros(6), 1.2 * e1(6))
    with pytest.raises(ValueError):
        # source so close to the boundary that the zonal series is refused
        regular_part_H(dom, 0.9995 * e1(6), np.zeros(6))


# ---------------------------------------------------------------------------
# fundamental normalization of the fourth-order kernel


@pytest.mark.parametrize("n", [5, 6, 8])
def test_normalization_sharp_identity(n):
    # Taking the Laplacian of |x-y|^{4-n} - H across the kernel splitting
    # and matching boundary data shows Delta_y of the fourth-order kernel
    # equals -k_n times the second-order kernel, i.e.
    #   Delta H(x,y) = 2(4-n)|x-y|^{2-n} + k_n G_L(x,y).
    # This pins k_n pointwise at solver accuracy; dropping the leading 2
    # in fundamental_normalization makes it fail by a factor of 2.
    dom = BallDomain.unit(n)
    kn = fundamental_normalization(n)
    for x, y in interior_pairs(n, 1.0, 6, seed=17 + n):
        d = np.linalg.norm(x - y)
        lhs = regular_part_H_laplacian(dom, x, y) - 2.0 * (4 - n) * d ** (2 - n)
        rhs = kn * laplace_green_ball(dom, x, y)
        assert abs(lhs - rhs) <= 1e-10 * abs(rhs)


def test_normalization_iterated_kernel():
    # Independent quadrature pin of the same constant, recorded once at
    # n = 6 with the source at the center: composing the second-order
    # kernel with itself solves the fourth-order problem, so
    #   k_n * integral G_L(0,z) G_L(z,y) dz = |y|^{4-n} - H(0,y).
    # With y at half radius the right side is 4 - (4/3 - 1/12) = 11/4.
    n, s = 6, 0.5
    dom = BallDomain.unit(n)
    k = 1.0 / ((n - 2) * sphere_measure(n))

    def kernel_product(r, c):
        d2 = r * r + s * s - 2.0 * r * s * c
        img2 = s * s * (r * r + 1.0 / (s * s) - 2.0 * r * c / s)
        gl_center = k * (r ** (2 - n) - 1.0)
        gl_pair = k * (d2 ** (0.5 * (2 - n)) - img2 ** (0.5 * (2 - n)))
        return gl_center * gl_pair

    comp = ball_axisymmetric_integral(n, kernel_product, 1.0, nr=400)
    expect = s ** (4 - n) - (4.0 / 3.0 - s * s / 3.0)
    got = fundamental_normalization(n) * comp
    assert abs(got - expect) <= 1e-3 * expect
    direct = biharmonic_green(dom, np.zeros(n), s * e1(n))
    assert math.isclose(direct, expect, rel_tol=1e-12)


# ---------------------------------------------------------------------------
# Robin function


def test_robin_center_unit_ball():
    ev = robin(BallDomain.unit(6), np.zeros(6))
    assert math.isclose(ev.phi, 4.0 / 3.0, rel_tol=1e-12)
    assert np.all(ev.grad == 0.0)


def test_robin_center_radius_two():
    dom = BallDomain(n=6, center=np.zeros(6), radius=2.0)
    ev = robin(dom, np.zeros(6))
    assert math.isclose(ev.phi, (1.0 / 3.0), rel_tol=1e-12)


@pytest.mark.parametrize("n", [5, 6, 8])
@pytest.mark.parametrize("radius", [1.0, 2.0])
def test_robin_center_value_all_dims(n, radius):
    dom = BallDomain(n=n, center=np.zeros(n), radius=radius)
    ev = robin(dom, dom.center)
    assert math.isclose(ev.phi * radius ** (n - 4), (2.0 * n - 4.0) / n,
                        rel_tol=1e-10)
    assert np.linalg.norm(ev.grad) <= 1e-8


def _phi_splitting_oracle(n, s, radius=1.0):
    """Radial Robin profile from the Poisson-splitting closed form.

    The harmonic extension of the Laplacian boundary data is the Kelvin
    image term of the second-order kernel; a particular solution with that
    Laplacian is the image term of the fourth-order kernel. What remains
    is harmonic with boundary data (1 - (R/s)^2)|x - xi|^{4-n}, given on
    the diagonal by the Poisson integral below.
    """
    R = radius
    first = (R / s) ** 2 * ((R * R - s * s) / R) ** (4 - n)
    integrand = lambda c: ((R * R + s * s - 2 * R * s * c) ** (0.5 * (4 - 2 * n))
                           * (1 - c * c) ** (0.5 * (n - 3)))
    moment, _ = integrate.quad(integrand, -1.0, 1.0, epsrel=1e-13)
    poisson = ((R * R - s * s) / R / sphere_measure(n)
               * sphere_measure(n - 1) * R ** (n - 1) * moment)
    return first + (1.0 - (R / s) ** 2) * poisson


def test_robin_half_radius_frozen():
    # n = 6 unit ball at s = 1/2: the splitting oracle evaluates to
    # 64/9 - 3 * 44/27 = 20/9 with a rational Poisson moment.
    ev = robin(BallDomain.unit(6), 0.5 * e1(6))
    assert math.isclose(ev.phi, 20.0 / 9.0, rel_tol=1e-10)


@pytest.mark.parametrize("n", [5, 6, 8])
@pytest.mark.parametrize("s", [0.3, 0.6])
def test_robin_profile_matches_splitting_oracle(n, s):
    ev = robin(BallDomain.unit(n), s * e1(n))
    assert math.isclose(ev.phi, _phi_splitting_oracle(n, s), rel_tol=1e-9)


def _five_point(f, s, h):
    """First derivative of f at s by 5-point central differences."""
    fm2, fm1, fp1, fp2 = (f(s + i * h) for i in (-2, -1, 1, 2))
    return (fm2 - 8 * fm1 + 8 * fp1 - fp2) / (12 * h)


def _diagonal_H(dom, n):
    """phi along the first axis from the general zonal solve H(x, x)."""
    return lambda s: regular_part_H(dom, s * e1(n), s * e1(n))


@pytest.mark.parametrize("n", [5, 6, 8])
@pytest.mark.parametrize("s", [0.3, 0.6])
def test_robin_derivatives_match_splitting_oracle(n, s):
    ev = robin(BallDomain.unit(n), s * e1(n))
    first = _five_point(lambda t: _phi_splitting_oracle(n, t), s, 1e-3)
    assert math.isclose(ev.grad[0], first, rel_tol=1e-7)


@pytest.mark.parametrize("n", [5, 6, 8])
def test_robin_derivatives_at_window_edge(n):
    # s = 0.98 is the boundary-fit window's edge, where the series is
    # longest; the general zonal solve gives an independent route
    dom = BallDomain.unit(n)
    ev = robin(dom, 0.98 * e1(n))
    first = _five_point(_diagonal_H(dom, n), 0.98, 3e-5)
    assert math.isclose(ev.grad[0], first, rel_tol=1e-7)


def test_robin_monotone_along_radius():
    # phi and phi~' grow from the center out to the series' reach, so
    # the least phi on the ball is the closed-form center potential phi(0)
    # (the obstruction's margin rests on this) and robin's radius window
    # reads its extremes at the center, the innermost station and 0.98 R;
    # past n = 12 the sums overflow before 0.998 R, so those dimensions
    # run to the boundary fit's nearest station
    reaches = [(n, 0.998) for n in range(5, 13)]
    reaches += [(n, 0.98) for n in (40, 108, 150, ROBIN_N_MAX)]
    for n, reach in reaches:
        dom = BallDomain.unit(n)
        evs = [robin(dom, s * e1(n)) for s in np.linspace(0.0, reach, 60)]
        vals = [ev.phi for ev in evs]
        grads = [ev.grad[0] for ev in evs]
        assert all(b > a for a, b in zip(vals, vals[1:])), n
        assert grads[0] == 0.0, n
        assert all(b > a for a, b in zip(grads, grads[1:])), n


def test_robin_center_is_the_closed_form_to_the_bit():
    for n in range(5, ROBIN_N_MAX + 1):
        for radius in (0.3, 1.0, 1.7, 7.0):
            dom = BallDomain(n=n, center=np.zeros(n), radius=radius)
            assert robin(dom, dom.center).phi == center_potential(n, radius)


def test_robin_refuses_an_overflowed_sum_past_the_dimension_limit():
    # ROBIN_N_MAX is the last dimension whose sums stay finite at the
    # boundary fit's nearest station; one past it the series overflows,
    # which warns, and the non-finite value is refused, not returned
    n = ROBIN_N_MAX + 1
    x = 0.98 * e1(n)
    robin(BallDomain.unit(ROBIN_N_MAX), 0.98 * e1(ROBIN_N_MAX))
    with pytest.raises(RuntimeWarning, match="overflow"):
        robin(BallDomain.unit(n), x)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(ValueError, match="overflows"):
            robin(BallDomain.unit(n), x)


# break points of the oracle's quadrature in y = sqrt(x), toward the
# boundary peak of (1 - t x)^(2-n)
_EULER_BREAKS = [1.0 - 10.0 ** -j for j in range(1, 9)]


def _euler_integral_robin(n, tau):
    """Unit-ball phi~ and phi~' from Euler's integral for the series'
    2F1 sums (DLMF 15.6.1): with t = tau^2 and m = (n-4)/2,

      phi~ = m int_0^1 x^(m-1) (1-tx)^(2-n) (1-tx^2) dx
             + m (1-t) int_0^1 x^(n/2-1) (1-tx)^(2-n) dx,

    and phi~' = 2 tau d phi~/dt from the t-derivatives of the same
    integrands. Each integrand carries (1-tx)^(2-n) as
    ((1-t)/(1-tx))^(n-2) <= 1 times (1-t)^(2-n), applied after the
    quadrature, so no integrand overflows below the dimension limit.
    """
    t = tau * tau
    m = (n - 4) / 2.0

    def quad(f):
        val, _ = integrate.quad(lambda y: 2.0 * y * f(y * y), 0.0, 1.0,
                                points=_EULER_BREAKS, epsabs=0.0,
                                epsrel=1e-13, limit=400)
        return val

    w = lambda x: ((1.0 - t) / (1.0 - t * x)) ** (n - 2)
    a = quad(lambda x: x ** (m - 1) * w(x) * (1.0 - t * x * x))
    b = quad(lambda x: x ** (n / 2.0 - 1) * w(x))
    da = quad(lambda x: x ** (m - 1) * w(x)
              * ((n - 2) * x * (1.0 - t * x * x) / (1.0 - t * x) - x * x))
    db = quad(lambda x: x ** (n / 2.0) * w(x) / (1.0 - t * x))
    unit = (1.0 - t) ** (2 - n)
    phi = unit * m * (a + (1.0 - t) * b)
    dphi_dt = unit * m * (da - b + (1.0 - t) * (n - 2) * db)
    return phi, 2.0 * tau * dphi_dt


@pytest.mark.parametrize("n", [5, 6, 7, 8, 12, 40, 108, 150, ROBIN_N_MAX])
def test_robin_matches_euler_integral(n):
    # the series and the integral share no term; measured worst 1.1e-13
    # for phi and 1.05e-13 for phi~', both at n = 108 and tau = 0.98
    dom = BallDomain.unit(n)
    for tau in (0.0, 0.45, 0.9, 0.95, 0.98):
        phi, grad = _euler_integral_robin(n, tau)
        ev = robin(dom, tau * e1(n))
        assert ev.phi == pytest.approx(phi, rel=1e-12, abs=0.0), tau
        assert ev.grad[0] == pytest.approx(grad, rel=1e-12, abs=0.0), tau


def test_robin_gradient_matches_full_difference():
    # The production gradient comes from the radial profile; check it
    # off-axis against plain per-axis central differences of H(x,x).
    n = 6
    dom = BallDomain.unit(n)
    x = np.array([0.31, -0.22, 0.12, 0.05, -0.4, 0.09])
    ev = robin(dom, x)
    h = 1e-5
    fd = np.zeros(n)
    for i in range(n):
        step = np.zeros(n)
        step[i] = h
        fd[i] = (regular_part_H(dom, x + step, x + step)
                 - regular_part_H(dom, x - step, x - step)) / (2 * h)
    assert np.linalg.norm(fd - ev.grad) <= 1e-6 * np.linalg.norm(fd)
    # outward-pointing, consistent with growth toward the boundary
    assert np.dot(ev.grad, x) > 0


def test_robin_near_boundary_rejected():
    dom = BallDomain.unit(6)
    with pytest.raises(ValueError):
        robin(dom, (1.0 - 1e-9) * e1(6))
    with pytest.raises(ValueError):
        robin(dom, 1.0 * e1(6))


# ---------------------------------------------------------------------------
# boundary rates


def test_boundary_blowup_exponents():
    # measured: phi slopes -0.955, -1.921, -3.864 and gradient slopes
    # -2.000, -2.962, -4.900 at n = 5, 6, 8
    for n in (5, 6, 8):
        fits = boundary_blowup_fit(BallDomain.unit(n))
        assert abs(fits.phi.slope - (4.0 - n)) < 0.15, n
        assert abs(fits.grad_norm.slope - (3.0 - n)) < 0.2, n


def test_boundary_blowup_scale_invariant():
    a = boundary_blowup_fit(BallDomain.unit(6))
    b = boundary_blowup_fit(BallDomain(n=6, center=np.zeros(6), radius=2.0))
    assert abs(a.phi.slope - b.phi.slope) < 0.02
    assert abs(a.grad_norm.slope - b.grad_norm.slope) < 0.02
