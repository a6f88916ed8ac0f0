"""Profile closed forms and universal constants.

Oracles: direct substitution for the normalization, central finite
differences for every closed-form derivative, and Beta-function closed
forms for the constants. Frozen targets are written out as explicit
arithmetic so they cannot drift with the implementation.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from navier_bubbles import bubble
from navier_bubbles.bubble import (
    BubbleParams,
    CriticalConstants,
    _laplacian_prefactor,
    _laplacians,
    _projected_laplacians,
    _scale_derivative_from,
    balance_constants,
    c0,
    critical_exponent,
    eval_delta,
    half_peak_scale,
    radial_profile,
    radial_profile_laplacian,
    sobolev_constant,
    sobolev_energy,
)
from navier_bubbles.numerics import (RadialGrid, radial_bilaplacian,
                                   radial_integral)

PI = math.pi


def params6(lam=1.0, a=None):
    if a is None:
        a = np.zeros(6)
    return BubbleParams(a=a, lam=lam, n=6)


# ---------------------------------------------------------------------------
# normalization and pointwise values


def test_c0_frozen_values():
    assert math.isclose(c0(6), 384.0 ** 0.25, rel_tol=1e-15)
    assert math.isclose(c0(5), 105.0 ** 0.125, rel_tol=1e-15)
    assert math.isclose(c0(8), math.sqrt(1920.0), rel_tol=1e-15)


def test_c0_rejects_subcritical_dimension():
    with pytest.raises(ValueError):
        c0(4)


def test_params_validation():
    with pytest.raises(ValueError):
        BubbleParams(a=np.zeros(6), lam=-1.0, n=6)
    with pytest.raises(ValueError):
        BubbleParams(a=np.zeros(3), lam=1.0, n=6)
    # an infinite scale passes lam > 0, then overflows every closed form
    for lam in (math.inf, math.nan):
        with pytest.raises(ValueError, match="positive and finite"):
            BubbleParams(a=np.zeros(6), lam=lam, n=6)


def test_center_value():
    for lam in (0.5, 1.0, 7.0):
        p = params6(lam)
        want = c0(6) * lam  # lam^{(n-4)/2} = lam at n = 6
        assert math.isclose(float(eval_delta(p, p.a)), want, rel_tol=1e-14)


def test_unit_distance_value():
    p = params6(1.0)
    x = np.zeros(6)
    x[0] = 1.0
    assert math.isclose(float(eval_delta(p, x)), c0(6) / 2.0, rel_tol=1e-14)


@settings(max_examples=40, deadline=None)
@given(lam=st.floats(min_value=0.1, max_value=50.0),
       s=st.floats(min_value=0.2, max_value=5.0),
       r=st.floats(min_value=1e-3, max_value=20.0))
def test_scale_covariance(lam, s, r):
    # delta_{0, s*lam}(x) = s^{(n-4)/2} delta_{0, lam}(s x)
    n = 6
    left = radial_profile(n, s * lam, r)
    right = s ** ((n - 4) / 2.0) * radial_profile(n, lam, s * r)
    assert math.isclose(float(left), float(right), rel_tol=1e-12)


# ---------------------------------------------------------------------------
# derivatives against central-difference oracles


def scale_derivative(n, lam, r):
    # lam d(delta)/d(lam) from delta(r), as the package forms it
    r = np.asarray(r)
    return _scale_derivative_from(n, (lam * r) ** 2, radial_profile(n, lam, r))


def scale_derivative_laplacian(n, lam, r):
    # lam d(Delta delta)/d(lam), the second closed form of _laplacians
    r = np.asarray(r)
    return _laplacians(n, _laplacian_prefactor(n, lam, r), (lam * r) ** 2)[1]


def test_scale_derivative_center_and_zero_sphere():
    center = float(scale_derivative(6, 3.0, 0.0))
    assert math.isclose(center, (6 - 4) / 2.0 * c0(6) * 3.0, rel_tol=1e-13)
    # on the sphere r = 1/lam
    assert abs(float(scale_derivative(6, 3.0, 1.0 / 3.0))) < 1e-14


@pytest.mark.parametrize("n", range(5, 13))
def test_half_peak_scale_inverts_the_half_peak_radius(n):
    # the radius where the profile falls to half its peak, found by root
    # finding on radial_profile to within a few ulp; measured worst
    # relative error over n = 5..12 and the three scales 5.6e-16
    for lam in (5.0, 40.0, 400.0):
        half = 0.5 * float(radial_profile(n, lam, 0.0))
        r_half = brentq(lambda r: float(radial_profile(n, lam, r)) - half,
                        0.0, 10.0 / lam, xtol=1e-300,
                        rtol=4 * np.finfo(float).eps)
        assert abs(half_peak_scale(n, r_half) / lam - 1.0) <= 1e-14


def test_scale_derivative_matches_fd():
    n, lam = 6, 2.0
    r = np.geomspace(0.01, 8.0, 25)
    errs = []
    for h in (1e-3, 5e-4):
        fd = (radial_profile(n, lam * (1 + h), r)
              - radial_profile(n, lam * (1 - h), r)) / (2 * h)
        errs.append(np.max(np.abs(fd - scale_derivative(n, lam, r))))
    assert errs[0] / errs[1] > 3.6  # O(h^2) oracle convergence
    assert errs[1] < 1e-6


def test_profile_laplacian_matches_fd():
    n, lam = 6, 1.0
    r = np.linspace(0.05, 6.0, 40)
    h = 1e-4
    upp = (radial_profile(n, lam, r + h) - 2 * radial_profile(n, lam, r)
           + radial_profile(n, lam, r - h)) / h ** 2
    up = (radial_profile(n, lam, r + h) - radial_profile(n, lam, r - h)) / (2 * h)
    fd = upp + (n - 1) / r * up
    assert np.max(np.abs(fd - radial_profile_laplacian(n, lam, r))) < 1e-5


def test_scale_derivative_laplacian_matches_fd():
    n, lam = 6, 2.0
    r = np.geomspace(0.02, 5.0, 30)
    h = 1e-4
    # the relative perturbation lam*(1 +/- h) makes the plain difference
    # quotient equal lam * d/d(lam) already
    fd = (radial_profile_laplacian(n, lam * (1 + h), r)
          - radial_profile_laplacian(n, lam * (1 - h), r)) / (2 * h)
    closed = scale_derivative_laplacian(n, lam, r)
    assert np.max(np.abs(fd - closed)) < 1e-4
    # and Delta commutes with the scale derivative: cross-check via FD of
    # the scale derivative's own radial Laplacian
    hh = 1e-3
    upp = (scale_derivative(n, lam, r + hh)
           - 2 * scale_derivative(n, lam, r)
           + scale_derivative(n, lam, r - hh)) / hh ** 2
    up = (scale_derivative(n, lam, r + hh)
          - scale_derivative(n, lam, r - hh)) / (2 * hh)
    # relative to the field size: the oracle's own (n-1)/r amplification
    # dominates the absolute error at the smallest radii
    rel = np.max(np.abs(upp + (n - 1) / r * up - closed)) / np.max(np.abs(closed))
    assert rel < 1e-4


@pytest.mark.parametrize("n", list(range(5, 13)) + [20, 48, 80])
def test_projected_laplacians_one_evaluation(n):
    # the evaluator decompose and the law seeds read. Its amplitude
    # direction, with the value at R in Python floats, is
    # Delta delta(r) - Delta delta(R) read through numpy to the bit; its
    # scale direction is the product form
    # pref (alpha2 (n+2t)(1+t) + 4t(1+t) - nt(n+2t)) (1+t)^(-n/2-1),
    # alpha2 = n/2, minus its value at R, to 1e-13 of its largest value.
    # Nodes past R run to 1e8, where from n = 48 (1+t)^(n/2) overflows;
    # the suite turns any warning there into an error
    pref = -(n - 4) * c0(n)

    def product_form(lam, r):
        t = (lam * r) ** 2
        inner = (n / 2.0 * (n + 2 * t) * (1 + t) + 4 * t * (1 + t)
                 - n * t * (n + 2 * t))
        return pref * lam ** (n / 2.0) * inner * (1 + t) ** (-n / 2.0 - 1)

    for lam in (5.0, 40.0, 400.0):
        for R in (1.0, 1.7):
            r = np.concatenate([np.linspace(0.0, R, 257),
                                np.geomspace(2.0 * R, 1e8, 64)])
            with np.errstate(over="ignore"):
                power = (1 + (lam * r) ** 2) ** (n / 2.0)
            assert np.isinf(power).any() == (n >= 48)
            lp, ds = _projected_laplacians(n, lam, r, R)
            assert np.array_equal(lp, radial_profile_laplacian(n, lam, r)
                                  - radial_profile_laplacian(n, lam, R))
            ref = product_form(lam, r) - product_form(lam, R)
            assert np.max(np.abs(ds - ref)) <= 1e-13 * np.max(np.abs(ref))
    if n >= 48:
        # at R = 1e8 the value at R, read in Python floats, overflows too
        r = np.geomspace(1.0, 1e8, 64)
        lp, ds = _projected_laplacians(n, 400.0, r, 1e8)
        assert np.array_equal(lp, radial_profile_laplacian(n, 400.0, r))
        assert np.array_equal(ds, scale_derivative_laplacian(n, 400.0, r))


def test_projected_profiles_read_the_traces_once(monkeypatch):
    # building the map makes one _laplacians call, for both traces at R;
    # evaluating it makes none
    calls = []
    real = bubble._laplacians
    monkeypatch.setattr(bubble, "_laplacians",
                        lambda *a: calls.append(a) or real(*a))
    at = bubble._projected_profiles(6, 20.0, 1.0)
    assert len(calls) == 1
    at(np.linspace(0.0, 1.0, 9))
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# the profile solves the critical equation (light version; the acceptance
# suite runs the full refinement study on [0, 10] for n in {5, 6, 8})


def test_pde_residual_second_order():
    n = 6
    p = critical_exponent(n)
    errs = []
    for N in (512, 1024):
        g = RadialGrid.arctan_graded(n, N, R=10.0, stretch=0.8)
        r = np.asarray(g.nodes, dtype=np.longdouble)
        u = radial_profile(n, 1.0, r)
        rhs = np.asarray(u ** np.longdouble(p), dtype=float)
        out = radial_bilaplacian(u, g)
        errs.append(np.max(np.abs(out - rhs)) / rhs.max())
    assert errs[0] / errs[1] > 3.4
    assert errs[1] < 5e-6


# ---------------------------------------------------------------------------
# universal constants: the closed forms against a quadrature oracle of
# their defining integrands


ORACLE_DIMENSIONS = (5, 6, 7, 8, 9, 10, 11, 12, 20, 40, 89)


def energy_kernel(n, lam=1.0):
    """|Delta delta|^2, whose integral is S^{n/4}."""
    return lambda r: radial_profile_laplacian(n, lam, r) ** 2


def mass_kernel(n, lam=1.0):
    """delta^{p+1}, whose integral is S^{n/4} as well."""
    p1 = critical_exponent(n) + 1.0
    return lambda r: radial_profile(n, lam, r) ** p1


def c1_kernel(n):
    """c0^{p+1} / (1+r^2)^{(n+4)/2}, whose integral is c1."""
    cp1 = c0(n) ** (critical_exponent(n) + 1.0)
    return lambda r: cp1 * (1 + r * r) ** (-(n + 4) / 2.0)


def log_kernel(n):
    """(n-4) c0^{p+1} log(1+r^2) (1-r^2)/(1+r^2)^{n+1}, whose integral is
    the full variant of c2."""
    cp1 = c0(n) ** (critical_exponent(n) + 1.0)

    def kernel(r):
        t = r * r
        # the denominator overflows at the outermost nodes from n = 48,
        # where the kernel's limit is 0
        with np.errstate(over="ignore"):
            denominator = (1.0 + t) ** (n + 1)
        return (n - 4.0) * cp1 * np.log1p(t) * (1.0 - t) / denominator

    return kernel


def test_sobolev_dual_route_identity():
    # multiply the equation by delta and integrate: the two integrands
    # of S^{n/4} have the same integral
    for n in (5, 6):
        assert math.isclose(radial_integral(n, energy_kernel(n)),
                            radial_integral(n, mass_kernel(n)),
                            rel_tol=1e-8)


@pytest.mark.parametrize("n", ORACLE_DIMENSIONS)
def test_constants_match_their_quadratures(n):
    cc = balance_constants(n)
    pairs = (
        (sobolev_energy(n), radial_integral(n, energy_kernel(n))),
        (sobolev_energy(n), radial_integral(n, mass_kernel(n))),
        (cc.c1, radial_integral(n, c1_kernel(n))),
        (cc.c2_variant_full, radial_integral(n, log_kernel(n))),
    )
    for closed, quadrature in pairs:
        assert math.isclose(closed, quadrature, rel_tol=1e-9)


@pytest.mark.parametrize("n", ORACLE_DIMENSIONS)
def test_sobolev_constant_is_swansons(n):
    # Swanson (1992); Edmunds, Fortunato and Jannelli (1990)
    swanson = (PI ** 2 * n * (n - 4) * (n * n - 4)
               * (math.gamma(n / 2) / math.gamma(n)) ** (4.0 / n))
    assert math.isclose(sobolev_constant(n), swanson, rel_tol=1e-12)
    assert math.isclose(sobolev_constant(n) ** (n / 4.0), sobolev_energy(n),
                        rel_tol=1e-12)


def test_sobolev_frozen_values():
    # n=6: S^{3/2} = 384^{3/2} pi^3 / 60 since B(3,3)/2 = 1/60;
    # n=5: S^{5/4} = 105^{5/4} pi^3 / 32 since B(5/2,5/2)/2 = 3 pi/256
    # and 105^{5/4} * (8 pi^2/3) * (3 pi/256) = 105^{5/4} pi^3 / 32
    s6 = (384.0 ** 1.5 * PI ** 3 / 60.0) ** (2.0 / 3.0)
    s5 = (105.0 ** 1.25 * PI ** 3 / 32.0) ** 0.8
    assert math.isclose(sobolev_constant(6), s6, rel_tol=1e-9)
    assert math.isclose(sobolev_constant(5), s5, rel_tol=1e-9)
    assert math.isclose(sobolev_energy(6), 384.0 ** 1.5 * PI ** 3 / 60.0,
                        rel_tol=1e-9)


def test_sobolev_scale_invariance():
    # the quotient of the two integrals does not depend on lam; the
    # closed form has no lam to set
    n = 6
    for lam in (0.5, 4.0):
        energy = radial_integral(n, energy_kernel(n, lam))
        mass = radial_integral(n, mass_kernel(n, lam))
        assert math.isclose(energy / mass ** ((n - 4.0) / n),
                            sobolev_constant(n), rel_tol=1e-9)


# ---------------------------------------------------------------------------
# balance constants


def test_c1_frozen_value():
    cc = balance_constants(6)
    assert math.isclose(cc.c1, 384.0 ** 1.5 * PI ** 3 / 24.0, rel_tol=1e-9)


def test_c2_variants():
    cc = balance_constants(6)
    assert cc.c2_variant_half > 0
    assert cc.c2_variant_full < 0
    # radial Beta-family oracle: the half variant is 384^{3/2} pi^3 / 360
    assert math.isclose(cc.c2_variant_half, 384.0 ** 1.5 * PI ** 3 / 360.0,
                        rel_tol=1e-8)
    ratio = cc.c2_variant_full / cc.c2_variant_half
    assert abs(ratio + 2.0) < 1e-6
    assert cc.c2 == cc.c2_variant_half


def test_balance_ratio_frozen():
    # c1/c2 = 360/24 = 15 at n = 6, the number driving the blow-up law
    cc = balance_constants(6)
    assert math.isclose(cc.c1 / cc.c2, 15.0, rel_tol=1e-8)


def test_constants_validation():
    with pytest.raises(ValueError):
        CriticalConstants(n=6, c0=1.0, p=5.0, S=1.0, c1=1.0, c2=-1.0)
    cc = CriticalConstants(n=6, c0=1.0, p=5.0, S=1.0, c1=1.0, c2=0.5)
    assert (cc.c2_variant_full, cc.c2_variant_half) == (-1.0, 0.5)


# ---------------------------------------------------------------------------
# small-exponent power expansion


def test_expansion_vanishes_at_center():
    p = params6(lam=10.0)
    eps = 0.05
    lhs = float(eval_delta(p, p.a)) ** (-eps) - (c0(6) * 10.0) ** (-eps)
    assert lhs == 0.0
