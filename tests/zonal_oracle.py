"""General zonal-harmonic solves on a ball: the test suite's oracle.

The package evaluates the kernel regular part H only on the diagonal
(the Robin series) and the bubble deficit only for a centered bubble
(the quadratic Navier extension). This module keeps the general route
both are checked against: the fourth-order Navier problem with boundary
data zonal about an axis, solved mode by mode. Both boundary traces
expand in Gegenbauer polynomials C_k^(nu), nu = (n-2)/2, about the axis
through the center; each mode k has the explicit interior solution
A_k r^k + B_k r^{k+2}, so the solve is two diagonal stages (harmonic
extension of the Laplacian data, then a Poisson solve).

  * H(x, y): the amplitudes of |x - xi|^(4-n) and of its Laplacian data
    2(4-n)|x - xi|^(2-n) on the sphere follow from the generating
    function of C^(nu) and the contiguous relation
      C_k^(nu-1) = (nu-1)/(nu-1+k) [C_k^(nu) - C_{k-2}^(nu)].
  * the deficit of a bubble anywhere in the ball: the amplitudes of its
    traces come from Gauss-Jacobi projection, with the mode count
    doubled until the truncated tail is below 1e-11 of the data.

Also here, as independent pins on the oracle itself: the second-order
Dirichlet kernel of the ball in image form, the normalization constant
of the fourth-order kernel, the full kernel |x-y|^(4-n) - H, and an
axisymmetric ball integral (Gauss-Jacobi in the cosine, the package's
converged Gauss-Legendre panels in the radius).
"""

import math

import numpy as np
from scipy.special import gammaln, roots_jacobi

from navier_bubbles.bubble import radial_profile, radial_profile_laplacian
from navier_bubbles.numerics import (converged_quadrature,
                                     gauss_legendre_panels, sphere_measure)

# (radius x cosine) arrays of one axisymmetric integrand call are built
# at most this many radii at a time
_RADIAL_BLOCK = 256


# The oracle's own series rules, kept apart from the package's so the
# reference does not share its tail rule with the series it checks.

def _check_series_reach(tau):
    """Refuse points whose zonal series would converge too slowly."""
    if tau > 0.998:
        raise ValueError("evaluation point too close to the boundary for "
                         "the zonal series (distance under 0.002 radius)")


def _terms_needed(ratio, power):
    """Series length so the tail of ratio^k k^power drops below 1e-18."""
    if ratio < 1e-8:
        return 3
    logt = math.log(ratio)
    J = max(8.0, math.log(1e-18) / logt)
    for _ in range(3):
        J = max(8.0, (math.log(1e-18) - power * math.log(J)) / logt)
    return int(J) + 8


def _gegenbauer_at_one(nu, J):
    """C_k^(nu)(1) = (2 nu)_k / k! for k = 0..J-1, as the cumulative
    product of (2 nu + j) / (j + 1) over j < k."""
    j = np.arange(J - 1)
    return np.cumprod(np.r_[1.0, (2 * nu + j) / (j + 1.0)])


def _gegenbauer_matrix(c, nu, J):
    """C_k^(nu)(c_i) as a (J, len(c)) array by the three-term recurrence."""
    c = np.asarray(c, dtype=float)
    out = np.empty((J, c.size))
    out[0] = 1.0
    if J > 1:
        out[1] = 2.0 * nu * c
    for k in range(2, J):
        out[k] = (2 * c * (k + nu - 1) * out[k - 1]
                  - (k + 2 * nu - 2) * out[k - 2]) / k
    return out


class _ZonalNavierBVP:
    """Interior solution of the fourth-order Navier problem on a ball
    whose two boundary data are zonal about a common axis.

    Inputs are the data's Gegenbauer amplitudes: value_coeffs for the
    trace of the solution, laplacian_coeffs for the trace of its
    Laplacian, both against C_k^(nu) with nu = (n-2)/2. Stage one lifts
    the Laplacian data harmonically mode by mode, stage two adds the
    explicit r^{k+2} particular solutions and the harmonic correction:

      u(y) = sum_k [alpha_k q^k + beta_k q^(k+2)] C_k^(nu)(cos angle),
      Delta u(y) = sum_k beta_k (4k+2n)/R^2 q^k C_k^(nu)(cos angle),

    with q = |y - center|/R, beta_k = laplacian_coeffs_k R^2/(4k+2n) and
    alpha_k = value_coeffs_k - beta_k. axis None means the data are
    constant (only mode 0), and every direction cosine is 1.
    """

    def __init__(self, domain, axis, value_coeffs, laplacian_coeffs):
        n, R = domain.n, domain.radius
        self.domain = domain
        self.axis = axis
        self.nu = (n - 2) / 2.0
        k = np.arange(len(value_coeffs))
        self.beta = np.asarray(laplacian_coeffs) * R * R / (4 * k + 2 * n)
        self.alpha = np.asarray(value_coeffs) - self.beta
        self.k = k

    def _split(self, y):
        ys = np.asarray(y, dtype=float) - self.domain.center
        q = np.linalg.norm(ys) / self.domain.radius
        if q > 1.0 + 1e-12:
            raise ValueError("evaluation point lies outside the ball")
        q = min(q, 1.0)
        if self.axis is None or q == 0.0:
            return q, 1.0
        c = np.dot(ys, self.axis) / (q * self.domain.radius)
        return q, float(np.clip(c, -1.0, 1.0))

    def value(self, y):
        q, c = self._split(y)
        return self.value_rc(q * self.domain.radius, c).item()

    def laplacian(self, y):
        q, c = self._split(y)
        return self.laplacian_rc(q * self.domain.radius, c).item()

    def value_rc(self, r, c):
        """Evaluate at radius r from the center, cosines c to the axis."""
        q = r / self.domain.radius
        C = _gegenbauer_matrix(c, self.nu, len(self.k))
        return ((self.alpha + self.beta * q * q) * q ** self.k) @ C

    def laplacian_rc(self, r, c):
        q = r / self.domain.radius
        n, R = self.domain.n, self.domain.radius
        C = _gegenbauer_matrix(c, self.nu, len(self.k))
        return (self.beta * (4 * self.k + 2 * n) / R ** 2 * q ** self.k) @ C


def _axis_of(domain, x):
    """(|x - center|, unit axis through x or None at the center)."""
    xs = np.asarray(x, dtype=float) - domain.center
    s = np.linalg.norm(xs)
    return s, (xs / s if s > 0 else None)


def _regular_part_bvp(domain, x):
    """Zonal solve for H(x, .) with boundary amplitudes in closed form."""
    n, R = domain.n, domain.radius
    s, axis = _axis_of(domain, x)
    if s >= R:
        raise ValueError("source point must be interior")
    tau = s / R
    _check_series_reach(tau)
    k = np.arange(_terms_needed(tau, n - 3))
    tpow = tau ** k
    num = (n - 4) / 2.0  # nu - 1
    h = R ** (4 - n) * num * (tpow / (num + k)
                              - tau * tau * tpow / (num + 2 + k))
    g = 2.0 * (4 - n) * R ** (2 - n) * tpow
    return _ZonalNavierBVP(domain, axis, h, g)


def regular_part_H(domain, x, y):
    """Smooth part H(x, y) of the fourth-order Navier kernel; x = y is
    allowed (H is smooth across the diagonal)."""
    return _regular_part_bvp(domain, x).value(y)


def regular_part_H_laplacian(domain, x, y):
    """Delta_y H(x, y)."""
    return _regular_part_bvp(domain, x).laplacian(y)


def _gegenbauer_norms(nu, J):
    """L^2 weights of C_k^(nu) against (1-c^2)^(nu-1/2) on [-1, 1]."""
    k = np.arange(J)
    return np.exp(math.log(math.pi) + (1 - 2 * nu) * math.log(2.0)
                  + gammaln(k + 2 * nu) - gammaln(k + 1.0)
                  - np.log(k + nu) - 2 * gammaln(nu))


# Gegenbauer amplitudes below this fraction of the data sup are
# projection round-off, not signal
ROUNDOFF_FLOOR = 64 * np.finfo(float).eps


def _project_zonal_data(n, fn, budget_rel=1e-11):
    """Gegenbauer amplitudes of a smooth zonal function on the sphere.

    fn maps an array of direction cosines to data values. The ladder
    doubles the quadrature and mode count until the worst-case truncated
    tail (coefficient times C_k(1)) is below budget_rel of the data sup,
    then drops the trailing negligible modes.

    Coefficients below ROUNDOFF_FLOOR of the data sup are zeroed first:
    the projection leaves round-off near 3e-16 of the data in every mode
    (measured at n = 7, 8), and weighted by C_k(1) ~ k^(n-3) that noise
    would otherwise pass the tail test as 20 to 40 spurious modes.
    """
    nu = (n - 2) / 2.0
    jac = 0.5 * (n - 3)
    for modes, nq in ((48, 128), (96, 256), (192, 512), (384, 1024),
                      (768, 2048)):
        nodes, weights = roots_jacobi(nq, jac, jac)
        vals = fn(nodes)
        C = _gegenbauer_matrix(nodes, nu, modes)
        coeffs = (C @ (weights * vals)) / _gegenbauer_norms(nu, modes)
        scale = float(np.max(np.abs(vals)))
        coeffs[np.abs(coeffs) < ROUNDOFF_FLOOR * scale] = 0.0
        weight = np.abs(coeffs) * _gegenbauer_at_one(nu, modes)
        budget = budget_rel * scale
        suffix = np.cumsum(weight[::-1])[::-1]
        if suffix[int(0.85 * modes)] > budget:
            continue
        kept = int(np.argmax(suffix <= budget))
        return coeffs[:max(kept, 1)]
    raise RuntimeError("boundary data did not resolve within 768 zonal "
                       "modes; bubble center too close to the sphere")


def zonal_deficit(params, domain):
    """Zonal solve for the deficit of the bubble params anywhere inside
    the ball: the biharmonic field with the bubble's value and Laplacian
    traces on the sphere."""
    n, R = domain.n, domain.radius
    s, axis = _axis_of(domain, params.a)
    if s >= R:
        raise ValueError("bubble center must be interior")

    def sphere_distance(c):
        return np.sqrt(R * R + s * s - 2.0 * R * s * c)

    value_coeffs = _project_zonal_data(
        n, lambda c: radial_profile(n, params.lam, sphere_distance(c)))
    lap_coeffs = _project_zonal_data(
        n, lambda c: radial_profile_laplacian(n, params.lam,
                                              sphere_distance(c)))
    width = max(len(value_coeffs), len(lap_coeffs))
    value_coeffs = np.pad(value_coeffs, (0, width - len(value_coeffs)))
    lap_coeffs = np.pad(lap_coeffs, (0, width - len(lap_coeffs)))
    return _ZonalNavierBVP(domain, axis, value_coeffs, lap_coeffs)


# ---------------------------------------------------------------------------
# pins on the oracle


def laplace_green_ball(domain, x, y):
    """Dirichlet Green's function of -Delta on the ball.

    Image (Kelvin) closed form, normalized so -Delta_y G(x, .) = delta_x:
    G(x,y) = k (|x-y|^(2-n) - (|x| |y-x*|/R)^(2-n)), x* = R^2 x/|x|^2,
    with k = 1/((n-2)|S^(n-1)|).
    """
    n, R = domain.n, domain.radius
    xs = np.asarray(x, dtype=float) - domain.center
    ys = np.asarray(y, dtype=float) - domain.center
    rx, ry = np.linalg.norm(xs), np.linalg.norm(ys)
    if rx >= R or ry >= R:
        raise ValueError("both points must lie inside the ball")
    d = np.linalg.norm(xs - ys)
    if d < 1e-14 * R:
        raise ValueError("Green kernel is singular at coincident points")
    k = 1.0 / ((n - 2) * sphere_measure(n))
    if rx == 0.0:
        image = R ** (2 - n)
    else:
        image = (rx * np.linalg.norm(ys - (R * R / rx ** 2) * xs) / R) ** (2 - n)
    return k * (d ** (2 - n) - image)


def fundamental_normalization(n):
    """Constant k_n with Delta^2 |x|^(4-n) = k_n * delta_0.

    Composing Delta|x|^(4-n) = 2(4-n)|x|^(2-n) with the classical
    Delta|x|^(2-n) = -(n-2)|S^(n-1)| delta_0 gives
    k_n = 2(n-4)(n-2)|S^(n-1)|.
    """
    return 2.0 * (n - 4) * (n - 2) * sphere_measure(n)


def biharmonic_green(domain, x, y):
    """Full kernel G(x,y) = |x-y|^(4-n) - H(x,y), positive on balls."""
    d = np.linalg.norm(np.asarray(x, dtype=float) - np.asarray(y, dtype=float))
    if d < 1e-14 * domain.radius:
        raise ValueError("kernel is singular on the diagonal")
    return d ** (4 - domain.n) - regular_part_H(domain, x, y)


def ball_axisymmetric_integral(n, g, R, nr=80):
    """Integral over the n-ball of a function g(r, c) of radius and cosine.

    g is called on a column of radii against a row of cosines. The
    angular factor is Gauss-Jacobi quadrature with weight
    (1 - c^2)^{(n-3)/2}; the radial factor uses the package's converged
    Gauss-Legendre panels, which refuse a divergent integrand.
    """
    a = 0.5 * (n - 3)
    c, c_weights = roots_jacobi(nr, a, a)

    def at_density(density):
        r, w = gauss_legendre_panels([0.0, R], [density])
        shells = np.empty_like(r)
        for lo in range(0, r.size, _RADIAL_BLOCK):
            rb = r[lo:lo + _RADIAL_BLOCK]
            shells[lo:lo + rb.size] = g(rb[:, None], c[None, :]) @ c_weights
        return float(np.dot(w, shells * r ** (n - 1)))

    # |S^{n-2}| carries the angular measure the Jacobi weight leaves out
    return sphere_measure(n - 1) * converged_quadrature(at_density)[0]
