"""Green machinery of the fourth-order Navier problem on balls.

The kernel G of Delta^2 with u = Delta u = 0 on the sphere splits into the
free-space part |x-y|^(4-n) minus a smooth biharmonic part H(x, y). H is
obtained here from its defining boundary value problem,

    Delta^2 H = 0,   H = |x-.|^(4-n),   Delta H = 2(4-n)|x-.|^(2-n)
                                         on the sphere,

solved in two second-order stages (harmonic extension of the Delta data,
then a Poisson solve). On a ball both stages diagonalize over zonal
harmonics: with t = |x - center|/R and c the cosine of the angle at the
center between x and the evaluation direction,

    |x - xi|^(2-n) = R^(2-n) sum_k t^k C_k^(nu)(c),      nu = (n-2)/2,

and the (4-n) power expands in C^(nu-1), which the contiguous relation
  C_k^(nu-1) = (nu-1)/(nu-1+k) [C_k^(nu) - C_{k-2}^(nu)]
converts to the same basis. Each mode k then has the explicit interior
solution A_k r^k + B_k r^{k+2}. No sampling fallback is needed at any
point: rotational symmetry reduces every evaluation pair to this
axisymmetric picture, whatever the positions of x and y.

The Robin function phi(x) = H(x, x) and its radial profile drive the
concentration analysis: its critical point locates the blow-up point and
its boundary rates (4-n for phi, 3-n for the gradient) set the scales.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .numerics import SlopeFit, fit_loglog, sphere_measure


@dataclass(frozen=True)
class BallDomain:
    """The computational domain: a ball in R^n."""

    n: int
    center: np.ndarray
    radius: float

    def __post_init__(self):
        center = np.atleast_1d(np.asarray(self.center, dtype=float))
        object.__setattr__(self, "center", center)
        if self.n < 5:
            raise ValueError("domain dimension must be at least 5")
        if center.size != self.n:
            raise ValueError("center must have n coordinates")
        if not self.radius > 0:
            raise ValueError("radius must be positive")

    @classmethod
    def unit(cls, n):
        return cls(n=n, center=np.zeros(n), radius=1.0)


@dataclass(frozen=True)
class RobinEval:
    """phi, gradient and Hessian of the Robin function at one point.

    nondegenerate means every Hessian eigenvalue clears `tolerance` in
    absolute value; the tolerance travels with the result so the flag can
    be audited later.
    """

    x: np.ndarray
    phi: float
    grad: np.ndarray
    hessian: np.ndarray
    nondegenerate: bool
    tolerance: float

    def __post_init__(self):
        if not self.phi > 0:
            raise ValueError("the regular part is positive inside a ball")


def fundamental_normalization(n):
    """Constant k_n with Delta^2 |x|^(4-n) = k_n * delta_0.

    Composing Delta|x|^(4-n) = 2(4-n)|x|^(2-n) with the classical
    Delta|x|^(2-n) = -(n-2)|S^(n-1)| delta_0 gives
    k_n = 2(n-4)(n-2)|S^(n-1)|. (Printed sources sometimes omit the
    leading 2; the test suite pins this value against an iterated-kernel
    quadrature, see test_green_robin.)
    """
    return 2.0 * (n - 4) * (n - 2) * sphere_measure(n)


# ---------------------------------------------------------------------------
# classical Dirichlet kernel of -Delta on the ball (image form)


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


# ---------------------------------------------------------------------------
# zonal expansion of the regular part


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


def _gegenbauer_matrix(c, nu, J):
    """C_k^(nu)(c_i) as a (J, len(c)) array, same recurrence vectorized."""
    c = np.asarray(c, dtype=float)
    out = np.empty((J, c.size))
    out[0] = 1.0
    if J > 1:
        out[1] = 2.0 * nu * c
    for k in range(2, J):
        out[k] = (2 * c * (k + nu - 1) * out[k - 1]
                  - (k + 2 * nu - 2) * out[k - 2]) / k
    return out


def _gegenbauer_at_one(nu, J):
    """C_k^(nu)(1) = (2 nu)_k / k! for k = 0..J-1."""
    k = np.arange(J)
    return np.exp(gammaln(k + 2 * nu) - gammaln(2 * nu) - gammaln(k + 1.0))


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
    alpha_k = value_coeffs_k - beta_k.
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

    def _direction_cosine(self, ys, q):
        if self.axis is None or q == 0.0:
            return 1.0
        return float(np.clip(np.dot(ys, self.axis) / (q * self.domain.radius),
                             -1.0, 1.0))

    def _split(self, y):
        ys = np.asarray(y, dtype=float) - self.domain.center
        q = np.linalg.norm(ys) / self.domain.radius
        if q > 1.0 + 1e-12:
            raise ValueError("evaluation point lies outside the ball")
        q = min(q, 1.0)
        return q, self._direction_cosine(ys, q)

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


def _regular_part_bvp(domain, x):
    """Zonal solve for H(x, .): boundary amplitudes in closed form.

    The generating function of C_k^(nu-1) expands |x - xi|^(4-n) on the
    sphere; the contiguous relation
      C_k^(nu-1) = (nu-1)/(nu-1+k) [C_k^(nu) - C_{k-2}^(nu)]
    moves it to the C^(nu) basis, giving the value amplitudes h_k below.
    The Laplacian data 2(4-n)|x - xi|^(2-n) is the C^(nu) generating
    function itself.
    """
    n, R = domain.n, domain.radius
    xs = np.asarray(x, dtype=float) - domain.center
    s = np.linalg.norm(xs)
    if s >= R:
        raise ValueError("source point must be interior")
    tau = s / R
    axis = xs / s if s > 0 else None
    _check_series_reach(tau)
    J = _terms_needed(tau, n - 3)
    k = np.arange(J)
    tpow = tau ** k
    num = (n - 4) / 2.0  # nu - 1
    h = R ** (4 - n) * num * (tpow / (num + k)
                              - tau * tau * tpow / (num + 2 + k))
    g = 2.0 * (4 - n) * R ** (2 - n) * tpow
    return _ZonalNavierBVP(domain, axis, h, g)


def regular_part_H(domain, x, y):
    """Smooth part H(x, y) of the fourth-order Navier kernel.

    Two-stage zonal solve as described in the module docstring; x = y is
    allowed (H is smooth across the diagonal).
    """
    return _regular_part_bvp(domain, x).value(y)


def regular_part_H_laplacian(domain, x, y):
    """Delta_y H(x, y); used for normalization cross-checks."""
    return _regular_part_bvp(domain, x).laplacian(y)


def biharmonic_green(domain, x, y):
    """Full kernel G(x,y) = |x-y|^(4-n) - H(x,y), positive on balls,
    normalized so Delta^2 G(x, .) = fundamental_normalization(n) delta_x."""
    xs = np.asarray(x, dtype=float)
    ys = np.asarray(y, dtype=float)
    d = np.linalg.norm(xs - ys)
    if d < 1e-14 * domain.radius:
        raise ValueError("kernel is singular on the diagonal")
    return d ** (4 - domain.n) - regular_part_H(domain, x, y)


# ---------------------------------------------------------------------------
# Robin function


def _first_axis(n):
    e = np.zeros(n)
    e[0] = 1.0
    return e


def robin(domain, x):
    """Robin function phi(x) = H(x, x) with gradient and Hessian.

    The radial profile phi~(s) carries everything on a ball: the gradient
    is phi~'(s) times the outward unit vector and the Hessian splits into
    phi~'' on the radial line and phi~'/s tangentially. On the diagonal
    the zonal solve of _regular_part_bvp has q = tau = s/R and c = 1, and
    its amplitudes h_k, beta_k carry tau^k themselves, so phi~ is a power
    series in t = tau^2 with closed-form coefficients,

      phi~(s) = R^(4-n) sum_k C_k(1) [(m/(m+k) - b_k) t^k
                                      + (b_k - m/(m+k+2)) t^(k+1)],

    m = (n-4)/2, b_k = 2(4-n)/(4k+2n). phi~' and phi~'' come from the same
    pass, differentiated term by term; the length is sized for the tail
    of phi~'', whose terms carry an extra factor k^2 over those of phi~.
    """
    n, R = domain.n, domain.radius
    xs = np.asarray(x, dtype=float) - domain.center
    s = float(np.linalg.norm(xs))
    if R - s <= 0:
        raise ValueError("point must be interior")
    tau = s / R
    _check_series_reach(tau)
    t = tau * tau
    J = _terms_needed(t, n - 1)
    k = np.arange(J)
    m = (n - 4) / 2.0
    b = 2.0 * (4 - n) / (4 * k + 2 * n)
    ck = _gegenbauer_at_one((n - 2) / 2.0, J)
    coeffs = np.zeros(J + 1)
    coeffs[:J] += ck * (m / (m + k) - b)
    coeffs[1:] += ck * (b - m / (m + k + 2))
    j = np.arange(J + 1)
    tp = t ** j
    p1 = (j * coeffs)[1:] @ tp[:-1]
    p2 = (j * (j - 1) * coeffs)[2:] @ tp[:-2]
    scale = R ** (4 - n)
    phi0 = float(scale * (coeffs @ tp))
    dphi = float(scale / R * 2.0 * tau * p1)
    d2phi = float(scale / (R * R) * (2.0 * p1 + 4.0 * t * p2))
    if s > 0:
        u = xs / s
        grad = dphi * u
        tangential = dphi / s
        hess = (d2phi - tangential) * np.outer(u, u) + tangential * np.eye(n)
    else:
        grad = np.zeros(n)
        hess = d2phi * np.eye(n)
    tol = 1e-6 * R ** (2 - n)
    eig = np.linalg.eigvalsh(hess)
    return RobinEval(x=np.asarray(x, dtype=float), phi=phi0, grad=grad,
                     hessian=hess, nondegenerate=bool(np.all(np.abs(eig) > tol)),
                     tolerance=tol)


def find_critical_point(domain, seed, max_iter=80):
    """Damped Newton search for a critical point of the Robin function.

    On a ball the relevant profile is one dimensional; the iteration runs
    on s = |x - center| with the gradient and curvature from `robin`.
    Stops when the full gradient norm clears 1e-8 R^(3-n). A move past
    0.95 R is reported as divergence toward the boundary, where phi blows
    up and no interior critical point can lie.
    """
    n, R = domain.n, domain.radius
    xs = np.asarray(seed, dtype=float) - domain.center
    s = float(np.linalg.norm(xs))
    if R - s < 0.05 * R:
        raise ValueError("seed must keep 0.05 radius clearance from the "
                         "boundary")
    direction = xs / s if s > 0 else _first_axis(n)
    gtol = 1e-8 * R ** (3 - n)
    for _ in range(max_iter):
        ev = robin(domain, domain.center + s * direction)
        g = float(np.dot(ev.grad, direction)) if s > 0 else 0.0
        if np.linalg.norm(ev.grad) < gtol:
            return ev
        curv = float(direction @ ev.hessian @ direction)
        step = -g / curv if curv > 0 else -np.sign(g) * 0.1 * R
        # damping: never move more than a tenth of the radius at once
        step = float(np.clip(step, -0.1 * R, 0.1 * R))
        s = s + step
        if s < 0:
            s = abs(s)  # passing through the center is fine by symmetry
        if s > 0.95 * R:
            raise RuntimeError("iteration diverged toward the boundary; "
                               "no interior critical point along this ray")
    raise RuntimeError("critical point search did not converge in "
                       f"{max_iter} iterations")


@dataclass(frozen=True)
class BoundaryBlowupFits:
    """Fitted boundary rates of phi and of its gradient norm."""

    phi: SlopeFit
    grad_norm: SlopeFit


def boundary_blowup_fit(domain, stations=12, window=(0.02, 0.1)):
    """Measure the boundary blow-up exponents of the Robin function.

    Evaluates phi and |grad phi| at distances d in [0.02, 0.3] R from the
    boundary along a diameter and fits both against d on log-log axes.
    Expected slopes: 4 - n for phi and 3 - n for the gradient norm.

    Stations may occupy [0.02, 0.3] R. The exponents are asymptotic as
    d -> 0 while the local slope still drifts visibly at the shallow end
    (for phi on the unit 6-ball it moves from -1.97 at d = 0.02 to -1.53
    at d = 0.3, a subleading boundary term). The default window therefore
    stops at 0.1 R; pass a wider `window` to see the drift itself.
    """
    n, R = domain.n, domain.radius
    ds = np.geomspace(window[0] * R, window[1] * R, stations)
    phis, grads = [], []
    for d in ds:
        ev = robin(domain, domain.center + (R - d) * _first_axis(n))
        phis.append(ev.phi)
        grads.append(float(np.linalg.norm(ev.grad)))
    return BoundaryBlowupFits(phi=fit_loglog(ds, np.asarray(phis)),
                              grad_norm=fit_loglog(ds, np.asarray(grads)))
