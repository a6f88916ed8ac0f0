"""The Robin function of the fourth-order Navier problem on balls.

The kernel G of Delta^2 with u = Delta u = 0 on the sphere splits into the
free-space part |x-y|^(4-n) minus a smooth biharmonic part H(x, y), the
solution of

    Delta^2 H = 0,   H = |x-.|^(4-n),   Delta H = 2(4-n)|x-.|^(2-n)
                                         on the sphere.

On a ball this problem diagonalizes over zonal harmonics: with
t = |x - center|/R, nu = (n-2)/2 and the generating function

    |x - xi|^(2-n) = R^(2-n) sum_k t^k C_k^(nu)(c),

each mode k has the explicit interior solution A_k r^k + B_k r^{k+2}.
The package needs H only on the diagonal, where every mode is evaluated
at c = 1 and the series collapses to a power series in t^2 with
closed-form coefficients: the Robin function phi(x) = H(x, x) and its
gradient. The general off-diagonal solve H(x, y) lives under tests/ as
the oracle that series is checked against.

The radial profile of phi grows from its one critical point, the
center, where the series gives the closed form bubble.center_potential
to the bit; the blow-up verdict and the obstruction read that closed
form, and the reduced system evaluates this series once, at the center.
The series gives the profile away from the center and its boundary
rates (4-n for phi, 3-n for the gradient). Its terms are formed by
ratios, so they overflow only where the sum does: on the unit ball
phi and its gradient stay finite at 0.98 R up to n = 220, and a sum
that overflows is refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bubble import center_potential
from .numerics import SlopeFit, fit_loglog


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
        if not 0 < self.radius < math.inf:
            raise ValueError("radius must be positive and finite")

    @classmethod
    def unit(cls, n):
        return cls(n=n, center=np.zeros(n), radius=1.0)


@dataclass(frozen=True)
class RobinEval:
    """phi and gradient of the Robin function at one point."""

    phi: float
    grad: np.ndarray

    def __post_init__(self):
        if not self.phi > 0:
            raise ValueError("the regular part is positive inside a ball")


# ---------------------------------------------------------------------------
# zonal series of the Robin function


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


# ---------------------------------------------------------------------------
# Robin function


def _first_axis(n):
    e = np.zeros(n)
    e[0] = 1.0
    return e


def robin(domain, x):
    """Robin function phi(x) = H(x, x) with its gradient.

    The radial profile phi~(s) carries everything on a ball: the gradient
    is phi~'(s) times the outward unit vector. On the diagonal
    the zonal modes of H are evaluated at q = tau = s/R and c = 1; the
    value amplitudes h_k and the Laplacian amplitudes beta_k carry tau^k
    themselves, so phi~ is a power series in t = tau^2 with closed-form
    coefficients,

      phi~(s) = R^(4-n) sum_k g_k t^k [(m/(m+k) - b_k) + (b_k - m/(m+k+2)) t],

    g_k = C_k(1) = (n-2)_k / k!, m = (n-4)/2, b_k = 2(4-n)/(4k+2n). The
    k = 0 bracket's first part, 1 - b_0, is taken as the unit ball's
    bubble.center_potential, (2n-4)/n, so the center value is that
    closed form to the bit. Each term g_k t^k is formed
    from the last by the ratio t (n-3+k)/k, so no term overflows before
    the sum does (the bare g_k would, from n = 112 at tau = 0.98). A sum
    that overflows all the same is refused, never returned as inf.
    phi~' comes from the same pass,
    differentiated term by term; the length is sized for a tail whose
    terms carry an extra factor k^2 over those of phi~, a margin over the
    single factor k of phi~'.
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
    # g_k t^(k-1) for k >= 1, then g_k t^k for k >= 0
    over_t = np.cumprod(np.concatenate(([n - 2.0],
                                        t * (n - 2 + k[1:-1]) / k[2:])))
    terms = np.concatenate(([1.0], t * over_t))
    lead = m / (m + k) - b
    lead[0] = center_potential(n)
    tail = b - m / (m + k + 2)
    scale = R ** (4 - n)
    phi0 = float(scale * (terms @ (lead + t * tail)))
    p1 = (k[1:] * lead[1:]) @ over_t + ((k + 1) * tail) @ terms
    dphi = float(scale / R * 2.0 * tau * p1)
    if not (math.isfinite(phi0) and math.isfinite(dphi)):
        raise ValueError("the Robin series overflows at this dimension "
                         "and distance from the boundary")
    grad = dphi * (xs / s) if s > 0 else np.zeros(n)
    return RobinEval(phi=phi0, grad=grad)


# The boundary fit's stations: twelve distances over [0.02, 0.1] R. The
# exponents are asymptotic as d -> 0 while the local slope still drifts
# visibly at the shallow end (for phi on the unit 6-ball it moves from
# -1.97 at d = 0.02 to -1.53 at d = 0.3, a subleading boundary term), so
# the window stops at 0.1 R.
BOUNDARY_FIT_STATIONS = 12
BOUNDARY_FIT_WINDOW = (0.02, 0.1)


@dataclass(frozen=True)
class BoundaryBlowupFits:
    """Fitted boundary rates of phi and of its gradient norm."""

    phi: SlopeFit
    grad_norm: SlopeFit


def boundary_blowup_fit(domain):
    """Measure the boundary blow-up exponents of the Robin function.

    Evaluates phi and |grad phi| at BOUNDARY_FIT_STATIONS distances d
    from the boundary along a diameter, geometrically spaced over
    BOUNDARY_FIT_WINDOW (in units of R), and fits both against d on
    log-log axes. Expected slopes: 4 - n for phi and 3 - n for the
    gradient norm. The stations lie on the first axis, so the gradient
    norm is |phi~'| = |grad[0]|, taken without squaring it.
    """
    n, R = domain.n, domain.radius
    near, far = BOUNDARY_FIT_WINDOW
    ds = np.geomspace(near * R, far * R, BOUNDARY_FIT_STATIONS)
    phis, grads = [], []
    for d in ds:
        ev = robin(domain, domain.center + (R - d) * _first_axis(n))
        phis.append(ev.phi)
        grads.append(abs(float(ev.grad[0])))
    return BoundaryBlowupFits(phi=fit_loglog(ds, np.asarray(phis)),
                              grad_norm=fit_loglog(ds, np.asarray(grads)))
