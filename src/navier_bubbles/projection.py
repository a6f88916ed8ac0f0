"""Projecting the concentration bubble onto the ball's boundary conditions.

The free-space bubble does not vanish on the sphere. Subtracting the
deficit theta, the solution of

    Delta^2 theta = 0,  theta = bubble,  Delta theta = Delta bubble
                                          on the sphere,

yields the projected bubble that the concentration ansatz is built from.
Both traces are zonal about the axis through the bubble center, so theta
comes from the same two-stage mode solve as the kernel's regular part,
with amplitudes obtained by Gauss-Jacobi projection instead of a closed
form.

The far-field portrait, verified here by sweeps: theta is squeezed
between 0 and the bubble, its size decays like (lam d)^{-(n-4)/2} in both
the curvature energy and the critical Lebesgue norm, and to leading order
theta is the kernel regular part H(a, .) scaled by the bubble amplitude,
with a remainder another lam^{-1} d^{-(n-2)/2} down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import gammaln, roots_jacobi

from .bubble import BubbleParams, c0, eval_delta, radial_profile, \
    radial_profile_laplacian
from .green_robin import BallDomain, _first_axis, _gegenbauer_at_one, \
    _gegenbauer_matrix, _regular_part_bvp, _ZonalNavierBVP
from .numerics import SlopeFit, ball_axisymmetric_integral, core_seams, \
    fit_loglog

_DEFAULT_MIN_LAMBDA_D = 5.0


@dataclass(frozen=True)
class DeficitExpansion:
    """Leading-order structure of the deficit for one bubble.

    leading is the field c0 H(a, .) / lam^{(n-4)/2} as a callable;
    remainder_norm is the sup of deficit - leading over the core ball of
    radius d/2 around the bubble center; d is the center's distance to
    the sphere.
    """

    params: BubbleParams
    domain: BallDomain
    leading: Callable[[np.ndarray], float]
    remainder_norm: float
    d: float

    def __post_init__(self):
        if self.remainder_norm < 0:
            raise ValueError("remainder_norm is a sup norm")
        if self.d <= 0:
            raise ValueError("bubble center must be interior")


@dataclass(frozen=True)
class ExpansionOrderFits:
    """Fitted lam-exponents of the three deficit sizes in a lam-sweep."""

    energy_norm: SlopeFit
    critical_norm: SlopeFit
    remainder_sup: SlopeFit


def _center_distance(params, domain):
    s = np.linalg.norm(np.asarray(params.a, dtype=float) - domain.center)
    return domain.radius - s


def _admit(params, domain, min_lambda_d):
    if params.n != domain.n:
        raise ValueError("bubble and domain dimensions differ")
    d = _center_distance(params, domain)
    if d <= 0:
        raise ValueError("bubble center must be interior")
    if params.lam * d < min_lambda_d:
        raise ValueError(
            f"lam * distance = {params.lam * d:.3g} is below the expansion "
            f"regime threshold {min_lambda_d}")
    return d


def _gegenbauer_norms(nu, J):
    """L^2 weights of C_k^(nu) against (1-c^2)^(nu-1/2) on [-1, 1]."""
    k = np.arange(J)
    return np.exp(math.log(math.pi) + (1 - 2 * nu) * math.log(2.0)
                  + gammaln(k + 2 * nu) - gammaln(k + 1.0)
                  - np.log(k + nu) - 2 * gammaln(nu))


def _project_zonal_data(n, fn, budget_rel=1e-11):
    """Gegenbauer amplitudes of a smooth zonal function on the sphere.

    fn maps an array of direction cosines to data values. The ladder
    doubles the quadrature and mode count until the worst-case truncated
    tail (coefficient times C_k(1)) is below budget_rel of the data sup,
    then drops the trailing negligible modes.
    """
    nu = (n - 2) / 2.0
    jac = 0.5 * (n - 3)
    for modes, nq in ((48, 128), (96, 256), (192, 512), (384, 1024),
                      (768, 2048)):
        nodes, weights = roots_jacobi(nq, jac, jac)
        vals = fn(nodes)
        C = _gegenbauer_matrix(nodes, nu, modes)
        coeffs = (C @ (weights * vals)) / _gegenbauer_norms(nu, modes)
        weight = np.abs(coeffs) * _gegenbauer_at_one(nu, modes)
        budget = budget_rel * float(np.max(np.abs(vals)))
        suffix = np.cumsum(weight[::-1])[::-1]
        if suffix[int(0.85 * modes)] > budget:
            continue
        kept = int(np.argmax(suffix <= budget))
        return coeffs[:max(kept, 1)]
    raise RuntimeError("boundary data did not resolve within 768 zonal "
                       "modes; bubble center too close to the sphere")


def _deficit_bvp(params, domain, min_lambda_d):
    d = _admit(params, domain, min_lambda_d)
    n, R = domain.n, domain.radius
    xs = np.asarray(params.a, dtype=float) - domain.center
    s = np.linalg.norm(xs)
    axis = xs / s if s > 0 else None

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
    return _ZonalNavierBVP(domain, axis, value_coeffs, lap_coeffs), d


def deficit(params, domain, x, min_lambda_d=_DEFAULT_MIN_LAMBDA_D):
    """Deficit at x: the biharmonic field carrying the bubble's traces.

    Subtracting it from the bubble enforces both Navier conditions on the
    sphere. Requires lam * d(center, sphere) >= min_lambda_d, the regime
    where the projected bubble stays positive and the expansion applies.
    """
    bvp, _ = _deficit_bvp(params, domain, min_lambda_d)
    return bvp.value(x)


def projected_bubble(params, domain, x, min_lambda_d=_DEFAULT_MIN_LAMBDA_D):
    """Bubble minus deficit: satisfies both boundary conditions, vanishes
    on the sphere, positive inside in the admissible regime."""
    bvp, _ = _deficit_bvp(params, domain, min_lambda_d)
    return eval_delta(params, x) - bvp.value(x)


def deficit_expansion(params, domain, min_lambda_d=_DEFAULT_MIN_LAMBDA_D,
                      core_samples=30):
    """Leading term and measured remainder of the deficit expansion.

    The leading field is c0 H(a, .) lam^{-(n-4)/2}; the remainder sup is
    taken over the core ball of radius d/2 around the center, sampled
    along the axis (the configuration is axisymmetric). The pointwise
    squeeze 0 <= deficit <= bubble is asserted on the same samples.
    """
    bvp, d = _deficit_bvp(params, domain, min_lambda_d)
    n = domain.n
    hpart = _regular_part_bvp(domain, params.a)
    amplitude = c0(n) * params.lam ** (-0.5 * (n - 4))

    def leading(x):
        return amplitude * hpart.value(x)

    a = np.asarray(params.a, dtype=float)
    direction = a - domain.center
    s = np.linalg.norm(direction)
    direction = direction / s if s > 0 else _first_axis(n)
    worst = 0.0
    for t in np.linspace(-0.5 * d, 0.5 * d, core_samples):
        x = a + t * direction
        th = bvp.value(x)
        if not 0.0 <= th <= eval_delta(params, x) * (1 + 1e-12):
            raise RuntimeError("pointwise squeeze 0 <= deficit <= bubble "
                               f"fails at {x}")
        worst = max(worst, abs(th - leading(x)))
    return DeficitExpansion(params=params, domain=domain, leading=leading,
                            remainder_norm=worst, d=d)


def deficit_energy_norm(params, domain, min_lambda_d=_DEFAULT_MIN_LAMBDA_D):
    """Curvature energy sqrt(integral over the ball of (Delta deficit)^2),
    the norm every size estimate of the theory is stated in."""
    bvp, _ = _deficit_bvp(params, domain, min_lambda_d)

    def integrand(r, c):
        return bvp.laplacian_rc(r, c) ** 2

    return math.sqrt(ball_axisymmetric_integral(domain.n, integrand,
                                                domain.radius))


def deficit_critical_norm(params, domain, min_lambda_d=_DEFAULT_MIN_LAMBDA_D):
    """L^{2n/(n-4)} norm of the deficit over the ball (the exponent dual
    to the curvature energy under the critical embedding)."""
    n = domain.n
    q = 2.0 * n / (n - 4)
    bvp, _ = _deficit_bvp(params, domain, min_lambda_d)

    def integrand(r, c):
        return np.abs(bvp.value_rc(r, c)) ** q

    return ball_axisymmetric_integral(n, integrand, domain.radius) ** (1 / q)


def projected_bubble_energy(params, domain,
                            min_lambda_d=_DEFAULT_MIN_LAMBDA_D):
    """Curvature energy of the projected bubble over the ball.

    Approaches the critical Sobolev level S^{n/4} from below as lam d
    grows, with an O((lam d)^{4-n}) gap.
    """
    n, R = domain.n, domain.radius
    bvp, _ = _deficit_bvp(params, domain, min_lambda_d)
    a = np.asarray(params.a, dtype=float) - domain.center
    s = np.linalg.norm(a)

    def integrand(r, c):
        # distance from the grid point (r, c) to the bubble center
        dist = np.sqrt(np.maximum(r * r + s * s - 2.0 * r * s * c, 0.0))
        lap_bubble = radial_profile_laplacian(n, params.lam, dist)
        return (lap_bubble - bvp.laplacian_rc(r, c)) ** 2

    return ball_axisymmetric_integral(n, integrand, R,
                                      radial_seams=core_seams(params.lam, R))


def expansion_orders(params_family, domain,
                     min_lambda_d=_DEFAULT_MIN_LAMBDA_D, core_samples=30):
    """Fit the lam-decay exponents of the deficit across a family.

    The family must share a centered bubble and vary lam over at least
    1.5 decades of lam * d. Fits log size against log lam for the
    curvature energy (expected exponent -(n-4)/2), the critical Lebesgue
    norm (same), and the sup of the post-leading remainder on the core
    ball (expected -n/2).
    """
    params_family = list(params_family)
    if len(params_family) < 4:
        raise ValueError("need at least four family members to fit")
    for p in params_family:
        if np.linalg.norm(np.asarray(p.a) - domain.center) > 0:
            raise ValueError("expansion sweeps run with the bubble at the "
                             "ball center")
    lams = np.array([p.lam for p in params_family], dtype=float)
    d = domain.radius
    span = lams.max() * d / (lams.min() * d)
    if span < 10.0 ** 1.5:
        raise ValueError("lam * d must span at least 1.5 decades; "
                         f"got {math.log10(span):.2f}")
    energies, criticals, remainders = [], [], []
    for p in params_family:
        energies.append(deficit_energy_norm(p, domain, min_lambda_d))
        criticals.append(deficit_critical_norm(p, domain, min_lambda_d))
        exp = deficit_expansion(p, domain, min_lambda_d, core_samples)
        remainders.append(exp.remainder_norm)
    return ExpansionOrderFits(
        energy_norm=fit_loglog(lams, np.array(energies)),
        critical_norm=fit_loglog(lams, np.array(criticals)),
        remainder_sup=fit_loglog(lams, np.array(remainders)))
