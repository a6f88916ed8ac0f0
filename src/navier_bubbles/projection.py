"""Projecting the concentration bubble onto the ball's boundary conditions.

The free-space bubble does not vanish on the sphere. Subtracting the
deficit theta, the solution of

    Delta^2 theta = 0,  theta = bubble,  Delta theta = Delta bubble
                                          on the sphere,

yields the projected bubble that the concentration ansatz is built from.
Every bubble here sits at the ball center, so both traces are constant
and theta is the Navier extension of the bubble's traces in closed form,

    theta(r) = delta(R) + Delta delta(R) (r^2 - R^2) / (2n),

with the constant Laplacian Delta delta(R). The kernel regular part
H(center, .) is the same extension of |.|^(4-n). Off-center bubbles are
refused; the general zonal-harmonic solve lives under tests/ as the
oracle these closed forms are checked against.

The far-field portrait, verified here by sweeps: theta is squeezed
between 0 and the bubble, its size decays like (lam R)^{-(n-4)/2} in both
the curvature energy and the critical Lebesgue norm, and to leading order
theta is the kernel regular part H(center, .) scaled by the bubble
amplitude, with a remainder another lam^{-1} R^{-(n-2)/2} down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bubble import _deficit_profile, _laplacian_traces, \
    _navier_extension, _require_centered, c0, eval_delta
from .green_robin import _first_axis
from .numerics import SlopeFit, fit_loglog, radial_integral, sphere_measure

# axis samples of the core ball of radius R/2 on which the expansion
# remainder and the pointwise squeeze are measured
_CORE_SAMPLES = 30


@dataclass(frozen=True)
class ExpansionOrderFits:
    """Fitted lam-exponents of the three deficit sizes in a lam-sweep."""

    energy_norm: SlopeFit
    critical_norm: SlopeFit
    remainder_sup: SlopeFit


def _center_regular_part(n, r, R):
    """H(center, .) at distance r: the Navier extension of |.|^(4-n),
    whose Laplacian is 2(4-n)|.|^(2-n)."""
    return _navier_extension(R ** (4 - n), 2.0 * (4 - n) * R ** (2 - n),
                             n, r, R)


def deficit(params, domain, x):
    """Deficit at x: the biharmonic field carrying the bubble's traces.

    Subtracting it from the bubble enforces both Navier conditions on the
    sphere. Requires a centered bubble with lam * R >= 5, the regime
    where the projected bubble stays positive and the expansion applies.
    """
    _require_centered(params, domain)
    r = np.linalg.norm(np.asarray(x, dtype=float) - domain.center)
    if r > domain.radius * (1.0 + 1e-12):
        raise ValueError("evaluation point lies outside the ball")
    return float(_deficit_profile(domain.n, params.lam, r, domain.radius))


def deficit_expansion(params, domain):
    """The measured remainder of the deficit expansion: the sup of
    deficit - c0 H(center, .) lam^{-(n-4)/2} over the core ball of
    radius R/2, sampled along an axis (the configuration is radial).

    The pointwise squeeze 0 <= deficit <= bubble is asserted on the same
    samples, and a failure names the first sample along the axis that
    breaks it. The samples are evaluated as arrays: the deficit at their
    distances, the bubble on their stack, and the leading term at their
    row norms.
    """
    _require_centered(params, domain)
    n, R = domain.n, domain.radius
    amplitude = c0(n) * params.lam ** (-0.5 * (n - 4))
    ts = np.linspace(-0.5 * R, 0.5 * R, _CORE_SAMPLES)
    xs = domain.center + ts[:, None] * _first_axis(n)
    th = _deficit_profile(n, params.lam, np.abs(ts), R)
    squeezed = (0.0 <= th) & (th <= eval_delta(params, xs) * (1 + 1e-12))
    if not squeezed.all():
        raise RuntimeError("pointwise squeeze 0 <= deficit <= bubble "
                           f"fails at {xs[np.argmin(squeezed)]}")
    leading = amplitude * _center_regular_part(
        n, np.linalg.norm(xs - domain.center, axis=-1), R)
    return float(np.max(np.abs(th - leading)))


def deficit_energy_norm(params, domain):
    """Curvature energy sqrt(integral over the ball of (Delta deficit)^2),
    the norm every size estimate of the theory is stated in. Delta theta
    is the constant Delta delta(R), so this is |Delta delta(R)| times the
    square root of the ball volume."""
    _require_centered(params, domain)
    n, R = domain.n, domain.radius
    lap = _laplacian_traces(n, params.lam, R)[0]
    return abs(lap) * math.sqrt(sphere_measure(n) * R ** n / n)


def deficit_critical_norm(params, domain):
    """L^{2n/(n-4)} norm of the deficit over the ball (the exponent dual
    to the curvature energy under the critical embedding)."""
    _require_centered(params, domain)
    n, R = domain.n, domain.radius
    q = 2.0 * n / (n - 4)
    integral = radial_integral(
        n, lambda r: np.abs(_deficit_profile(n, params.lam, r, R)) ** q, R)
    return integral ** (1 / q)


def expansion_orders(params_family, domain):
    """Fit the lam-decay exponents of the deficit across a family.

    The family must share the centered bubble and vary lam over at least
    1.5 decades. Fits log size against log lam for the curvature energy
    (expected exponent -(n-4)/2), the critical Lebesgue norm (same), and
    the sup of the post-leading remainder on the core ball (expected
    -n/2).
    """
    params_family = list(params_family)
    if len(params_family) < 4:
        raise ValueError("need at least four family members to fit")
    lams = np.array([p.lam for p in params_family], dtype=float)
    span = lams.max() / lams.min()
    if span < 10.0 ** 1.5:
        raise ValueError("lam must span at least 1.5 decades; "
                         f"got {math.log10(span):.2f}")
    energies, criticals, remainders = [], [], []
    for p in params_family:
        energies.append(deficit_energy_norm(p, domain))
        criticals.append(deficit_critical_norm(p, domain))
        remainders.append(deficit_expansion(p, domain))
    return ExpansionOrderFits(
        energy_norm=fit_loglog(lams, np.array(energies)),
        critical_norm=fit_loglog(lams, np.array(criticals)),
        remainder_sup=fit_loglog(lams, np.array(remainders)))
