"""The explicit concentrating profile and its closed-form calculus.

The family handled here is

    delta(x; a, lam) = c0 * lam^((n-4)/2) / (1 + lam^2 |x - a|^2)^((n-4)/2)

with c0 = [n (n-4) (n+2) (n-2)]^((n-4)/8), the entire positive solution of
Delta^2 u = u^((n+4)/(n-4)) in R^n that concentrates at a as lam grows.
All parameter derivatives used downstream are implemented in closed form;
finite differences appear only as test oracles.

Universal constants live here as well:

  * the Sobolev constant S of the embedding H^2 cap H_0^1 into L^(2n/(n-4))
    and the two balance constants c1 and c2 entering the scale equation
    c2 * eps ~ c1 * phi(a) / lam^(n-4), all in closed form from one
    Gamma expression for S^(n/4) (the profile is the extremal). The
    literature prints two inequivalent normalizations of c2 (full
    prefactor with one sign, half prefactor with the other); both are
    exposed, derived from the operative positive value, and their ratio
    is exactly -2;
  * the blow-up law built from them, in one place: its two limits, the
    scale it assigns to a peak, and its per-offset quantities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class BubbleParams:
    """Center a in R^n and finite scale lam > 0 of one profile."""

    a: np.ndarray
    lam: float
    n: int

    def __post_init__(self):
        a = np.atleast_1d(np.asarray(self.a, dtype=float))
        object.__setattr__(self, "a", a)
        if self.n < 5:
            raise ValueError("profile family needs dimension n >= 5")
        if a.size != self.n:
            raise ValueError("center must have n coordinates")
        if not (self.lam > 0 and math.isfinite(self.lam)):
            raise ValueError("scale lam must be positive and finite")


@dataclass(frozen=True)
class CriticalConstants:
    """Constants of the critical problem in one dimension n.

    c2 is the operative positive value used by every balance equation in
    this package. The two printed normalizations are read from it:
    c2_variant_full carries the full (n-4) prefactor and comes out
    negative, -2 c2; c2_variant_half carries (n-4)/2 with the opposite
    sign convention and equals c2.
    """

    n: int
    c0: float
    p: float
    S: float
    c1: float
    c2: float

    def __post_init__(self):
        if not (self.c0 > 0 and self.S > 0 and self.c1 > 0):
            raise ValueError("c0, S, c1 must be positive")
        if not self.c2 > 0:
            raise ValueError("operative c2 must be positive")

    @property
    def c2_variant_full(self):
        return -2.0 * self.c2

    @property
    def c2_variant_half(self):
        return self.c2


def c0(n):
    """Profile normalization [n (n-4) (n+2) (n-2)]^((n-4)/8)."""
    if n < 5:
        raise ValueError("profile normalization needs n >= 5")
    return float(n * (n - 4) * (n + 2) * (n - 2)) ** ((n - 4) / 8.0)


def critical_exponent(n):
    """p = (n+4)/(n-4); p + 1 = 2n/(n-4) is the critical power."""
    if n < 5:
        raise ValueError("critical exponent needs n >= 5")
    return (n + 4.0) / (n - 4.0)


# ---------------------------------------------------------------------------
# radial closed forms; these preserve the dtype of r so extended-precision
# pipelines stay in extended precision end to end


def _c0_as(n, like):
    base = np.asarray(float(n * (n - 4) * (n + 2) * (n - 2)),
                      dtype=np.asarray(like).dtype)
    return np.power(base, (n - 4) / 8.0)


def radial_profile(n, lam, r):
    """delta(r) for a profile centered at the origin."""
    r = np.asarray(r)
    t = (lam * r) ** 2
    return _c0_as(n, r) * lam ** ((n - 4) / 2.0) / (1 + t) ** ((n - 4) / 2.0)


def _laplacian_prefactor(n, lam, r):
    """-(n-4) c0 lam^((n-4)/2 + 2), the factor both Laplacians share, in
    the dtype of r."""
    return -(n - 4) * _c0_as(n, r) * lam ** ((n - 4) / 2.0 + 2.0)


def _laplacians(n, pref, t):
    """(Delta delta, lam * d(Delta delta)/d(lam)) from the prefactor
    pref = _laplacian_prefactor(n, lam, r) and t = (lam r)^2, the one home
    of both closed forms:

        Delta delta               = pref (n + 2t) / (1 + t)^(n/2),
        lam d(Delta delta)/d(lam) = pref (n^2/2 - (n-4)(n+2) t/2 - (n-4) t^2)
                                    / ((1 + t)^(n/2) (1 + t)),

    from one 1 + t and one (1 + t)^(n/2). The second is divided as
    pref / (1 + t)^(n/2) times the polynomial over 1 + t, so neither
    product overflows where the quotient is finite. t may be an array or
    a Python float.
    """
    s = 1 + t
    # from n = 48 the power overflows at the quadrature's outermost
    # nodes, where both quotients' limit is 0; numpy rounds it to inf and
    # a Python float raises instead
    with np.errstate(over="ignore"):
        try:
            power = s ** (n / 2.0)
        except OverflowError:
            power = math.inf
    poly = 0.5 * n * n - t * (0.5 * (n - 4) * (n + 2) + (n - 4) * t)
    return pref * (n + 2 * t) / power, pref / power * (poly / s)


def half_peak_scale(n, r_half):
    """The scale lam of the profile that falls to half its peak at radius
    r_half: delta(r) / delta(0) = (1 + (lam r)^2)^(-(n-4)/2) = 1/2 gives

        lam = sqrt(2^(2/(n-4)) - 1) / r_half.
    """
    return math.sqrt(2.0 ** (2.0 / (n - 4)) - 1.0) / r_half


def radial_profile_laplacian(n, lam, r):
    """Delta delta(r), closed form (_laplacians).

    Delta delta = -(n-4) c0 lam^((n-4)/2 + 2) (n + 2 lam^2 r^2)
                  / (1 + lam^2 r^2)^(n/2).
    """
    r = np.asarray(r)
    return _laplacians(n, _laplacian_prefactor(n, lam, r),
                       (lam * r) ** 2)[0]


def _scale_derivative_from(n, t, delta):
    """lam * d(delta)/d(lam) = ((n-4)/2) (1 - t)/(1 + t) delta from
    t = (lam r)^2 and delta(r); it vanishes on the sphere r = 1/lam."""
    return 0.5 * (n - 4) * (1 - t) / (1 + t) * delta


def _laplacian_traces(n, lam, R):
    """(Delta delta(R), lam d(Delta delta)/d(lam) at R) in Python floats
    from one _laplacians call, which reads both as 0 where their power
    overflows (n = 48 at lam R = 4e10). It forms no delta(R): numpy warns
    on that overflow."""
    return _laplacians(n, float(_laplacian_prefactor(n, lam, R)),
                       (float(lam) * float(R)) ** 2)


# ---------------------------------------------------------------------------
# the centered profile corrected to Navier conditions on a ball of radius R;
# for a radial f the Navier extension of its boundary traces is the exact
# biharmonic quadratic f(R) + Delta f(R) (r^2 - R^2) / (2n), whose
# Laplacian is the constant Delta f(R)


def _require_centered(params, domain):
    """Refuse every configuration but a bubble at the ball center with
    lam * radius >= 5; the centered closed forms hold only there."""
    if params.n != domain.n:
        raise ValueError("profile and domain dimensions do not match")
    R = domain.radius
    if not np.allclose(params.a, domain.center, atol=1e-12 * R, rtol=0.0):
        raise ValueError(
            "only the centered configuration is supported here; parity "
            "identities used by this routine fail off center")
    if params.lam * R < 5.0:
        raise ValueError(
            "concentration scale too small: lam * radius must be at least 5")


def _navier_extension(f_R, lap_f_R, n, r, R):
    """The Navier extension of the traces f(R) and Delta f(R) of a radial
    function."""
    return f_R + lap_f_R * (r**2 - R**2) / (2.0 * n)


def _deficit_profile(n, lam, r, R):
    """theta for a center bubble: the Navier extension of delta."""
    return _navier_extension(radial_profile(n, lam, R),
                             _laplacian_traces(n, lam, R)[0], n, r, R)


def _projected_profiles(n, lam, R):
    """The map r -> (delta, Pdelta, lam d/dlam Pdelta) for a center bubble
    on the ball of radius R.

    The four traces at R are read once, here. Each call reads delta(r)
    once, and the scale derivative ((n-4)/2) (1-t)/(1+t) delta shares it.
    """
    delta_R = radial_profile(n, lam, R)
    scale_R = _scale_derivative_from(n, (lam * R) ** 2, delta_R)
    lap_R, scale_lap_R = _laplacian_traces(n, lam, R)

    def at(r):
        r = np.asarray(r)
        delta = radial_profile(n, lam, r)
        scale = _scale_derivative_from(n, (lam * r) ** 2, delta)
        return (delta,
                delta - _navier_extension(delta_R, lap_R, n, r, R),
                scale - _navier_extension(scale_R, scale_lap_R, n, r, R))

    return at


def _projected_profile(n, lam, r, R):
    """Pdelta for a center bubble: delta minus its Navier extension."""
    return _projected_profiles(n, lam, R)(r)[1]


def _projected_laplacians(n, lam, r, R):
    """(Delta Pdelta, Delta lam d/dlam Pdelta) at the nodes r for a center
    bubble: each Laplacian minus its value at R, the Laplacian of the
    Navier extension. One _laplacians call reads the nodes and one
    reads R (_laplacian_traces); decompose evaluates both per trial scale.
    """
    r = np.asarray(r)
    lap, scale = _laplacians(n, _laplacian_prefactor(n, lam, r),
                             (lam * r) ** 2)
    lap_R, scale_R = _laplacian_traces(n, lam, R)
    return lap - lap_R, scale - scale_R


# ---------------------------------------------------------------------------
# pointwise API


def eval_delta(params, x):
    """Profile value at a point (or stack of points in the last axis)."""
    x = np.asarray(x, dtype=float)
    s = np.linalg.norm(np.atleast_1d(x) - params.a, axis=-1)
    return radial_profile(params.n, params.lam, s)


# ---------------------------------------------------------------------------
# universal constants


def _log_energy(n):
    """log S^{n/4}, the one expression every universal constant is read
    from: S^{n/4} = [n (n-4) (n^2-4)]^{n/4} pi^{n/2} Gamma(n/2) / Gamma(n),
    which is c0^{p+1} (|S^{n-1}|/2) B(n/2, n/2) by Euler's Beta integral
    int_{R^n} (1+|x|^2)^{-a} dx = (|S^{n-1}|/2) B(n/2, a - n/2) (DLMF
    5.12.3). Summed in logs, so no power overflows before the result."""
    return (n / 4.0 * math.log(n * (n - 4) * (n * n - 4.0))
            + n / 2.0 * math.log(math.pi)
            + math.lgamma(n / 2.0) - math.lgamma(n))


def sobolev_energy(n):
    """int_{R^n} |Delta delta|^2 dx = int_{R^n} delta^{p+1} dx, which also
    equals S^{n/4} (multiply the equation by delta and integrate)."""
    return math.exp(_log_energy(n))


def sobolev_constant(n):
    """Best constant S of the critical embedding, from the extremal
    profile: S = (S^{n/4})^{4/n}, which is Swanson's (1992)
    pi^2 n (n-4) (n^2-4) (Gamma(n/2) / Gamma(n))^{4/n}."""
    return math.exp(4.0 / n * _log_energy(n))


def balance_constants(n):
    """All universal constants bundled as CriticalConstants, each read
    from S^{n/4} by Euler's Beta integral (_log_energy):

      c1 = c0^{p+1} int dx/(1+|x|^2)^{(n+4)/2} = S^{n/4} B(n/2, 2)/B(n/2, n/2),
      c2 = (n-4)/2 c0^{p+1} int log(1+|x|^2) (|x|^2-1)/(1+|x|^2)^{n+1}
         = (n-4)/(2n) S^{n/4}.

    For c2 the a-derivative of the Beta integral gives each log moment
    J(a) = int log(1+|x|^2) (1+|x|^2)^{-a} dx with a digamma difference;
    the kernel is J(n) - 2 J(n+1), where those differences step by 1/n
    and 2/n, and it equals (|S^{n-1}|/2) B(n/2, n/2) / n.
    """
    energy = sobolev_energy(n)
    inverse_beta = math.exp(math.lgamma(n) - 2.0 * math.lgamma(n / 2.0))
    c1 = 4.0 / (n * (n + 2.0)) * inverse_beta * energy
    return CriticalConstants(n=n, c0=c0(n), p=critical_exponent(n),
                             S=sobolev_constant(n), c1=c1,
                             c2=(n - 4.0) / (2.0 * n) * energy)


# ---------------------------------------------------------------------------
# the blow-up law: eps * lam^(n-4) -> (c1/c2) phi and eps * M^2 ->
# c0^2 (c1/c2) phi at a concentration point of potential phi


def center_potential(n, R=1.0):
    """phi(0) = (2n-4)/n * R^(4-n) at the center of a ball of radius R."""
    return (2.0 * n - 4.0) / n * R ** (4.0 - n)


def law_limits(consts, phi):
    """(scale, peak) limits of eps * lam^(n-4) and eps * M^2 at a point
    of potential phi: (c1/c2) phi and c0^2 (c1/c2) phi."""
    scale = consts.c1 / consts.c2 * phi
    return scale, consts.c0 ** 2 * scale


def balance_scale(consts, phi, eps):
    """The root lam of the subcritical balance c2 eps = c1 phi / lam^(n-4)."""
    return (law_limits(consts, phi)[0] / eps) ** (1.0 / (consts.n - 4.0))


def law_scale(n, M, eps):
    """The scale of a bubble of peak M at signed offset eps,
    lam = c0^{2/(4-n)} M^{(p-1+eps)/4}."""
    p = critical_exponent(n)
    return c0(n) ** (2.0 / (4 - n)) * M ** ((p - 1 + eps) / 4.0)


def _law_point(n, peak_limit, e):
    """The law's peak M = sqrt(peak_limit / e) at offset magnitude e and
    its scale for that peak (law_scale)."""
    M = math.sqrt(peak_limit / e)
    return M, law_scale(n, M, -e)


def law_quantities(n, eps, M, lam):
    """The law's per-offset quantities eps * lam^(n-4), eps * M^2 and the
    peak-to-scale ratio M / (c0 lam^((n-4)/2)), for offset magnitude eps."""
    return (eps * lam ** (n - 4.0), eps * M ** 2,
            M / (c0(n) * lam ** ((n - 4.0) / 2.0)))
