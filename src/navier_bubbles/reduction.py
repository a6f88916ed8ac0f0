"""Reduced balance equations, spectral gap checks and blow-up verdicts.

The concentration analysis compresses the full boundary value problem to
a handful of scalars: an amplitude offset `beta`, a scale offset `rho`
and a center offset, which parity pins at the center here. This module
assembles that finite system, solves it by a frozen-Jacobian fixed
point that carries a contraction certificate, measures the constrained
spectral gap that keeps the reduction honest, and turns subcritical
sweeps into pass/fail blow-up verdicts.

Construction of the reduced system. The energy quotient is invariant
along rays, so pairing its gradient with the profile itself vanishes
identically and cannot pin an amplitude. The system solved here is the
projection of the genuine PDE residual of the quotient-normalized
ansatz: with gamma the normalized amplitude, the residual of
w = gamma * (boundary-corrected profile) is paired against the profile
and against its scale derivative. The leading expansion of the scale
equation is exactly the algebraic balance c2 * eps = c1 * phi(a) /
lam^(n-4) between the exponent offset and the domain term; the
quadrature form keeps every lower-order correction, which is what makes
the fitted offsets genuine measurements instead of restatements of the
leading law.

All center-pinned quantities (the spectral gap, the reduced system
itself) exploit the parity of the centered configuration:
translation directions pair to exactly zero against radial ones, and the
center offset is locked at the origin. Off-center configurations are
refused rather than approximated.
"""

import functools
import math
import numbers

import numpy as np
from dataclasses import dataclass

from .bubble import (
    _projected_profiles,
    _require_centered,
    _scale_derivative_from,
    balance_constants,
    balance_scale,
    center_potential,
    critical_exponent,
    law_limits,
    law_quantities,
    radial_profile,
)
from .green_robin import robin
from .numerics import (converged_quadrature, core_seams, gauss_legendre_panels,
                       radial_integral, sphere_measure)

__all__ = [
    "ReducedState",
    "NonContractionError",
    "BlowupVerdict",
    "LAW_RTOL",
    "ObstructionEntry",
    "ObstructionReport",
    "coercivity_check",
    "bubble_quadratic_form",
    "solve_reduced_system",
    "blowup_verdict",
    "supercritical_obstruction",
]

# Trial integrals of the spectral gap use the shared Gauss-Legendre
# panels, split at the core seams. Each piece starts with one 16-node
# panel per _GAP_PANEL_PERIODS oscillation periods of the fastest
# trial-mode product, and at least _GAP_MIN_PANELS panels, and the panel
# count doubles until the gap at P and 2P panels agrees to the shared
# relative tolerance. On the four gaps of acceptance criterion 9 that
# start certifies each at its first doubling, within 1.3e-11 relative;
# 8 periods per panel agree to 8.9e-14 but take 39 % more Bessel
# samples (896,640 against 643,200). The floor is for the
# core piece [0.5 / lam, 3 / lam]: across it the mass weight
# (1 + lam^2 r^2)^-4 falls by about 10^4, which one panel does not
# integrate, and three of the four gaps then miss their first doubling
# by 1.1e-8 to 3.1e-8. The cap sits below the shared one because each
# doubling doubles the Bessel samples, the gap's main cost; a gap still
# moving at _GAP_MAX_DENSITY times the starting count is an error, never
# a result.
_GAP_PANEL_PERIODS = 12.0
_GAP_MIN_PANELS = 2
_GAP_MAX_DENSITY = 16
# Whole 16-node panels per block of the streamed trial integrals (see
# _trial_gap). Measured on the four gaps of acceptance criterion 9 (2
# cores, one BLAS thread, 15 interleaved rounds): 256-node blocks took
# 0.154 s median against 0.194 s at 2 panels, 0.158 s at 32 and 0.166 s
# unblocked, and hold the 320-mode gap's traced peak at 4.8 MB at both
# density 2 and 4, where the unblocked modes x nodes array peaked at 17.6
# and 35.3 MB.
_GAP_BLOCK_PANELS = 16
# Trial modes scale with lam so the concentration core stays resolved;
# this cap bounds the dense K x K eigenproblem: its cubic time and the
# few K x K arrays of the form and its rank-2 shift.
_MAX_TRIAL_MODES = 400
# Newton steps allowed for the Bessel zeros of the trial modes; from
# Olver's seeds, 400 zeros of every order 1 to 79 took at most 4.
_ZERO_MAX_STEPS = 20
# Contraction ratios are certified only while steps sit clearly above
# the round-off floor of the fixed-point update.
_RATIO_FLOOR = 1e-10
# The reduced fixed point stops at a step below _REDUCED_STEP_TOL and
# fails past _REDUCED_MAX_STEPS steps; it took 8, 11 and 18 steps at
# eps = 0.01, 0.02 and 0.05, and 49 at the chart's edge 0.1.
_REDUCED_STEP_TOL = 1e-12
_REDUCED_MAX_STEPS = 60
# relative distance within which an extrapolated law limit passes
LAW_RTOL = 0.15


# ---------------------------------------------------------------------------
# constrained spectral gap

def _bessel_over_power(nu, x):
    """J_nu(x) / x^nu for integer nu >= 1 and x >= 0, elementwise.

    Each sample takes one route. Below x = nu + 2, which sits under the
    first zero of J_nu, the power series of J_nu(x) / x^nu is summed
    until its terms drop below round-off of the value at the origin;
    cancellation there stays within a few units of round-off for the
    orders the trial basis uses. From x = nu + 2 on, J_0 and J_1 from
    Cephes are carried up to order nu by the three-term recurrence, which
    is stable while the order stays below x, in the form
    a_(k+1) = (2k a_k - a_(k-1)) / x^2 for a_k = J_k(x) / x^k. A sample
    that is not finite all the same raises RuntimeError. This is the
    package's only Bessel routine: the trial modes, their zeros and their
    norms all come from it, so scipy.special is reached only for j0 and
    j1.
    """
    from scipy.special import j0, j1
    x = np.asarray(x, dtype=float)
    small = x < nu + 2.0
    # inv_sq holds a copy of the samples from the switch on until J_0 and
    # J_1 are read, then 1 / x^2 in place; the loop's arrays are freed
    # before the result array is made, so at most four arrays of those
    # samples coexist
    inv_sq = x[~small]
    lower, upper = j0(inv_sq), j1(inv_sq) / inv_sq
    inv_sq *= inv_sq
    np.divide(1.0, inv_sq, out=inv_sq)
    for k in range(1, nu):
        lower, upper = upper, (2.0 * k * upper - lower) * inv_sq
    del inv_sq, lower
    out = np.empty_like(x)
    out[~small] = upper
    # the series arrays update in place: near the origin most of a
    # block's samples fall below the switch, so each copy is a large
    # share of the gap's peak memory
    quarter = x[small]
    quarter *= -0.25 * quarter
    origin = 1.0 / (2.0 ** nu * math.factorial(nu))
    term = np.full_like(quarter, origin)
    total = term.copy()
    k = 0
    while np.any(np.abs(term) > 1e-17 * origin):
        k += 1
        term *= quarter
        term /= k * (k + nu)
        total += term
    out[small] = total
    if not np.all(np.isfinite(out)):
        raise RuntimeError("Bessel samples are not finite above the "
                           "series switch x = nu + 2")
    return out


def _bessel_zero_seeds(nu, count):
    """Seeds for the first count positive zeros of J_nu, nu >= 1: the
    leading term nu z of Olver's uniform expansion (DLMF 10.20,
    10.21(viii)), where (2/3) (-zeta)^(3/2) = sqrt(z^2 - 1) - arcsec z at
    zeta = nu^(-2/3) a_k, a_k the k-th zero of Ai from five terms of its
    asymptotic series (DLMF 9.9.6, 9.9.18). With z = sec theta this is
    tan theta - theta = s, convex and increasing on (0, pi/2), so Newton
    steps from an upper bound of the root descend to it. Unlike
    McMahon's, the seeds hold for the first zeros of every order.
    """
    t = 3.0 * math.pi / 8.0 * (4.0 * np.arange(1, count + 1) - 1.0)
    t2 = t ** -2.0
    airy = -t ** (2.0 / 3.0) * (1.0 + t2 * (5.0 / 48.0 - t2 * (
        5.0 / 36.0 - t2 * (77125.0 / 82944.0
                           - t2 * 108056875.0 / 6967296.0))))
    s = 2.0 / 3.0 * (-airy) ** 1.5 / nu
    theta = np.minimum(np.cbrt(3.0 * s), np.arctan(s + math.pi / 2.0))
    for _ in range(4):
        theta -= (np.tan(theta) - theta - s) / np.tan(theta) ** 2
    return nu / np.cos(theta)


def _bessel_zeros(nu, count):
    """The first count positive zeros of J_nu, integer nu >= 1: Newton
    steps x <- x + f_nu(x) / (x f_(nu+1)(x)) from _bessel_zero_seeds on
    f_nu = J_nu / x^nu, whose derivative is -J_(nu+1) / x^nu, until every
    relative step is at most 4 eps. RuntimeError is raised rather than a
    zero returned when that takes more than _ZERO_MAX_STEPS steps, or
    when the zeros do not increase strictly, which is how a seed that
    converged to another zero shows.
    """
    x = _bessel_zero_seeds(nu, count)
    for _ in range(_ZERO_MAX_STEPS):
        step = (_bessel_over_power(nu, x)
                / (x * _bessel_over_power(nu + 1, x)))
        x = x + step
        if np.all(np.abs(step) <= 4.0 * np.finfo(float).eps * x):
            break
    else:
        raise RuntimeError(
            "Bessel zeros did not converge within %d Newton steps"
            % _ZERO_MAX_STEPS)
    if not np.all(np.diff(x) > 0.0):
        raise RuntimeError(
            "Bessel zeros out of order: a seed converged to another zero")
    return x


def _gap_panels(R, lam, z_max, density):
    """Gauss-Legendre nodes and weights on [0, R], split at the core seams.

    Each piece between seams gets density panels per _GAP_PANEL_PERIODS
    oscillation periods of the fastest trial-mode product (wavenumber
    2 z_max / R), and at least density * _GAP_MIN_PANELS panels: 16 nodes
    per 12 periods at density 1, 32 at density 2, where the four gaps of
    acceptance criterion 9 are certified.
    """
    edges = [0.0] + core_seams(lam, R) + [R]
    counts = [density * max(_GAP_MIN_PANELS,
                            math.ceil((b - a) * z_max / (math.pi * R)
                                      / _GAP_PANEL_PERIODS))
              for a, b in zip(edges, edges[1:])]
    return gauss_legendre_panels(edges, counts)


def _trial_gap(n, R, lam, z, density):
    """Constrained gap with the trial integrals on the given panel density.

    The modes are sampled through _bessel_over_power and normalized in
    energy by J_(nu+1)(z) = z^(nu+1) f_(nu+1)(z) from the same routine.
    The trial integrals stream over blocks of _GAP_BLOCK_PANELS whole
    panels: each block's modes are sampled, add their share of the two
    constraint pairings through one product, and are then scaled in place
    by the square root of the positive mass weight, so the block's share
    of the weighted mass is the symmetric product U U^T (BLAS syrk). No
    array grows with the node count: beyond the K x K form, memory is a
    few K x block arrays, so the peak stays put as the density doubles.
    With Q the constraints' two right singular vectors and P = I - Q Q^T,
    the form F is replaced by P F P + Q Q^T, three rank-2 updates: the
    constrained spectrum plus eigenvalue 1 on the two constraint
    directions. F is the identity minus a positive semidefinite mass, so
    every constrained eigenvalue is at most 1 and the smallest eigenvalue
    is the constrained gap.
    """
    nu = n // 2 - 1
    p = critical_exponent(n)
    sm = sphere_measure(n)
    r, w = _gap_panels(R, lam, z[-1], density)
    mu = (z / R) ** 2
    j_next = z ** (nu + 1) * _bessel_over_power(nu + 1, z)
    energy_diag = mu ** 2 * sm * R * R * j_next ** 2 / 2.0
    mode_scale = ((z / R) ** nu / np.sqrt(energy_diag))[:, None]
    constraints = np.zeros((2, len(z)))
    form = np.zeros((len(z), len(z)))
    block = 16 * _GAP_BLOCK_PANELS
    for start in range(0, r.size, block):
        rb, wb = r[start:start + block], w[start:start + block]
        # r^(1 - n/2) J_nu(z r / R) = (z / R)^nu * J_nu(x) / x^nu
        U = _bessel_over_power(nu, z[:, None] * (rb / R))
        U *= mode_scale
        wvol = wb * rb ** (n - 1)
        profile = radial_profile(n, lam, rb)
        dpm1 = profile ** (p - 1.0)
        constraints += np.array([
            profile ** p * wvol,
            p * dpm1 * _scale_derivative_from(n, (lam * rb) ** 2, profile)
            * wvol]) @ U.T
        U *= np.sqrt(p * sm * dpm1 * wvol)
        form += U @ U.T
    constraints *= sm
    # the identity minus the mass, in place
    np.negative(form, out=form)
    form.flat[::len(z) + 1] += 1.0
    # rank cut as in scipy.linalg.null_space
    _, sv, vh = np.linalg.svd(constraints, full_matrices=False)
    if np.sum(sv > sv.max() * np.finfo(float).eps * len(z)) != 2:
        raise RuntimeError(
            "trial basis degenerate: constraint projection lost rank")
    Q = vh.T
    FQ = form @ Q
    form -= FQ @ Q.T
    form -= Q @ FQ.T
    form += Q @ (Q.T @ FQ + np.eye(2)) @ Q.T
    return float(np.linalg.eigvalsh(form)[0])


def _converged_gap(n, R, lam, z):
    """Gap at the first panel density that agrees with its half.

    Returns (gap, density), the gap being the one at the finer density.
    """
    return converged_quadrature(
        lambda density: _trial_gap(n, R, lam, z, density), _GAP_MAX_DENSITY)


def coercivity_check(params, domain, trial_count=40):
    """Smallest constrained Rayleigh quotient of the second variation.

    The quadratic form is energy minus p times the profile-weighted mass,
    normalized by energy, over trial functions that vanish on the
    boundary and are energy-orthogonal to the corrected profile and to
    its scale derivative. Trial functions are eigenmodes of the Dirichlet
    Laplacian on the ball (integer-order Bessel profiles), which makes
    their energy pairing exactly diagonal. Radial modes are orthogonal to
    the translation directions for free. The modes' zeros and energy
    norms come from the same J_nu / x^nu routine as their samples
    (_bessel_zeros, _trial_gap). The zeros hold for every order, but from
    about n = 72 the samples' power series cancels near x = nu down to
    noise of about 1e-10 in the gap, the doubling check's own tolerance,
    so whether that check passes turns on the dimension, the scale and the
    panel layout. At lam = 10 with 40 trials per band, n = 72 converges at
    density 8, n = 74 raises, n = 76 and 78 converge, and n = 80 to 100
    raise; at lam = 40, n = 80 returns 0.926939. A returned gap has passed
    the check all the same.

    The mode count is trial_count, an integer of at least 5, per
    core-resolution band: the basis holds trial_count * ceil(lam R / 10)
    modes so the oscillation scale of the last mode stays below the
    concentration core width. Doubling trial_count is the intended
    stability check, needed from n = 10 on: a mode of order nu reaches
    the core once its zero exceeds about nu lam R.

    The weighted mass and the two constraint pairings are integrated on
    composite Gauss-Legendre panels split at the core seams, starting at
    one 16-node panel per 12 periods of the fastest trial-mode product and
    at least two panels per piece (see _gap_panels). The panel count
    doubles until the gap at P and 2P panels agrees to the shared
    relative tolerance numerics.QUAD_RTOL, and the gap at 2P is returned;
    if that does not happen within _GAP_MAX_DENSITY times the starting
    count, RuntimeError is raised rather than an unconverged gap
    returned. Each density's weighted mass is a sum of symmetric products
    of the weight-scaled modes over blocks of whole panels, and the two
    constraints enter as a rank-2 shift of the form rather than a
    null-space basis (see _trial_gap).

    Memory is bounded by the mode count K alone: a few K x K arrays for
    the form and a few K x 256 arrays for one block's samples, whatever
    the panel density. At the 320 modes of lam = 40 with 80 trials per
    band, one gap's traced peak is 4.8 MB at density 2 and at 4.
    """
    _require_centered(params, domain)
    # a float count would silently round the basis up, and bool is an int
    if (isinstance(trial_count, bool)
            or not isinstance(trial_count, numbers.Integral)):
        raise ValueError("trial_count must be an integer")
    if trial_count < 5:
        raise ValueError("trial_count must be at least 5")
    n, R, lam = domain.n, domain.radius, params.lam
    if n % 2 != 0:
        raise ValueError(
            "even dimensions only: the trial basis uses integer-order "
            "Bessel zeros")
    modes = trial_count * max(1, math.ceil(lam * R / 10.0))
    if modes > _MAX_TRIAL_MODES:
        raise ValueError(
            "trial basis too large: at most %d modes" % _MAX_TRIAL_MODES)
    z = _bessel_zeros(n // 2 - 1, modes)
    return _converged_gap(n, R, lam, z)[0]


def bubble_quadratic_form(params, domain):
    """The same quadratic form evaluated on the corrected profile itself.

    This direction is excluded by the constraints; on it the form is
    negative (for large scales it approaches (1 - p) times the critical
    energy level), which is what makes the constrained gap meaningful.
    """
    _require_centered(params, domain)
    n, R, lam = domain.n, domain.radius, params.lam
    p = critical_exponent(n)
    profiles = _projected_profiles(n, lam, R)

    def pairings(r):
        profile, projected, _ = profiles(r)
        return np.array([profile ** p * projected,
                         profile ** (p - 1.0) * projected ** 2])

    energy, weighted = radial_integral(n, pairings, R,
                                       seams=core_seams(lam, R))
    return float(energy - p * weighted)


# ---------------------------------------------------------------------------
# the reduced system

class NonContractionError(RuntimeError):
    """Fixed-point iteration failed its contraction certificate.

    Carries the iterate history as (beta, rho, step_norm) triples so a
    failed run can be audited.
    """

    def __init__(self, message, history):
        super().__init__(message)
        self.history = tuple(history)


@dataclass(frozen=True)
class ReducedState:
    """Solution of the reduced system with its contraction certificate.

    beta is the amplitude offset from the critical normalization and
    rho the scale offset in the square-root balance chart; the center
    is pinned by parity. ratios are the certified step contraction
    ratios, each below one.
    """

    eps: float
    beta: float
    rho: float
    lam: float
    ratios: tuple
    iterations: int

    def __post_init__(self):
        if not self.eps > 0:
            raise ValueError("eps must be positive")
        if not self.lam > 0:
            raise ValueError("reconstructed scale must be positive")
        if self.iterations < 1:
            raise ValueError("iterations must be at least 1")
        if not self.ratios or any(not rr < 1.0 for rr in self.ratios):
            raise ValueError(
                "state requires a contraction certificate: every certified "
                "ratio must be below one")


def _reduced_integrals(n, R, lam, eps):
    """The four quadratures behind the reduced right sides.

    The critical power of the profile and the subcritical mass, each
    paired with the corrected profile and with its scale derivative. One
    radial_integral carries all four, so each panel density builds its
    panels and reads the profile and its projections once
    (_projected_profiles), and the four converge together to the shared
    relative tolerance.
    """
    p = critical_exponent(n)
    qt = p + 1.0 - eps

    profiles = _projected_profiles(n, lam, R)

    def pairings(r):
        delta, pd, pds = profiles(r)
        dpow = delta ** p
        return np.array([dpow * pd,
                         np.abs(pd) ** (qt - 1.0) * pd,
                         dpow * pds,
                         np.abs(pd) ** (p - 1.0 - eps) * pd * pds])

    integrals = radial_integral(n, pairings, R, seams=core_seams(lam, R))
    return tuple(float(v) for v in integrals)


def solve_reduced_system(eps, x0, domain):
    """Solve the reduced system at the centered critical point.

    x0 must be the ball's center, the one critical point of the domain
    term on a ball (phi grows radially). The system reads phi(x0) from
    the Robin function; the verdict and the obstruction take the same
    value from the closed form bubble.center_potential. eps must lie in
    (0, 0.1].

    The unknowns are the amplitude offset beta and the scale offset rho
    of the square-root balance chart; the center offset is pinned at
    zero by parity. The two right sides are the pairings of the PDE
    residual of the quotient-normalized ansatz against the corrected
    profile and its scale derivative. The iteration is a fixed point
    with the Jacobian frozen at the origin of the chart; every step
    ratio clearly above round-off must contract or the run is rejected
    with its history attached.
    """
    n, R = domain.n, domain.radius
    consts = balance_constants(n)
    if not eps > 0:
        raise ValueError("eps must be positive")
    if eps > 0.1:
        raise ValueError("eps must be at most 0.1 for the reduced chart")
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if np.linalg.norm(x0 - domain.center) > 1e-6 * R:
        raise ValueError(
            "x0 must be the centered critical point of the domain term")

    p = critical_exponent(n)
    qt = p + 1.0 - eps
    h0 = robin(domain, x0).phi
    alpha0 = consts.S ** (-n / 8.0)
    chart = math.sqrt(consts.c2 / consts.c1) * math.sqrt(eps)

    def lam_of_rho(rho):
        base = chart * (1.0 / math.sqrt(h0) + rho)
        if not base > 0:
            raise ValueError("scale chart left its domain: rho too negative")
        return base ** (-2.0 / (n - 4.0))

    # the Jacobian's two amplitude differences and the first iterate sit
    # at the origin's scale: each distinct scale is integrated once
    integrals = functools.cache(lambda lam: _reduced_integrals(n, R, lam,
                                                               eps))

    def right_sides(zz):
        beta, rho = zz
        lam = lam_of_rho(rho)
        pair_b, mass, pair_s, mass_s = integrals(lam)
        quotient = pair_b * mass ** (-2.0 / qt)
        gam = quotient ** (n / 8.0) * (alpha0 + beta)
        f1 = (gam * pair_b - gam ** (p - eps) * mass) / pair_b
        f2 = (gam * pair_s - gam ** (p - eps) * mass_s) / pair_b
        return np.array([f1, f2]), lam

    z = np.zeros(2)
    h = 1e-6
    jac = np.zeros((2, 2))
    for j in range(2):
        zp = z.copy()
        zp[j] += h
        zm = z.copy()
        zm[j] -= h
        jac[:, j] = (right_sides(zp)[0] - right_sides(zm)[0]) / (2.0 * h)

    history = []
    steps = []
    ratios = []
    converged = False
    for _ in range(_REDUCED_MAX_STEPS):
        fz, _lam = right_sides(z)
        dz = np.linalg.solve(jac, -fz)
        z = z + dz
        step = float(np.linalg.norm(dz))
        if steps and steps[-1] >= _RATIO_FLOOR:
            ratios.append(step / steps[-1])
        steps.append(step)
        history.append((float(z[0]), float(z[1]), step))
        if step < _REDUCED_STEP_TOL:
            converged = True
            break
    if any(not rr < 1.0 for rr in ratios):
        raise NonContractionError(
            "fixed-point step ratios reached one: no contraction "
            "certificate at eps=%g" % eps, history)
    if not converged:
        raise NonContractionError(
            "fixed-point iteration did not reach tolerance %g within %d "
            "steps at eps=%g" % (_REDUCED_STEP_TOL, _REDUCED_MAX_STEPS,
                                 eps), history)

    beta, rho = float(z[0]), float(z[1])
    return ReducedState(
        eps=eps,
        beta=beta,
        rho=rho,
        lam=lam_of_rho(rho),
        ratios=tuple(ratios),
        iterations=len(steps),
    )


# ---------------------------------------------------------------------------
# blow-up verdicts from subcritical sweeps

@dataclass(frozen=True)
class BlowupVerdict:
    """Extrapolated blow-up laws of a sweep against their predictions.

    peak refers to eps * max^2, scale to eps * lam^(n-4). Each series is
    extrapolated to eps -> 0 under two error models, linear in eps and
    linear in eps * log(1/eps), over the sweep tail. Targets use the
    operative positive c2 (balance_constants); the other printed variant
    is -2 times it, so its negative targets could never match a positive
    limit.
    """

    n: int
    peak_limit_eps: float
    peak_limit_epslog: float
    scale_limit_eps: float
    scale_limit_epslog: float
    peak_target: float
    scale_target: float
    peak_ok: bool
    scale_ok: bool
    verdict: bool


def _affine_limit(gvals, yvals):
    """Least-squares intercept of y = L + c * g."""
    a = np.column_stack([np.ones_like(gvals), gvals])
    sol, _, _, _ = np.linalg.lstsq(a, yvals, rcond=None)
    return float(sol[0])


def blowup_verdict(sweep, x0, domain, consts=None):
    """Judge a subcritical sweep against the blow-up laws.

    sweep holds (eps, decomposition, peak) triples with strictly
    decreasing |eps|; at least four are required, and the extrapolation
    tail uses the last four. x0 is the concentration point, the center,
    whose potential is the closed form bubble.center_potential. Verdict
    booleans ask both extrapolation models to land within LAW_RTOL of
    the law.
    """
    n, R = domain.n, domain.radius
    if consts is None:
        consts = balance_constants(n)
    if consts.n != n:
        raise ValueError("constants and domain dimensions do not match")
    if len(sweep) < 4:
        raise ValueError("a verdict needs at least four sweep points")
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if np.linalg.norm(x0 - domain.center) > 1e-6 * R:
        raise ValueError("x0 must be the centered concentration point")

    laws = []
    last = None
    for eps_raw, dec, peak in sweep:
        eps = abs(float(eps_raw))
        if last is not None and not eps < last:
            raise ValueError("sweep offsets must be strictly decreasing")
        last = eps
        if not peak > 0:
            raise ValueError("peak values must be positive")
        dom = dec.domain
        if (dom.n != n or dom.radius != R
                or not np.array_equal(dom.center, domain.center)):
            raise ValueError("every decomposition must share the domain")
        if not dec.lam > 0:
            raise ValueError("decomposition scales must be positive")
        scale_pow, peak_sq, _ = law_quantities(n, eps, float(peak),
                                               float(dec.lam))
        laws.append((eps, peak_sq, scale_pow))

    eps_tail, peak_tail, scale_tail = map(np.array, zip(*laws[-4:]))
    glin = eps_tail
    glog = eps_tail * np.log(1.0 / eps_tail)
    peak_limits = (_affine_limit(glin, peak_tail),
                   _affine_limit(glog, peak_tail))
    scale_limits = (_affine_limit(glin, scale_tail),
                    _affine_limit(glog, scale_tail))

    t_scale, t_peak = law_limits(consts, center_potential(n, R))
    peak_ok = all(abs(v / t_peak - 1.0) <= LAW_RTOL for v in peak_limits)
    scale_ok = all(abs(v / t_scale - 1.0) <= LAW_RTOL for v in scale_limits)
    return BlowupVerdict(
        n=n,
        peak_limit_eps=peak_limits[0],
        peak_limit_epslog=peak_limits[1],
        scale_limit_eps=scale_limits[0],
        scale_limit_epslog=scale_limits[1],
        peak_target=t_peak,
        scale_target=t_scale,
        peak_ok=peak_ok,
        scale_ok=scale_ok,
        verdict=peak_ok and scale_ok,
    )


# ---------------------------------------------------------------------------
# supercritical obstruction

# The obstruction's top scale in units of 1/R, where the domain term is least
_OBSTRUCTION_LAM_HI = 1e4


@dataclass(frozen=True)
class ObstructionEntry:
    """The two terms of the supercritical balance at one exponent offset.

    floor is the exponent term c2 * eps and margin the smallest domain
    term over the scales lam <= lam_hi / R, c1 * phi(0) / (lam_hi / R)^(n-4)
    = c1 * center_potential(n) / lam_hi^(n-4), the same at every radius;
    scan_min is their sum, the least value of the balance there.
    subcritical_root_closed is the root of the matched subcritical
    balance, the closed form bubble.balance_scale.
    """

    eps: float
    scan_min: float
    floor: float
    margin: float
    positive: bool
    subcritical_root_closed: float


@dataclass(frozen=True)
class ObstructionReport:
    """Sign certificate of the supercritical balance at each offset.

    On the supercritical side both balance terms are positive, so the
    balance has no root at any scale; the root of the matched
    subcritical balance is recorded in closed form for contrast.
    """

    n: int
    radius: float
    entries: tuple
    all_positive: bool

    def __post_init__(self):
        if not self.entries:
            raise ValueError("report needs at least one entry")


def subcritical_roots(n, eps_list):
    """The unit ball's roots lam of the matched subcritical balance
    c2 * eps = c1 * phi(0) / lam^(n-4), one per offset. The balance is
    scale covariant: on a ball of radius R each root is this over R."""
    consts, phi0 = balance_constants(n), center_potential(n)
    return [balance_scale(consts, phi0, eps) for eps in eps_list]


def supercritical_obstruction(eps_list, domain):
    """Certify the supercritical balance by the signs of its two terms.

    For each eps the balance c2 * eps + c1 * phi(a) / lam^(n-4) is the
    exponent term c2 * eps (floor) plus a domain term. The concentration
    point a is the center, where phi is least (it grows radially), and
    phi(0) = center_potential(n, R) ~ R^(4-n); over scales up to
    lam_hi / R, lam_hi = 1e4, the domain term is least at the top end,
    where it is c1 * center_potential(n) / lam_hi^(n-4) at every radius;
    that product is the margin. Each term is computed as a product of
    positive constants, never as a difference, and the entry is positive
    when both terms are: then the balance has no root. The root of the
    matched subcritical balance c2 * eps = c1 * phi(0) / lam^(n-4) is
    recorded for contrast, as the unit ball's root (subcritical_roots)
    over R: the balance is scale covariant, and this form raises no
    power of R.
    Offsets must stay below p - 1, as in solve_radial: p - eps is that
    matched subcritical exponent.
    """
    n, R = domain.n, domain.radius
    consts = balance_constants(n)
    eps_arr = [float(e) for e in eps_list]
    if not eps_arr:
        raise ValueError("eps_list must not be empty")
    if any(not e > 0 for e in eps_arr):
        raise ValueError("every eps must be positive")
    p = critical_exponent(n)
    if any(not e < p - 1 for e in eps_arr):
        raise ValueError("offset magnitude must stay below p - 1 = %g"
                         % (p - 1))

    unit_phi0 = center_potential(n)
    margin = float(consts.c1 * unit_phi0 / _OBSTRUCTION_LAM_HI ** (n - 4.0))

    entries = []
    for eps, root in zip(eps_arr, subcritical_roots(n, eps_arr)):
        floor = consts.c2 * eps
        entries.append(ObstructionEntry(
            eps=eps,
            scan_min=floor + margin,
            floor=floor,
            margin=margin,
            positive=bool(floor > 0 and margin > 0),
            subcritical_root_closed=float(root / R),
        ))

    return ObstructionReport(
        n=n,
        radius=R,
        entries=tuple(entries),
        all_positive=all(e.positive for e in entries),
    )
