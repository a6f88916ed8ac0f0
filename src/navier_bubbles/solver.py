"""Radial Newton solves for the two-field Navier system.

The fourth order problem on a ball, Delta^2 u = u^q with u and Delta u
vanishing on the boundary, splits into the coupled second order system

    Delta u = w,    Delta w = u^q,    u(R) = w(R) = 0,

for radial profiles u(r), w(r). The exponent is q = p + eps with
p = (n+4)/(n-4); eps < 0 is the subcritical branch, eps > 0 the
supercritical one. This module discretizes the radial Laplacian in
conservative flux form on a graded grid, solves the system by damped
Newton, and sweeps eps with every solve started from the blow-up law,
corrected after the first offset by the previous solution's departure
from it.

The flux discretization is chosen for its summation-by-parts structure:
the discrete Laplacian is self-adjoint in the cell-volume inner product
for vectors vanishing at r = R, so the discrete solution satisfies the
energy identity sum V w^2 = sum V u^{q+1} to Newton tolerance rather
than to truncation order. A non-conservative three-point stencil loses
that identity at the percent level once the profile concentrates.

Newton's Jacobian is block tridiagonal in the node index: a 2x2 block
couples (du_i, dw_i) at each node, and its neighbours enter through the
flux Laplacian's lo_i and up_i times the identity. Each step takes one
level of block cyclic reduction (Buzbee, Golub & Nielson, SIAM J. Numer.
Anal. 7, 1970): the odd nodes are eliminated through the closed-form
inverses of their diagonal blocks, and the even nodes keep a block-
tridiagonal system of full 2x2 blocks, about N unknowns with three bands
on each side of the diagonal. That system is filled straight into the
storage LAPACK gbsv factors in place and solved there, and the odd
nodes follow in closed form. The per-grid products of the flux
diagonals that the reduction needs are built once with the grid, so
the reduced system carries the same summation-by-parts coefficients as
the residual; nothing is re-discretized or copied for the linear
algebra.

Also here: the decomposition u = alpha * Pdelta_lambda + v of a computed
solution into its nearest projected bubble and a remainder, diagnostics
for the remainder norm along a sweep, the Pohozaev identity on discrete
fields, and a supercritical probe that certifies by the closed-form
sign of that identity's coefficient that no concentrating branch exists
at exponent p + eps.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bubble import (
    _law_point,
    _projected_profile,
    _projected_laplacians,
    balance_constants,
    center_potential,
    critical_exponent,
    half_peak_scale,
    law_limits,
    law_scale,
    sobolev_energy,
)
from .green_robin import BallDomain
from .numerics import (RadialGrid, SlopeFit, _stencil_weights, fit_loglog,
                       sphere_measure)

_DEFAULT_NODES = 2048
_GRID_STRENGTH = 5.0
# Below this offset the default grid no longer resolves the core: the
# concentration scale passes 1/60 of the radius and the discrete maximum
# starts lagging the true one by more than a percent. A 4096-node grid
# buys one more halving.
_EPS_FLOOR = 0.005
# The scaled residual every solution declares; Newton aims at a tenth.
NEWTON_TOL = 1e-10
# The round-off level of the scaled residual: a full step from below the
# target converges only when it lands here. On 32,768 nodes an iterate
# such a step reached at 3e-13 still sat 4.1e-6 from the discrete peak.
# Measured floor, on the law-seeded fine schedule at n = 5 to 8 over 256
# to 300,000 nodes: six more full steps from each converged solution
# leave scaled residuals of 1.8e-16 to 2.8e-16, 36 times below this.
NEWTON_ROUNDOFF = 1e-14
# Newton steps after which a solve stops unconverged; an iterate below
# target may still take its full step, so a solve takes at most one more.
NEWTON_MAX_STEPS = 30
# Secant steps allowed for decompose's scale; the reference and fine
# n = 6 sweeps and an n = 8 sweep on 4,096 nodes took at most 5.
_SECANT_MAX_STEPS = 60

# The concentration triple the nonexistence theory rules out on the
# supercritical side and the subcritical branch achieves: remainder
# small relative to the solution's energy norm, fitted amplitude near
# one, and scale times boundary distance large.
CONCENTRATION_V_REL = 0.1
CONCENTRATION_AMP_TOL = 0.1
CONCENTRATION_LAMBDA_D = 20.0


class SolverDivergence(RuntimeError):
    """Newton failed; carries the last accepted iterate in .last, whose
    attempt records the failed solve."""

    def __init__(self, message, last=None):
        super().__init__(message)
        self.last = last


class ContinuationError(RuntimeError):
    """A sweep died partway; .partial holds the solutions obtained and
    .attempt the NewtonAttempt of the failed solve at the offset that
    was not reached."""

    def __init__(self, message, partial=(), attempt=None):
        super().__init__(message)
        self.partial = list(partial)
        self.attempt = attempt


# ---------------------------------------------------------------------------
# containers


@dataclass(frozen=True)
class BubbleGuess:
    """Initial iterate alpha * Pdelta_lam for the Newton solve."""

    lam: float
    amplitude: float = 1.0

    def __post_init__(self):
        if not self.lam > 0:
            raise ValueError("concentration parameter must be positive")
        if not self.amplitude > 0:
            raise ValueError("amplitude must be positive")


class NewtonAttempt(NamedTuple):
    """One damped Newton solve as a run's solver trace records it.

    iterations holds one (scaled residual, damping) pair per iterate
    visited, as _newton builds them: the damping is the factor of the
    step taken from that iterate and None at the returned one, so
    len(iterations) - 1 steps were taken. exit is the Newton exit:
    "converged", "cap", "line search", "singular step" or "collapsed".
    start is the seed's source: "law" for the bare law seed,
    "law-corrected" for one corrected by the previous offset's departure
    (continuation_sweep), "given" for an init the caller built.
    """

    iterations: tuple
    exit: str
    start: str


@dataclass(frozen=True)
class RadialSolution:
    """A converged (or declared-as-is) iterate of the two-field system.

    eps is stored with its sign: negative offsets are subcritical.
    attempt is the one Newton solve that produced the solution; the
    residual, the step count and the peak M = u(0) are read from it and
    from u, never stored beside them. The residual, the scaled max-norm
    backward error actually achieved, must not exceed the declared
    tolerance.
    """

    grid: RadialGrid
    u: np.ndarray
    w: np.ndarray
    eps: float
    attempt: NewtonAttempt
    tolerance: float = NEWTON_TOL

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        w = np.asarray(self.w, dtype=float)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "w", w)
        N = len(self.grid)
        if u.shape != (N,) or w.shape != (N,):
            raise ValueError("field samples must match the grid")
        if not np.all(u[:-1] > 0):
            raise ValueError("u must be positive away from the boundary")
        scale = float(np.max(np.abs(u)))
        if abs(u[-1]) > 1e-9 * scale or abs(w[-1]) > 1e-9 * max(
            float(np.max(np.abs(w))), 1e-300
        ):
            raise ValueError("u and w must vanish at r = R")
        if not self.residual <= self.tolerance:
            raise ValueError("residual exceeds the declared tolerance")
        # u'(0) = w'(0) = 0 is not checked pointwise; the origin row of
        # the discrete Laplacian encodes the even reflection, so it holds
        # by construction for anything the solver returns.

    @property
    def residual(self):
        """The scaled max-norm residual at the returned iterate."""
        return self.attempt.iterations[-1][0]

    @property
    def newton_iters(self):
        """Newton steps taken."""
        return len(self.attempt.iterations) - 1

    @property
    def M(self):
        """The peak, u at the center."""
        return float(self.u[0])

    # -- integrals in the cell-volume quadrature the solver itself uses

    def energy_norm_sq(self):
        """Discrete int |Delta u|^2 over the ball."""
        return float(np.sum(_grid_arrays(self.grid).wts * self.w**2))

    def nonlinear_mass(self):
        """Discrete int u^{q+1} with q = p + eps."""
        q = critical_exponent(self.grid.n) + self.eps
        return _nonlinear_mass(self.grid, self.u, q)

    def pohozaev_defect(self):
        """lhs / rhs - 1 of the Pohozaev identity (_pohozaev_sides): a
        second-order truncation defect on a resolved solution."""
        q = critical_exponent(self.grid.n) + self.eps
        _, _, _, lhs, rhs = _pohozaev_sides(self.grid, self.u, self.w, q)
        return lhs / rhs - 1.0


@dataclass(frozen=True)
class Decomposition:
    """Best fit u = alpha * Pdelta_{a,lam} + v for a radial solution.

    The point a is pinned to the center of the ball (the solutions are
    radial), so the minimization runs over (alpha, lam) only. v_norm is
    measured in the sqrt(int |Delta . |^2) norm. ortho_residuals holds
    the orthogonality defects of v against the amplitude direction
    Pdelta and the scale direction lam * d/dlam Pdelta, each normalized
    by ||v|| times the norm of the direction. The translation direction
    d/da Pdelta needs no entry: v is radial and the translation
    derivative is odd about the center, so that defect is zero by
    parity.
    """

    alpha: float
    a: np.ndarray
    lam: float
    v_norm: float
    ortho_residuals: tuple
    domain: BallDomain

    def __post_init__(self):
        object.__setattr__(self, "a", np.asarray(self.a, dtype=float))
        if not self.alpha > 0:
            raise ValueError("amplitude alpha must be positive")
        if not self.lam > 0:
            raise ValueError("concentration lam must be positive")
        if self.v_norm < 0:
            raise ValueError("v_norm cannot be negative")
        for r in self.ortho_residuals:
            if abs(r) > 1e-8:
                raise ValueError(
                    "orthogonality defect %.3e exceeds 1e-8 of ||v|| "
                    "times the direction norm" % r
                )


@dataclass(frozen=True)
class VnormDiagnostics:
    """Fits of the remainder norm along a subcritical sweep.

    eps_fit: log ||v|| against log eps (slope near 1 expected on the
    ball, where the boundary distance stays of order one).
    lambda_fit: log ||v|| against log lambda; in dimension 6 the
    remainder bound scales like lambda^{-2}, so the slope should be
    near -2.
    bound_ratio is max ||v|| / (eps + (lam d)^{4-n}) over the sweep and
    ratios are the per-entry values behind the max.
    """

    eps_fit: SlopeFit
    lambda_fit: SlopeFit
    bound_ratio: float
    ratios: tuple


@dataclass(frozen=True)
class ProbeEntry:
    """The Pohozaev certificate at one supercritical offset.

    pohozaev_coefficient is n/(q+1) - (n-4)/2 at q = p + eps, the factor
    of int u^{q+1} on the identity's left side (supercritical_probe), and
    concentrating is true exactly when it is not negative.
    """

    eps: float
    pohozaev_coefficient: float
    concentrating: bool

    @property
    def converged(self):
        """Always False: the probe runs no solve."""
        return False


@dataclass(frozen=True)
class SupercriticalProbe:
    entries: tuple
    any_concentrating: bool


# ---------------------------------------------------------------------------
# conservative discretization


def _fv_geometry(grid):
    """Face positions, face areas, and cell volumes in the r^{n-1} dr
    measure. Faces sit midway between nodes; the first cell is the ball
    of radius f_0 around the origin."""
    r = grid.nodes
    n = grid.n
    faces = 0.5 * (r[:-1] + r[1:])
    h = np.diff(r)
    area = faces ** (n - 1)
    vol = np.empty(r.size)
    vol[0] = faces[0] ** n / n
    vol[1:-1] = (faces[1:] ** n - faces[:-1] ** n) / n
    vol[-1] = (grid.R**n - faces[-1] ** n) / n
    return faces, h, area, vol


def _grid_radius_window(grid):
    """The radii at which a grid of this shape keeps every cell volume of
    the flux discretization a normal double. The smallest number is the
    first cell's volume (r_1 / 2)^n / n, _fv_geometry's vol[0], which
    must not underflow (the origin row of the Laplacian is then 0 / 0);
    the largest is the ball's measure |S^{n-1}| R^n, the sum of the cell
    weights, or R^n itself where |S^{n-1}| < 1, which must not overflow.
    A relative 1e-12 is kept back for the rounding of the powers."""
    n = grid.n
    first = 0.5 * float(grid.nodes[1]) / grid.R
    lo = (n * sys.float_info.min) ** (1.0 / n) / first
    hi = (sys.float_info.max / max(1.0, sphere_measure(n))) ** (1.0 / n)
    return lo * (1.0 + 1e-12), hi * (1.0 - 1e-12)


def _flux_laplacian(h, area, vol):
    """Diagonals (lo, di, up) of the radial Laplacian in conservative form,
    from the spacings h, face areas and cell volumes of _fv_geometry.

    Row i is (F_i - F_{i-1}) / V_i with fluxes F_i = area_i * (u_{i+1} -
    u_i) / h_i, which makes diag(V) @ L symmetric on zero-boundary
    vectors. Row i has lo[i] in column i - 1, di[i] in column i and
    up[i] in column i + 1; lo[0] = 0 by the even reflection at the
    origin. The last row is the Dirichlet row u_{N-1}: di[-1] = 1 with
    no neighbours.
    """
    N = vol.size
    g = area / h
    lo = np.zeros(N)
    di = np.zeros(N)
    up = np.zeros(N)
    di[0] = -g[0] / vol[0]
    up[0] = g[0] / vol[0]
    v = vol[1:-1]
    lo[1:-1] = g[:-1] / v
    di[1:-1] = -(g[:-1] + g[1:]) / v
    up[1:-1] = g[1:] / v
    di[-1] = 1.0
    return lo, di, up


def _stencil(lo, di, up, x):
    """Rows 0..N-2 of the tridiagonal product, summed in column order.
    The last entry is left 0: callers fill the boundary row themselves."""
    out = np.empty_like(x)
    out[0] = di[0] * x[0] + up[0] * x[1]
    mid = out[1:-1]
    np.multiply(lo[1:-1], x[:-2], out=mid)
    mid += di[1:-1] * x[1:-1]
    mid += up[1:-1] * x[2:]
    out[-1] = 0.0
    return out


class _Discretization(NamedTuple):
    """Everything the solver needs of one grid, built once per grid by
    _grid_arrays: the flux Laplacian's diagonals (_flux_laplacian);
    -di, which with lo and up is the absolute diagonals on every row the
    row scales read (lo and up are not negative, and di is not positive
    but in the boundary row, which _stencil leaves to its caller); the
    Jacobian's mask, 1 except 0 at the boundary row; the quadrature
    weights V_i * |S^{n-1}|, zero on the boundary cell; and for the
    Newton step's reduction to the even nodes the rows (lo_i lo_{i-1},
    lo_i up_{i-1}, up_i lo_{i+1}, up_i up_{i+1}) at each even node i,
    zero where the neighbour is missing, and di^2 at the odd nodes. The
    methods form the residual, the row scales and the reduced Newton
    system; the per-point ones take |u|, |w| and |u|^q from the caller,
    which forms each once per point (_point, _scaled_rows).
    """

    lo: np.ndarray
    di: np.ndarray
    up: np.ndarray
    neg_di: np.ndarray
    mask: np.ndarray
    wts: np.ndarray
    pair_products: tuple
    di_odd_sq: np.ndarray

    def residual(self, u, w, uq):
        """Residual rows (Fu, Fw) at (u, w), given uq = |u|^q."""
        Fu = _stencil(self.lo, self.di, self.up, u)
        Fu[:-1] -= w[:-1]
        Fu[-1] = u[-1]
        Fw = _stencil(self.lo, self.di, self.up, w)
        Fw[:-1] -= uq[:-1]
        Fw[-1] = w[-1]
        return Fu, Fw

    def scales(self, au, aw, uq):
        """Row equilibration, the natural size of each residual row, from
        au = |u|, aw = |w| and uq = |u|^q."""
        su = _stencil(self.lo, self.neg_di, self.up, au)
        su += aw
        sw = _stencil(self.lo, self.neg_di, self.up, aw)
        sw += uq
        su[-1] = 1.0 + au[-1]
        sw[-1] = 1.0 + aw[-1]
        return su, sw

    def reduced_system(self, au, q, Fu, Fw, su, sw):
        """The Newton system at |u| = au with residual rows (Fu, Fw) and
        row scales (su, sw), reduced to the even nodes: (ab, rhs,
        (g, h, k)).

        At node i the Jacobian couples (du_i, dw_i) by the block
        D_i = [[di, -m], [-m Q, di]], with Q = q |u|^(q-1) and m the mask,
        and to its neighbours by lo_i I and up_i I. Every odd node is
        eliminated through its closed-form inverse D^-1 = [[g, h], [k, g]]
        (g = di / det, h = m / det, k = m Q / det, det = di^2 - m Q), the
        returned (g, h, k). The even nodes keep a block-tridiagonal system
        of full 2x2 blocks A_j x_{j-1} + B_j x_j + C_j x_{j+1} = r_j in
        the unknowns (du_0, dw_0, du_2, dw_2, ...). Row 2j (the Fu row of
        node 2j) and row 2j + 1 (its Fw row) reach columns 2j - 2 to
        2j + 3, three bands below and three above the diagonal. Each
        reduced row is divided by its even row's natural size su or sw:
        unscaled, the step at the 8,192-node law seed for eps = 0.002
        agrees with the unreduced one to 1.7e-5 only (8.1e-10 scaled).

        ab is the (10, N_even) Fortran-ordered array gbsv factors in
        place (Anderson et al., LAPACK Users' Guide, 3rd ed., sec.
        5.3.3): entry (r, c) sits at ab[6 + r - c, c], and rows 0 to 2
        are zero, the workspace for the fill-in that partial pivoting
        brings above the band. Each call returns fresh arrays, since the
        factorization overwrites them.
        """
        ll, lu, ul, uu = self.pair_products
        ne, no = ll.size, self.di_odd_sq.size
        lo_e, up_e = self.lo[0::2], self.up[0::2]
        mQ = au ** (q - 1)
        mQ *= q
        mQ *= self.mask
        # (g, h, k) of the odd nodes between zero columns, so that for
        # even node 2j, E[:, :-1] is the inverse at node 2j - 1 and
        # E[:, 1:] the one at node 2j + 1
        E = np.zeros((3, ne + 1))
        g, h, k = E[:, 1:no + 1]
        np.subtract(self.di_odd_sq, mQ[1::2], out=h)
        np.divide(1.0, h, out=h)
        np.multiply(self.di[1::2], h, out=g)
        np.multiply(mQ[1::2], h, out=k)
        h *= self.mask[1::2]
        left, right = E[:, :-1], E[:, 1:]

        # -B_j = lo_i up_{i-1} E_{i-1} + up_i lo_{i+1} E_{i+1} - D_i,
        # -A_j = lo_i lo_{i-1} E_{i-1} and -C_j = up_i up_{i+1} E_{i+1}
        # at i = 2j, entries 11 (= 22), 12 and 21 each
        nB = lu * left
        nB += ul * right
        nB[0] -= self.di[0::2]
        nB[1] += self.mask[0::2]
        nB[2] += mQ[0::2]
        nA = ll * left
        nC = uu * right
        # the even rows' scales, negated to undo the signs above
        nsu = -1.0 / su[0::2]
        nsw = -1.0 / sw[0::2]
        ab = np.zeros((10, 2 * ne), order="F")
        # A_j sits in the columns of node j - 1, C_j in those of j + 1
        for row, cols, entry, scale in (
                (6, np.s_[0::2], nB[0], nsu), (6, np.s_[1::2], nB[0], nsw),
                (5, np.s_[1::2], nB[1], nsu), (7, np.s_[0::2], nB[2], nsw),
                (8, np.s_[0:-2:2], nA[0, 1:], nsu[1:]),
                (8, np.s_[1:-2:2], nA[0, 1:], nsw[1:]),
                (7, np.s_[1:-2:2], nA[1, 1:], nsu[1:]),
                (9, np.s_[0:-2:2], nA[2, 1:], nsw[1:]),
                (4, np.s_[2::2], nC[0, :-1], nsu[:-1]),
                (4, np.s_[3::2], nC[0, :-1], nsw[:-1]),
                (3, np.s_[3::2], nC[1, :-1], nsu[:-1]),
                (5, np.s_[2::2], nC[2, :-1], nsw[:-1])):
            np.multiply(entry, scale, out=ab[row, cols])

        # r_j = -F_i + lo_i E_{i-1} F_{i-1} + up_i E_{i+1} F_{i+1}
        EF = np.zeros((2, ne + 1))
        Fu_o, Fw_o = Fu[1::2], Fw[1::2]
        np.multiply(g, Fu_o, out=EF[0, 1:no + 1])
        EF[0, 1:no + 1] += h * Fw_o
        np.multiply(k, Fu_o, out=EF[1, 1:no + 1])
        EF[1, 1:no + 1] += g * Fw_o
        r = lo_e * EF[:, :-1]
        r += up_e * EF[:, 1:]
        rhs = np.empty(2 * ne)
        for part, F, scale in ((0, Fu, nsu), (1, Fw, nsw)):
            np.subtract(F[0::2], r[part], out=r[part])
            np.multiply(r[part], scale, out=rhs[part::2])
        return ab, rhs, (g, h, k)


def _grid_arrays(grid):
    """The grid's _Discretization, built on first use and then held,
    read-only, by the grid itself (RadialGrid._derived), so every solve,
    integral and decomposition on one grid shares one copy and it dies
    with the grid."""
    disc = grid._derived.get("solver")
    if disc is None:
        _, h, area, vol = _fv_geometry(grid)
        lo, di, up = _flux_laplacian(h, area, vol)
        mask = np.ones(vol.size)
        mask[-1] = 0.0
        # the boundary cell gets weight zero because both fields vanish
        # there
        wts = vol * sphere_measure(grid.n)
        wts[-1] = 0.0
        ne, no = (vol.size + 1) // 2, vol.size // 2
        pairs = np.zeros((4, ne))
        pairs[0, 1:] = lo[2::2] * lo[1:2 * ne - 2:2]
        pairs[1, 1:] = lo[2::2] * up[1:2 * ne - 2:2]
        pairs[2, :no] = up[0:2 * no:2] * lo[1::2]
        pairs[3, :no] = up[0:2 * no:2] * up[1::2]
        di_odd_sq = di[1::2] ** 2
        neg_di = -di
        for a in (lo, di, up, neg_di, mask, wts, pairs, di_odd_sq):
            a.flags.writeable = False
        disc = _Discretization(lo, di, up, neg_di, mask, wts,
                               tuple(pairs), di_odd_sq)
        grid._derived["solver"] = disc
    return disc


def _nonlinear_mass(grid, u, q):
    """Discrete int |u|^{q+1} in the cell weights."""
    return float(np.sum(_grid_arrays(grid).wts * np.abs(u) ** (q + 1)))


def _point(disc, q, u, w):
    """(|u|, |u|^q, Fu, Fw) at (u, w): |u| is formed and raised to q once,
    and the power serves both the residual and the row scales."""
    au = np.abs(u)
    uq = au ** q
    return (au, uq, *disc.residual(u, w, uq))


def _scaled_rows(disc, w, au, uq, Fu, Fw):
    """(su, sw, Fu / su, Fw / sw, scaled max-norm) at a point whose
    _point quantities are given. The scaled rows are formed once and
    feed the max-norm and the Armijo merit."""
    su, sw = disc.scales(au, np.abs(w), uq)
    xu = Fu / su
    xw = Fw / sw
    return su, sw, xu, xw, float(max(np.abs(xu).max(), np.abs(xw).max()))


def _newton_step(disc, q, au, Fu, Fw, su, sw):
    """The full Newton step (du, dw) at a point with |u| = au, residual
    rows (Fu, Fw) and row scales (su, sw), or None when the step is
    singular or not finite. One level of block cyclic reduction
    (_Discretization.reduced_system) leaves the even nodes, which LAPACK
    gbsv factors and solves in place; each odd node k then follows in
    closed form, x_k = -D_k^-1 (F_k + lo_k x_{k-1} + up_k x_{k+1})."""
    from scipy.linalg.lapack import dgbsv
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ab, rhs, (g, h, k) = disc.reduced_system(au, q, Fu, Fw, su, sw)
        if not (np.all(np.isfinite(ab)) and np.all(np.isfinite(rhs))):
            return None
        _, _, x, info = dgbsv(3, 3, ab, rhs, overwrite_ab=True,
                              overwrite_b=True)
        if info < 0:
            raise ValueError("illegal value in argument %d of gbsv" % -info)
        if info > 0:
            return None
        ne = x.size // 2
        du = np.empty(au.size)
        dw = np.empty(au.size)
        du[0::2] = x[0::2]
        dw[0::2] = x[1::2]
        # F_k + lo_k x_{k-1} + up_k x_{k+1}, formed in the odd slots
        lo_o, up_o = disc.lo[1::2], disc.up[1::2]
        tu, tw = du[1::2], dw[1::2]
        for t, d, F in ((tu, du, Fu), (tw, dw, Fw)):
            np.multiply(lo_o, d[0:-1:2], out=t)
            t[:ne - 1] += up_o[:ne - 1] * d[2::2]
            t += F[1::2]
        gu = g * tu
        gu += h * tw
        tw *= g
        tw += k * tu
        np.negative(gu, out=tu)
        np.negative(tw, out=tw)
        if not (np.all(np.isfinite(du)) and np.all(np.isfinite(dw))):
            return None
    return du, dw


def _newton(disc, q, u, w):
    """Damped Newton on the scaled two-field residual; tol = NEWTON_TOL / 10.

    Returns (u, w, history, exit). history holds one (scaled residual,
    damping) pair per iterate visited, the damping being the factor of
    the step taken from that iterate and None at the returned one, so
    len(history) - 1 steps were taken. exit is one of "converged",
    "cap" (NEWTON_MAX_STEPS steps taken without converging, one more
    if the last started below tol), "line search" (no damping factor
    gave a positive iterate with an Armijo decrease) or "singular step"
    (an odd node's 2x2 block or the reduced band was singular, or the
    step was not finite). The line search demands interior positivity of
    u and a fixed-scale Armijo decrease; there is no projection, so a
    step that cannot keep u positive while decreasing the residual fails
    the solve honestly.

    Every step takes the same path. From an iterate whose scaled
    residual is below tol the step is taken at full length without the
    Armijo test whenever u stays positive in the interior: both
    residuals sit near round-off (about 2e-16) there, and their order
    flips with the last bits of the seed. Otherwise the line search
    runs. The solve converges at the first iterate that such a full step
    reached from an iterate below tol and whose scaled residual is at
    most NEWTON_ROUNDOFF. A residual below tol alone admits a band of
    iterates around the discrete solution (in the scale direction, a
    near-kernel of the linearization as eps -> 0, peak heights up to a
    few 1e-6 apart on 2,048 nodes); the full step, quadratically
    convergent from there, moves into that band's core whatever route
    reached it. On fine grids one such step can land short of round-off
    (3e-13 on 32,768 nodes, 4.1e-6 from the discrete peak), and the next
    full step finishes the move. A full step that lands above
    NEWTON_ROUNDOFF does not end the solve, it is one more step: on
    100,000 nodes the law seeds for eps = 0.003 and 0.002 start below
    tol, their full steps leave it, and the solves go on to peaks 3.2e-3
    and 2.2e-3 from the seeds'.

    Each step (_newton_step) eliminates the odd nodes in closed form and
    solves the even nodes' reduced system
    (_Discretization.reduced_system) with LAPACK gbsv (partial
    pivoting), which factors the band in place in its three fill rows:
    every step assembles a fresh band and the factorization consumes it.
    The reduced system is formed exactly from the flux-form coefficients,
    so the step is the one the summation-by-parts discretization
    defines; it agrees with a banded solve of the unreduced system to
    8.1e-10 at the 8,192-node law seed for eps = 0.002.

    Each point is evaluated once: |u|, |u|^q and the residual rows at
    the accepted trial (_point) become the next iterate's, and per
    iterate the row scales and the scaled rows are formed once
    (_scaled_rows); the scales serve the step and the Armijo test, the
    scaled rows the max-norm and the Armijo merit m0.
    """
    tol = NEWTON_TOL / 10.0
    u = np.array(u, dtype=float)
    w = np.array(w, dtype=float)
    history = []
    au, uq, Fu, Fw = _point(disc, q, u, w)
    full_from_below = False
    while True:
        su, sw, xu, xw, res = _scaled_rows(disc, w, au, uq, Fu, Fw)
        if res <= NEWTON_ROUNDOFF and full_from_below:
            exit_ = "converged"
            break
        if len(history) >= NEWTON_MAX_STEPS + (res < tol):
            exit_ = "cap"
            break
        step = _newton_step(disc, q, au, Fu, Fw, su, sw)
        if step is None:
            exit_ = "singular step"
            break
        du, dw = step
        m0 = np.dot(xu, xu) + np.dot(xw, xw)
        t = 1.0
        for _ in range(60):
            ut = u + t * du
            wt = w + t * dw
            if ut[:-1].min() > 0:
                trial = _point(disc, q, ut, wt)
                if t == 1.0 and res < tol:
                    break
                _, _, Fut, Fwt = trial
                xut, xwt = Fut / su, Fwt / sw
                m2 = np.dot(xut, xut) + np.dot(xwt, xwt)
                if m2 < (1.0 - 1e-4 * t) * m0:
                    break
            t /= 2
        else:
            exit_ = "line search"
            break
        history.append((res, t))
        full_from_below = res < tol and t == 1.0
        u, w = ut, wt
        au, uq, Fu, Fw = trial
    history.append((res, None))
    return u, w, history, exit_


def _bubble_fields(grid, lam, amplitude=1.0):
    r = grid.nodes
    u = amplitude * _projected_profile(grid.n, lam, r, grid.R)
    w = amplitude * _projected_laplacians(grid.n, lam, r, grid.R)[0]
    u[-1] = 0.0
    w[-1] = 0.0
    return u, w


def default_grid(domain, nodes=_DEFAULT_NODES):
    """The solver's standard sinh-graded grid on [0, R]."""
    return RadialGrid.sinh_graded(domain.n, nodes, R=domain.radius,
                                  strength=_GRID_STRENGTH)


def _pohozaev_sides(grid, u, w, q):
    """(mass, u'(R), w'(R), lhs, rhs) of the Pohozaev identity for
    Delta^2 u = u^q with Navier data on the ball of radius R,

        (n/(q+1) - (n-4)/2) int u^{q+1} = -|S^{n-1}| R^n u'(R) w'(R)

    (Pucci-Serrin 1986; van der Vorst 1991). The mass uses the cell
    weights and the slopes the three-point one-sided derivative at r = R.
    On a discrete solution lhs / rhs - 1 is second order in the grid
    spacing."""
    n = grid.n
    r = grid.nodes
    d1 = _stencil_weights(r[-1], r[-3:], 1)[1]
    u_slope = float(d1 @ u[-3:])
    w_slope = float(d1 @ w[-3:])
    mass = _nonlinear_mass(grid, u, q)
    lhs = (n / (q + 1) - (n - 4) / 2) * mass
    rhs = -sphere_measure(n) * grid.R**n * u_slope * w_slope
    return mass, u_slope, w_slope, lhs, rhs


# ---------------------------------------------------------------------------
# public solves


def check_eps_floor(eps_mag, grid):
    """Refuse (ValueError) an offset magnitude the grid cannot resolve."""
    if eps_mag < _EPS_FLOOR - 1e-15 and len(grid) < 2 * _DEFAULT_NODES:
        raise ValueError(
            "offset %g is below the resolution floor %g of a %d-node grid; "
            "supply a grid with at least %d nodes"
            % (eps_mag, _EPS_FLOOR, len(grid), 2 * _DEFAULT_NODES)
        )
    if eps_mag < _EPS_FLOOR / 2.5:
        raise ValueError("offset %g is below any supported resolution" % eps_mag)


def solve_radial(eps, domain, init, grid=None, start="given"):
    """Solve the two-field system at signed offset eps on a ball.

    init is a BubbleGuess (fields built from the projected bubble) or a
    pair (u, w) of sample arrays on the grid; to continue from a solution
    pass (sol.u, sol.w) with grid=sol.grid. start names the seed's source
    in the attempt (NewtonAttempt.start). The Newton iteration
    (_newton) converges at an iterate at a scaled residual of at most
    NEWTON_ROUNDOFF that a full step from below NEWTON_TOL / 10 reached;
    the returned solution declares NEWTON_TOL, so round-off level drift
    cannot invalidate the object later. Its attempt is the solve's Newton
    record.

    Raises SolverDivergence when NEWTON_MAX_STEPS steps are taken without
    converging, the line search stalls, a Newton step is singular or
    non-finite, or the iterates collapse onto the zero branch; the
    message names which, and the exception carries the last positive
    iterate.
    """
    n = domain.n
    p = critical_exponent(n)
    if not abs(eps) < p - 1:
        raise ValueError("offset magnitude must stay below p - 1 = %g" % (p - 1))
    if grid is None:
        grid = default_grid(domain)
    if grid.n != n or grid.R != domain.radius:
        raise ValueError("grid dimension or radius does not match the domain")
    check_eps_floor(abs(eps), grid)

    if isinstance(init, BubbleGuess):
        u0, w0 = _bubble_fields(grid, init.lam, init.amplitude)
    else:
        u0, w0 = (np.array(f, dtype=float) for f in init)
        if u0.shape != (len(grid),) or w0.shape != (len(grid),):
            raise ValueError("init samples must match the grid")
    if not np.all(u0[:-1] > 0):
        raise ValueError("initial iterate must be positive in the interior")

    q = p + eps
    u, w, history, exit_ = _newton(_grid_arrays(grid), q, u0, w0)
    if float(np.max(np.abs(u))) < 1e-6 * float(np.max(np.abs(u0))):
        exit_ = "collapsed"
    attempt = NewtonAttempt(tuple(history), exit_, start)
    u[-1] = 0.0
    w[-1] = 0.0
    if exit_ == "converged":
        return RadialSolution(grid=grid, u=u, w=w, eps=eps, attempt=attempt)
    iters, res = len(history) - 1, history[-1][0]
    if exit_ == "collapsed":
        reason = "iterates collapsed onto the trivial zero branch"
    elif exit_ == "cap":
        reason = ("iteration cap %d reached at scaled residual %.2e"
                  % (NEWTON_MAX_STEPS, res))
    elif exit_ == "line search":
        reason = ("line search found no Armijo decrease at iteration "
                  "%d, scaled residual %.2e" % (iters, res))
    else:
        reason = ("banded Newton solve gave a singular or non-finite "
                  "step at iteration %d, scaled residual %.2e"
                  % (iters, res))
    raise SolverDivergence(reason, last=RadialSolution(
        grid=grid, u=u, w=w, eps=eps, attempt=attempt,
        tolerance=max(res, NEWTON_TOL)))


def _law_seed(grid, peak_limit, e, departure):
    """The initial fields at offset magnitude e: the projected bubble at
    the law's scale times 1 + d_lam, scaled so that u(0) is the law's
    peak times 1 + d_M, for departure = (d_M, d_lam). At (0, 0) this is
    the bare law seed, bit for bit. Starting on the branch in the scale
    direction, a near-kernel of the linearization as e -> 0, is what
    keeps Newton inside its basin."""
    d_M, d_lam = departure
    M, lam = _law_point(grid.n, peak_limit, e)
    u, w = _bubble_fields(grid, lam * (1.0 + d_lam))
    amp = M * (1.0 + d_M) / u[0]
    return amp * u, amp * w


def _law_departure(sol, peak_limit):
    """(d_M, d_lam): the relative departures of a solution's peak and of
    its half-peak scale (bubble.half_peak_scale) from the law's at its
    offset. The half-peak radius is where u first falls to u(0) / 2,
    linear between the two nodes around it."""
    r, u = sol.grid.nodes, sol.u
    half = 0.5 * u[0]
    i = int(np.argmax(u <= half))
    t = (u[i - 1] - half) / (u[i - 1] - u[i])
    r_half = float(r[i - 1] + t * (r[i] - r[i - 1]))
    M, lam = _law_point(sol.grid.n, peak_limit, -sol.eps)
    return (sol.M / M - 1.0,
            half_peak_scale(sol.grid.n, r_half) / lam - 1.0)


def continuation_sweep(eps_list, domain, grid=None):
    """Subcritical sweep: solve at each positive offset in eps_list
    (strictly decreasing), each solve started from the blow-up law's
    seed (_law_seed) for the ball's center.

    The law is exact only as eps -> 0; at a finite offset the discrete
    solution departs from it by a relative O(eps) (Rey 1990; Han 1991).
    The first offset starts from the bare law ("law"). Each later one
    starts from the law corrected by the departure (d_M, d_lam) measured
    on the solution just obtained (_law_departure), taken proportional
    to the offset: at e_k after e_j the seed's peak and scale are the
    law's times 1 + d * e_k / e_j ("law-corrected"). Two numbers carry
    over from one offset to the next, never a solution. They move where
    Newton starts, not where it ends: on the default and 8,192-node
    schedules every solution is the bare law seed's to 5.8e-11 and
    1.04e-9 relative, in 25 Newton steps instead of 35 and 29 instead
    of 43.

    Returns the solutions solve_radial gives, one per offset, each with
    the Newton record of its one solve. The first offset that cannot be
    reached aborts the sweep; the exception carries the solutions
    already obtained and the NewtonAttempt of the offset that was not
    reached.
    """
    eps_arr = [float(e) for e in eps_list]
    if len(eps_arr) < 1:
        raise ValueError("eps_list must be nonempty")
    if any(e <= 0 for e in eps_arr):
        raise ValueError("subcritical sweep offsets must be positive")
    if any(b >= a for a, b in zip(eps_arr, eps_arr[1:])):
        raise ValueError("eps_list must decrease strictly")
    if grid is None:
        grid = default_grid(domain)
    check_eps_floor(min(eps_arr), grid)
    peak_limit = law_limits(balance_constants(domain.n),
                            center_potential(domain.n, domain.radius))[1]
    out = []
    departure, start = (0.0, 0.0), "law"
    for e in eps_arr:
        if out:
            prev = -out[-1].eps
            departure = tuple(d * e / prev
                              for d in _law_departure(out[-1], peak_limit))
            start = "law-corrected"
        try:
            out.append(solve_radial(-e, domain,
                                    _law_seed(grid, peak_limit, e, departure),
                                    grid=grid, start=start))
        except SolverDivergence as exc:
            raise ContinuationError(
                "sweep aborted at offset %g: %s" % (e, exc), partial=out,
                attempt=exc.last.attempt,
            ) from exc
    return out


# ---------------------------------------------------------------------------
# decomposition


def decompose(sol, domain):
    """Split a solution as alpha * Pdelta_lam + v with the bubble at the
    center, minimizing the energy norm of v over (alpha, lam).

    alpha is eliminated in closed form at each lam (the problem is
    linear in alpha). The exact stationarity condition, v orthogonal to
    the scale direction, must change sign across one bracket, the law
    seed's log lam plus or minus 0.1; plain secant steps on it from the
    bracket's ends drive the scale orthogonality defect to rounding. The
    objective alone is flat to rounding over a few 1e-10 of lam at fat
    offsets. Secant steps shrink superlinearly, so the first one below
    1e-10 is taken unevaluated and lands at the rounding floor.

    The objective's derivative in log lam is -2 alpha times the
    condition, so its curvature at the result is -2 alpha times the last
    secant slope of the condition, read from the steps already taken.

    Raises RuntimeError when the condition does not change sign across
    the bracket, when a secant step is flat or leaves the bracket, when
    _SECANT_MAX_STEPS steps do not converge, and when the amplitude or
    the objective's curvature at the result is not positive.

    Within one call the amplitude and scale directions are evaluated at
    most once per scale, together, by bubble._projected_laplacians; the
    eliminated amplitude's denominator is the amplitude direction's
    squared norm, each inner product is one np.dot, and wts * w is formed
    once. The cell weights are the grid's own (_grid_arrays).
    """
    if not isinstance(sol, RadialSolution):
        raise TypeError("decompose expects a RadialSolution")
    n = domain.n
    if sol.grid.n != n or sol.grid.R != domain.radius:
        raise ValueError("solution grid does not match the domain")
    energy = sol.energy_norm_sq()
    target = sobolev_energy(n)
    if not (0.5 * target <= energy <= 2.0 * target):
        raise ValueError(
            "energy %.4g is not within a factor 2 of the bubble energy %.4g; "
            "the bubble-plus-remainder ansatz does not apply" % (energy, target)
        )

    grid = sol.grid
    r = grid.nodes
    R = grid.R
    wts = _grid_arrays(grid).wts
    w = sol.w
    wts_w = wts * w

    @functools.cache
    def directions(lam):
        # the amplitude and scale directions at lam, the amplitude
        # eliminated against the first and the first's squared norm
        lp, ds = _projected_laplacians(n, lam, r, R)
        lp_sq = float(np.dot(wts * lp, lp))
        return lp, ds, float(np.dot(wts_w, lp)) / lp_sq, lp_sq

    def stationarity(loglam):
        # d/d(log lam) of the objective, up to the factor -2 alpha:
        # the inner product of the remainder with the scale direction
        lp, ds, al, _ = directions(math.exp(loglam))
        return float(np.dot(wts * (w - al * lp), ds))

    seed = math.log(law_scale(n, sol.M, sol.eps))
    lo, hi = seed - 0.1, seed + 0.1
    x0, g0, x1, g1 = lo, stationarity(lo), hi, stationarity(hi)
    if not g0 * g1 < 0:
        raise RuntimeError("profile minimization failed to bracket")
    for _ in range(_SECANT_MAX_STEPS):
        if g1 == g0:
            raise RuntimeError("secant step is flat at log lam %.17g" % x1)
        x2 = x1 - g1 * (x1 - x0) / (g1 - g0)
        if not lo <= x2 <= hi:
            raise RuntimeError("secant step to log lam %.17g left the "
                               "bracket [%.17g, %.17g]" % (x2, lo, hi))
        if abs(x2 - x1) <= 1e-10:
            break
        x0, g0, x1, g1 = x1, g1, x2, stationarity(x2)
    else:
        raise RuntimeError("secant did not converge in %d steps"
                           % _SECANT_MAX_STEPS)

    lam = math.exp(x2)
    lp, ds, alpha, lp_sq = directions(lam)
    if not alpha > 0:
        raise RuntimeError("minimization returned a nonpositive amplitude")
    v = w - alpha * lp
    wts_v = wts * v
    v_norm = math.sqrt(float(np.dot(wts_v, v)))
    floor = max(v_norm, 1e-14 * float(np.sqrt(energy)))
    amp_defect = float(np.dot(wts_v, lp)) / (floor * math.sqrt(lp_sq))
    scale_defect = (float(np.dot(wts_v, ds))
                    / (floor * math.sqrt(float(np.dot(wts * ds, ds)))))

    # curvature of the objective in log lam, -2 alpha times the last
    # secant slope of the stationarity condition; a flat or concave
    # profile means the (alpha, lam) Hessian is degenerate and the
    # minimizer meaningless, so that is reported rather than returned
    curv = -2.0 * alpha * (g1 - g0) / (x1 - x0)
    if not curv > 0:
        raise RuntimeError(
            "objective curvature %.3e at the minimizer; the decomposition "
            "is degenerate" % curv
        )

    return Decomposition(
        alpha=alpha,
        a=np.array(domain.center, dtype=float),
        lam=lam,
        v_norm=v_norm,
        ortho_residuals=(amp_defect, scale_defect),
        domain=domain,
    )


# ---------------------------------------------------------------------------
# sweep diagnostics


def concentration(sol, dec, domain):
    """(v_rel, lambda_d, parts) of a decomposed solution: the remainder
    relative to the energy norm, ||v|| / ||u||, the scale times the
    bubble's distance to the boundary, and concentration_checks on them
    with the fitted amplitude."""
    v_rel = dec.v_norm / math.sqrt(sol.energy_norm_sq())
    lambda_d = dec.lam * (domain.radius
                          - float(np.linalg.norm(dec.a - domain.center)))
    return v_rel, lambda_d, concentration_checks(v_rel, dec.alpha, lambda_d)


def concentration_checks(v_rel, alpha, lambda_d):
    """The three parts of the concentration predicate, in order: relative
    remainder ||v|| / ||u|| at most CONCENTRATION_V_REL, |alpha - 1| at
    most CONCENTRATION_AMP_TOL, and lam * d at least
    CONCENTRATION_LAMBDA_D. A nan input fails its part."""
    return (
        v_rel <= CONCENTRATION_V_REL,
        abs(alpha - 1.0) <= CONCENTRATION_AMP_TOL,
        lambda_d >= CONCENTRATION_LAMBDA_D,
    )


def vnorm_diagnostics(sweep, eps_list):
    """Slope fits and the uniform bound ratio for remainder norms along
    a subcritical sweep of at least five decompositions."""
    decomps = list(sweep)
    eps_arr = np.asarray([abs(float(e)) for e in eps_list], dtype=float)
    if len(decomps) != eps_arr.size:
        raise ValueError("one offset per decomposition required")
    if len(decomps) < 5:
        raise ValueError("need at least 5 sweep entries to fit")
    vnorms = np.array([d.v_norm for d in decomps])
    if np.any(vnorms <= 0):
        raise ValueError("remainder norms must be positive for log fits")
    lams = np.array([d.lam for d in decomps])
    n = decomps[0].domain.n
    dists = np.array(
        [
            d.domain.radius - float(np.linalg.norm(d.a - d.domain.center))
            for d in decomps
        ]
    )
    bound = eps_arr + (lams * dists) ** (4 - n)
    ratios = vnorms / bound
    return VnormDiagnostics(
        eps_fit=fit_loglog(eps_arr, vnorms),
        lambda_fit=fit_loglog(lams, vnorms),
        bound_ratio=float(ratios.max()),
        ratios=tuple(float(x) for x in ratios),
    )


def supercritical_probe(eps_list, domain):
    """Certify by the Pohozaev sign that no positive solution, and so no
    concentrating branch, exists at exponent p + eps, for each positive
    eps in eps_list.

    The identity (_pohozaev_sides) reads

        (n/(q+1) - (n-4)/2) int u^{q+1} = -|S^{n-1}| R^n u'(R) w'(R).

    Its right side is positive on every positive solution: the maximum
    principle gives u'(R) < 0 < w'(R), a premise the tests check on
    subcritical solutions. For q > p the coefficient on the left is
    negative, so the two sides cannot agree. The probe evaluates that coefficient in closed form and no
    field; the measured closure of the identity on a solution is the
    subcritical contrast's RadialSolution.pohozaev_defect. The rounded
    coefficient is within 4 u (n-4)/2 of -(n-4)^2 eps / (4n + 2(n-4) eps),
    u = 2^-53, so its sign is exact for eps above 4 u (p + 1); offsets
    must exceed twice that.
    """
    eps_arr = [float(e) for e in eps_list]
    n = domain.n
    p = critical_exponent(n)
    least = 2.0 ** -50 * (p + 1)
    if any(not least < e < math.inf for e in eps_arr):
        raise ValueError("probe offsets must be positive, finite and above "
                         "%.6g, where the coefficient's sign is exact" % least)
    entries = []
    for eps in eps_arr:
        q = p + eps
        coefficient = n / (q + 1) - (n - 4) / 2
        entries.append(ProbeEntry(eps=eps, pohozaev_coefficient=coefficient,
                                  concentrating=not coefficient < 0))
    return SupercriticalProbe(
        entries=tuple(entries),
        any_concentrating=any(e.concentrating for e in entries),
    )
