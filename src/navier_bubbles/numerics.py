"""Radial quadrature and discrete calculus shared by the whole package.

Everything here works with radial profiles u(r) on [0, R] in dimension n.
The three workhorses are

  * radial_integral: |S^{n-1}| * int_0^rmax f(r) r^{n-1} dr on composite
    Gauss-Legendre panels doubled to convergence, the package's one
    quadrature rule, mapping (0, inf) to (0, 1) by r = t/(1-t) if needed
    (every integral in the package is radial);
  * radial_bilaplacian: a discrete Delta^2 for radial samples, with
    Delta = d^2/dr^2 + ((n-1)/r) d/dr and an even extension at r = 0;
  * fit_loglog: least squares slope of log y against log x, used to turn
    decay claims into measured exponents.

The bilaplacian is built for residual checks of smooth profiles sampled
analytically, where fourth-order differencing runs into the rounding floor
of double precision (two compositions divide the input rounding by h^4).
It therefore evaluates in extended precision internally and uses local
polynomial models near the origin, where the metric terms are stiffest,
and in the last rows. Every local model is differentiated by one rule,
Fornberg's finite-difference weights on arbitrary nodes, so no linear
system is solved (numpy.linalg has no extended precision).
Callers that need errors at the 1e-6 level should hand in samples computed
in np.longdouble; float64 samples are accepted and give float64-limited
accuracy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

_LD = np.longdouble


# ---------------------------------------------------------------------------
# grid and fit containers


@dataclass(frozen=True)
class RadialGrid:
    """Radii 0 = r_0 < r_1 < ... < r_{N-1} = R for dimension n.

    _derived holds arrays built from the nodes once per grid by the module
    that owns them, keyed by its name; they are read-only and never refer
    back to the grid, so they die with it.
    """

    n: int
    nodes: np.ndarray
    R: float
    _derived: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        if int(self.n) != self.n or self.n < 5:
            raise ValueError("dimension must be an integer >= 5")
        if nodes.ndim != 1 or nodes.size < 64:
            raise ValueError("need at least 64 grid nodes")
        if nodes[0] != 0.0:
            raise ValueError("first node must sit at r = 0")
        if not np.all(np.diff(nodes) > 0):
            raise ValueError("nodes must increase strictly")
        if nodes[-1] != self.R:
            raise ValueError("last node must equal the outer radius R")

    def __len__(self):
        return self.nodes.size

    @classmethod
    def sinh_graded(cls, n, N, R=1.0, strength=5.0):
        """Cluster nodes near r = 0; spacing grows like sinh.

        Resolves an O(1/lambda) core without starving the far field. The
        strength parameter is the total grading exponent; 5 concentrates
        roughly half the nodes inside r < 0.08 R.
        """
        s = np.arange(N) / (N - 1)
        nodes = R * np.sinh(strength * s) / np.sinh(strength)
        nodes[0] = 0.0
        nodes[-1] = R
        return cls(n, nodes, float(R))

    @classmethod
    def arctan_graded(cls, n, N, R=1.0, stretch=1.0):
        """Nodes r_j = A tan(psi j/(N-1)) with A tan(psi) = R.

        The local spacing is proportional to A + r^2/A, which matches the
        curvature profile of algebraically decaying bubbles and keeps the
        relative truncation of fourth-order stencils flat across the grid.
        """
        A = float(stretch)
        psi = math.atan2(R, A)
        s = np.arange(N) / (N - 1)
        nodes = A * np.tan(psi * s)
        nodes[0] = 0.0
        nodes[-1] = R
        return cls(n, nodes, float(R))


@dataclass(frozen=True)
class SlopeFit:
    """Least-squares power law: log y = slope * log x + intercept."""

    slope: float
    intercept: float
    rms_residual: float

    def __post_init__(self):
        if self.rms_residual < 0:
            raise ValueError("rms_residual cannot be negative")


# ---------------------------------------------------------------------------
# measures and integrals


def sphere_measure(n):
    """Surface measure of the unit sphere in R^n, 2 pi^{n/2} / Gamma(n/2)."""
    if n < 2:
        raise ValueError("sphere_measure needs dimension n >= 2")
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


# Seams of a concentration core at scale lam, in units of 1/lam. Radial
# integrals over the ball are split there, so each piece sees one length
# scale.
_CORE_SEAMS = (0.5, 3.0, 20.0)
# Every integral in the package uses 16-node Gauss-Legendre panels whose
# count doubles until successive values agree to QUAD_RTOL, within
# _MAX_DENSITY times the starting count; an integral still moving there
# raises.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
QUAD_RTOL = 1e-10
_MAX_DENSITY = 512


def core_seams(lam, R):
    """Core seams at scale lam that fall inside the ball of radius R."""
    return [s / lam for s in _CORE_SEAMS if s / lam < R]


@functools.lru_cache(maxsize=None)
def _unit_panels(count):
    """Read-only nodes and weights of count equal 16-node Gauss-Legendre
    panels on [0, 1]."""
    left = np.arange(count)[:, None] / count
    nodes = (left + (1.0 + _GL_NODES) / (2.0 * count)).ravel()
    weights = np.tile(_GL_WEIGHTS / (2.0 * count), count)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def gauss_legendre_panels(edges, counts):
    """Nodes and weights of the composite Gauss-Legendre rule with
    counts[i] equal panels on [edges[i], edges[i+1]], each piece the
    cached rule on [0, 1] mapped onto it."""
    nodes, weights = [], []
    for a, b, count in zip(edges, edges[1:], counts):
        unit_nodes, unit_weights = _unit_panels(count)
        nodes.append(a + (b - a) * unit_nodes)
        weights.append((b - a) * unit_weights)
    return np.concatenate(nodes), np.concatenate(weights)


def converged_quadrature(evaluate, max_density=_MAX_DENSITY):
    """(value, density) of evaluate(density) at the first doubling of the
    panel density that agrees with its half; RuntimeError when none does
    within max_density times the starting density.

    An array value converges only when every component agrees with its
    half.
    """
    density = 1
    value = evaluate(density)
    while 2 * density <= max_density:
        density *= 2
        finer = evaluate(density)
        if np.all(np.abs(finer - value) <= QUAD_RTOL * np.abs(finer)):
            return finer, density
        value = finer
    raise RuntimeError(
        "quadrature did not converge to relative %g within %d times the "
        "starting panel count" % (QUAD_RTOL, max_density))


def _panel_integral(weighted, edges):
    """Converged integral of the vectorized integrand weighted over the
    pieces between edges, starting from one panel per piece; an integrand
    with k rows gives its k integrals from the same panels."""
    def at_density(density):
        x, w = gauss_legendre_panels(edges, [density] * (len(edges) - 1))
        return weighted(x) @ w

    value = converged_quadrature(at_density)[0]
    return float(value) if np.ndim(value) == 0 else value


def radial_integral(n, f, r_max=math.inf, seams=()):
    """|S^{n-1}| * int_0^{r_max} f(r) r^{n-1} dr, f vectorized in r.

    The range is split at the given increasing seams. An infinite upper
    limit is mapped to (0, 1) by r = t/(1-t), so the integrand must decay
    faster than r^{-n} there. A non-integrable f raises RuntimeError.
    An f that returns k rows, one integrand each, gives the array of its
    k integrals; they share every panel set and converge together.
    """
    edges = [0.0] + [s for s in seams if 0.0 < s < r_max] + [r_max]
    weighted = lambda r: f(r) * r ** (n - 1)
    if math.isinf(r_max):
        edges = [r / (1.0 + r) for r in edges[:-1]] + [1.0]
        radial = weighted
        weighted = lambda t: radial(t / (1.0 - t)) / (1.0 - t) ** 2
    return sphere_measure(n) * _panel_integral(weighted, edges)


# ---------------------------------------------------------------------------
# discrete radial bilaplacian


def _stencil_weights(z, x, m):
    """Weights w[..., k, j] such that sum_j w[..., k, j] f(x[..., j]) is
    the k-th derivative at z of the polynomial through f at the nodes x,
    for k = 0..m (Fornberg's recurrence, Math. Comp. 51, 1988).

    The last axis of x holds one stencil's nodes; its leading axes
    broadcast against z, one stencil per entry of z. There is no linear
    solve, and the arithmetic runs in the dtype of x. The recurrence runs
    with the node axis leading and the stencils trailing, so each step is
    one contiguous pass over every stencil; the product of a node's
    differences is formed left to right, as multiply.reduce does.
    """
    z = np.asarray(z, dtype=np.asarray(x).dtype)
    x = np.moveaxis(np.broadcast_to(x, z.shape + np.shape(x)[-1:]), -1, 0)
    k = np.arange(m + 1, dtype=x.dtype).reshape((-1,) + (1,) * z.ndim)
    # row 0 of w stays zero, so row k + 1 holds derivative k and the
    # recurrence's k * w[k - 1] term needs no special case at k = 0
    w = np.zeros((m + 2,) + x.shape, dtype=x.dtype)
    w[1, 0] = 1
    c1 = np.ones_like(z)
    c4 = x[0] - z
    for i in range(1, x.shape[0]):
        top = min(i, m) + 1
        d = x[i] - x[:i]
        c2 = np.multiply.reduce(d, axis=0)
        c5, c4 = c4, x[i] - z
        # node i's column from the old column of node i - 1, then the
        # update of the columns of nodes 0..i-1
        w[1:top + 1, i] = c1 / c2 * (k[:top] * w[:top, i - 1]
                                     - c5 * w[1:top + 1, i - 1])
        w[1:top + 1, :i] = (c4 * w[1:top + 1, :i]
                            - k[:top, None] * w[:top, :i]) / d
        c1 = c2
    return np.ascontiguousarray(np.moveaxis(w[1:], (0, 1), (-2, -1)))


def _laplacian_stencil(r, n):
    """The node-only parts of Delta = d^2/dr^2 + ((n-1)/r) d/dr on the
    interior nodes r[1:-1], shared by both applications: the coefficients
    of u[j-1], u[j], u[j+1] and their common denominator."""
    hm = r[1:-1] - r[:-2]
    hp = r[2:] - r[1:-1]
    g = (n - 1) / r[1:-1]
    return (2 * hp - g * hp * hp,
            -2 * (hm + hp) + g * (hp * hp - hm * hm),
            2 * hm + g * hm * hm,
            hm * hp * (hm + hp))


def _window_bilaplacian(u, r, n, rows, idx):
    """Delta^2 at r[rows] of the polynomials through u on the windows
    r[idx] (one row of idx per row, or one window for all); a window
    sees u - u[row], the spread of its samples rather than their
    absolute size, which matters when it is one-sided."""
    rr = r[rows]
    w = _stencil_weights(rr, r[idx], 4)
    d1, d2, d3, d4 = np.einsum("ikj,ij->ki", w[:, 1:],
                               u[idx] - u[rows, None])
    return (d4 + 2 * (n - 1) / rr * d3
            + (n - 1) * (n - 3) / rr ** 2 * d2
            - (n - 1) * (n - 3) / rr ** 3 * d1)


def radial_bilaplacian(u, grid):
    """Samples of Delta^2 u on the grid, interior truncation O(h^2).

    Each row is written by one rule:

      * head (r < 0.008 R): u = F(t), t = r^2, with F the polynomial
        through the center and nodes spread over [0.008 R, 0.032 R],
        differentiated once at t = 0 and summed by Horner at each row,
        and Delta^2 u = 16 t^2 F'''' + 16 (n+2) t F''' + 4 n (n+2) F'';
      * an inner band (0.008 R <= r < 0.04 R): strided seven-point
        windows of degree six, which trade a longer stencil for a fourth
        power of the stride in the rounding amplification;
      * the last two rows: the same window on the trailing nodes;
      * every other row: two 3-point Laplacians, on rows 1 to N - 2 and
        then on rows 2 to N - 3, sharing one _laplacian_stencil.

    A grid whose head cannot write rows 0 and 1 (fewer than two nodes
    below 0.008 R, or fewer than five fit nodes) raises ValueError. Each
    local polynomial is differentiated by one rule, the weights of
    _stencil_weights. All arithmetic runs in extended precision. Hand in
    longdouble samples to reach the scheme's own floor; float64 samples
    are fine for O(h^2) verification at coarser tolerances.
    """
    nodes = np.asarray(grid.nodes)
    n = grid.n
    r = nodes.astype(_LD)
    u = np.asarray(u).astype(_LD)
    if u.shape != r.shape:
        raise ValueError("sample array does not match the grid")
    N = r.size
    R = float(nodes[-1])

    # head zone: one polynomial F in t = r^2 through the center and the
    # spread nodes; its derivatives D[k] = F^(k)(0), k = 0..len(js) - 1,
    # come from one set of weights at t = 0, and each head row's F'',
    # F''' and F'''' from their Taylor sums by Horner
    r_head = 0.008 * R
    fit_radii = r_head * np.array([1.0, 1.4, 1.8, 2.2, 2.6, 3.0, 3.5, 4.0])
    js = np.unique(np.searchsorted(nodes, fit_radii))
    js = np.concatenate([[0], js[js < N]])
    head = int(np.searchsorted(nodes, r_head))
    if head < 2 or len(js) < 5:
        raise ValueError("radial_bilaplacian needs two nodes below 0.008 R "
                         "and five fit nodes; got %d and %d" % (head, len(js)))

    lower, middle, upper, den = _laplacian_stencil(r, n)
    lap = (lower * u[:-2] + middle * u[1:-1] + upper * u[2:]) / den
    out = np.empty_like(u)
    out[2:-2] = (lower[1:-1] * lap[:-2] + middle[1:-1] * lap[1:-1]
                 + upper[1:-1] * lap[2:]) / den[1:-1]

    t = r[:head] ** 2
    D = _stencil_weights(0, r[js] ** 2, len(js) - 1) @ (u[js] - u[0])

    def derivative(k):
        # F^(k)(t) = sum_i D[k + i] t^i / i!
        acc = D[-1]
        for j in range(len(D) - 2, k - 1, -1):
            acc = D[j] + acc * t / (j - k + 1)
        return acc

    out[:head] = (16 * t * t * derivative(4)
                  + 16 * (n + 2) * t * derivative(3)
                  + 4 * n * (n + 2) * derivative(2))

    # band zone: strided seven-node windows centered on each row
    stride = 3
    band = np.arange(max(head, 1 + 3 * stride),
                     min(int(np.searchsorted(nodes, 0.04 * R)),
                         N - 3 * stride))
    out[band] = _window_bilaplacian(
        u, r, n, band, band[:, None] + stride * np.arange(-3, 4))

    # trailing rows: a direct local window, strided where the grid
    # allows, as in the band, to keep the rounding amplification of the
    # one-sided fourth derivative down
    stride_t = 3 if N > 6 * 3 + 1 else 1
    tail = np.array([N - 2, N - 1])
    out[tail] = _window_bilaplacian(
        u, r, n, tail, np.arange(N - 1 - 6 * stride_t, N, stride_t))

    return np.asarray(out, dtype=np.float64)


# ---------------------------------------------------------------------------
# slope fitting


def fit_loglog(xs, ys):
    """Least-squares power-law fit through (log x, log y).

    Returns a SlopeFit; the slope is the empirical order. At least four
    strictly positive samples are required.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size < 4 or ys.size != xs.size:
        raise ValueError("need at least 4 matched sample points")
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ValueError("log-log fit needs strictly positive data")
    lx = np.log(xs)
    ly = np.log(ys)
    A = np.vstack([lx, np.ones_like(lx)]).T
    coef, _, _, _ = np.linalg.lstsq(A, ly, rcond=None)
    resid = ly - A @ coef
    rms = float(np.sqrt(np.mean(resid ** 2)))
    return SlopeFit(slope=float(coef[0]), intercept=float(coef[1]),
                    rms_residual=rms)
