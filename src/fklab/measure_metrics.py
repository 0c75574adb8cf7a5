"""Exact distances between finitely supported measures via linear programs.

Two metrics are computed: the dual-Lipschitz norm (supremum of the integral
difference over functions with sup-norm plus Lipschitz constant at most one)
and the Kantorovich distance for the truncated cost ``1 ^ (theta d)``.  Both
read the measures only through the signed weights c of mu1 - mu2 on their
union support: the first is an LP in the function values, the second a plan
moving c+ onto c-, which needs equal masses (the truncated cost is a metric,
so shared mass stays put at no cost).  Independent LPs share no variable or
constraint, so a batch of them (the two metrics of one sandwich check, every
state pair of one contraction factor) is stacked as one sparse block-diagonal
matrix and solved in one HiGHS call, through ``scipy.optimize.milp`` with no
integer column; an optimum of the stack is optimal in each block.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DiscreteMeasure",
    "dual_lipschitz",
    "kantorovich_theta",
    "verify_metric_sandwich",
    "SandwichReport",
    "lipschitz_constant",
    "distances",
]

_MERGE_TOL = 1e-12
# HiGHS's default 1e-7 feasibility tolerances let weights below about 1e-7
# (rows of an ill-conditioned Doob transform) shift a value by 1e-8 or read a
# balanced plan as infeasible; at 1e-10 the stacked values match a per-plan
# solve to 1e-9
_HIGHS_TOLERANCES = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}


@dataclass(frozen=True)
class DiscreteMeasure:
    """Nonnegative measure on finitely many points of R^d.

    Support points closer than 1e-12 are merged (weights summed) to avoid LP
    degeneracy.
    """

    support: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.support, dtype=float))
        w = np.asarray(self.weights, dtype=float).ravel()
        if pts.shape[0] != w.shape[0]:
            raise ValueError("support and weights must have equal length")
        if not (np.isfinite(pts).all() and np.isfinite(w).all()):
            raise ValueError("support and weights must be finite")
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        pts, w = _merge_close(pts, w)
        object.__setattr__(self, "support", pts)
        object.__setattr__(self, "weights", w)

    @property
    def total(self):
        return float(self.weights.sum())

    @classmethod
    def dirac(cls, point):
        return cls(np.atleast_1d(np.asarray(point, dtype=float))[None, :], [1.0])

    @classmethod
    def from_samples(cls, samples):
        """Equal-weight empirical measure on the given sample points."""
        samples = np.atleast_2d(np.asarray(samples, dtype=float))
        return cls(samples, np.full(samples.shape[0], 1.0 / samples.shape[0]))


def linprog(c, rows, cols, vals, lo, hi, lb):
    """HiGHS on min ``c @ x`` subject to ``lo <= A x <= hi`` and ``x >= lb``,
    for ``A`` with the entries ``vals`` at (``rows``, ``cols``):
    ``scipy.optimize.milp`` with no integer column, imported on the first call,
    at ``_HIGHS_TOLERANCES`` (passed to HiGHS verbatim, which milp warns of)."""
    from scipy import optimize, sparse

    order = np.lexsort((rows, cols))  # compressed columns, at a fraction of scipy's COO conversion cost
    indptr = np.searchsorted(cols[order], np.arange(len(c) + 1))
    A = sparse.csc_array((vals[order], rows[order], indptr), shape=(len(lo), len(c)))
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "Unrecognized options", RuntimeWarning)
        return optimize.milp(c, constraints=(A, lo, hi), bounds=(lb, np.inf), options=dict(_HIGHS_TOLERANCES))


def distances(x, y):
    """Euclidean distances between the rows of ``x`` and of ``y``, summed
    coordinate by coordinate in order as scipy's ``cdist`` does, so the two
    agree bitwise in any dimension."""
    sq = np.zeros((x.shape[0], y.shape[0]))
    for k in range(x.shape[1]):
        sq += (x[:, None, k] - y[None, :, k]) ** 2
    return np.sqrt(sq)


def lipschitz_constant(values, dists):
    """Largest ratio |f_i - f_j| / d_ij over the pairs of distinct points."""
    diff = np.abs(values[:, None] - values[None, :])
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.where(dists > 0, diff / dists, 0.0).max())


def _merge_close(pts, w):
    """Sort the points and sum the (signed) weights of each run of points
    within the merge tolerance of their predecessor.  The run chains:
    a point joins its predecessor's group even when the group's first point
    is farther away, which matters only for runs spanning more than the
    tolerance.  The sums run in sorted order from each group's first
    weight, as one running total per group would."""
    if pts.shape[0] <= 1:
        return pts, w
    order = np.lexsort(pts.T[::-1])
    pts, w = pts[order], w[order]
    first = np.ones(w.shape[0], dtype=bool)
    first[1:] = np.linalg.norm(pts[1:] - pts[:-1], axis=1) > _MERGE_TOL
    merged = w[first]
    np.add.at(merged, np.cumsum(first)[~first] - 1, w[~first])
    return pts[first], merged


def _union_support(mu1, mu2):
    """Common support of the two measures with the signed weights of
    mu1 - mu2, coincident points collapsed."""
    pts = np.vstack([mu1.support, mu2.support])
    return _merge_close(pts, np.concatenate([mu1.weights, -mu2.weights]))


def _solve(items, kind):
    """Values of independent problems, each a float known in closed form or
    an LP block ``(c, rows, cols, vals, lo, hi, lb)`` of ``linprog`` whose
    value is ``c @ x`` at an optimum.  The blocks' entries are stacked into
    one sparse block-diagonal matrix and solved in one HiGHS call."""
    blocks = [b for b in items if not isinstance(b, float)]
    values = iter(())
    if blocks:
        c, rows, cols, vals, lo, hi, lb = zip(*blocks)
        col0, row0 = (np.cumsum([0] + [len(v) for v in vs]) for vs in (c, lo))
        rows = [r + r0 for r, r0 in zip(rows, row0)]
        cols = [k + k0 for k, k0 in zip(cols, col0)]
        res = linprog(*map(np.concatenate, (c, rows, cols, vals, lo, hi, lb)))
        if not res.success:
            raise RuntimeError(f"{kind} LP failed: {res.message}")
        values = (float(ci @ res.x[k0 : k0 + len(ci)]) for ci, k0 in zip(c, col0))
    return [b if isinstance(b, float) else next(values) for b in items]


def _dual_lipschitz_block(pts, c):
    """LP in the variables (f_1..f_m, s, t) minimising -<f, c> for the signed
    weights ``c`` of mu1 - mu2 on ``pts``, in rows +F - S <= 0, then -F - S <= 0,
    for the forms F = f_i (slack S = s) and f_i - f_j (i < j, S = t d_ij), then
    s + t <= 1; 0.0 when the measures agree."""
    m = pts.shape[0]
    if np.abs(c).max() == 0:
        return 0.0
    iu, ju = np.triu_indices(m, k=1)
    n = m + iu.size
    r = np.concatenate([np.arange(n), np.arange(m, n), np.arange(n)])  # the entries of the rows +F - S
    k = np.concatenate([np.arange(m), iu, ju, np.repeat([m, m + 1], [m, iu.size])])
    form = np.concatenate([np.ones(n), -np.ones(iu.size)])
    slack = -np.concatenate([np.ones(m), distances(pts, pts)[iu, ju]])
    rows, cols = np.concatenate([r, r + n, [2 * n, 2 * n]]), np.concatenate([k, k, [m, m + 1]])
    vals = np.concatenate([form, slack, -form, slack, [1.0, 1.0]])
    lo, hi = np.full(2 * n + 1, -np.inf), np.concatenate([np.zeros(2 * n), [1.0]])
    lb = np.concatenate([np.full(m, -np.inf), [0.0, 0.0]])
    return np.concatenate([-c, [0.0, 0.0]]), rows, cols, vals, lo, hi, lb


def _transport_block(pts, c, theta):
    """Plan LP of ``kantorovich_theta`` for the signed weights ``c`` of
    mu1 - mu2 on the points ``pts``: it moves c+ onto c- (row sums c+,
    column sums c-, the redundant last equality dropped).  Its value when
    either part is a single atom, 0.0 when a part is empty."""
    if not 0 < theta < np.inf:
        raise ValueError("theta must be positive and finite")
    if not abs(c.sum()) <= 1e-12:  # NaN weights fail too
        raise ValueError("kantorovich_theta expects measures of equal mass")
    pos, neg = c > 0, c < 0
    src, dst = c[pos], -c[neg]
    m, n = src.size, dst.size
    if m == 0 or n == 0:
        return 0.0
    cost = np.minimum(1.0, theta * distances(pts[pos], pts[neg]))
    if m == 1:
        return float(cost[0] @ dst)
    if n == 1:
        return float(cost[:, 0] @ src)
    k = np.arange(m * n)  # the plan entry (i, j) is variable i n + j, in rows i and m + j
    kc = k[k % n < n - 1]  # no row m + n - 1: the last column sum is dropped
    rows, cols = np.concatenate([k // n, m + kc % n]), np.concatenate([k, kc])
    b = np.concatenate([src, dst[:-1]])
    return cost.ravel(), rows, cols, np.ones(cols.size), b, b, np.zeros(m * n)


def dual_lipschitz(mu1: DiscreteMeasure, mu2: DiscreteMeasure) -> float:
    """Dual-Lipschitz distance: sup { <f, mu1 - mu2> : sup|f| + Lip(f) <= 1 }.

    Solved exactly as an LP in the variables (f_1..f_m, s, t) with
    |f_i| <= s, |f_i - f_j| <= t d_ij and s + t <= 1.
    """
    return max(0.0, -_solve([_dual_lipschitz_block(*_union_support(mu1, mu2))], "dual-Lipschitz")[0])


def kantorovich_theta(mu1: DiscreteMeasure, mu2: DiscreteMeasure, theta: float) -> float:
    """Kantorovich transport distance for the truncated metric 1 ^ (theta d).

    Requires equal masses; the truncated cost is itself a metric, so the
    optimal plan value depends on mu1 - mu2 only, coincides with the
    Lipschitz dual and, for probability inputs, lies in [0, 1].
    """
    return _solve([_transport_block(*_union_support(mu1, mu2), theta)], "transport")[0]


@dataclass(frozen=True)
class SandwichReport:
    kantorovich: float
    dual_lip: float
    lower: float
    upper: float
    ok: bool


def verify_metric_sandwich(mu1, mu2, theta, diam, tol=1e-9) -> SandwichReport:
    """Check (1+theta)^-1 K_theta <= dual-Lipschitz <= diam * K_theta."""
    if not 0 < diam < np.inf:
        raise ValueError("diam must be positive and finite")
    if theta < 1.0 / diam:
        raise ValueError("theta below the 1/diam threshold")
    pts, c = _union_support(mu1, mu2)
    K, v = _solve([_transport_block(pts, c, theta), _dual_lipschitz_block(pts, c)], "metric sandwich")
    L = max(0.0, -v)
    lower = K / (1.0 + theta)
    upper = diam * K
    ok = (lower <= L + tol) and (L <= upper + tol)
    return SandwichReport(kantorovich=K, dual_lip=L, lower=lower, upper=upper, ok=ok)
