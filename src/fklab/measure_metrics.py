"""Exact distances between finitely supported measures, by shortest paths.

Two metrics are computed: the dual-Lipschitz norm (supremum of the integral
difference over functions with sup-norm plus Lipschitz constant at most one)
and the Kantorovich distance for the truncated cost ``1 ^ (theta d)``.  Both
read the measures only through the signed weights c of mu1 - mu2 on their
union support (equal points merged, distinct ones kept however close), and
both are min-cost transports of c+ onto c-: one run of successive shortest
paths gives the cost C(a) of moving a units.  The Kantorovich distance is
C at the total mass, at the truncated cost (a metric, so shared mass stays
put at no cost).  The dual-Lipschitz norm, by LP duality and minimax, is
where C at cost d crosses the mass left unmoved.
``linprog``, the HiGHS seam, serves LPs outside this module.
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

# one transport of m sources and n sinks may make _AUGMENTATIONS (m + n)**2
# augmentations; generated inputs of up to 12 points a side made 1.7 (m + n)
_AUGMENTATIONS = 4
# HiGHS's default 1e-7 feasibility tolerances let weights below about 1e-7
# shift a value by 1e-8 or read a balanced plan as infeasible
_HIGHS_TOLERANCES = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}


@dataclass(frozen=True)
class DiscreteMeasure:
    """Nonnegative measure on finitely many points of R^d; equal points are merged (weights summed)."""

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
        pts, w = _merge_equal(pts, w)
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


def _merge_equal(pts, w):
    """Sort the points and sum the (signed) weights of each run of equal
    points, adjacent after the sort whatever else the support holds (-0.0
    equals 0.0).  The sums run in sorted order from each run's first
    weight, as one running total per run would."""
    if pts.shape[0] <= 1:
        return pts, w
    order = np.lexsort(pts.T[::-1])
    pts, w = pts[order], w[order]
    first = np.ones(w.shape[0], dtype=bool)
    first[1:] = (pts[1:] != pts[:-1]).any(axis=1)
    merged = w[first]
    np.add.at(merged, np.cumsum(first)[~first] - 1, w[~first])
    return pts[first], merged


def _union_support(mu1, mu2):
    """Common support of the two measures with the signed weights of
    mu1 - mu2, equal points collapsed."""
    pts = np.vstack([mu1.support, mu2.support])
    return _merge_equal(pts, np.concatenate([mu1.weights, -mu2.weights]))


def _cost_curve(cost, supply, demand, kind):
    """Successive shortest paths (Ahuja, Magnanti & Orlin 1993, *Network
    Flows*, ch. 9) moving ``supply`` onto ``demand`` along uncapacitated
    edges of the m x n ``cost``, until either side is spent: yields each
    augmentation's amount and path cost, the segments of the convex
    piecewise-linear cost C(a) of moving a units.  Bellman-Ford runs from
    every source with supply left over the plan's residual edges and relaxes
    only on a decrease beyond m + n ulps of the largest cost, so rounding
    never closes a cycle of predecessors.  Each augmentation empties a
    supply, a demand or a plan entry exactly; a walk past m + n edges or more
    than ``_AUGMENTATIONS`` * (m + n)**2 augmentations raises RuntimeError."""
    m, n = cost.shape
    C, s, t = cost.tolist(), supply.tolist(), demand.tolist()
    plan = [[0.0] * n for _ in range(m)]
    tol = (m + n) * np.spacing(cost.max(initial=0.0))
    for _ in range(_AUGMENTATIONS * (m + n) ** 2):
        if not (any(s) and any(t)):
            return
        ds, dt = [0.0 if x > 0 else np.inf for x in s], [np.inf] * n
        via_s, via_t = [-1] * m, [-1] * n
        for _ in range(m + n):
            changed = False
            for i, (di, Ci) in enumerate(zip(ds, C)):
                for j, cij in enumerate(Ci):
                    if di + cij < dt[j] - tol:
                        dt[j], via_t[j], changed = di + cij, i, True
            for i, (Ci, Fi) in enumerate(zip(C, plan)):
                for j, cij in enumerate(Ci):
                    if Fi[j] > 0 and dt[j] - cij < ds[i] - tol:
                        ds[i], via_s[i], changed = dt[j] - cij, j, True
            if not changed:
                break
        j = min((k for k in range(n) if t[k] > 0), key=dt.__getitem__)
        i = via_t[j]
        fwd, back = [(i, j)], []
        while via_s[i] >= 0:  # back from sink j to a source with supply left
            k = via_s[i]
            back.append((i, k))
            i = via_t[k]
            fwd.append((i, k))
            if len(fwd) + len(back) > m + n:
                raise RuntimeError(f"{kind}: a shortest path longer than {m + n} edges")
        amount = min([t[j], s[i]] + [plan[a][b] for a, b in back])
        t[j] -= amount
        s[i] -= amount
        for a, b in fwd:
            plan[a][b] += amount
        for a, b in back:
            plan[a][b] -= amount
        yield amount, dt[j]
    if any(s) and any(t):
        raise RuntimeError(f"{kind}: more than {_AUGMENTATIONS * (m + n) ** 2} augmentations")


def _kantorovich(pts, c, theta, kind):
    """K_theta for the signed weights ``c`` of mu1 - mu2 on the points
    ``pts``: the cost of moving all of c+ onto c- at cost 1 ^ (theta d)."""
    if not 0 < theta < np.inf:
        raise ValueError("theta must be positive and finite")
    if not abs(c.sum()) <= 1e-12:  # NaN weights fail too
        raise ValueError("kantorovich_theta expects measures of equal mass")
    pos, neg = c > 0, c < 0
    cost = np.minimum(1.0, theta * distances(pts[pos], pts[neg]))
    return sum((a * g for a, g in _cost_curve(cost, c[pos], -c[neg], kind)), 0.0)


def _dual_lipschitz(pts, c, kind):
    """Dual-Lipschitz value of the signed weights ``c`` on ``pts``: by LP
    duality and minimax over (s, t), min over a in [0, min(P, N)] of
    max(C(a), P + N - 2a), for the masses P and N of c+ and c- and C the
    cost curve at cost d.  The first segment where C reaches the falling
    line holds the crossing; with none, the value is P + N - 2 min(P, N)."""
    pos, neg = c > 0, c < 0
    P, N = c[pos].sum(), -c[neg].sum()
    a = C = 0.0
    for amount, g in _cost_curve(distances(pts[pos], pts[neg]), c[pos], -c[neg], kind):
        R = P + N - 2 * a
        if C + g * amount >= R - 2 * amount:
            return float(C + g * (R - C) / (g + 2))
        a, C = a + amount, C + g * amount
    return float(P + N - 2 * a)


def dual_lipschitz(mu1: DiscreteMeasure, mu2: DiscreteMeasure) -> float:
    """Dual-Lipschitz distance: sup { <f, mu1 - mu2> : sup|f| + Lip(f) <= 1 }.

    The value of the LP in (f_1..f_m, s, t) with |f_i| <= s,
    |f_i - f_j| <= t d_ij and s + t <= 1, read off its transport dual.
    """
    return _dual_lipschitz(*_union_support(mu1, mu2), "dual-Lipschitz")


def kantorovich_theta(mu1: DiscreteMeasure, mu2: DiscreteMeasure, theta: float) -> float:
    """Kantorovich transport distance for the truncated metric 1 ^ (theta d).

    Requires equal masses; the truncated cost is itself a metric, so the
    optimal plan value depends on mu1 - mu2 only, coincides with the
    Lipschitz dual and, for probability inputs, lies in [0, 1].
    """
    return _kantorovich(*_union_support(mu1, mu2), theta, "transport")


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
    K, L = _kantorovich(pts, c, theta, "metric sandwich"), _dual_lipschitz(pts, c, "metric sandwich")
    lower = K / (1.0 + theta)
    upper = diam * K
    ok = (lower <= L + tol) and (L <= upper + tol)
    return SandwichReport(kantorovich=K, dual_lip=L, lower=lower, upper=upper, ok=ok)
