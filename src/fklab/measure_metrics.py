"""Exact distances between finitely supported measures via linear programs.

Two metrics are computed: the dual-Lipschitz norm (supremum of the integral
difference over functions with sup-norm plus Lipschitz constant at most one)
and the Kantorovich distance for the truncated cost ``1 ^ (theta d)``.  The
first is solved in the dual variables (function values), the second as a
primal transport plan; each is the smaller LP in its case.
"""

from __future__ import annotations

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
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        pts, w = _merge_close(pts, w)
        object.__setattr__(self, "support", pts)
        object.__setattr__(self, "weights", w)

    @property
    def total(self):
        return float(self.weights.sum())

    @property
    def is_probability(self):
        return abs(self.total - 1.0) <= 1e-12

    @classmethod
    def dirac(cls, point):
        return cls(np.atleast_1d(np.asarray(point, dtype=float))[None, :], [1.0])

    @classmethod
    def from_samples(cls, samples):
        """Equal-weight empirical measure on the given sample points."""
        samples = np.atleast_2d(np.asarray(samples, dtype=float))
        return cls(samples, np.full(samples.shape[0], 1.0 / samples.shape[0]))

    def integrate(self, values):
        return float(np.asarray(values, dtype=float) @ self.weights)


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on its first call."""
    from scipy import optimize

    return optimize.linprog(*args, **kwargs)


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
    """Sort the points and sum the (signed) weights of points closer than
    the merge tolerance to their predecessor."""
    if pts.shape[0] <= 1:
        return pts, w
    order = np.lexsort(pts.T[::-1])
    pts, w = pts[order], w[order]
    keep_pts = [pts[0]]
    keep_w = [w[0]]
    for p, wi in zip(pts[1:], w[1:]):
        if np.linalg.norm(p - keep_pts[-1]) <= _MERGE_TOL:
            keep_w[-1] += wi
        else:
            keep_pts.append(p)
            keep_w.append(wi)
    return np.asarray(keep_pts), np.asarray(keep_w)


def _union_support(mu1, mu2):
    """Common support of the two measures with the signed weights of
    mu1 - mu2, coincident points collapsed."""
    pts = np.vstack([mu1.support, mu2.support])
    return _merge_close(pts, np.concatenate([mu1.weights, -mu2.weights]))


def dual_lipschitz(mu1: DiscreteMeasure, mu2: DiscreteMeasure) -> float:
    """Dual-Lipschitz distance: sup { <f, mu1 - mu2> : sup|f| + Lip(f) <= 1 }.

    Solved exactly as an LP in the variables (f_1..f_m, s, t) with
    |f_i| <= s, |f_i - f_j| <= t d_ij and s + t <= 1.
    """
    pts, c = _union_support(mu1, mu2)
    m = pts.shape[0]
    if m == 1 or np.abs(c).max() == 0:
        return 0.0
    d = distances(pts, pts)
    iu, ju = np.triu_indices(m, k=1)
    npairs = iu.size
    # variables: f (m), s, t
    nvar = m + 2
    # f_i - s <= 0 and -f_i - s <= 0
    box = np.zeros((2 * m, nvar))
    box[:m, :m] = np.eye(m)
    box[m:, :m] = -np.eye(m)
    box[:, m] = -1.0
    # +-(f_i - f_j) - t d_ij <= 0
    lipc = np.zeros((2 * npairs, nvar))
    lipc[np.arange(npairs), iu] = 1.0
    lipc[np.arange(npairs), ju] = -1.0
    lipc[npairs + np.arange(npairs), iu] = -1.0
    lipc[npairs + np.arange(npairs), ju] = 1.0
    lipc[:npairs, m + 1] = -d[iu, ju]
    lipc[npairs:, m + 1] = -d[iu, ju]
    # s + t <= 1
    cap = np.zeros((1, nvar))
    cap[0, m] = 1.0
    cap[0, m + 1] = 1.0
    A_ub = np.vstack([box, lipc, cap])
    b_ub = np.zeros(A_ub.shape[0])
    b_ub[-1] = 1.0
    obj = np.zeros(nvar)
    obj[:m] = -c  # maximize c . f
    bounds = [(None, None)] * m + [(0, None), (0, None)]
    res = linprog(obj, A_ub=A_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if not res.success:
        raise RuntimeError(f"dual-Lipschitz LP failed: {res.message}")
    return float(-res.fun)


def kantorovich_theta(mu1: DiscreteMeasure, mu2: DiscreteMeasure, theta: float) -> float:
    """Kantorovich transport distance for the truncated metric 1 ^ (theta d).

    Requires probability inputs; the truncated cost is itself a metric, so
    the optimal plan value coincides with the Lipschitz dual and lies in
    [0, 1].
    """
    if theta <= 0:
        raise ValueError("theta must be positive")
    if not (mu1.is_probability and mu2.is_probability):
        raise ValueError("kantorovich_theta expects probability measures")
    x, y = mu1.support, mu2.support
    m, n = x.shape[0], y.shape[0]
    cost = np.minimum(1.0, theta * distances(x, y))
    if m == 1:
        return float(cost[0] @ mu2.weights)
    if n == 1:
        return float(cost[:, 0] @ mu1.weights)
    # primal plan LP: row sums = mu1, column sums = mu2
    A_eq = np.vstack([np.kron(np.eye(m), np.ones(n)), np.kron(np.ones(m), np.eye(n))])
    b_eq = np.concatenate([mu1.weights, mu2.weights])
    res = linprog(
        cost.ravel(), A_eq=A_eq[:-1], b_eq=b_eq[:-1], bounds=(0, None), method="highs"
    )
    if not res.success:
        raise RuntimeError(f"transport LP failed: {res.message}")
    return float(res.fun)


@dataclass(frozen=True)
class SandwichReport:
    kantorovich: float
    dual_lip: float
    lower: float
    upper: float
    ok: bool


def verify_metric_sandwich(mu1, mu2, theta, diam, tol=1e-9) -> SandwichReport:
    """Check (1+theta)^-1 K_theta <= dual-Lipschitz <= diam * K_theta."""
    if diam <= 0:
        raise ValueError("diam must be positive")
    if theta < 1.0 / diam:
        raise ValueError("theta below the 1/diam threshold")
    K = kantorovich_theta(mu1, mu2, theta)
    L = dual_lipschitz(mu1, mu2)
    lower = K / (1.0 + theta)
    upper = diam * K
    ok = (lower <= L + tol) and (L <= upper + tol)
    return SandwichReport(kantorovich=K, dual_lip=L, lower=lower, upper=upper, ok=ok)
