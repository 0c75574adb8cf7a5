"""Exact distances between finitely supported measures via linear programs.

Two metrics are computed: the dual-Lipschitz norm (supremum of the integral
difference over functions with sup-norm plus Lipschitz constant at most one)
and the Kantorovich distance for the truncated cost ``1 ^ (theta d)``.  Both
read the measures only through the signed weights c of mu1 - mu2 on their
union support: the first is an LP in the function values, the second a plan
moving c+ onto c-, which needs equal masses (the truncated cost is a metric,
so shared mass stays put at no cost).  Independent LPs share no variable or
constraint, so a batch of them (the two metrics of one sandwich check, every
state pair of one contraction factor) is stacked block-diagonally and solved
in one HiGHS call; an optimum of the stack is optimal in each block.
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


_STACK_ENTRIES = 2**20  # dense constraint entries per stacked solve (8 MiB)


def _solve(items, kind):
    """Values of independent problems, each a float known in closed form or
    an LP block ``(c, A_ub, b_ub, A_eq, b_eq, bounds)`` whose value is
    ``c @ x`` at an optimum.  The blocks are stacked block-diagonally and
    solved in one HiGHS call; a stack whose dense constraint matrix would
    exceed ``_STACK_ENTRIES`` entries (a contraction factor on more than 11
    states, each pair's block having at most n^2/4 variables and n - 1
    rows) is halved first."""
    from scipy.linalg import block_diag

    blocks = [b for b in items if not isinstance(b, float)]
    entries = sum(len(b[1]) + len(b[3]) for b in blocks) * sum(len(b[0]) for b in blocks)
    if len(blocks) > 1 and entries > _STACK_ENTRIES:
        return _solve(items[: len(items) // 2], kind) + _solve(items[len(items) // 2 :], kind)
    values = iter(())
    if blocks:
        c, A_ub, b_ub, A_eq, b_eq, bounds = zip(*blocks)
        res = linprog(
            np.concatenate(c), A_ub=block_diag(*A_ub), b_ub=np.concatenate(b_ub),
            A_eq=block_diag(*A_eq), b_eq=np.concatenate(b_eq), bounds=np.vstack(bounds), method="highs",
        )
        if not res.success:
            raise RuntimeError(f"{kind} LP failed: {res.message}")
        values = (float(ci @ xi) for ci, xi in zip(c, np.split(res.x, np.cumsum([len(ci) for ci in c])[:-1])))
    return [b if isinstance(b, float) else next(values) for b in items]


def _dual_lipschitz_block(pts, c):
    """LP in the variables (f_1..f_m, s, t) minimising -<f, c> for the signed
    weights ``c`` of mu1 - mu2 on the points ``pts``, under +-f_i - s <= 0,
    +-(f_i - f_j) - t d_ij <= 0 (i < j) and s + t <= 1; 0.0 when the
    measures agree."""
    m = pts.shape[0]
    if np.abs(c).max() == 0:
        return 0.0
    iu, ju = np.triu_indices(m, k=1)
    D = np.eye(m)[iu] - np.eye(m)[ju]
    st = np.zeros((2 * m + 2 * iu.size + 1, 2))
    st[: 2 * m, 0] = -1.0
    st[2 * m : -1, 1] = -np.tile(distances(pts, pts)[iu, ju], 2)
    st[-1] = 1.0
    A_ub = np.hstack([np.vstack([np.eye(m), -np.eye(m), D, -D, np.zeros((1, m))]), st])
    b_ub = np.r_[np.zeros(len(A_ub) - 1), 1.0]
    bounds = np.array([(-np.inf, np.inf)] * m + [(0.0, np.inf)] * 2)
    return np.concatenate([-c, [0.0, 0.0]]), A_ub, b_ub, np.zeros((0, m + 2)), np.zeros(0), bounds


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
    A_eq = np.vstack([np.kron(np.eye(m), np.ones(n)), np.kron(np.ones(m), np.eye(n))])
    b_eq = np.concatenate([src, dst])
    bounds = np.tile([0.0, np.inf], (m * n, 1))
    return cost.ravel(), np.zeros((0, m * n)), np.zeros(0), A_eq[:-1], b_eq[:-1], bounds


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
