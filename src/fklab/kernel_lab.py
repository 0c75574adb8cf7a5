"""Exact finite-state realization of generalised Markov kernels.

A kernel here is an ``n x n`` nonnegative matrix ``P`` whose row ``i`` is the
measure attached to the embedded state ``points[i]``; rows need not sum to
one.  A designated index set ``A`` is invariant: rows of states in ``A``
carry no mass outside ``A``.  Tilting by a potential ``V`` multiplies column
``j`` by ``exp(V[j])``; the resulting matrix ``M`` plays the role of the
weighted transfer operator, and everything downstream (eigen-triples,
normalized semigroups, contraction factors, condition checks) is computed
from dense powers of ``M``.  The rate of the multiplicative ergodic theorem
is read off one eigenvalue solve: ``-log rho(M / lam - h mu^T)``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import fits
from .measure_metrics import _kantorovich, distances, lipschitz_constant

__all__ = [
    "FiniteKernel",
    "PotentialVector",
    "EigenTriple",
    "ConditionReport",
    "VerifyParams",
    "build_tilted_matrix",
    "perron_triple",
    "pressure_derivatives",
    "cesaro_average",
    "met_residuals",
    "met_rate_estimate",
    "verify_theorem21",
    "kantorovich_contraction_factor",
    "contraction_search",
]


@dataclass(frozen=True)
class FiniteKernel:
    """Nonnegative transition structure on ``n`` embedded states.

    points : (n, d) coordinates; the metric between states is Euclidean.
    P      : (n, n) nonnegative matrix, row i = kernel mass from state i.
    A      : sorted index array of the invariant subset.
    """

    points: np.ndarray
    P: np.ndarray
    A: np.ndarray

    def __post_init__(self):
        points = np.atleast_2d(np.asarray(self.points, dtype=float))
        P = np.asarray(self.P, dtype=float)
        A = np.unique(np.asarray(self.A, dtype=int))
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "A", A)
        n = self.n
        if P.shape != (n, n):
            raise ValueError(f"P must be {n}x{n}, got {P.shape}")
        if not (np.isfinite(points).all() and np.isfinite(P).all()):
            raise ValueError("kernel points and P must be finite")
        if np.any(P < 0):
            raise ValueError("kernel entries must be nonnegative")
        if np.any(P.sum(axis=1) <= 0):
            raise ValueError("every row must carry positive mass")
        if A.size == 0 or A.min() < 0 or A.max() >= n:
            raise ValueError("A must be a nonempty subset of range(n)")
        outside = np.setdiff1d(np.arange(n), A)
        if outside.size and np.any(P[np.ix_(A, outside)].sum(axis=1) > 0):
            raise ValueError("rows of A-states must not leak outside A")

    @property
    def n(self):
        return self.points.shape[0]

    @property
    def dists(self):
        """Pairwise Euclidean distances between the embedded states."""
        return distances(self.points, self.points)

    @property
    def diam(self):
        return float(self.dists.max())


@dataclass(frozen=True)
class PotentialVector:
    """Potential values on the states."""

    V: np.ndarray

    @classmethod
    def from_values(cls, kernel: FiniteKernel, values) -> "PotentialVector":
        V = np.asarray(values, dtype=float)
        if V.shape != (kernel.n,):
            raise ValueError(f"potential must have length {kernel.n}")
        if not np.all(np.isfinite(V)):
            raise ValueError("potential must be finite")
        return cls(V=V)


@dataclass(frozen=True)
class EigenTriple:
    """Perron value ``lam``, positive right vector ``h``, left probability
    vector ``mu`` supported on ``A``, normalized so that ``<h, mu> = 1``.

    ``extension_ok`` records whether ``h`` outside ``A`` came from the exact
    resolvent solve; when the solve is singular (the exponential bound or
    concentration fails) a Cesaro surrogate is stored instead.
    """

    lam: float
    h: np.ndarray
    mu: np.ndarray
    extension_ok: bool = True


def build_tilted_matrix(kernel: FiniteKernel, potential: PotentialVector) -> np.ndarray:
    """Tilted matrix M(i, j) = P(i, j) * exp(V[j])."""
    V = potential.V
    if V.shape != (kernel.n,):
        raise ValueError("kernel and potential dimensions differ")
    return kernel.P * np.exp(V)[None, :]


def _perron_pair(MA):
    """Perron (lam, right, left) of an irreducible nonnegative block.

    The block must be irreducible (every state reaches every other through
    positive entries); then its spectral radius is a simple eigenvalue, the
    one with the largest real part, with positive vectors.  A reducible block
    has no unique triple and is rejected as a failed precondition.
    """
    reach = MA > 0
    for _ in range(MA.shape[0].bit_length()):  # paths of length 1 .. 2^k
        reach = reach | (reach @ reach)
    if not reach.all():
        i, j = np.argwhere(~reach)[0]
        raise ValueError(f"reducible A-block: A[{i}] does not reach A[{j}] through positive entries of M_A")
    w, R = np.linalg.eig(MA)
    wl, L = np.linalg.eig(MA.T)
    right, left = np.argmax(w.real), np.argmax(wl.real)
    return float(w[right].real), np.abs(R[:, right].real), np.abs(L[:, left].real)


def perron_triple(M, A) -> EigenTriple:
    """Eigen-triple of the tilted matrix with invariant subset ``A``.

    The Perron problem is solved on the A-block, which must be irreducible
    (a reducible one raises ``ValueError``), by a dense eigensolver; ``mu``
    puts no mass outside ``A`` (the A-rows carry no outgoing mass, so the
    zero-padded left vector is exact).  The right vector extends to the
    complement through the resolvent solve
    ``(lam I - M_cc) h_c = M_cA h_A``, which has a positive solution exactly
    when the complement's spectral radius stays below ``lam``.
    """
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    A = np.unique(np.asarray(A, dtype=int))
    comp = np.setdiff1d(np.arange(n), A)
    MA = M[np.ix_(A, A)]
    lam, hA, muA = _perron_pair(MA)

    h = np.zeros(n)
    h[A] = hA
    extension_ok = True
    if comp.size:
        Mcc = M[np.ix_(comp, comp)]
        McA = M[np.ix_(comp, A)]
        rhs = McA @ hA
        try:
            hc = np.linalg.solve(lam * np.eye(comp.size) - Mcc, rhs)
        except np.linalg.LinAlgError:
            hc = None
        if hc is None or np.any(hc <= 0) or not np.all(np.isfinite(hc)):
            # Degenerate extension (complement not dominated by lam): fall
            # back to a Cesaro surrogate, scaled to match hA on A, so
            # diagnostics can still run.
            extension_ok = False
            acc = cesaro_average(M / lam, 512)
            scale = acc[A].mean() / hA.mean() if hA.mean() > 0 else 1.0
            hc = np.maximum(acc[comp] / max(scale, 1e-300), 1e-300)
        h[comp] = hc

    mu = np.zeros(n)
    mu[A] = muA / muA.sum()
    h = h / float(h @ mu)
    return EigenTriple(lam=lam, h=h, mu=mu, extension_ok=extension_ok)


def pressure_derivatives(P, V):
    """Q = log lam of the irreducible block ``P`` with columns tilted by
    exp(V), its gradient pi = mu h (Hellmann-Feynman, <mu, h> = 1: the law of
    the Doob transform Pt_ij = M_ij h_j / (lam h_i)) and its Hessian, Pt's
    asymptotic covariance Sigma = D_pi Z + (D_pi Z)^T - D_pi - pi pi^T with
    Z = (I - Pt + 1 pi^T)^-1 (Kato 1966, ch. II).
    """
    M = P * np.exp(V)[None, :]
    t = perron_triple(M, np.arange(len(M)))
    pi = t.mu * t.h
    DZ = pi[:, None] * np.linalg.inv(np.eye(len(M)) - M * t.h[None, :] / (t.lam * t.h[:, None]) + pi[None, :])
    return float(np.log(t.lam)), pi, DZ + DZ.T - np.diag(pi) - np.outer(pi, pi)


def cesaro_average(M, k):
    """Cesaro mean (1/k) sum_{n=1..k} M^n 1 (callers pass M already divided
    by its Perron value).  The sum stops before the first iterate that
    would overflow it, so a matrix whose spectral radius exceeds one still
    gives a finite (truncated) average."""
    if k < 1:
        raise ValueError("k must be >= 1")
    M = np.asarray(M, dtype=float)
    v = np.ones(M.shape[0])
    acc = np.zeros_like(v)
    with np.errstate(over="ignore", invalid="ignore"):  # the overflow the stop rule expects
        for _ in range(k):
            v = M @ v
            if not np.all(np.isfinite(acc + v)):
                break
            acc += v
    return acc / k


ROUNDING_BED = 1e-13  # residuals and rho(D) at or below this are float64 rounding, not decay


def met_residuals(kernel, potential, triple, f, k_max=200):
    """Decay of sup_u |lam^-k (M^k f)(u) - <f, mu> h(u)| and its fitted rate.

    ``f`` is normalized to unit Lipschitz-plus-sup norm first.  The rate is
    an ordinary least squares fit of log residual over the last half of the
    window, discarding values below ``ROUNDING_BED``.  Returns
    ``(C, gamma, residuals)``; ``gamma = inf`` when every residual in the
    fit window sits below it.
    """
    M = build_tilted_matrix(kernel, potential)
    f = np.asarray(f, dtype=float)
    norm = _lip_norm(f, kernel.dists)
    if norm > 0:
        f = f / norm
    target = float(f @ triple.mu) * triple.h
    v = f.copy()
    residuals = np.empty(k_max)
    for k in range(k_max):
        v = M @ v / triple.lam
        residuals[k] = np.abs(v - target).max()
    ks, tail = fits.late_half(residuals)
    keep = (tail >= ROUNDING_BED) & np.isfinite(tail)
    if keep.sum() < 2:
        return np.inf, np.inf, residuals
    gamma = -fits.line(ks[keep], np.log(tail[keep]))[0]
    # envelope constant: r_k <= C exp(-gamma k) holds on the whole window
    C = float(np.exp(np.max(np.log(tail[keep]) + gamma * ks[keep])))
    return C, gamma, residuals


def met_rate_estimate(kernel, potential, triple):
    """Exponential rate of lam^-k M^k f -> <f, mu> h, from one eigenvalue solve.

    The residual is exactly D^k f with D = M / lam - h mu^T, since
    D^k = (M / lam)^k - h mu^T for k >= 1, so the rate is -log rho(D).
    Returns ``(gamma, {"mode": "spectral", "radius": rho})``, or
    ``(inf, {"mode": "collapsed"})`` when rho is at the rounding bed of D (a
    rank-one tilt).  gamma <= 0 when the complement of A is not dominated.
    """
    D = build_tilted_matrix(kernel, potential) / triple.lam - np.outer(triple.h, triple.mu)
    rho = float(np.abs(np.linalg.eigvals(D)).max())
    if rho <= ROUNDING_BED:
        return np.inf, {"mode": "collapsed"}
    return 0.0 - float(np.log(rho)), {"mode": "spectral", "radius": rho}  # rho = 1 reads +0.0, not -0.0


def _lip_norm(f, dists):
    return float(np.abs(f).max() + lipschitz_constant(f, dists))


# fixed thresholds of the four-condition check
P_FLOOR = 1e-12  # smallest normalized r-ball mass read as positive
DECAY_TOL = 1e-3  # the far-set mass must end below this share of its peak
GROWTH_TOL = 1e-9  # a step grows when it adds more than this share of the running value
SHRINK = 0.5  # late steps that fall to this share of the first late step converge


@dataclass
class VerifyParams:
    """Tunables for the four-condition check: the ball radius ``r``, the
    Feller slack ``c`` and the horizon ``k_max``."""

    r: float = 0.25
    c: float = 0.5
    k_max: int = 80

    def __post_init__(self):
        if self.k_max < 5:
            raise ValueError("k_max must be at least 5: the late window needs two readings")


@dataclass
class ConditionReport:
    """Outcome of the four-part verification on a tilted kernel.

    Failures are verdicts, not errors; each entry keeps the witness that
    produced the reported constant.
    """

    feller: dict = field(default_factory=dict)
    irreducibility: dict = field(default_factory=dict)
    concentration: dict = field(default_factory=dict)
    expbound: dict = field(default_factory=dict)

    @property
    def all_pass(self):
        return all(
            part.get("verdict") == "pass"
            for part in (self.feller, self.irreducibility, self.concentration, self.expbound)
        )

    def to_json(self):
        return json.dumps(
            {
                "feller": self.feller,
                "irreducibility": self.irreducibility,
                "concentration": self.concentration,
                "expbound": self.expbound,
                "all_pass": self.all_pass,
            },
            indent=2,
            sort_keys=True,
            default=lambda obj: obj.tolist(),  # numpy arrays and scalars
        )


def _bumps(kernel):
    """Smoothed bumps max(0, 1 - d(i, .) / width), row i centred at state i;
    the width is the least positive state distance (1.0 if there is none)."""
    d = kernel.dists
    positive = d[d > 0]
    width = float(positive.min()) if positive.size else 1.0
    return np.maximum(0.0, 1.0 - d / width)


def _test_function_family(kernel, triple):
    """Finite family standing in for the sup over unit-Lipschitz functions:
    a smoothed bump at every state, the coordinate functions, and the
    eigenfunction itself.  Recorded in the report for reproducibility."""
    fams = [(f"bump@{i}", bump) for i, bump in enumerate(_bumps(kernel))]
    for j in range(kernel.points.shape[1]):
        fams.append((f"coord{j}", kernel.points[:, j].astype(float)))
    fams.append(("eigenfunction", triple.h.copy()))
    return fams


def verify_theorem21(kernel, potential, params: VerifyParams | None = None):
    """Numerically check the refined Feller bound, uniform irreducibility on
    ``A``, concentration near ``A`` and the exponential bound for the tilted
    kernel, returning a :class:`ConditionReport`.

    All four are read off one pass ``X <- (M / lam) X``, k = 1 .. k_max, over
    the columns: the test-function family, the constant 1, the far set
    ``1{d(., A) >= r}`` and the r-ball indicator of each state of ``A``.
    Normalizing by the Perron value makes every reading invariant under
    ``V -> V + c``, since ``lam(V + c) = e^c lam(V)``.  The Feller constant
    is the smallest empirical ``C`` over the recorded family, all state pairs
    and all horizons up to ``k_max`` for the given ``c``; this is a sampled-f
    verification, necessary but not a certificate.
    """
    params = params or VerifyParams()
    M = build_tilted_matrix(kernel, potential)
    triple = perron_triple(M, kernel.A)
    d, k_max, c = kernel.dists, params.k_max, params.c
    family = _test_function_family(kernel, triple)
    nf = len(family)
    # each f scaled to sup 1: the Feller reading is scale-free in f, and a
    # huge h (a Cesaro surrogate) cannot overflow the pass
    F = [f / max(np.abs(f).max(), 1e-300) for _, f in family]
    slack = [c * _lip_norm(f, d) for f in F]
    to_A = d[:, kernel.A]
    X = np.column_stack(F + [np.ones(kernel.n), to_A.min(axis=1) >= params.r, to_A <= params.r])
    balls = slice(nf + 2, None)
    Mhat = M / triple.lam
    sup_seq, far_seq = np.empty((2, k_max))
    best_C, witness, irreducibility = 0.0, None, None
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(1, k_max + 1):
            X = Mhat @ X
            sup_seq[k - 1], far_seq[k - 1] = X[:, nf : nf + 2].max(axis=0)
            for j, (name, _) in enumerate(family):
                g = X[:, j]
                lhs = np.where(d > 0, np.abs(g[:, None] - g[None, :]) / (sup_seq[k - 1] * d), 0.0)
                need = lhs.max() - slack[j]
                if need > best_C:
                    best_C = need
                    u, v = np.unravel_index(np.argmax(lhs), lhs.shape)
                    witness = {"f": name, "k": k, "pair": (int(u), int(v))}
            if irreducibility is None and X[:, balls].min() >= P_FLOOR:
                irreducibility = {"m": k, "p": float(X[:, balls].min()), "verdict": "pass"}
    if irreducibility is None:
        u, a = np.unravel_index(np.argmin(X[:, balls]), (kernel.n, kernel.A.size))
        far_pair = {"u": int(u), "target": int(kernel.A[a]), "k_max": k_max}
        irreducibility = {"m": None, "p": 0.0, "verdict": "fail", "witness": far_pair}
    decayed = far_seq[-1] <= max(DECAY_TOL * far_seq.max(), 1e-12)
    monotone = np.all(np.diff(far_seq[3 * k_max // 4 :]) <= 1e-12)
    late = sup_seq[3 * k_max // 4 :]
    steps = np.diff(late)  # growing: each adds to the running value, and they do not shrink
    growing = np.all(steps > GROWTH_TOL * late[:-1]) and np.all(steps[-1:] > SHRINK * steps[:1])
    return ConditionReport(
        feller={
            "C": float(max(best_C, 0.0)),
            "c": c,
            "witness": witness,
            "family": [name for name, _ in family],
            "verdict": "pass",
            "note": "sampled-f verification over the recorded family only",
        },
        irreducibility=irreducibility,
        concentration={"sequence": far_seq, "r": params.r, "verdict": "pass" if decayed and monotone else "fail"},
        expbound={"Lambda": float(sup_seq.max()), "sequence": sup_seq, "verdict": "fail" if growing else "pass"},
    )


def kantorovich_contraction_factor(M, triple, points, theta, m):
    """Worst contraction ratio of the normalized dual semigroup over Dirac
    pairs, in the Kantorovich metric for the truncated cost 1 ^ (theta d).

    For ``m = 0`` the factor is one by definition.  Identical point pairs
    are degenerate (0/0) and skipped.
    """
    if isinstance(m, bool) or not isinstance(m, (int, np.integer)) or m < 0:
        raise ValueError(f"the horizon m must be a nonnegative integer, got {m!r}")
    points = np.atleast_2d(np.asarray(points, dtype=float))
    d = distances(points, points)
    diam = float(d.max())
    if diam > 0 and theta < 1.0 / diam:
        raise ValueError("theta must be at least 1/diam for the metric sandwich")
    if m == 0:
        return 1.0
    if not triple.extension_ok:
        raise ValueError("h off A is a Cesaro surrogate, not an eigenfunction (extension_ok is false)")
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    # dual semigroup on measures: row u of (M/lam)^m, reweighted by h; each
    # row is a probability, rescaled to unit mass so that the rounding of
    # h's small entries leaves no pair of rows unequal in mass
    K = np.linalg.matrix_power(M / triple.lam, int(m))
    rows = K * triple.h[None, :] / triple.h[:, None]
    rows /= rows.sum(axis=1, keepdims=True)
    ratios = [
        _kantorovich(points, rows[u] - rows[v], theta, "contraction factor") / min(1.0, theta * d[u, v])
        for u in range(n)
        for v in range(u + 1, n)
        if d[u, v] != 0
    ]
    return max([0.0] + ratios)


CONTRACTION_M_MAX = 64  # the longest horizon contraction_search tries


def contraction_search(M, triple, points, feller_C=None):
    """Search a (theta, m) pair at which the dual semigroup halves
    Kantorovich distances, mirroring the proof's choice theta >= 4C.

    Returns ``(theta, m, factor)`` or raises if no pair is found up to
    ``CONTRACTION_M_MAX`` on the theta grid.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    diam = float(distances(points, points).max())
    base = 1.0 / diam if diam > 0 else 1.0
    thetas = [max(base, 4.0 * feller_C)] if feller_C else []
    thetas += [base, 4 * base, 16 * base, 64 * base]
    m = 1
    while m <= CONTRACTION_M_MAX:
        for theta in thetas:
            factor = kantorovich_contraction_factor(M, triple, points, theta, m)
            if factor <= 0.5:
                return theta, m, factor
        m *= 2
    raise RuntimeError(f"no contraction found with m <= {CONTRACTION_M_MAX}")
