"""Kick-forced random dynamical system: noise, trajectories, statistics.

The state recursion is ``u_k = S(u_{k-1}) + eta_k`` where ``S`` is a
deterministic time-one map (see :mod:`fklab.dynamics_maps`) and the kick
``eta`` has independent coordinates ``b_j xi_j`` with xi_j from the quartic
bump density 2 Beta(3, 3) - 1, drawn exactly from three uniforms each as
Beta(3, 3) = U1^(1/3) U2^(1/4) U3^(1/5) (Devroye 1986).
SFC64 streams seeded by ``SeedSequence(master seed, spawn_key=(stream id,))``
make every run bitwise reproducible; every ensemble enters by
:func:`initial_ensemble`, k start points in consecutive row blocks, and is
advanced by :func:`propagate`, drawing all its rows from one stream.  An
ensemble is (n, d), or (..., n, d) for stacked copies of it (the tilts of a
pressure curve): a step draws for the n rows once and shares the draw along
the leading axes, so each copy sees the draws a 2-D step would take from
the same stream state.

A finite Markov chain on embedded points is provided as a second model type
so the Monte Carlo estimators can be cross-checked against the exact
finite-state computations of :mod:`fklab.kernel_lab`.  A chain's ensemble
state is its state index, an (n, 1) ``intp`` column: coordinates enter once,
through :func:`initial_ensemble`, and leave through the chain's ``coords``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import fits
from .measure_metrics import distances

__all__ = [
    "QuarticBumpDensity",
    "KickLaw",
    "RDSModel",
    "FiniteChainModel",
    "rng_stream",
    "initial_ensemble",
    "sample_kicks",
    "propagate",
    "simulate",
    "attainability_cloud",
    "hitting_time_stats",
    "attraction_counter",
    "verify_map_conditions",
    "SamplePlan",
]


def rng_stream(seed, stream=0):
    """SFC64 generator seeded by ``SeedSequence`` from (seed, stream), both
    taken mod 2^64.  The seed is padded to the 128-bit pool before the
    stream is appended as the spawn key, so distinct pairs hash distinct
    inputs; streams are then independent with overwhelming probability
    (O'Neill 2014), not disjoint by construction as counter-based keys are."""
    mask = 2**64 - 1
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed & mask, spawn_key=(stream & mask,))))


class QuarticBumpDensity:
    """p(x) = (15/16)(1 - x^2)^2 on [-1, 1], the law of 2 Beta(3, 3) - 1.

    Continuously differentiable, positive at the origin, supported in the
    unit interval.  Sampled exactly without trigonometry: XY ~ Beta(a, b + c)
    for independent X ~ Beta(a, b) and Y ~ Beta(a + b, c), and U^(1/k) ~
    Beta(k, 1), so xi = 2 U1^(1/3) U2^(1/4) U3^(1/5) - 1 (Devroye 1986),
    computed as 2 exp(log V1 / 3 + log V2 / 4 + log V3 / 5) - 1 on V = 1 - U,
    exact and in (0, 1].  Each coordinate takes exactly three uniforms, row
    after row, so entry (i, j) of a batch sits at a fixed stream offset and
    the first rows of a batch do not depend on how many rows follow.  The
    closed forms of ``coupling_lab`` rely on its symmetry (the reflection
    coupling maps one residual law onto the other) and unimodality (the
    total variation of a shift by s is 2 CDF(|s|/2) - 1).
    """

    @staticmethod
    def pdf(x):
        x = np.asarray(x, dtype=float)
        inside = np.abs(x) <= 1.0
        return np.where(inside, 15.0 / 16.0 * (1.0 - x**2) ** 2, 0.0)

    @staticmethod
    def cdf(x):
        x = np.clip(np.asarray(x, dtype=float), -1.0, 1.0)
        x2 = x * x  # Horner form: float powers cost ten times as much
        # the polynomial first, so that one array fewer is alive at a time
        return (1.0 - x2 * (2.0 / 3.0 - x2 / 5.0)) * (15.0 / 16.0 * x) + 0.5

    @staticmethod
    def sample(rng, size):
        """Array of shape ``size`` (a tuple) from ``rng.random(size + (3,))``."""
        v = rng.random(tuple(size) + (3,))
        np.log(np.subtract(1.0, v, out=v), out=v)
        # elementwise, not a BLAS product, which rounds a one-row batch differently
        return 2.0 * np.exp(v[..., 0] / 3 + v[..., 1] / 4 + v[..., 2] / 5) - 1.0


@dataclass(frozen=True)
class KickLaw:
    """Coordinate kick law: eta_j = b_j xi_j with xi_j i.i.d. from the
    quartic bump, so |eta_j| <= b_j; the kick acts on ``dim = len(b)``
    coordinates."""

    b: np.ndarray
    density = QuarticBumpDensity

    def __post_init__(self):
        b = np.asarray(self.b, dtype=float)
        object.__setattr__(self, "b", b)
        if b.ndim != 1 or b.size == 0:
            raise ValueError("b must be a nonempty vector")
        if not np.all((b > 0) & np.isfinite(b)):
            raise ValueError(f"all b_j must be positive and finite, got b = {b}")

    @classmethod
    def from_decay(cls, dim, b0=0.3, s=1.0):
        """b_j = b0 j^-s, j = 1..dim (square-summable for s > 1/2)."""
        if not s > 0.5:  # NaN fails too
            raise ValueError(f"decay exponent must exceed 1/2 for square-summability, got s = {s}")
        j = np.arange(1, dim + 1, dtype=float)
        return cls(b=b0 * j ** (-s))

    @property
    def dim(self):
        return len(self.b)

    @property
    def radius(self):
        """Norm bound sqrt(sum b_j^2) valid for every sample."""
        return float(np.sqrt((self.b**2).sum()))


def sample_kicks(law: KickLaw, rng, n):
    """(n, dim) batch of kicks from a single stream, row after row, taking
    exactly 3 n dim uniforms; coordinate-wise |eta_j| <= b_j always."""
    xi = law.density.sample(rng, (n, law.dim))
    return xi * law.b[None, :]


@dataclass(frozen=True)
class RDSModel:
    """Kick-forced model u_k = S(u_{k-1}) + eta_k.

    ``map`` must provide ``apply(u)`` and ``apply_batch(U)``; the kick acts
    on the first ``kicks.dim`` coordinates.  ``rho`` is the absorbing radius
    from the dissipativity condition; ``contraction_factor`` may record an
    empirical Lipschitz bound < 1 used to justify settling shortcuts.
    """

    map: object
    kicks: KickLaw
    rho: float
    contraction_factor: float | None = None

    def __post_init__(self):
        if self.kicks.dim > self.dim:
            raise ValueError("kick dimension exceeds state dimension")
        if not 0 < self.rho < np.inf:
            raise ValueError(f"rho must be positive and finite, got {self.rho}")

    @property
    def dim(self):
        return self.map.dim

    def step(self, u, rng):
        """One step of a single state; draws what a one-row ensemble draws."""
        return self.step_many(np.asarray(u, dtype=float)[None, :], rng)[0]

    def step_many(self, U, rng):
        """One step of an ensemble, all kicks drawn from the one stream: n
        kicks for (..., n, d) states, shared along the leading axes."""
        V = self.map.apply_batch(U)
        V[..., : self.kicks.dim] += sample_kicks(self.kicks, rng, U.shape[-2])
        return V


@dataclass(frozen=True)
class FiniteChainModel:
    """Markov chain on n embedded points with row-stochastic matrix P.

    Its ensemble state is the (n, 1) ``intp`` column of state indices: a
    step is a table lookup, a potential a value table (``from_chain``).
    ``index_of`` snaps coordinates to indices on entry (:func:`initial_ensemble`)
    and ``coords`` maps indices back to points, for consumers that need them.
    """

    points: np.ndarray
    P: np.ndarray
    _cumT: np.ndarray = field(repr=False, compare=False, default=None)

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        P = np.asarray(self.P, dtype=float)
        n = len(pts)
        if P.shape != (n, n) or not np.all(np.isfinite(P) & (P >= 0)):
            raise ValueError(f"chain P must be a finite nonnegative {n}x{n} matrix, got shape {P.shape}")
        if not np.allclose(P.sum(axis=1), 1.0, atol=1e-10):
            raise ValueError("chain rows must sum to one")
        i, j = np.nonzero(np.triu(distances(pts, pts) == 0, k=1))
        if i.size:  # index_of could not tell the two states apart
            raise ValueError(f"chain points {i[0]} and {j[0]} coincide")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "P", P)
        # row j of _cumT holds every state's cumulative row sum through j
        object.__setattr__(self, "_cumT", np.ascontiguousarray(np.cumsum(P, axis=1).T))

    @classmethod
    def from_kernel(cls, kernel):
        return cls(points=kernel.points, P=kernel.P)

    @property
    def dim(self):
        return self.points.shape[1]

    def index_of(self, U):
        """Index of the nearest point to each row of ``U``, in ``distances``' order."""
        return _row_argmin(np.atleast_2d(np.asarray(U, dtype=float)), self.points)

    def step_indices(self, idx, rng):
        """Next state of each index in ``idx``, one uniform per row (per
        entry of the last axis, shared along the others): the count of its
        cumulative row sums below the uniform, all but the last (so a row
        summing to just under one never steps past the last state)."""
        u = rng.random(idx.shape[-1])
        nxt = np.zeros(idx.shape, dtype=np.intp)
        for row in self._cumT[:-1]:
            nxt += u > row[idx]
        return nxt

    def step_many(self, X, rng):
        return self.step_indices(X[..., 0], rng)[..., None]

    def coords(self, X):
        """Points of the index states ``X``: the one way out of index space."""
        return self.points[X[:, 0]]


def _start_points(model, init):
    """``init`` as one or more rows of finite start points with ``model.dim`` coordinates."""
    init = np.atleast_2d(np.asarray(init, dtype=float))
    if init.shape[1] != model.dim or not len(init) or not np.isfinite(init).all():
        raise ValueError(f"start points must be finite, with {model.dim} coordinates, got shape {init.shape}")
    return init


def initial_ensemble(model, init, n):
    """The one way into an ensemble: n rows, the k start points of ``init``
    in consecutive blocks of ceil(n / k) rows (the last block the rest); a
    chain snaps coordinates to the index of the nearest point."""
    init = _start_points(model, init)
    if isinstance(model, FiniteChainModel):
        init = model.index_of(init)[:, None]
    return np.repeat(init, -(-n // init.shape[0]), axis=0)[:n]


def propagate(model, X, rng, steps, V=None, active=None):
    """The one ensemble loop: advance the rows of ``X`` in place for up to
    ``steps`` steps, drawing from the single generator ``rng``.

    Yields ``(k, X, logw)`` after step k = 1..steps, where ``logw`` (shape
    ``X.shape[:-1]``) holds each row's running sum V(u_1) + ... + V(u_k)
    (zeros without ``V``, which maps states to values of that shape).
    Consumers may modify ``X``, ``logw`` and the boolean mask ``active`` in
    place between steps (resampling, freezing rows, opening blocks).
    ``active`` runs over the leading axis: the rows of an (n, d) ensemble,
    the blocks of an (A, n, d) one.  Only entries active at a step are
    advanced and weighted, a contiguous run of them as a slice (a view, not
    a gathered copy), and the loop ends early once none is active.  A
    non-finite state raises :class:`FloatingPointError` naming the step,
    the tilt (the index along the leading axis of a stacked ensemble) and
    the row; its ``index`` attribute holds the same indices, row last.
    """
    rows = slice(None)
    logw = np.zeros(X.shape[:-1])
    for k in range(1, int(steps) + 1):
        if active is not None:
            rows = np.flatnonzero(active)
            if rows.size == 0:
                return
            if rows[-1] - rows[0] == rows.size - 1:
                rows = slice(rows[0], rows[-1] + 1)
        Y = model.step_many(X[rows], rng)
        if not np.isfinite(Y).all():
            ok = np.isfinite(Y).all(axis=-1)
            lead, *rest = np.unravel_index(np.argmin(ok), ok.shape)
            *tilt, row = index = (int(np.arange(X.shape[0])[rows][lead]), *map(int, rest))
            at = "".join(f"tilt {t}, " for t in tilt)
            err = FloatingPointError(f"non-finite state at step {k} in {at}row {row}")
            err.index = index
            raise err
        X[rows] = Y
        if V is not None:
            logw[rows] += V(Y)
        yield k, X, logw


def simulate(model, u0, K, seed, stream=0):
    """The (K+1, d) states u_0..u_K of one trajectory from u0, a one-row
    ensemble on stream (seed, stream), bitwise-deterministic per (model,
    seed, stream, u0); they are the model's ensemble states, so a chain's
    are indices (its ``coords`` gives the points)."""
    X = initial_ensemble(model, u0, 1)
    steps = [Y.copy() for _, Y, _ in propagate(model, X.copy(), rng_stream(seed, stream), K)]
    return np.concatenate([X] + steps)


def _kick_mesh(law, rng, n):
    """Mesh of the kick support (uniform over the product of [-b_j, b_j]),
    always containing the zero kick."""
    mesh = rng.uniform(-1.0, 1.0, size=(n, law.dim)) * law.b[None, :]
    mesh[0] = 0.0
    return mesh


def _require_map(model, what):
    """Reject models without a continuous map S (finite chains)."""
    if getattr(model, "map", None) is None:
        raise ValueError(
            f"{what} needs a continuous map model u_k = S(u_(k-1)) + eta_k, "
            f"not {type(model).__name__}"
        )


def attainability_cloud(model, B, k, seed=0, kicks_per_point=8, max_points=10_000):
    """Monte Carlo outer approximation of the k-step attainability set from
    the sample cloud ``B``: push forward through S and add meshed kicks,
    subsampling to ``max_points`` per stage."""
    _require_map(model, "attainability_cloud")
    cloud = np.atleast_2d(np.asarray(B, dtype=float))
    if cloud.size == 0:
        raise ValueError("B must be a nonempty sample")
    rng = rng_stream(seed, 987)
    for _ in range(int(k)):
        kicks = _kick_mesh(model.kicks, rng, kicks_per_point)
        # candidate i adds kick i % kicks_per_point to the image of parent
        # i // kicks_per_point; only the parents of kept candidates are mapped
        sel = np.arange(cloud.shape[0] * kicks_per_point)
        if sel.size > max_points:
            sel = rng.choice(sel.size, size=max_points, replace=False)
        parents, parent_row = np.unique(sel // kicks_per_point, return_inverse=True)
        cloud = model.map.apply_batch(cloud[parents])[parent_row]
        cloud[:, : model.kicks.dim] += kicks[sel % kicks_per_point]
    return cloud


def _ball_sample(rng, radius, n, dim):
    """n uniform points of the centred dim-ball of the given radius."""
    x = rng.normal(size=(n, dim))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    r = radius * rng.random(n) ** (1.0 / dim)
    return x * r[:, None]


@dataclass
class HittingReport:
    taus: dict  # start index -> first hitting times (horizon + 1 if censored)
    delta: float
    censored_fraction: float
    horizon: int


EXP_MOMENT_TARGET = 2.0  # hitting_time_stats' delta keeps E exp(delta tau) at or below this


def hitting_time_stats(model, u0s, eps, n_traj=1000, horizon=1000, seed=0):
    """First hitting times of the ball B_eps around the origin and the
    largest exponent with empirical exp-moment below ``EXP_MOMENT_TARGET``.

    The k starts run as one ensemble of k ``n_traj`` rows on stream
    (seed, 0), start m in block m (:func:`initial_ensemble`), whose times
    are ``taus[m]``.  Censored trajectories (no hit within the horizon) are
    excluded from the moment and reported as a fraction; the returned delta
    is then a bound for the observed part only.
    """
    _require_map(model, "hitting_time_stats")
    if not 0 < eps < np.inf:
        raise ValueError(f"eps must be positive and finite, got {eps}")
    k = _start_points(model, u0s).shape[0]
    U = initial_ensemble(model, u0s, k * n_traj)
    tau = np.full(k * n_traj, horizon + 1, dtype=int)
    hit0 = np.linalg.norm(U, axis=1) <= eps
    tau[hit0] = 0
    alive = ~hit0
    for step, U, _ in propagate(model, U, rng_stream(seed, 0), horizon, active=alive):
        idx = np.flatnonzero(alive)
        hit = idx[np.linalg.norm(U[idx], axis=1) <= eps]
        tau[hit] = step
        alive[hit] = False
    taus = dict(enumerate(tau.reshape(k, n_traj)))

    observed = [t[t <= horizon] for t in taus.values()]

    def exp_moment(delta):  # the worst start's; infinite if a start has no hit
        return max(float(np.exp(delta * obs).mean()) if obs.size else np.inf for obs in observed)

    lo, hi = 0.0, 1.0
    while exp_moment(hi) <= EXP_MOMENT_TARGET and hi < 50:
        hi *= 2
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if exp_moment(mid) <= EXP_MOMENT_TARGET:
            lo = mid
        else:
            hi = mid
    return HittingReport(
        taus=taus, delta=lo, censored_fraction=np.count_nonzero(tau > horizon) / tau.size, horizon=horizon
    )


SETTLE_STEPS = 25  # consecutive steps within SETTLE_FRAC * eps that settle a trajectory
SETTLE_FRAC = 0.75  # the settling radius, as a share of eps
SEARCH_BLOCK_BYTES = 2**21  # each (rows x points) table of a nearest-point search stays near 2 MiB


def _row_argmin(X, points, table=distances, skip=None):
    """Row argmins of ``table(block, points)`` over row blocks of X, each
    table near ``SEARCH_BLOCK_BYTES``; ``skip[i]`` is a column row i may not take."""
    j = np.empty(X.shape[0], dtype=np.intp)
    rows = max(1, SEARCH_BLOCK_BYTES // (8 * points.shape[0]))
    for lo in range(0, X.shape[0], rows):
        T = table(X[lo : lo + rows], points)
        if skip is not None:
            T[np.arange(len(T)), skip[lo : lo + rows]] = np.inf
        j[lo : lo + rows] = T.argmin(axis=1)
    return j


class _CloudSearch:
    """Nearest cloud points by blocked products with W = [-2 cloud^T; |c|^2].

    Row [x, 1] of a block times W is |c|^2 - 2 x.c, so one product and one
    argmin give each row a candidate point, whose distance d is recomputed
    in ``distances``' coordinate order.  The product rounds by at most
    gamma_(2d+2) (|x| + R)^2 per entry, with R the largest |c| (Higham 2002,
    sec. 3.1), and a recomputed square by gamma_(d+4) of itself; the slack
    4 (d + 2) machine epsilons of (|x| + R)^2 exceeds twice their sum.  So
    the nearest distance in ``distances``' order lies in
    [sqrt(d^2 - slack), d] (``_low``), and a row whose interval straddles a
    threshold is searched over the whole cloud exactly.
    """

    def __init__(self, cloud):
        sq = np.einsum("ij,ij->i", cloud, cloud)
        self.cloud = cloud
        self.W = np.vstack([-2.0 * cloud.T, sq])
        self.tol = 4 * (cloud.shape[1] + 2) * np.finfo(float).eps
        self.reach = np.sqrt(sq.max())

    def _search(self, X, exact, skip=None):
        """Each row's candidate point (its nearest when ``exact``) and the
        distance to it; ``skip[i]`` is a point row i may not take."""
        product = lambda x, _: np.hstack([x, np.ones((len(x), 1))]) @ self.W  # noqa: E731
        j = _row_argmin(X, self.cloud, distances if exact else product, skip)
        # a cumulative sum adds in order, so these are ``distances``' bits
        return j, np.sqrt(np.cumsum((X - self.cloud[j]) ** 2, axis=1)[:, -1])

    def _low(self, X, d):
        """Lower bounds of the squared nearest distances, given candidate distances d."""
        return d * d - self.tol * (np.linalg.norm(X, axis=1) + self.reach) ** 2

    def nearest(self, X, cuts):
        """Distance to and index of a cloud point for each row of X, on the
        same side of every threshold in ``cuts`` as the nearest one's."""
        j, d = self._search(X, exact=False)
        low = self._low(X, d)
        redo = np.zeros(d.shape, dtype=bool)
        for t in cuts:
            redo |= (d > t) & (low <= t * t)
        j[redo], d[redo] = self._search(X[redo], exact=True)
        return d, j

    def spacing(self):
        """The largest distance from a cloud point to its nearest other one.
        Only a point whose candidate distance reaches the largest lower
        bound can attain it, and those points are searched exactly."""
        if self.cloud.shape[0] < 2:
            return np.inf  # a lone point has no neighbour
        rows = np.arange(self.cloud.shape[0])
        _, d = self._search(self.cloud, exact=False, skip=rows)
        keep = d * d >= self._low(self.cloud, d).max()
        return self._search(self.cloud[keep], exact=True, skip=rows[keep])[1].max()


@dataclass
class AttractionReport:
    counts: np.ndarray
    Lambda: float
    delta: float
    alpha_moment: float
    censored_fraction: float
    resolution: float
    settling_shortcut: bool  # whether the map's contraction factor let trajectories settle


def attraction_counter(model, cloud, eps, u0s, n_traj=1000, horizon=400, seed=0):
    """Counts N = #{m >= 1 : u_m farther than eps from the attractor cloud}
    per trajectory, with a log-tail fit P(N >= m) <= Lambda exp(-delta m).

    ``eps`` must exceed the cloud resolution (max nearest-neighbor spacing).
    A trajectory stops consuming steps once it has stayed within
    ``SETTLE_FRAC * eps`` of the cloud for ``SETTLE_STEPS`` consecutive
    steps, but only when that is provably final: the map must record a
    contraction factor ``cf < 1`` and the settled distance must satisfy
    SETTLE_FRAC * cf + resolution / eps <= 0.95, so the next cloud distance
    stays below eps forever (cloud points are attainable, hence the true
    attractor distance is at most the cloud distance).  The report records
    whether this shortcut was on (``settling_shortcut``); a contraction
    factor that was assumed rather than measured makes it an assumption.

    The distance is read only through two decisions, > eps and (when
    settling) <= SETTLE_FRAC * eps, so the cloud is searched only for rows
    that a cheaper bound cannot decide (Elkan 2003): the distance to a row's
    last nearest cloud point bounds its cloud distance from above, and a
    bound at most r (1 - 1e-9), with r = SETTLE_FRAC * eps when settling and
    eps otherwise, decides both as the true distance would (the 1e-9 covers
    the rounding of two ways of computing a distance).  The search
    (``_CloudSearch``, a blocked product) decides the other rows as the
    nearest distance in ``distances``' order would.  So the counts equal
    those of one exact query per row bitwise.
    """
    _require_map(model, "attraction_counter")
    if not 0 < eps < np.inf:
        raise ValueError(f"eps must be positive and finite, got {eps}")
    cloud = np.atleast_2d(np.asarray(cloud, dtype=float))
    search = _CloudSearch(cloud)
    spacing = search.spacing()
    if eps < spacing:
        raise ValueError(f"eps={eps} below cloud resolution {spacing:.3g}")
    U = initial_ensemble(model, u0s, n_traj)
    counts = np.zeros(n_traj, dtype=int)
    settled = np.zeros(n_traj, dtype=int)
    active = np.ones(n_traj, dtype=bool)
    cf = model.contraction_factor
    can_settle = cf is not None and cf < 1 and SETTLE_FRAC * cf + spacing / eps <= 0.95
    near = np.zeros(n_traj, dtype=np.intp)  # each row's last nearest cloud point (any point bounds)
    cuts = (eps, SETTLE_FRAC * eps) if can_settle else (eps,)
    decided = cuts[-1] * (1.0 - 1e-9)
    for _, U, _ in propagate(model, U, rng_stream(seed, 0), horizon, active=active):
        idx = np.flatnonzero(active)
        dist = np.linalg.norm(U[idx] - cloud[near[idx]], axis=1)
        ask = dist > decided  # only these rows need the search
        dist[ask], near[idx[ask]] = search.nearest(U[idx[ask]], cuts)
        counts[idx] += dist > eps
        if can_settle:
            inside = dist <= SETTLE_FRAC * eps
            settled[idx] = np.where(inside, settled[idx] + 1, 0)
            active[idx[settled[idx] >= SETTLE_STEPS]] = False
    censored = float(active.sum()) / n_traj

    ms = np.arange(1, counts.max() + 1) if counts.max() > 0 else np.array([1])
    tail = np.array([(counts >= m).mean() for m in ms])
    keep = tail > 0
    if keep.sum() >= 2:
        slope, intercept, _ = fits.line(ms[keep], np.log(tail[keep]))
        delta = -slope
        Lambda = float(np.exp(intercept))
    else:
        # mass concentrated at N = 0: any positive rate certifies the tail
        delta, Lambda = np.inf, 1.0
    alpha = delta / 2 if np.isfinite(delta) else 1.0
    alpha_moment = float(np.exp(np.minimum(alpha * counts, 700)).mean())
    return AttractionReport(
        counts=counts,
        Lambda=Lambda,
        delta=delta,
        alpha_moment=alpha_moment,
        censored_fraction=censored,
        resolution=float(spacing),
        settling_shortcut=bool(can_settle),
    )


@dataclass
class SamplePlan:
    """Sampling plan for the map-condition checks."""

    radii: tuple = (1.0, 2.0)
    r: float = 0.5
    n_samples: int = 200
    n_iter: int = 12
    projection_dims: tuple = (1, 2, 4, 8)
    n_pairs: int = 500
    d_prime: object = None  # metric for the subcontraction check
    seed: int = 0


def verify_map_conditions(model, plan: SamplePlan):
    """Empirical check of dissipativity, smoothing, and subcontraction.

    Returns a dict with, per radius, the iterated decay profile and the
    first iterate count n0 from which the empirical factor stays below one;
    the per-N smoothing constants gamma_N with a monotone-decay verdict; and
    the worst subcontraction ratio over sampled pairs when a metric is
    supplied.
    """
    rng = rng_stream(plan.seed, 77)
    dim = model.dim
    report = {}

    # (A) dissipativity of iterated S
    diss = {}
    for R in plan.radii:
        U = _ball_sample(rng, R, plan.n_samples, dim)
        denom = np.maximum(np.linalg.norm(U, axis=1), plan.r)
        a_seq = []
        W = U.copy()
        for _ in range(plan.n_iter):
            W = model.map.apply_batch(W)
            a_seq.append(float((np.linalg.norm(W, axis=1) / denom).max()))
        a_seq = np.array(a_seq)
        rest = np.array([a_seq[i:].max() for i in range(len(a_seq))])
        below = np.flatnonzero(rest < 1.0)
        n0 = int(below[0] + 1) if below.size else None
        diss[R] = {
            "a_sequence": a_seq,
            "n0": n0,
            "a": float(rest[below[0]]) if below.size else None,
        }
    report["dissipativity"] = diss

    # (C) smoothing: gamma_N = worst tail-projection expansion over pairs.
    # Random pairs alone miss the extremal directions, so coordinate-aligned
    # probes (difference delta e_j at several base points) are included; on
    # the diagonal toy these attain the exact constant gamma_{N+1}.
    R = max(plan.radii)
    U1 = rng.uniform(-1, 1, size=(plan.n_pairs, dim))
    U2 = U1 + 1e-3 * rng.normal(size=(plan.n_pairs, dim))
    U1 *= R / np.maximum(np.linalg.norm(U1, axis=1, keepdims=True), R)
    U2 *= R / np.maximum(np.linalg.norm(U2, axis=1, keepdims=True), R)
    n_base = 8
    base_pts = rng.uniform(-1, 1, size=(n_base, dim))
    base_pts *= R / np.maximum(np.linalg.norm(base_pts, axis=1, keepdims=True), R)
    probes = np.repeat(base_pts, dim, axis=0)
    shifted = probes + 1e-4 * np.eye(dim)[np.tile(np.arange(dim), n_base)]
    U1 = np.vstack([U1, probes])
    U2 = np.vstack([U2, shifted])
    S1 = model.map.apply_batch(U1)
    S2 = model.map.apply_batch(U2)
    base = np.linalg.norm(U1 - U2, axis=1)
    ok = base > 0
    gammas = {}
    for N in plan.projection_dims:
        if N >= dim:
            continue
        tail = np.linalg.norm((S1 - S2)[:, N:], axis=1)
        gammas[N] = float((tail[ok] / base[ok]).max())
    ns = sorted(gammas)
    report["smoothing"] = {
        "gamma_N": gammas,
        "monotone_decay": all(
            gammas[a] >= gammas[b] - 1e-12 for a, b in zip(ns, ns[1:])
        ),
    }

    # (E) subcontraction in the auxiliary metric on an attainable cloud
    if plan.d_prime is not None:
        cloud = attainability_cloud(
            model, np.zeros((1, dim)), k=20, seed=plan.seed, max_points=2000
        )
        n = cloud.shape[0]
        i = rng.integers(0, n, size=plan.n_pairs)
        j = rng.integers(0, n, size=plan.n_pairs)
        keep = i != j
        i, j = i[keep], j[keep]
        Su = model.map.apply_batch(cloud[i])
        Sv = model.map.apply_batch(cloud[j])
        num = plan.d_prime(Su, Sv)
        den = plan.d_prime(cloud[i], cloud[j])
        pos = den > 0
        ratio = float((num[pos] / den[pos]).max())
        report["subcontraction"] = {
            "max_ratio": ratio,
            "pass": ratio <= 1.0 + 1e-9,
            "n_pairs": int(pos.sum()),
        }
    return report
