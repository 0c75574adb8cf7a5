"""Monte Carlo and particle estimation of the weighted (Feynman-Kac)
semigroup on simulated models.

Estimators work in log space throughout: a trajectory's weight after k
steps is exp(sum of potential values along the path), and only ratios or
log-slopes of such quantities are ever reported.  The growth rate of the
total mass gives the pressure, its slope-normalized limit the eigenvalue,
the resampled particle cloud the eigenmeasure, and mass estimates started
from query points the eigenfunction.  One particle loop serves every
resampled estimator: it advances the tilts alpha V of one potential in
lockstep on shared kicks, a single tilt for ``particle_fk`` and every
nonzero alpha of ``pressure_curve`` at once, normalizing each tilt's
weights once per step; tilts that have not resampled share one state
block, which a step maps, kicks and scores once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import fits
from .rds_core import FiniteChainModel, initial_ensemble, propagate, rng_stream

__all__ = [
    "PotentialFn",
    "WeightedEnsemble",
    "mc_semigroup_series",
    "particle_fk",
    "h_estimate",
    "pressure_estimate",
    "pressure_curve",
    "met_convergence_mc",
    "EnsembleCollapse",
]


class EnsembleCollapse(RuntimeError):
    """Particle weights degenerated; use more particles or a potential with
    smaller oscillation."""


@dataclass(frozen=True)
class PotentialFn:
    """Potential V on ensemble states.

    ``fn`` maps a batch of ensemble states to (n,) values: (n, dim)
    coordinates for a map model, the (n, 1) index column for a chain (whose
    potentials are value tables, see ``from_chain``).
    """

    fn: object

    def __call__(self, U):
        out = np.asarray(self.fn(np.atleast_2d(U)), dtype=float)
        if np.any(np.isnan(out)):
            raise FloatingPointError("potential produced NaN")
        return out

    def shifted(self, c):
        return PotentialFn(fn=lambda U: self.fn(U) + c)

    def scaled(self, a):
        return PotentialFn(fn=lambda U: a * self.fn(U))

    @classmethod
    def zero(cls):
        return cls(fn=lambda U: np.zeros(U.shape[0]))

    @classmethod
    def from_chain(cls, chain, values):
        """Potential given by a value per chain state: the table ``values``
        indexed by the chain's index states."""
        if not isinstance(chain, FiniteChainModel):
            raise ValueError(f"a chain potential needs a chain model, not {type(chain).__name__}")
        values = np.array(values, dtype=float)
        if values.shape != chain.points.shape[:1] or not np.isfinite(values).all():
            raise ValueError(f"a chain potential needs one finite value per state ({len(chain.points)})")
        return cls(fn=lambda X: values[X[:, 0]])

    @classmethod
    def coordinate(cls, i, scale=1.0, center=0.0, clip=None):
        """Rescaled i-th coordinate, optionally clipped to keep it bounded."""

        def fn(U):
            x = scale * (U[:, i] - center)
            return np.clip(x, -clip, clip) if clip is not None else x

        return cls(fn=fn)


def _signed_mean(logw, fvals):
    """Mean of f * exp(logw) with a common factored exponent; returns
    (mean, stderr)."""
    shift = logw.max()
    w = np.exp(logw - shift) * fvals
    mean = w.mean()
    stderr = w.std(ddof=1) / np.sqrt(w.size)
    return float(np.exp(shift) * mean), float(np.exp(shift) * stderr)


def mc_semigroup_series(model, V, f, u0, k_max, n_traj, rng):
    """Monte Carlo estimates of E[f(u_k) exp(sum V(u_n))] from u0 at every
    horizon k = 0..k_max, read off one ensemble pass drawn from ``rng``;
    returns (estimates, stderrs), each of length k_max + 1."""
    if n_traj < 2:
        raise ValueError("need at least two trajectories")
    U = initial_ensemble(model, u0, n_traj)
    est = np.empty(int(k_max) + 1)
    err = np.empty(int(k_max) + 1)
    est[0], err[0] = _signed_mean(np.zeros(n_traj), np.asarray(f(U), dtype=float))
    for k, U, logw in propagate(model, U, rng, k_max, V):
        est[k], err[k] = _signed_mean(logw, np.asarray(f(U), dtype=float))
    return est, err


@dataclass
class WeightedEnsemble:
    """Particle system state plus normalization bookkeeping.

    ``lognorm`` accumulates the log of every normalization divided out at
    resampling times, so ``lognorm + log(mean(exp(logweights)))`` always
    equals the running log estimate of the unnormalized total mass.
    """

    particles: np.ndarray
    logweights: np.ndarray
    lognorm: float
    ess: float
    history: list = field(default_factory=list)


def _normalized(logw):
    """(log(mean(exp(logw))), exp(logw) scaled to sum 1), from one exp."""
    m = logw.max()
    w = np.exp(logw - m)
    log_mean = float(m + np.log(np.mean(w)))
    w /= w.sum()
    return log_mean, w


@dataclass
class FKResult:
    lam: float
    lam_stderr: float
    log_mass_series: np.ndarray
    mu_cloud: np.ndarray
    ensemble: WeightedEnsemble


def _particle_loop(model, V, init, k, n, seed, tilts):
    """The one particle loop: sequential importance sampling with
    multinomial resampling for each tilt alpha V of ``tilts``, advanced in
    lockstep from stream ``(seed, 0)``.

    Every tilt starts from the same n rows (:func:`~fklab.rds_core.initial_ensemble`)
    and each step draws one set of kicks for the n rows (common random
    numbers), so tilts that have not resampled share one block of an
    (A, n, d) store; a tilt copies its block at its first resampling.  A
    step advances the live blocks and calls V once on them; each tilt keeps
    its own weights, ESS and collapse count, and resamples in tilt order on
    the same stream when its ESS is below ``ESS_THRESHOLD`` n.  Returns the
    (A, k) log-mass series, each tilt's :class:`WeightedEnsemble` (whose
    ``particles`` view its block, one buffer for the tilts that never
    resampled) and the generator, positioned after the last resampling
    draw.  A non-finite state names the lowest tilt on its block.
    """
    if n < 100:
        raise ValueError("need at least 100 particles")
    tilts = np.asarray(tilts, dtype=float)
    rng = rng_stream(seed, 0)
    start = initial_ensemble(model, init, n)
    X = np.empty((tilts.size,) + start.shape, dtype=start.dtype)
    X[0] = start
    G, live = 1, np.arange(tilts.size) == 0  # the G live blocks, a prefix of the store
    owner = np.zeros(tilts.size, dtype=int)  # tilt a's particles are block owner[a]
    ensembles = [WeightedEnsemble(X[0], np.zeros(n), lognorm=0.0, ess=float(n)) for _ in tilts]
    series = np.empty((tilts.size, k))
    collapses = np.zeros(tilts.size, dtype=int)
    try:
        for step, X, _ in propagate(model, X, rng, k, active=live):
            v = V(X[:G].reshape(-1, X.shape[-1])).reshape(G, n)
            for a, ens in enumerate(ensembles):
                logw = ens.logweights
                logw += tilts[a] * v[owner[a]]
                if not np.isfinite(logw.max()):  # the normalized weights would be NaN
                    raise FloatingPointError(f"non-finite log-weights at step {step} for tilt {tilts[a]:g}")
                log_mean, w = _normalized(logw)
                ens.ess = float(1.0 / np.sum(w**2))
                series[a, step - 1] = ens.lognorm + log_mean
                resampled = ens.ess < ESS_THRESHOLD * n
                if resampled:
                    if ens.ess <= 1.5:
                        collapses[a] += 1
                        if collapses[a] >= 3:
                            raise EnsembleCollapse(
                                "effective sample size collapsed repeatedly; increase "
                                "n_particles or reduce the potential's oscillation"
                            )
                    ens.lognorm += log_mean
                    idx = rng.choice(n, size=n, p=w)
                    b = owner[a]
                    if np.count_nonzero(owner == b) > 1:  # copy on resample
                        owner[a], live[G], G = G, True, G + 1
                    X[owner[a]] = X[b][idx]
                    ens.particles = X[owner[a]]
                    logw[:] = 0.0
                ens.history.append((step, ens.ess, resampled))
    except FloatingPointError as err:
        if not hasattr(err, "index"):
            raise
        a = int(np.argmax(owner == err.index[0]))
        raise FloatingPointError(str(err).replace(f"in tilt {err.index[0]}, ", f"in tilt {a}, ")) from None
    return series, ensembles, rng


def particle_fk(model, V, init, k, n_particles=1000, seed=0):
    """Sequential importance sampling with multinomial resampling: the one
    particle loop at the single tilt 1.

    Returns an :class:`FKResult` with the eigenvalue estimate (slope of the
    log-mass series over its last half), the terminal equal-weight cloud of
    ensemble states as the eigenmeasure estimate, and the full ensemble.
    """
    (series,), (ens,), rng = _particle_loop(model, V, init, k, n_particles, seed, (1.0,))
    lam, lam_err = fits.drift(series)
    # terminal equal-weight cloud
    idx = rng.choice(n_particles, size=n_particles, p=_normalized(ens.logweights)[1])
    return FKResult(
        lam=float(np.exp(lam)),
        lam_stderr=float(lam_err * np.exp(lam)),
        log_mass_series=series,
        mu_cloud=ens.particles[idx].copy(),
        ensemble=ens,
    )


def h_estimate(model, V, u0, k, lam, n_traj=2000, seed=0):
    """Eigenfunction value at u0: lam^-k times the Monte Carlo mass
    estimate, one dedicated ensemble per query point (no interpolation)."""
    ests, errs = mc_semigroup_series(model, V, lambda U: np.ones(U.shape[0]), u0, k, n_traj, rng_stream(seed, 0))
    scale = float(lam) ** (-k)
    return scale * float(ests[-1]), scale * float(errs[-1])


@dataclass
class PressureFit:
    Q: float
    stderr: float
    series: np.ndarray
    curvature: float
    accepted: bool


CURVATURE_TOL = 0.02  # largest |quadratic coefficient| per step of an accepted pressure tail
ESS_THRESHOLD = 0.5  # the particle loop resamples a tilt whose ESS falls below this fraction of n
RECENTER_TRAJ = 64  # ensemble size of pressure_curve's recentring run
MIN_TAIL_STEPS = 20  # shortest log-mass series a pressure fit reads


def _pressure_fit(series):
    """Pressure fit of one log-mass series: its tail drift with the
    batch-means stderr, rejected (``accepted=False``) when the tail's
    quadratic curvature exceeds ``CURVATURE_TOL`` per step, signalling that
    the asymptotic regime was not reached."""
    slope, err = fits.drift(series)
    half = series[len(series) // 2 :]
    quad = np.polyfit(np.arange(half.size, dtype=float), half, 2)[0]
    return PressureFit(
        Q=float(slope),
        stderr=float(err),
        series=series,
        curvature=float(quad),
        accepted=bool(abs(quad) <= CURVATURE_TOL),
    )


def pressure_estimate(model, V, u0, k_max=60, n_traj=4000, seed=0):
    """Pressure (exponential growth rate of the total weighted mass) from
    the tail slope of the log-mass series started at u0 (see
    :func:`_pressure_fit` for the stderr and the verdict)."""
    if k_max < MIN_TAIL_STEPS:
        raise ValueError(f"k_max must be at least {MIN_TAIL_STEPS} for a tail fit")
    series = particle_fk(model, V, u0, k_max, n_particles=n_traj, seed=seed).log_mass_series
    return _pressure_fit(series)


@dataclass
class PressureCurve:
    alphas: np.ndarray
    Q: np.ndarray
    stderr: np.ndarray
    sigma_V: float
    sigma_V_stderr: float
    convex: bool
    mean_shift: float
    accepted: np.ndarray  # each alpha's fit verdict (True at alpha = 0)


def pressure_curve(model, V, alphas, u0, k_max=60, n_traj=4000, seed=0, recenter_k=10_000):
    """Pressure along alpha -> Q(alpha V) with the CLT variance read off the
    second difference at the origin.

    The potential is always recentred so its mean under the (V = 0)
    stationary occupation (from ``recenter_k`` states) vanishes; the curve
    then has zero slope at 0 and its second difference estimates the CLT
    variance of the running average of V.  Every nonzero alpha runs
    ``n_traj`` particles for ``k_max`` steps in one lockstep particle system
    on shared kicks (common random numbers), so the tilts' log-mass series
    s_alpha are correlated.  Errors of combinations of them are therefore
    read off the combined series, with s_0 = 0.  The second difference at
    grid point i, with spacings h_- and h_+ to its neighbours, is the drift
    of c_- s_(i-1) - 2 s_i + c_+ s_(i+1) over h_- h_+, where
    c_- = 2 h_+ / (h_- + h_+) and c_+ = 2 h_- / (h_- + h_+) (both 1 on a
    uniform grid).  sigma_V and its stderr are its value at 0; the curve is
    convex when each drift is at least minus three of its stderrs.
    """
    alphas = np.asarray(sorted(set(float(a) for a in alphas) | {0.0}))
    i0 = int(np.flatnonzero(alphas == 0.0)[0])
    if i0 == 0 or i0 == len(alphas) - 1:
        raise ValueError("alpha grid must straddle zero")
    if k_max < MIN_TAIL_STEPS:
        raise ValueError(f"k_max must be at least {MIN_TAIL_STEPS} for a tail fit")
    if recenter_k < RECENTER_TRAJ:
        raise ValueError(f"recenter_k = {recenter_k} runs no recentring step; it must be at least {RECENTER_TRAJ}")
    U = initial_ensemble(model, u0, RECENTER_TRAJ)
    acc, cnt = 0.0, 0
    burn = min(200, recenter_k // 10)
    for k, U, _ in propagate(model, U, rng_stream(seed, 1), recenter_k // RECENTER_TRAJ):
        if k > burn // RECENTER_TRAJ:
            acc += float(V(U).sum())
            cnt += U.shape[0]
    shift = acc / cnt

    tilts = np.delete(alphas, i0)
    series, _, _ = _particle_loop(model, V.shifted(-shift), u0, k_max, n_traj, seed, tilts)
    tilt_fits = [_pressure_fit(s) for s in series]
    S = np.insert(series, i0, 0.0, axis=0)
    h_minus, h_plus = np.diff(alphas)[:-1, None], np.diff(alphas)[1:, None]
    c_minus, c_plus = 2 * h_plus / (h_minus + h_plus), 2 * h_minus / (h_minus + h_plus)
    second = np.array([fits.drift(d2) for d2 in c_minus * S[:-2] - 2 * S[1:-1] + c_plus * S[2:]])
    sigma, sigma_err = second[i0 - 1] / (h_minus[i0 - 1, 0] * h_plus[i0 - 1, 0])
    return PressureCurve(
        alphas=alphas,
        Q=np.insert([f.Q for f in tilt_fits], i0, 0.0),
        stderr=np.insert([f.stderr for f in tilt_fits], i0, 0.0),
        sigma_V=float(sigma),
        sigma_V_stderr=float(sigma_err),
        convex=bool(np.all(second[:, 0] >= -(3 * second[:, 1] + 1e-9))),
        mean_shift=float(shift),
        accepted=np.insert([f.accepted for f in tilt_fits], i0, True),
    )


@dataclass
class MetConvergenceReport:
    residuals: dict
    stderrs: dict
    gamma: float | None
    verdict: str


def met_convergence_mc(model, V, lam, h_at, mu_cloud, f_list, u0s, k_max, n_traj=4000, seed=0):
    """Residual decay |lam^-k P_k f(u) - <f, mu> h(u)| from Monte Carlo.

    ``h_at`` maps each start point (by row index) to its eigenfunction
    estimate; ``mu_cloud`` is an equal-weight eigenmeasure cloud of ensemble
    states (as from ``particle_fk``), which each f takes.  Rates are fitted
    only on residuals statistically resolvable above their Monte Carlo
    noise; otherwise the verdict is "inconclusive", not a fabricated rate.
    """
    u0s = np.atleast_2d(np.asarray(u0s, dtype=float))
    scale = np.array([float(lam) ** (-k) for k in range(1, k_max + 1)])
    residuals = {}
    stderrs = {}
    for fi, f in enumerate(f_list):
        mu_f = float(np.mean(f(mu_cloud)))
        for ui, u0 in enumerate(u0s):
            rng = rng_stream(seed, 1000 + fi * len(u0s) + ui)
            est, err = mc_semigroup_series(model, V, f, u0, k_max, n_traj, rng)
            residuals[(fi, ui)] = np.abs(scale * est[1:] - mu_f * h_at[ui])
            stderrs[(fi, ui)] = scale * err[1:]
    # pool the resolvable late-window part of every residual sequence (the
    # early steps mix transient modes and would bias the rate)
    ks_all, logs_all = [], []
    for key, res_k in residuals.items():
        kk, late = fits.late_half(res_k)
        resolvable = late > 3 * fits.late_half(stderrs[key])[1]
        if resolvable.sum() >= 3:
            ks_all.append(kk[resolvable])
            logs_all.append(np.log(late[resolvable]))
    if not ks_all:
        return MetConvergenceReport(residuals, stderrs, None, "inconclusive")
    ks = np.concatenate(ks_all)
    ls = np.concatenate(logs_all)
    if np.unique(ks).size < 3:
        return MetConvergenceReport(residuals, stderrs, None, "inconclusive")
    gamma = -fits.line(ks, ls)[0]
    verdict = "decaying" if gamma > 0 else "not-decaying"
    return MetConvergenceReport(residuals, stderrs, gamma, verdict)
