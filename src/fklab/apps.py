"""Occupation-measure statistics: level-1 large deviations, rate-function
evaluation on finite state spaces, and the law-of-large-numbers time.

Empirical tail probabilities use Wilson intervals; a cell whose interval
reaches zero is reported as unobservable rather than forced into a rate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fits, kernel_lab as kl
from .measure_metrics import DiscreteMeasure
from .rds_core import initial_ensemble, propagate, rng_stream

__all__ = [
    "occupation_measure",
    "path_average_samples",
    "ldp_level1",
    "rate_function_eval",
    "default_v_family",
    "slln_time",
    "LdpReport",
    "SllnReport",
]


def occupation_measure(trajectory, k) -> DiscreteMeasure:
    """Equal-weight empirical measure on the first k states u_0..u_{k-1}."""
    if k < 1:
        raise ValueError("k must be >= 1")
    states = trajectory.states if hasattr(trajectory, "states") else np.asarray(trajectory)
    if states.shape[0] < k:
        raise ValueError("trajectory shorter than k")
    pts = np.atleast_2d(states[:k])
    return DiscreteMeasure(pts, np.full(pts.shape[0], 1.0 / k))


def path_average_samples(model, f, u0, k_set, n_traj, seed=0):
    """Samples of <f, zeta_k> = (1/k) sum_{n=0}^{k-1} f(u_n) for each k in
    ``k_set``, over one ensemble of ``n_traj`` rows from ``u0`` advanced by
    ``propagate`` on a shared stream.  ``f`` sees the model's ensemble
    states, so on a chain it is a value table (``PotentialFn.from_chain``).
    """
    k_set = sorted(int(k) for k in k_set)
    U = initial_ensemble(model, u0, n_traj)
    acc = np.asarray(f(U), dtype=float).copy()
    out = {1: acc.copy()} if 1 in k_set else {}
    for n, U, _ in propagate(model, U, rng_stream(seed, 0), k_set[-1] - 1):
        acc += f(U)
        if n + 1 in k_set:
            out[n + 1] = acc / (n + 1)
    return {k: out[k] for k in k_set}


def _wilson(count, n, z=1.959963984540054):
    """Wilson score interval for a binomial proportion."""
    if n == 0:
        return 0.0, 0.0, 1.0
    p = count / n
    denom = 1 + z**2 / n
    center = (p + z**2 / (2 * n)) / denom
    half = z * np.sqrt(p * (1 - p) / n + z**2 / (4 * n**2)) / denom
    return p, max(0.0, center - half), min(1.0, center + half)


@dataclass
class LdpReport:
    x_grid: np.ndarray
    k_set: list
    legendre: np.ndarray
    cells: dict  # (x, k) -> {"p":, "lo":, "hi":, "rate":, "observable":}
    slope_rates: dict  # x -> rate fitted across k (when >= 3 observable cells)
    mean_f: float


def ldp_level1(model, f, x_grid, k_set, n_traj, pressure_fn, alphas, u0, seed=0):
    """Level-1 large deviations check for the path average of f.

    ``pressure_fn(alpha)`` must return Q(alpha f) (exact tilted-eigenvalue
    computation on finite chains, Monte Carlo otherwise).  The Legendre
    transform over the alpha grid gives the rate bound.  The empirical side
    reports, per (x, k) cell, the raw rate -(1/k) log P(<f, zeta_k> >= x)
    with Wilson intervals; a slope-in-k fit per x; and a prefactor-corrected
    rate that subtracts the first-order sharp-deviation term
    log(a* sqrt(2 pi k Q''(a*)))/k, since at desk-scale sample sizes the raw
    single-k rate is dominated by exactly that bias.
    """
    samples = path_average_samples(model, f, u0, k_set, n_traj, seed=seed)
    all_samples = np.concatenate(list(samples.values()))
    if np.ptp(all_samples) == 0:
        raise ValueError("f is constant on the sampled trajectories")
    Q = {a: pressure_fn(a) for a in alphas}
    x_grid = np.asarray(x_grid, dtype=float)
    legendre = np.array([max(a * x - Q[a] for a in alphas) for x in x_grid])
    a_hi = float(max(alphas))
    cells = {}
    slope_rates = {}
    for xi, x in enumerate(x_grid):
        astar = _tilt_parameter(pressure_fn, x, a_hi)
        obs_ks, obs_logp = [], []
        for k in k_set:
            count = int((samples[k] >= x).sum())
            p, lo, hi = _wilson(count, n_traj)
            observable = count > 0 and lo > 0.0
            rate = -np.log(p) / k if observable else None
            corrected = None
            if observable and astar is not None:
                h = 1e-3
                qpp = (pressure_fn(astar + h) - 2 * pressure_fn(astar) + pressure_fn(astar - h)) / h**2
                if qpp > 0:
                    pref = np.log(astar * np.sqrt(2 * np.pi * k * qpp))
                    corrected = -(np.log(p) + pref) / k
            cells[(float(x), int(k))] = {
                "p": p,
                "lo": lo,
                "hi": hi,
                "rate": rate,
                "rate_corrected": corrected,
                "observable": observable,
            }
            if observable:
                obs_ks.append(k)
                obs_logp.append(np.log(p))
        if len(obs_ks) >= 3:
            slope_rates[float(x)] = -fits.line(obs_ks, obs_logp)[0]
    mean_f = float(np.mean(samples[max(k_set)]))
    return LdpReport(
        x_grid=x_grid,
        k_set=sorted(k_set),
        legendre=legendre,
        cells=cells,
        slope_rates=slope_rates,
        mean_f=mean_f,
    )


def _tilt_parameter(pressure_fn, x, a_hi, h=1e-4):
    """Solve Q'(a) = x by bisection; None when x is outside the grid range
    or at most the mean (no positive tilt)."""
    from scipy.optimize import brentq

    def qp(a):
        return (pressure_fn(a + h) - pressure_fn(a - h)) / (2 * h)

    try:
        lo, hi = 1e-6, a_hi
        if qp(lo) >= x or qp(hi) <= x:
            return None
        return float(brentq(lambda a: qp(a) - x, lo, hi))
    except ValueError:
        return None


POLY_SCALE = 0.5  # height of the coordinate polynomials in default_v_family
V_SCALES = (0.5, 1.0, 2.0, 4.0)  # the positive rescalings rate_function_eval tries


def default_v_family(kernel):
    """Finite potential family for the rate-function evaluation: smoothed
    bumps (both signs) at every invariant-set state plus low-order
    coordinate polynomials."""
    bumps = kl._bumps(kernel)
    fam = [np.zeros(kernel.n)]
    for a in kernel.A:
        fam += [bumps[a], -bumps[a]]
    pts = kernel.points
    for j in range(pts.shape[1]):
        x = pts[:, j]
        span = np.ptp(x) or 1.0
        fam.append(POLY_SCALE * (x - x.mean()) / span)
        fam.append(POLY_SCALE * ((x - x.mean()) / span) ** 2)
    return fam


def rate_function_eval(kernel, sigma, v_family):
    """Lower bound for the level-2 rate function at the probability vector
    sigma: sup over the family (and positive rescalings) of
    <V, sigma> - log lambda_V, exact through tilted-eigenvalue solves.

    Returns +inf when sigma puts mass outside the invariant set.
    """
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape != (kernel.n,) or np.any(sigma < -1e-15):
        raise ValueError("sigma must be a probability vector on the states")
    if abs(sigma.sum() - 1.0) > 1e-9:
        raise ValueError("sigma must sum to one")
    outside = np.setdiff1d(np.arange(kernel.n), kernel.A)
    if outside.size and sigma[outside].sum() > 1e-12:
        return np.inf
    best = 0.0
    for base in v_family:
        for s in V_SCALES:
            values = s * np.asarray(base, dtype=float)
            V = kl.PotentialVector.from_values(kernel, values)
            lam = kl.perron_triple(kl.build_tilted_matrix(kernel, V), kernel.A).lam
            best = max(best, float(values @ sigma - np.log(lam)))
    return best


@dataclass
class SllnReport:
    T: np.ndarray
    censored_fraction: float
    tail_ms: np.ndarray
    tail_p: np.ndarray
    exp_r2: float
    poly_r2: float
    exp_slopes: list
    verdict: str


def slln_time(paths_f, mu_f, eps, C=1.0):
    """Per-trajectory time after which the running average of f stays within
    the envelope C k^(-1/2+eps) of its stationary mean.

    ``paths_f`` is an (n_traj, K) array of f values along trajectories
    (f(u_1), ..., f(u_K)).  T = 1 + the last k violating the envelope
    (T = 1 when no violation).  The tail of T is fitted both as exponential
    (log p vs m) and polynomial (log p vs log m); the verdict reports which
    fits better, and the exponential fit's slope across nested windows,
    whose drift toward zero indicates a heavier-than-exponential tail.  A
    tail with fewer than three positive points, or a flat one, is
    "insufficient-tail".  This is a diagnostic, not a proof.
    """
    paths_f = np.asarray(paths_f, dtype=float)
    n, K = paths_f.shape
    ks = np.arange(1, K + 1, dtype=float)
    running = np.cumsum(paths_f, axis=1) / ks[None, :]
    envelope = C * ks ** (-0.5 + eps)
    violations = np.abs(running - mu_f) > envelope[None, :]
    T = np.ones(n, dtype=int)
    any_viol = violations.any(axis=1)
    last = K - 1 - np.argmax(violations[:, ::-1], axis=1)
    T[any_viol] = last[any_viol] + 2  # +1 for 1-based k, +1 for "after"
    censored = float((T > K).mean())

    ms = np.unique(np.concatenate([[1], np.geomspace(1, max(T.max(), 2), 24).astype(int)]))
    tail = np.array([(T > m).mean() for m in ms])
    keep = tail > 0
    ms_k, tail_k = ms[keep], tail[keep]
    exp_r2 = poly_r2 = np.nan
    slopes = []
    if ms_k.size >= 3 and tail_k.min() < tail_k.max():
        exp_r2 = fits.line(ms_k, np.log(tail_k))[2]
        poly_r2 = fits.line(np.log(ms_k), np.log(tail_k))[2]
        for frac in (1.0, 0.5, 0.25):
            sub = ms_k >= ms_k.max() * (1 - frac)
            if sub.sum() >= 3:
                slopes.append(fits.line(ms_k[sub], np.log(tail_k[sub]))[0])
    if np.isnan(exp_r2):
        verdict = "insufficient-tail"
    elif poly_r2 > exp_r2 + 0.01:
        verdict = "heavy-tail-favored"
    elif len(slopes) >= 2 and abs(slopes[-1]) < 0.5 * abs(slopes[0]):
        verdict = "exponential-fit-degrades"
    else:
        verdict = "exponential-not-rejected"
    return SllnReport(
        T=T,
        censored_fraction=censored,
        tail_ms=ms_k,
        tail_p=tail_k,
        exp_r2=float(exp_r2),
        poly_r2=float(poly_r2),
        exp_slopes=slopes,
        verdict=verdict,
    )

