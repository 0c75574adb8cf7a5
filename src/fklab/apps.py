"""Occupation-measure statistics: level-1 large deviations, rate-function
evaluation on finite state spaces, and the law-of-large-numbers time.

Empirical tail probabilities use Wilson intervals; a cell whose interval
reaches zero is reported as unobservable rather than forced into a rate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fits, kernel_lab as kl
from .feynman_kac import PotentialFn
from .rds_core import FiniteChainModel, initial_ensemble, propagate, rng_stream

__all__ = [
    "path_average_samples",
    "ldp_level1",
    "rate_function_eval",
    "slln_time",
    "LdpReport",
    "SllnReport",
]


def path_average_samples(model, f, u0, k_set, n_traj, seed=0):
    """Samples of <f, zeta_k> = (1/k) sum_{n=0}^{k-1} f(u_n) for each k in
    ``k_set``, over one ensemble of ``n_traj`` rows from ``u0`` advanced by
    ``propagate`` on a shared stream.  ``f`` sees the model's ensemble
    states, so on a chain it is a value table (``PotentialFn.from_chain``).
    """
    k_set = sorted(int(k) for k in k_set)
    if not k_set or k_set[0] < 1:
        raise ValueError(f"k_set must list path lengths k >= 1, got {k_set}")
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


def ldp_level1(kernel, f_values, x_grid, k_set, n_traj, u0, seed=0):
    """Level-1 large deviations check for the path average of f, given by
    its values on the states of a finite kernel.  The exact side is the
    Legendre transform I(x) of Q(a) = log lam(a f) on A (``_legendre``).  The
    empirical side reports, per (x, k) cell, the raw rate
    -(1/k) log P(<f, zeta_k> >= x) with Wilson intervals, a slope-in-k fit
    per x and, for x above the mean, that rate less the sharp-deviation term
    log(a* sqrt(2 pi k Q''(a*)))/k at the exact tilt a*, the bias that
    dominates a single-k rate at desk-scale sample sizes."""
    x_grid = np.asarray(x_grid, dtype=float)
    if np.isnan(x_grid).any():
        raise ValueError(f"x_grid must hold numbers, got {x_grid.tolist()}")
    chain = FiniteChainModel.from_kernel(kernel)
    samples = path_average_samples(chain, PotentialFn.from_chain(chain, f_values), u0, k_set, n_traj, seed=seed)
    if np.ptp(np.concatenate(list(samples.values()))) == 0:
        raise ValueError("f is constant on the sampled trajectories")
    P = kernel.P[np.ix_(kernel.A, kernel.A)]
    f = np.asarray(f_values, dtype=float)[kernel.A]
    mean = kl.pressure_derivatives(P, np.zeros_like(f))[1] @ f
    exact = [_legendre(P, f, x, mean) for x in x_grid]
    cells = {}
    slope_rates = {}
    for x, (_, astar, qpp) in zip(x_grid, exact):
        observed = []
        for k in k_set:
            count = int((samples[k] >= x).sum())
            p, lo, hi = _wilson(count, n_traj)
            observable = count > 0 and lo > 0.0
            tilted = observable and astar is not None and astar > 0 and qpp > 0
            cells[(float(x), int(k))] = {
                "p": p, "lo": lo, "hi": hi, "observable": observable,
                "rate": -np.log(p) / k if observable else None,
                "rate_corrected": -(np.log(p) + np.log(astar * np.sqrt(2 * np.pi * k * qpp))) / k if tilted else None,
            }
            if observable:
                observed.append((k, np.log(p)))
        if len(observed) >= 3:
            slope_rates[float(x)] = -fits.line(*zip(*observed))[0]
    return LdpReport(
        x_grid=x_grid,
        k_set=sorted(k_set),
        legendre=np.array([rate for rate, _, _ in exact]),
        cells=cells,
        slope_rates=slope_rates,
        mean_f=float(np.mean(samples[max(k_set)])),
    )


def _legendre(P, f, x, mean):
    """(I(x), a*, Q''(a*)) for Q(a) = log lam(P tilted by a f), mean = Q'(0).
    Inside f's range, I(x) = sup over b of b y - Q(b g) (``_sup_tilt``), for
    g = s f - max(s f) and y = s x - max(s f), s the sign of x - mean, so
    that no tilt weight exceeds one.  At an end of the range,
    I(x) = -log rho(P on the states where f attains it); outside it, +inf."""
    if not f.min() < x < f.max():
        ends = np.flatnonzero(f == x)
        with np.errstate(divide="ignore"):
            return -np.log(np.abs(np.linalg.eigvals(P[np.ix_(ends, ends)])).max(initial=0.0)), None, None
    s = 1.0 if x >= mean else -1.0
    g = s * f - (s * f).max()
    rate, b, qpp = _sup_tilt(P, g[:, None], np.array([s * x - (s * f).max()]))
    return rate, s * b[0], qpp[0, 0]


def _sup_tilt(P, B, c):
    """(sup, theta*, H) of the concave <c, theta> - Q(B theta), Q(V) = log lam
    of the block P with columns tilted by exp(V), by Newton with gradient
    c - B^T pi_V and Hessian -H = -B^T Sigma_V B (``kl.pressure_derivatives``).
    A step changes no tilt weight by more than e^10 and is halved until it
    gains a quarter of its predicted gain.  ``RuntimeError`` when the sup is
    not attained: P reducible, a tilt that leaves float64, or no zero
    gradient within 100 steps."""
    theta = np.zeros(B.shape[1])
    try:
        with np.errstate(all="ignore"):
            Q, pi, Sigma = kl.pressure_derivatives(P, B @ theta)
            for _ in range(100):
                g, F, H = c - B.T @ pi, theta @ c - Q, B.T @ Sigma @ B
                if np.abs(g).max(initial=0.0) <= 1e-10:
                    return F, theta, H
                d = np.linalg.pinv(H) @ g  # least-norm step: H is singular along tilts that Q cannot see
                gain = g @ d  # below 1e-12 the objective cannot resolve it: full steps
                for t in min(1.0, 10 / np.abs(B @ d).max()) * 0.5 ** np.arange(40):
                    Q, pi, Sigma = kl.pressure_derivatives(P, B @ (theta + t * d))
                    if gain < 1e-12 or (theta + t * d) @ c - Q >= F + t * gain / 4:
                        break
                theta = theta + t * d
    except (ValueError, np.linalg.LinAlgError) as exc:
        raise RuntimeError(f"the sup is not attained: {exc}") from exc
    raise RuntimeError("the sup is not attained within 100 Newton steps")


def rate_function_eval(kernel, sigma):
    """Donsker-Varadhan rate I(sigma) = sup_V <V, sigma> - log lam_V at the
    probability vector sigma, by ``_sup_tilt`` over V on supp sigma (V off
    it only lowers lam_V), 0 on its last state (lam_(V + c) = e^c lam_V).
    +inf when sigma charges the complement of A or a state with no P-edge
    into supp sigma; ``RuntimeError`` when the sup is not attained, as when
    P on supp sigma is reducible."""
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape != (kernel.n,) or np.any(sigma < -1e-15):
        raise ValueError("sigma must be a probability vector on the states")
    if abs(sigma.sum() - 1.0) > 1e-9:
        raise ValueError("sigma must sum to one")
    outside = np.setdiff1d(np.arange(kernel.n), kernel.A)
    if outside.size and sigma[outside].sum() > 1e-12:
        return np.inf
    support = kernel.A[sigma[kernel.A] > 0]
    P, B = kernel.P[np.ix_(support, support)], np.eye(support.size)[:, :-1]
    if not P.any(axis=1).all():
        return np.inf
    return _sup_tilt(P, B, B.T @ sigma[support])[0]


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

