"""Per-coordinate maximal coupling of kicked trajectories.

Two copies of the system are driven so that their first N kicked
coordinates coincide as often as possible (each coordinate by a maximal
coupling of the two shifted kick laws) while the remaining coordinates
share literally the same kick draws.  On the all-agree event the pair
difference lives in the tail modes and contracts at the smoothing rate of
the map; the closed-form total-variation overlap serves as the exact oracle
for every coupling probability.

The couplings are sampled in state space: on the agreement event both
components are assigned the same float, so agreement is bitwise, and both
add the same tail-kick floats, so tail coordinates that the map sends to
equal values stay bitwise equal.  On the disagreement event the second
component is the reflection of the first about the midpoint of the two
means (reflection-maximal coupling, Bou-Rabee, Eberle and Zimmer 2020),
which needs no further random draws.  A batch of pairs is advanced by
one loop, :func:`coupled_trajectories`, on one stream.

``ks_test`` checks the coupled marginals against the kick law; from
``KS_ASYMP_MIN_N`` samples on it loads no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .feynman_kac import mc_semigroup_series
from .rds_core import rng_stream

__all__ = [
    "tv_shifted",
    "tv_lipschitz",
    "decoupling_constant",
    "coupled_step",
    "coupled_trajectories",
    "squeezing_check",
    "feller_bound_check",
    "kolmogorov_sf",
    "ks_test",
]

# from here on the KS p-value is the asymptotic one, within about 1% of the
# exact one, whose cost depends on the draws at large n
KS_ASYMP_MIN_N = 10_000
KOLMOGOROV_SWITCH = 0.82  # kolmogorov_sf's theta series below, alternating above


def tv_shifted(density, s):
    """Total variation distance between the density and its shift by s.

    For a symmetric unimodal density the two curves cross at s/2, so the
    distance is P(|xi| < |s|/2) = 2 CDF(|s|/2) - 1.
    """
    return float(2.0 * density.cdf(abs(float(s)) / 2.0) - 1.0)


def tv_lipschitz(density):
    """Largest slope of s -> TV(p, p(. - s)): the slope is p(s/2), largest
    at s = 0."""
    return float(density.pdf(0.0))


def decoupling_constant(law, N):
    """Union-bound constant: P(some coupled coordinate disagrees) is at most
    (sum over j <= N of Lip(TV)/b_j) times the state distance."""
    lip = tv_lipschitz(law.density)
    return float(lip * (1.0 / law.b[:N]).sum())


def _coupled_coordinates(density, m1, m2, b, rng):
    """Vectorized maximal coupling of the state laws m1 + b xi, m2 + b xi.

    Side 1 draws x1 = m1 + b xi and side 2 keeps it with probability
    min(1, p(xi + s) / p(xi)), s = (m1 - m2) / b; on the coupled event both
    outputs are the identical float.  Otherwise side 2 takes the reflection
    x2 = m2 - b xi of x1 about (m1 + m2) / 2: for a symmetric density the
    rejected xi follow the residual law of side 1, and their mirror images
    follow the residual law of side 2.  Returns (x1, x2, coupled).
    """
    m1 = np.asarray(m1, dtype=float)
    m2 = np.asarray(m2, dtype=float)
    b = np.broadcast_to(np.asarray(b, dtype=float), m1.shape)
    s = (m1 - m2) / b
    xi = density.sample(rng, m1.shape)
    accept = rng.uniform(0.0, 1.0, m1.shape) * density.pdf(xi) <= density.pdf(xi + s)
    x1 = m1 + b * xi
    x2 = np.where(accept, x1, m2 - b * xi)
    return x1, x2, accept


def coupled_step(model, N, U, U_prime, rng):
    """One step of a batch of coupled pairs (rows of U and U_prime).

    Coordinates j <= N: per-coordinate maximal coupling of the shifted kick
    laws.  Coordinates j > N (within the kick range): one draw added to both
    sides, so the tail kicks agree bitwise.  Returns
    (U1, U1_prime, coupled_mask), each with one row per pair.
    """
    n = U.shape[0]
    S = model.map.apply_batch(np.vstack([U, U_prime]))
    law = model.kicks
    N = int(min(N, law.dim))
    x1, x2, coupled = _coupled_coordinates(law.density, S[:n, :N], S[n:, :N], law.b[:N], rng)
    shared = law.b[N:] * law.density.sample(rng, (n, law.dim - N))
    V1, V2 = S[:n].copy(), S[n:].copy()
    V1[:, :N], V2[:, :N] = x1, x2
    V1[:, N : law.dim] += shared
    V2[:, N : law.dim] += shared
    return V1, V2, coupled


def kolmogorov_sf(lam):
    """Kolmogorov's limit law Q(lam) = lim P(D sqrt(n) > lam) =
    2 sum_{k>=1} (-1)^(k-1) exp(-2 k^2 lam^2) (Kolmogorov 1933).

    Below ``KOLMOGOROV_SWITCH`` it is read off the Jacobi theta form
    1 - (sqrt(2 pi) / lam) sum_{k>=1} exp(-(2k-1)^2 pi^2 / (8 lam^2)).
    Each series keeps four terms in nested form, as in Marsaglia, Tsang and
    Wang (2003, J. Stat. Softw. 8(18)) and scipy.special.kolmogorov, whose
    values this matches bitwise.  The result is clipped to [0, 1].
    """
    if lam <= 0.04:  # exp(-pi^2 / (8 lam^2)) underflows to 0
        return 1.0
    if lam <= KOLMOGOROV_SWITCH:
        logu = -math.pi**2 / 8 / (lam * lam)
        u, u8 = math.exp(logu), math.exp(8 * logu)
        # u (1 + u^8 + u^24 + u^48)
        q = 1 - math.sqrt(2 * math.pi) / lam * u * (1 + u8 * (1 + u8 * u8 * (1 + u8**3)))
    else:
        v = math.exp(-2 * lam * lam)
        v3 = v**3
        # 2 (v - v^4 + v^9 - v^16)
        q = 2 * v * (1 - v3 * (1 - v3 * v * v * (1 - v3 * v3 * v)))
    return min(max(q, 0.0), 1.0)


def ks_test(x, cdf):
    """Two-sided one-sample Kolmogorov-Smirnov test of the sample ``x``
    against the continuous distribution function ``cdf``: (D, p-value).

    D = max(D+, D-) over the sorted sample, with D+ = max(i/n - F(x_(i)))
    and D- = max(F(x_(i)) - (i-1)/n), computed as scipy.stats.kstest does,
    so it is scipy's D bitwise.  From ``KS_ASYMP_MIN_N`` samples on the
    p-value is ``kolmogorov_sf(D sqrt(n))`` (scipy's ``method="asymp"``);
    below, it is the exact ``scipy.stats.kstwo.sf(D, n)``.
    """
    x = np.sort(np.asarray(x, dtype=float))
    n = x.size
    F = cdf(x)
    d_plus = (np.arange(1.0, n + 1) / n - F).max()
    D = float(max(d_plus, (F - np.arange(0.0, n) / n).max()))
    if n >= KS_ASYMP_MIN_N:
        return D, kolmogorov_sf(D * math.sqrt(n))
    from scipy.stats import kstwo  # +72 MiB and about 1 s: only on this branch

    return D, float(np.clip(kstwo.sf(D, n), 0.0, 1.0))


def coupled_trajectories(model, N, pairs, K, seed=0):
    """Run the (n, 2, dim) batch of start pairs ``pairs`` for K coupled
    steps on stream (seed, 0), every pair at every step.

    Returns ``(states, flags)``: the (K+1, n, 2, dim) states and the
    (K, n, N) agreement flags of the first N kicked coordinates (N capped
    at the kick dimension).
    """
    pairs = np.asarray(pairs, dtype=float)
    states = np.empty((K + 1,) + pairs.shape)
    states[0] = pairs
    flags = np.empty((K, len(pairs), int(min(N, model.kicks.dim))), dtype=bool)
    rng = rng_stream(seed, 0)
    for k in range(K):
        u, up, flags[k] = coupled_step(model, N, states[k, :, 0], states[k, :, 1], rng)
        states[k + 1] = np.stack([u, up], axis=1)
    return states, flags


@dataclass
class SqueezingReport:
    ratios: dict
    occurrences: dict
    gamma_N: float
    verdict: str


def squeezing_check(model, N, pairs, r_max, gamma_N, seed=0, tol=1e-2):
    """On the all-agree event through step r, the pair distance must obey
    ||u_r - u'_r|| <= (1 + tol) gamma_N^r ||u_0 - u'_0||.

    ``pairs`` is an (n, 2, dim) array of initial pairs, advanced as one
    batch by :func:`coupled_trajectories`; the all-agree event is the
    running AND of its flags.  Degenerate pairs (u_0 = u'_0) are advanced
    but never counted.  ``gamma_N`` is the empirical smoothing constant
    from the map-condition check.  Pairs whose agreement event never occurs
    make the report inconclusive at that r.
    """
    pairs = np.asarray(pairs, dtype=float)
    states, flags = coupled_trajectories(model, N, pairs, r_max, seed)
    base = np.linalg.norm(pairs[:, 0] - pairs[:, 1], axis=1)
    agreed = np.logical_and.accumulate(flags.all(axis=2), axis=0) & (base > 0)
    ratios, occurrences = {}, {}
    for r in range(1, r_max + 1):
        keep = agreed[r - 1]
        d = np.linalg.norm(states[r, keep, 0] - states[r, keep, 1], axis=1)
        ratios[r] = d / (gamma_N**r * base[keep])
        occurrences[r] = int(keep.sum())
    worst = max((v.max() for v in ratios.values() if v.size), default=None)
    verdict = "inconclusive" if worst is None else "pass" if worst <= 1.0 + tol else "fail"
    return SqueezingReport(ratios=ratios, occurrences=occurrences, gamma_N=gamma_N, verdict=verdict)


@dataclass
class FellerCheckReport:
    C: float
    per_k_C: np.ndarray
    growing: bool
    inconclusive: list


def feller_bound_check(model, V, f_list, pairs, k_max, c, sup_mass, n_traj=4000, seed=0):
    """Smallest empirical constant C making the refined Feller bound hold
    over the sampled functions, pairs, and horizons.

    ``sup_mass[k-1]`` must estimate the sup over the attainable cloud of
    the weighted total mass at horizon k.  Function fi from side s of pair
    pi draws from stream ``(seed, 2 (fi len(pairs) + pi) + s)``, one stream
    per cell.  Cells whose Monte Carlo noise exceeds the bound's slack are
    recorded as inconclusive.
    """
    pairs = np.asarray(pairs, dtype=float)
    per_k = np.zeros(k_max)
    inconclusive = []
    for fi, (f, sup_f, lip_f) in enumerate(f_list):
        for pi, (v, vp) in enumerate(pairs):
            dist = np.linalg.norm(v - vp)
            if dist == 0:
                continue
            # every horizon from one pass per side: the horizons share the
            # side's stream, so horizon k reads the prefix of length k
            cell = 2 * (fi * len(pairs) + pi)
            e1, s1 = mc_semigroup_series(model, V, f, v, k_max, n_traj, rng_stream(seed, cell))
            e2, s2 = mc_semigroup_series(model, V, f, vp, k_max, n_traj, rng_stream(seed, cell + 1))
            for k in range(1, k_max + 1):
                lhs = abs(e1[k] - e2[k])
                noise = 3 * np.hypot(s1[k], s2[k])
                denom = sup_mass[k - 1] * dist
                need = (lhs / denom - (c**k) * lip_f) / max(sup_f, 1e-300)
                if lhs < noise and need > per_k[k - 1]:
                    inconclusive.append({"f": fi, "pair": pi, "k": k})
                    continue
                per_k[k - 1] = max(per_k[k - 1], need)
    per_k = np.maximum(per_k, 0.0)
    C = float(per_k.max())
    tail = per_k[k_max // 2 :]
    growing = bool(tail.size >= 2 and np.all(np.diff(tail) > 1e-12))
    return FellerCheckReport(C=C, per_k_C=per_k, growing=growing, inconclusive=inconclusive)
