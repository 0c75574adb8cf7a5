import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fklab import feynman_kac as fk
from fklab import fits
from fklab import kernel_lab as kl
from fklab import measure_metrics
from fklab import rds_core as rc


def random_kernel_potential(rng, n, strict_subset=False, v_scale=1.0):
    """Random embedded kernel + Lipschitz potential.

    When ``strict_subset`` is set, A is a proper subset and the rows outside
    A are rescaled so the complement block stays spectrally dominated by the
    A-block (the regime in which the eigenfunction extension is well posed).
    """
    d = int(rng.integers(1, 4))
    pts = rng.uniform(-1, 1, size=(n, d))
    if strict_subset and n >= 3:
        nA = int(rng.integers(2, n))
        A = np.sort(rng.choice(n, size=nA, replace=False))
    else:
        A = np.arange(n)
    P = rng.uniform(0.05, 1.0, size=(n, n))
    P *= rng.uniform(0.5, 1.5, size=(n, 1))
    outside = np.setdiff1d(np.arange(n), A)
    values = rng.uniform(-v_scale, v_scale, size=n)
    if outside.size:
        P[np.ix_(A, outside)] = 0.0
        M = P * np.exp(values)[None, :]
        lamA = np.abs(np.linalg.eigvals(M[np.ix_(A, A)])).max()
        rowsum = M[np.ix_(outside, outside)].sum(axis=1).max()
        if rowsum > 0.5 * lamA:
            P[outside, :] *= 0.5 * lamA / rowsum
    kernel = kl.FiniteKernel(points=pts, P=P, A=A)
    return kernel, kl.PotentialVector.from_values(kernel, values)


def random_stochastic_chain(rng, n, d=1, spread=2.0):
    """Row-stochastic kernel on n line/plane points (an honest Markov chain)."""
    pts = np.sort(rng.uniform(-spread, spread, size=(n, d)), axis=0)
    P = rng.uniform(0.05, 1.0, size=(n, n))
    P /= P.sum(axis=1, keepdims=True)
    return kl.FiniteKernel(points=pts, P=P, A=np.arange(n))


def dense_perron_triple(M, A):
    """Dense eigensolver oracle mirroring the block structure."""
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    A = np.asarray(A, dtype=int)
    comp = np.setdiff1d(np.arange(n), A)
    MA = M[np.ix_(A, A)]
    w, Vr = np.linalg.eig(MA)
    lam = w.real[np.argmax(w.real)]
    hA = np.abs(Vr[:, np.argmax(w.real)].real)
    wl, Vl = np.linalg.eig(MA.T)
    muA = np.abs(Vl[:, np.argmax(wl.real)].real)
    h = np.zeros(n)
    h[A] = hA
    if comp.size:
        h[comp] = np.linalg.solve(
            lam * np.eye(comp.size) - M[np.ix_(comp, comp)], M[np.ix_(comp, A)] @ hA
        )
    mu = np.zeros(n)
    mu[A] = muA / muA.sum()
    h /= h @ mu
    return lam, h, mu


def normalized_semigroup_apply(M, triple, g, k):
    """Markov-normalized semigroup oracle: lam^-k h^-1 M^k (g h).

    With ``g = 1`` the result is the constant one vector for every ``k``.
    """
    if not triple.extension_ok:
        raise ValueError("h off A is a Cesaro surrogate, not an eigenfunction (extension_ok is false)")
    if np.any(triple.h == 0):
        raise ValueError("eigenfunction has a zero entry")
    v = np.asarray(g, dtype=float) * triple.h
    M = np.asarray(M, dtype=float)
    for _ in range(int(k)):
        v = M @ v / triple.lam
    return v / triple.h


def brute_force_attraction_counter(model, cloud, eps, u0s, n_traj, horizon, seed):
    """``rds_core.attraction_counter`` with one kd-tree query for every
    active row at every step (no cached bound): the report's counts,
    censored fraction and tail fit, and the number of rows queried, as a
    dict."""
    from scipy.spatial import cKDTree

    tree = cKDTree(cloud)
    spacing = tree.query(cloud, k=2)[0][:, 1].max()
    u0s = np.atleast_2d(np.asarray(u0s, dtype=float))
    U = np.repeat(u0s, int(np.ceil(n_traj / u0s.shape[0])), axis=0)[:n_traj].copy()
    n = U.shape[0]
    counts = np.zeros(n, dtype=int)
    settled = np.zeros(n, dtype=int)
    active = np.ones(n, dtype=bool)
    queried = 0
    cf = model.contraction_factor
    can_settle = cf is not None and cf < 1 and rc.SETTLE_FRAC * cf + spacing / eps <= 0.95
    for _, U, _ in rc.propagate(model, U, rc.rng_stream(seed, 0), horizon, active=active):
        idx = np.flatnonzero(active)
        dist = tree.query(U[idx])[0]
        queried += idx.size
        counts[idx] += dist > eps
        if can_settle:
            settled[idx] = np.where(dist <= rc.SETTLE_FRAC * eps, settled[idx] + 1, 0)
            active[idx[settled[idx] >= rc.SETTLE_STEPS]] = False
    ms = np.arange(1, counts.max() + 1) if counts.max() > 0 else np.array([1])
    tail = np.array([(counts >= m).mean() for m in ms])
    keep = tail > 0
    if keep.sum() >= 2:
        slope, intercept, _ = fits.line(ms[keep], np.log(tail[keep]))
        delta, Lambda = -slope, float(np.exp(intercept))
    else:
        delta, Lambda = np.inf, 1.0
    alpha = delta / 2 if np.isfinite(delta) else 1.0
    return {
        "counts": counts,
        "censored_fraction": float(active.sum()) / n,
        "delta": delta,
        "Lambda": Lambda,
        "alpha_moment": float(np.exp(np.minimum(alpha * counts, 700)).mean()),
        "settling_shortcut": bool(can_settle),
        "queried_rows": queried,
    }


def reference_particle_loop(model, V, init, k, n, seed, tilts):
    """``feynman_kac._particle_loop`` with one (n, d) copy of the state per
    tilt: all A copies are stepped, checked and scored every step, and each
    tilt resamples its own copy in place.  The oracle of the block-sharing
    loop, whose outputs and stream must equal these bitwise."""
    tilts = np.asarray(tilts, dtype=float)
    rng = rc.rng_stream(seed, 0)
    X = np.repeat(rc.initial_ensemble(model, init, n)[None], tilts.size, axis=0)
    ensembles = [
        fk.WeightedEnsemble(particles=X[a], logweights=np.zeros(n), lognorm=0.0, ess=float(n))
        for a in range(tilts.size)
    ]

    def tilted(Y):
        return tilts[:, None] * V(Y.reshape(-1, Y.shape[-1])).reshape(Y.shape[:-1])

    series = np.empty((tilts.size, k))
    collapses = np.zeros(tilts.size, dtype=int)
    for step, X, logws in rc.propagate(model, X, rng, k, tilted):
        for a, (ens, logw) in enumerate(zip(ensembles, logws)):
            if not np.isfinite(logw.max()):
                raise FloatingPointError(f"non-finite log-weights at step {step} for tilt {tilts[a]:g}")
            ens.logweights = logw
            log_mean, w = fk._normalized(logw)
            ens.ess = float(1.0 / np.sum(w**2))
            series[a, step - 1] = ens.lognorm + log_mean
            resampled = ens.ess < fk.ESS_THRESHOLD * n
            if resampled:
                if ens.ess <= 1.5:
                    collapses[a] += 1
                    if collapses[a] >= 3:
                        raise fk.EnsembleCollapse("effective sample size collapsed repeatedly")
                ens.lognorm += log_mean
                idx = rng.choice(n, size=n, p=w)
                ens.particles[:] = ens.particles[idx]
                logw[:] = 0.0
            ens.history.append((step, ens.ess, resampled))
    return series, ensembles, rng


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def path_searches(monkeypatch):
    """The (sources, sinks) shape of each transport that
    ``measure_metrics._cost_curve`` is asked to solve while the test runs."""
    calls = []
    curve = measure_metrics._cost_curve

    def counting(cost, *args):
        calls.append(cost.shape)
        return curve(cost, *args)

    monkeypatch.setattr(measure_metrics, "_cost_curve", counting)
    return calls


def fresh_process(*args):
    """The finished run of ``python *args`` in a fresh interpreter on this checkout's ``src``."""
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def fresh_python(code, *args):
    """Standard output of ``code`` run in a fresh interpreter on this checkout's ``src``."""
    proc = fresh_process("-c", code, *args)
    proc.check_returncode()
    return proc.stdout


def lp_dual_lipschitz(pts, c):
    """HiGHS oracle for the dual-Lipschitz value of the signed weights ``c``
    of mu1 - mu2 on ``pts``: the LP in (f_1..f_m, s, t) minimising -<f, c>,
    in rows +F - S <= 0, then -F - S <= 0, for the forms F = f_i (slack
    S = s) and f_i - f_j (i < j, S = t d_ij), then s + t <= 1.  Its
    variable is T = t dmax, so that the distance rows read d_ij / dmax and
    HiGHS's absolute tolerances hold at every coordinate scale; below
    dmax = 1e-9 the coefficient 1 / dmax is more than HiGHS takes, and T = t."""
    m = pts.shape[0]
    if np.abs(c).max() == 0:
        return 0.0
    iu, ju = np.triu_indices(m, k=1)
    n = m + iu.size
    r = np.concatenate([np.arange(n), np.arange(m, n), np.arange(n)])  # the entries of the rows +F - S
    k = np.concatenate([np.arange(m), iu, ju, np.repeat([m, m + 1], [m, iu.size])])
    form = np.concatenate([np.ones(n), -np.ones(iu.size)])
    d = measure_metrics.distances(pts, pts)[iu, ju]
    dmax = d.max(initial=0.0) if d.max(initial=0.0) > 1e-9 else 1.0
    slack = -np.concatenate([np.ones(m), d / dmax])
    rows, cols = np.concatenate([r, r + n, [2 * n, 2 * n]]), np.concatenate([k, k, [m, m + 1]])
    vals = np.concatenate([form, slack, -form, slack, [1.0, 1.0 / dmax]])
    lo, hi = np.full(2 * n + 1, -np.inf), np.concatenate([np.zeros(2 * n), [1.0]])
    lb = np.concatenate([np.full(m, -np.inf), [0.0, 0.0]])
    obj = np.concatenate([-c, [0.0, 0.0]])
    res = measure_metrics.linprog(obj, rows, cols, vals, lo, hi, lb)
    assert res.success, res.message
    return max(0.0, -float(obj @ res.x))


def lp_transport(pts, c, theta):
    """HiGHS oracle for K_theta of the signed weights ``c`` of mu1 - mu2 on
    ``pts``: the plan LP moving c+ onto c- (row sums c+, column sums c-, the
    redundant last equality dropped).  It is solved at costs divided by the
    largest one and scaled back (the value is homogeneous in the costs), so
    that HiGHS's absolute tolerances hold at every coordinate scale."""
    pos, neg = c > 0, c < 0
    src, dst = c[pos], -c[neg]
    m, n = src.size, dst.size
    if m == 0 or n == 0:
        return 0.0
    cost = np.minimum(1.0, theta * measure_metrics.distances(pts[pos], pts[neg])).ravel()
    k = np.arange(m * n)  # the plan entry (i, j) is variable i n + j, in rows i and m + j
    kc = k[k % n < n - 1]  # no row m + n - 1: the last column sum is dropped
    rows, cols = np.concatenate([k // n, m + kc % n]), np.concatenate([k, kc])
    b = np.concatenate([src, dst[:-1]])
    res = measure_metrics.linprog(cost / (cost.max() or 1.0), rows, cols, np.ones(cols.size), b, b, np.zeros(m * n))
    assert res.success, res.message
    return float(cost @ res.x)


@st.composite
def generated_kernels(draw, reducible=False):
    """A kernel on 2-8 states with a random invariant set ``A`` and a
    potential.  A's states lie on a random cycle; other entries of the
    A-block are sparse and go only from one of d cyclic classes to the
    next, so the block is irreducible with period d (d > 1 is a cyclic
    block).  With ``reducible``, A splits into two classes instead, and
    the second never reaches the first.  Sparse rows off A leak anywhere,
    into A included."""
    n = draw(st.integers(2, 8))
    n_A = draw(st.integers(2 if reducible else 1, n))
    order = np.array(draw(st.permutations(range(n))))
    A, comp = order[:n_A], order[n_A:]  # A's states in cycle order
    W = draw(arrays(float, (n, n), elements=st.floats(0.05, 1.0)))
    keep = draw(arrays(bool, (n, n)))
    pos = np.zeros(n, dtype=int)
    pos[A] = np.arange(n_A)
    if reducible:
        split = draw(st.integers(1, n_A - 1))  # A[split:] never reaches A[:split]
        allowed = (pos[:, None] < split) | (pos[None, :] >= split)
        keep[A, A] = True  # a self-loop keeps every row's mass positive
    else:
        d = draw(st.sampled_from([d for d in range(1, n_A + 1) if n_A % d == 0]))
        allowed = (pos[None, :] - pos[:, None] - 1) % d == 0
        keep[A, np.roll(A, -1)] = True  # the cycle
    on_A = np.zeros((n, n), dtype=bool)
    on_A[np.ix_(A, A)] = True
    P = np.where(keep & allowed & on_A, W, 0.0)
    P[comp] = np.where(keep[comp], W[comp], 0.0)
    P[comp, A[0]] = W[comp, A[0]]  # every transient state leaks into A
    K = kl.FiniteKernel(points=np.arange(n, dtype=float)[:, None], P=P, A=A)
    return K, kl.PotentialVector.from_values(K, draw(arrays(float, n, elements=st.floats(-1.0, 1.0))))
