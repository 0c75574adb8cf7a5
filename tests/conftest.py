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


def etdrk2_burgers(nu, modes, dt, U):
    """The Burgers time-one map as ETDRK2 integrates it, all rows at once:
    1/dt steps on the M-mode Galerkin system, diffusion exact through the
    ETDRK2 factors and the quadratic term on the alias-free 4M grid by FFTs.
    Second order in dt; the oracle of the exact Cole-Hopf map."""
    M, G = modes, 4 * modes
    j = np.arange(1, M + 1)
    z = -nu * j**2 * dt
    E, phi1, phi2 = np.exp(z), np.expm1(z) / z, (np.expm1(z) - z) / z**2
    Z = (U[:, 0::2] - 1j * U[:, 1::2]) / (2 * np.sqrt(np.pi))

    def nonlinear(Z):
        spec = np.zeros((Z.shape[0], G // 2 + 1), dtype=complex)
        spec[:, 1 : M + 1] = G * Z
        u = np.fft.irfft(spec, n=G, axis=-1)
        return -0.5j * j * (np.fft.rfft(u * u, axis=-1) / G)[:, 1 : M + 1]

    for _ in range(int(round(1.0 / dt))):
        N0 = nonlinear(Z)
        Za = E * Z + dt * phi1 * N0
        Z = Za + dt * phi2 * (nonlinear(Za) - N0)
    out = np.empty_like(U)
    out[:, 0::2] = 2 * np.sqrt(np.pi) * Z.real
    out[:, 1::2] = -2 * np.sqrt(np.pi) * Z.imag
    return out


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


def _exact(a):
    """The floats of ``a`` as exact fractions, in an object array of its shape."""
    from fractions import Fraction

    return np.array([Fraction(x) for x in np.ravel(a)], dtype=object).reshape(np.shape(a))


def _highs(obj, **lp):
    """``scipy.optimize.linprog`` by HiGHS at the tolerances the library passes it, duals included."""
    from scipy.optimize import linprog

    res = linprog(obj, method="highs", options=dict(measure_metrics._HIGHS_TOLERANCES), **lp)
    assert res.status == 0, res.message
    return res


def _marginals(m, n):
    """The rows summing an m x n plan, raveled row-major: its m row sums, then its n column sums."""
    return np.vstack([np.kron(np.eye(m), np.ones(n)), np.kron(np.ones(m), np.eye(n))])


def transport_bounds(pts, c, theta):
    """Bounds lo <= K_theta <= hi for the signed weights ``c`` of mu1 - mu2 on
    ``pts``, certified in exact arithmetic from HiGHS's solution of the plan
    LP moving c+ onto c- (its last column sum dropped, its costs divided by
    the largest, so that its absolute tolerances hold at every coordinate
    scale), whatever its tolerances.  hi: its plan x clipped at 0 costs
    cost @ x, and evening out x's marginal errors e costs at most
    max(cost) sum |e| more.  lo: any plan of the marginals costs
    u @ c+ + v @ c- for its potentials (u, v), plus its mass times its
    reduced costs cost - u - v, so at least the least of them (if negative)
    times c+'s mass."""
    pos, neg = c > 0, c < 0
    m, n = pos.sum(), neg.sum()
    if m == 0 or n == 0:
        return 0.0, 0.0
    cost = np.minimum(1.0, theta * measure_metrics.distances(pts[pos], pts[neg]))
    top = cost.max()
    res = _highs((cost / top).ravel(), A_eq=_marginals(m, n)[:-1], b_eq=np.concatenate([c[pos], -c[neg][:-1]]))
    C, a, b = _exact(cost), _exact(c[pos]), _exact(-c[neg])
    x = _exact(np.maximum(res.x, 0.0).reshape(m, n))
    hi = (C * x).sum() + C.max() * sum(abs(np.concatenate([x.sum(axis=1) - a, x.sum(axis=0) - b])))
    u, v = _exact(res.eqlin.marginals[:m] * top), _exact(np.append(res.eqlin.marginals[m:] * top, 0.0))
    lo = u @ a + v @ b + min(0, (C - u[:, None] - v[None, :]).min()) * a.sum()
    return float(max(lo, 0)), float(hi)


def dual_lipschitz_bounds(pts, c):
    """Bounds lo <= value <= hi on the dual-Lipschitz value of the signed
    weights ``c`` of mu1 - mu2 on ``pts``, certified in exact arithmetic from
    HiGHS's solution of its transport form: min z over plans x moving part of
    c+ onto c-, with z >= sum x d and z >= P + N - 2 sum x for the masses P, N.
    hi: a plan moving the mass S at cost A leaves P + N - 2 S unmoved, and for
    any f, s, t with |f_i| <= s and |f_i - f_j| <= t d_ij bounds <f, c> by
    s (P + N - 2 S) + t A; x is clipped at 0, each entry scaled into its
    marginals and the whole by the alpha <= 1 at which the two terms meet.
    lo: the duals (t, s and f = s - alpha on c+, beta - s on c-) made feasible
    exactly, f replaced by its t-Lipschitz minorant min_j f_j + t delta_ij for
    the path metric delta of d (whose t-Lipschitz functions are those of the
    LP's rows: rounded distances need not be a metric) and clipped to [-s, s];
    then <f, c> / (sup |f| + Lip f).  The distance row is divided by the
    largest distance where that exceeds 1, so HiGHS's absolute tolerances
    hold at large scales; below 1 the division would put up to 1e12 on z's
    coefficient, and on atoms 1e-12 apart HiGHS then ended in status Unknown."""
    pos, neg = c > 0, c < 0
    C = _exact(c)
    P, N = C[pos].sum(), -C[neg].sum()
    m, n = pos.sum(), neg.sum()
    if m == 0 or n == 0:
        return float(P + N), float(P + N)  # f = sign(c) attains P + N
    d = measure_metrics.distances(pts[pos], pts[neg])
    top = max(1.0, d.max())
    A_ub = np.vstack([np.append(d.ravel() / top, -1.0 / top), np.append(np.full(m * n, -2.0), -1.0),
                      np.hstack([_marginals(m, n), np.zeros((m + n, 1))])])
    b_ub = np.concatenate([[0.0, -float(P + N)], c[pos], -c[neg]])
    res = _highs(np.append(np.zeros(m * n), 1.0), A_ub=A_ub, b_ub=b_ub)
    x, a, b = _exact(np.maximum(res.x[:-1], 0.0).reshape(m, n)), C[pos], -C[neg]
    x = x * np.minimum.outer(a / np.maximum(x.sum(axis=1), a), b / np.maximum(x.sum(axis=0), b))
    A, S = (x * _exact(d)).sum(), x.sum()
    hi = (P + N) * A / (A + 2 * S) if A + 2 * S >= P + N else P + N - 2 * S
    dual = -res.ineqlin.marginals
    t, s, f = _exact(dual[0] / top), _exact(dual[1]), np.zeros(c.size, dtype=object)
    f[pos], f[neg] = s - _exact(dual[2:2 + m]), _exact(dual[2 + m:]) - s
    D = _exact(measure_metrics.distances(pts, pts))
    delta = D.copy()
    for k in range(c.size):  # Floyd-Warshall
        delta = np.minimum(delta, delta[:, k:k + 1] + delta[k:k + 1, :])
    f = np.clip((f[pos | neg] + t * delta[:, pos | neg]).min(axis=1), -s, s)
    iu, ju = np.triu_indices(c.size, k=1)
    norm = max(abs(f)) + max((abs(f[iu] - f[ju]) / D[iu, ju]).tolist(), default=0)
    return float(max(0, f @ C / norm) if norm else 0), float(hi)


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
