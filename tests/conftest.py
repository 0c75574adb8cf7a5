import numpy as np
import pytest

from fklab import kernel_lab as kl
from fklab import measure_metrics


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


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def lp_calls(monkeypatch):
    """Number of variables of each HiGHS call made while the test runs."""
    calls = []
    solver = measure_metrics.linprog

    def counting(*args, **kwargs):
        calls.append(np.size(args[0]))  # the positional c, as the benchmark's trace reads it
        return solver(*args, **kwargs)

    monkeypatch.setattr(measure_metrics, "linprog", counting)
    return calls
