import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fklab import kernel_lab as kl
from fklab import measure_metrics
from conftest import dense_perron_triple, generated_kernels, normalized_semigroup_apply, random_kernel_potential


def two_state():
    K = kl.FiniteKernel(
        points=np.array([[0.0], [1.0]]),
        P=np.array([[0.5, 0.5], [0.5, 0.5]]),
        A=[0, 1],
    )
    V = kl.PotentialVector.from_values(K, [0.0, np.log(2.0)])
    return K, V


def test_tilted_matrix_identity_for_zero_potential():
    K, _ = two_state()
    V0 = kl.PotentialVector.from_values(K, [0.0, 0.0])
    assert np.array_equal(kl.build_tilted_matrix(K, V0), K.P)


def test_tilted_matrix_formula():
    K, V = two_state()
    M = kl.build_tilted_matrix(K, V)
    assert np.allclose(M, [[0.5, 1.0], [0.5, 1.0]])


def test_tilted_matrix_constant_potential_scales():
    K, _ = two_state()
    c = 0.7
    Vc = kl.PotentialVector.from_values(K, [c, c])
    assert np.allclose(kl.build_tilted_matrix(K, Vc), np.exp(c) * K.P)


def test_tilted_matrix_dimension_mismatch():
    K, _ = two_state()
    with pytest.raises(ValueError):
        kl.PotentialVector.from_values(K, [0.0, 1.0, 2.0])


def test_kernel_invariance_validation():
    with pytest.raises(ValueError):
        kl.FiniteKernel(
            points=np.array([[0.0], [1.0], [2.0]]),
            P=np.array([[0.5, 0.4, 0.1], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]]),
            A=[0, 1],
        )


@pytest.mark.parametrize(
    "points, P",
    [
        ([[0.0], [1.0]], [[np.nan, 0.5], [0.5, 0.5]]),
        ([[0.0], [1.0]], [[np.inf, 0.5], [0.5, 0.5]]),
        ([[0.0], [np.nan]], [[0.5, 0.5], [0.5, 0.5]]),
    ],
    ids=["nan-P", "inf-P", "nan-point"],
)
def test_kernel_rejects_non_finite_input(points, P):
    with pytest.raises(ValueError, match="must be finite"):
        kl.FiniteKernel(points=np.array(points), P=np.array(P), A=[0, 1])


def test_perron_triple_two_state_by_hand():
    K, V = two_state()
    M = kl.build_tilted_matrix(K, V)
    t = kl.perron_triple(M, K.A)
    assert t.lam == pytest.approx(1.5, abs=1e-12)
    assert np.allclose(t.h, [1.0, 1.0], atol=1e-10)
    assert np.allclose(t.mu, [1.0 / 3.0, 2.0 / 3.0], atol=1e-12)
    assert t.h @ t.mu == pytest.approx(1.0, abs=1e-12)


def test_perron_triple_markov_case(rng):
    n = 6
    P = rng.uniform(0.1, 1.0, size=(n, n))
    P /= P.sum(axis=1, keepdims=True)
    K = kl.FiniteKernel(points=rng.normal(size=(n, 2)), P=P, A=np.arange(n))
    t = kl.perron_triple(P, K.A)
    assert t.lam == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(t.h, np.ones(n), atol=1e-10)
    assert np.abs(t.mu @ P - t.mu).sum() < 1e-12


def test_perron_triple_eigenvalue_homogeneity(rng):
    for trial in range(10):
        n = int(rng.integers(2, 12))
        K, V = random_kernel_potential(rng, n, strict_subset=trial % 2 == 1)
        c = float(rng.uniform(-2, 2))
        M = kl.build_tilted_matrix(K, V)
        Vc = kl.PotentialVector.from_values(K, V.V + c)
        Mc = kl.build_tilted_matrix(K, Vc)
        t = kl.perron_triple(M, K.A)
        tc = kl.perron_triple(Mc, K.A)
        assert tc.lam / t.lam == pytest.approx(np.exp(c), rel=1e-8)
        assert np.allclose(tc.h, t.h, atol=1e-8)
        assert np.allclose(tc.mu, t.mu, atol=1e-8)


def test_perron_matches_dense_oracle(rng):
    for trial in range(30):
        n = int(rng.integers(2, 21))
        K, V = random_kernel_potential(rng, n, strict_subset=trial % 2 == 1)
        M = kl.build_tilted_matrix(K, V)
        t = kl.perron_triple(M, K.A)
        lam, h, mu = dense_perron_triple(M, K.A)
        assert abs(t.lam - lam) / lam < 1e-10
        assert np.abs(t.h - h).max() < 1e-8
        assert np.abs(t.mu - mu).max() < 1e-8


def test_perron_periodic_irreducible_block():
    # 2-cycle: irreducible but not aperiodic; the Perron root is +1, not -1
    P = np.array([[0.0, 1.0], [1.0, 0.0]])
    K = kl.FiniteKernel(points=np.array([[0.0], [1.0]]), P=P, A=[0, 1])
    t = kl.perron_triple(P, K.A)
    assert t.lam == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(t.h, [1.0, 1.0], atol=1e-10)


def test_perron_zero_matrix_rejected():
    with pytest.raises(ValueError):
        kl.perron_triple(np.zeros((2, 2)), [0, 1])


@settings(max_examples=150, deadline=None)
@given(generated_kernels(), st.floats(-2.0, 2.0))
def test_perron_identities_on_generated_kernels(kernel, c):
    K, V = kernel
    M = kl.build_tilted_matrix(K, V)
    t = kl.perron_triple(M, K.A)
    outside = np.setdiff1d(np.arange(K.n), K.A)
    # the spectral radius, by a different reading of the spectrum than the argmax of the real part
    assert t.lam == pytest.approx(np.abs(np.linalg.eigvals(M[np.ix_(K.A, K.A)])).max(), rel=1e-10)
    assert np.abs(t.mu @ M - t.lam * t.mu).sum() <= 1e-10 * t.lam
    assert np.all(t.mu[K.A] > 0) and np.all(t.mu[outside] == 0)
    assert t.mu.sum() == pytest.approx(1.0, abs=1e-12)
    assert t.h @ t.mu == pytest.approx(1.0, abs=1e-12)
    tc = kl.perron_triple(kl.build_tilted_matrix(K, kl.PotentialVector.from_values(K, V.V + c)), K.A)
    assert tc.lam == pytest.approx(np.exp(c) * t.lam, rel=1e-10)
    if t.extension_ok:  # h is an eigenvector, so the normalized semigroup is Markov
        assert np.abs(M @ t.h - t.lam * t.h).max() <= 1e-10 * t.lam * np.abs(t.h).max()
        for k in (1, 7):
            assert np.abs(normalized_semigroup_apply(M, t, np.ones(K.n), k) - 1).max() <= 1e-9
    else:  # h off A is a Cesaro surrogate, which its consumers refuse
        with pytest.raises(ValueError, match="extension_ok"):
            normalized_semigroup_apply(M, t, np.ones(K.n), 7)
        with pytest.raises(ValueError, match="extension_ok"):
            kl.kantorovich_contraction_factor(M, t, K.points, 1.0, 1)


@settings(max_examples=100, deadline=None)
@given(generated_kernels(), st.integers(0, 2**32 - 1))
def test_pressure_derivatives_match_central_differences(kernel, seed):
    # the gradient pi and Hessian Sigma of Q(V) = log lam_V on the A-block,
    # cyclic blocks included, against central differences of Q and of pi;
    # and Q'(a), Q''(a) of a -> Q(V + a f) against differences of Q alone
    K, V = kernel
    P, V = K.P[np.ix_(K.A, K.A)], V.V[K.A]
    Q, pi, Sigma = kl.pressure_derivatives(P, V)
    assert Q == pytest.approx(np.log(np.abs(np.linalg.eigvals(P * np.exp(V))).max()), abs=1e-12)
    assert np.all(pi > 0) and pi.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.abs(Sigma - Sigma.T).max() <= 1e-12 and np.abs(Sigma.sum(axis=1)).max() <= 1e-10
    h = 1e-5
    for j, e in enumerate(np.eye(K.A.size) * h):
        (Qp, pip, _), (Qm, pim, _) = kl.pressure_derivatives(P, V + e), kl.pressure_derivatives(P, V - e)
        assert (Qp - Qm) / (2 * h) == pytest.approx(pi[j], abs=1e-8)
        assert np.abs((pip - pim) / (2 * h) - Sigma[:, j]).max() <= 1e-6
    f = np.random.default_rng(seed).uniform(-1, 1, K.A.size)
    a, h = np.random.default_rng(seed + 1).uniform(-2, 2), 1e-3
    Qa, pia, Sigmaa = kl.pressure_derivatives(P, V + a * f)
    Qp, Qm = kl.pressure_derivatives(P, V + (a + h) * f)[0], kl.pressure_derivatives(P, V + (a - h) * f)[0]
    assert pia @ f == pytest.approx((Qp - Qm) / (2 * h), abs=1e-6)
    assert f @ Sigmaa @ f == pytest.approx((Qp - 2 * Qa + Qm) / h**2, abs=1e-5)


@settings(max_examples=60, deadline=None)
@given(generated_kernels(reducible=True))
def test_reducible_A_block_rejected(kernel):
    K, V = kernel
    with pytest.raises(ValueError, match="reducible A-block"):
        kl.perron_triple(kl.build_tilted_matrix(K, V), K.A)


def test_undominated_complement_falls_back_to_finite_cesaro_surrogate():
    # states 0 and 2 off A = {1} grow faster than its Perron value 0.25: no resolvent
    # extension, and the Cesaro sum of (M / 0.25)^k 1 overflows before its 512 terms,
    # an expected overflow that stays silent
    M = np.array([[1.0, 0.25, 0.25], [0.0, 0.25, 0.0], [0.25, 0.25, 0.25]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t = kl.perron_triple(M, [1])
    assert not t.extension_ok
    assert np.all(np.isfinite(t.h)) and np.all(t.h > 0)
    assert t.h @ t.mu == pytest.approx(1.0, abs=1e-12)


def test_mu_fixed_point_and_support(rng):
    for trial in range(10):
        n = int(rng.integers(4, 16))
        K, V = random_kernel_potential(rng, n, strict_subset=True)
        M = kl.build_tilted_matrix(K, V)
        t = kl.perron_triple(M, K.A)
        assert np.abs(t.mu @ M - t.lam * t.mu).sum() <= 1e-10 * t.lam
        outside = np.setdiff1d(np.arange(n), K.A)
        assert np.all(t.mu[outside] == 0)
        assert np.all(t.mu[K.A] > 0)


def test_cesaro_average_row_stochastic_is_one(rng):
    n = 5
    P = rng.uniform(0.1, 1.0, size=(n, n))
    P /= P.sum(axis=1, keepdims=True)
    for k in (1, 3, 10):
        assert np.allclose(kl.cesaro_average(P, k), np.ones(n), atol=1e-12)


def test_cesaro_average_k1_is_M_one():
    K, V = two_state()
    M = kl.build_tilted_matrix(K, V)
    assert np.allclose(kl.cesaro_average(M, 1), M @ np.ones(2))


def test_cesaro_two_state_converges():
    K, V = two_state()
    M = kl.build_tilted_matrix(K, V) / 1.5
    h100 = kl.cesaro_average(M, 100)
    assert np.abs(h100 - 1.0).max() < 1e-6


def test_cesaro_average_stops_at_overflow():
    # spectral radius far above one: iterates overflow at n = 2, and the
    # average keeps only the finite part of the sum
    M = np.array([[1e200, 0.0], [0.0, 1.0]])
    avg = kl.cesaro_average(M, 4)
    assert np.array_equal(avg, np.array([1e200, 1.0]) / 4)


def test_cesaro_error_nonincreasing(rng):
    K, V = random_kernel_potential(rng, 7)
    M = kl.build_tilted_matrix(K, V)
    t = kl.perron_triple(M, K.A)
    Mn = M / t.lam
    h_ref = t.h / t.h.max()
    errs = []
    for k in range(1, 120):
        hk = kl.cesaro_average(Mn, k)
        errs.append(np.abs(hk / hk.max() - h_ref).max())
    errs = np.array(errs)
    burn = 10
    assert np.all(np.diff(errs[burn:]) <= 1e-12)
    assert errs[-1] < errs[burn] / 3

    with pytest.raises(ValueError):
        kl.cesaro_average(Mn, 0)


def test_met_residuals_eigenfunction_is_exact(rng):
    K, V = random_kernel_potential(rng, 6)
    M = kl.build_tilted_matrix(K, V)
    t = kl.perron_triple(M, K.A)
    C, gamma, res = kl.met_residuals(K, V, t, t.h, k_max=40)
    assert res.max() < 1e-10
    assert gamma == np.inf


def test_met_residuals_rank_one_kernel():
    K, V = two_state()
    M = kl.build_tilted_matrix(K, V)
    t = kl.perron_triple(M, K.A)
    _, gamma, res = kl.met_residuals(K, V, t, np.array([1.0, 0.0]), k_max=30)
    assert res.max() < 1e-12


def test_met_residuals_rate_matches_eigengap(rng):
    hits = 0
    for trial in range(8):
        n = int(rng.integers(5, 14))
        K, V = random_kernel_potential(rng, n, strict_subset=trial % 2 == 1)
        M = kl.build_tilted_matrix(K, V)
        t = kl.perron_triple(M, K.A)
        mods = np.sort(np.abs(np.linalg.eigvals(M)))[::-1]
        gamma_true = -np.log(mods[1] / mods[0])
        gamma, info = kl.met_rate_estimate(K, V, t)
        assert abs(gamma - gamma_true) / gamma_true < 0.05
        hits += 1
    assert hits == 8


@st.composite
def gapped_kernels(draw):
    """A kernel on 2-9 states whose A = {0..n_A-1} block is positive, plus a
    weighted cycle through A that often makes the subdominant pair complex.
    With a strict A, the complement's rows are scaled down until their
    tilted sums stay below half the A-block's Perron value."""
    n = draw(st.integers(2, 9))
    n_A = draw(st.integers(1, n))
    P = draw(arrays(float, (n, n), elements=st.floats(0.05, 1.0)))
    P[:n_A, :n_A] += draw(st.floats(0.0, 3.0)) * np.roll(np.eye(n_A), 1, axis=1)
    P[:n_A, n_A:] = 0.0
    values = draw(arrays(float, n, elements=st.floats(-1.0, 1.0)))
    M = P * np.exp(values)
    lamA = np.abs(np.linalg.eigvals(M[:n_A, :n_A])).max()
    rowsum = M[n_A:, n_A:].sum(axis=1).max(initial=0.0)
    if rowsum > 0.5 * lamA:
        P[n_A:] *= 0.5 * lamA / rowsum
    K = kl.FiniteKernel(points=np.arange(n, dtype=float)[:, None], P=P, A=np.arange(n_A))
    return K, kl.PotentialVector.from_values(K, values)


@settings(max_examples=60, deadline=None)
@given(gapped_kernels())
def test_met_rate_matches_eigenvalue_ratio_on_generated_kernels(kernel):
    K, V = kernel
    M = kl.build_tilted_matrix(K, V)
    mods = np.sort(np.abs(np.linalg.eigvals(M)))[::-1]
    # a numerically rank-one tilt has rho(D) on the rounding bed: no rate to measure
    assume(mods[1] > 1e-8 * mods[0])
    gamma, info = kl.met_rate_estimate(K, V, kl.perron_triple(M, K.A))
    assert info["mode"] == "spectral"
    assert abs(gamma - np.log(mods[0] / mods[1])) <= 1e-9 * np.log(mods[0] / mods[1])


def test_met_rate_of_a_rank_one_tilt_is_infinite():
    # M / lam - h mu^T is zero up to rounding here, so rho(D) sits on the rounding bed
    K, V = two_state()
    gamma, info = kl.met_rate_estimate(K, V, kl.perron_triple(kl.build_tilted_matrix(K, V), K.A))
    assert gamma == np.inf and info == {"mode": "collapsed"}


def test_met_rate_is_not_positive_when_the_complement_is_not_dominated():
    # criterion 03's kernels: the complement state is absorbing (K3) or
    # grows by 1.6 a step (K4), against lam = 1 on A = {0, 1}
    pts = np.array([[0.0], [1.0], [3.0]])
    gammas = []
    for last_row in ([0.0, 0.0, 1.0], [0.1, 0.0, 1.6]):
        K = kl.FiniteKernel(points=pts, P=np.array([[0.6, 0.4, 0.0], [0.5, 0.5, 0.0], last_row]), A=[0, 1])
        V = kl.PotentialVector.from_values(K, np.zeros(3))
        t = kl.perron_triple(kl.build_tilted_matrix(K, V), K.A)
        assert not t.extension_ok
        gamma, info = kl.met_rate_estimate(K, V, t)
        assert info["mode"] == "spectral" and type(gamma) is float
        gammas.append(gamma)
    k3, k4 = gammas
    assert k3 == 0.0 and np.copysign(1.0, k3) == 1.0  # rho = 1 reads +0.0, not -0.0
    assert k4 == pytest.approx(-np.log(1.6), rel=1e-12)


def test_met_exponential_envelope(rng):
    K, V = random_kernel_potential(rng, 9)
    M = kl.build_tilted_matrix(K, V)
    t = kl.perron_triple(M, K.A)
    rate, _ = kl.met_rate_estimate(K, V, t)
    k_max = int(np.clip(25 / rate, 12, 400))
    f = rng.uniform(-1, 1, 9)
    C, gamma, res = kl.met_residuals(K, V, t, f, k_max=k_max)
    assert gamma > 0
    ks = np.arange(1, k_max + 1)
    window = (ks >= (k_max + 1) // 2) & (res >= 1e-13)
    ok = res[window] <= C * np.exp(-gamma * ks[window]) * (1 + 1e-9)
    assert ok.all()


def test_normalized_semigroup_markov_property(rng):
    for trial in range(6):
        n = int(rng.integers(3, 12))
        K, V = random_kernel_potential(rng, n, strict_subset=trial % 2 == 1)
        M = kl.build_tilted_matrix(K, V)
        t = kl.perron_triple(M, K.A)
        for k in (1, 5, 25, 50):
            out = normalized_semigroup_apply(M, t, np.ones(n), k)
            assert np.abs(out - 1.0).max() <= 1e-10


def test_normalized_semigroup_identity_and_hand_value():
    K, V = two_state()
    M = kl.build_tilted_matrix(K, V)
    t = kl.perron_triple(M, K.A)
    g = np.array([1.0, 0.0])
    assert np.allclose(normalized_semigroup_apply(M, t, g, 0), g)
    out = normalized_semigroup_apply(M, t, g, 1)
    assert np.allclose(out, [1.0 / 3.0, 1.0 / 3.0], atol=1e-12)
    # invariance of sigma = h mu under the normalized dual semigroup
    sigma = t.h * t.mu
    assert np.dot(out, sigma) == pytest.approx(np.dot(g, sigma), abs=1e-12)


def test_verify_theorem21_positive_kernel(rng):
    n = 5
    P = rng.uniform(0.2, 1.0, size=(n, n))
    K = kl.FiniteKernel(points=rng.uniform(-1, 1, (n, 2)), P=P, A=np.arange(n))
    V = kl.PotentialVector.from_values(K, rng.uniform(-0.4, 0.4, n))
    small_r = 1e-6
    rep = kl.verify_theorem21(K, V, kl.VerifyParams(r=small_r, c=0.5, k_max=50))
    assert rep.irreducibility["verdict"] == "pass"
    assert rep.irreducibility["m"] == 1
    # with r below the point separation, the ball is the point itself; the
    # mass is read on M / lam, so a shift of V cannot move it
    M = kl.build_tilted_matrix(K, V)
    assert rep.irreducibility["p"] == pytest.approx(M.min() / kl.perron_triple(M, K.A).lam, rel=1e-12)
    assert rep.all_pass


def test_verify_theorem21_markov_lambda_is_one(rng):
    n = 6
    P = rng.uniform(0.1, 1.0, size=(n, n))
    P /= P.sum(axis=1, keepdims=True)
    K = kl.FiniteKernel(points=rng.uniform(-1, 1, (n, 1)), P=P, A=np.arange(n))
    V0 = kl.PotentialVector.from_values(K, np.zeros(n))
    rep = kl.verify_theorem21(K, V0)
    assert rep.expbound["Lambda"] == pytest.approx(1.0, abs=1e-12)
    assert rep.all_pass


def absorbing_three_state():
    pts = np.array([[0.0], [1.0], [3.0]])
    P = np.array([[0.6, 0.4, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]])
    return kl.FiniteKernel(points=pts, P=P, A=[0, 1])


def test_verify_theorem21_flags_concentration_violator():
    K = absorbing_three_state()
    V0 = kl.PotentialVector.from_values(K, np.zeros(3))
    rep = kl.verify_theorem21(K, V0, kl.VerifyParams(r=0.5, c=0.5, k_max=60))
    assert rep.concentration["verdict"] == "fail"
    seq = np.asarray(rep.concentration["sequence"])
    assert seq[-1] > 0.99  # the absorbing state never sends mass near A


def test_verify_theorem21_flags_exponential_bound_violator():
    pts = np.array([[0.0], [1.0], [3.0]])
    P = np.array([[0.6, 0.4, 0.0], [0.5, 0.5, 0.0], [0.1, 0.0, 1.6]])
    K = kl.FiniteKernel(points=pts, P=P, A=[0, 1])
    V0 = kl.PotentialVector.from_values(K, np.zeros(3))
    rep = kl.verify_theorem21(K, V0, kl.VerifyParams(r=0.5, c=0.5, k_max=50))
    assert rep.expbound["verdict"] == "fail"


@pytest.mark.parametrize("k_max", [30, 50, 80])
def test_verify_theorem21_flags_fourfold_growth_at_every_horizon(k_max):
    # off A = {1}, (M / lam)^k 1 grows 4x a step: each step adds three times
    # the running value, however small against the last one
    K = kl.FiniteKernel(points=[[0.0], [1.0]], P=[[1.0, 0.25], [0.0, 0.25]], A=[1])
    rep = kl.verify_theorem21(K, kl.PotentialVector.from_values(K, [0.0, 0.0]), kl.VerifyParams(k_max=k_max))
    assert rep.expbound["verdict"] == "fail"


def test_verify_theorem21_shortest_horizon_passes_a_markov_kernel():
    # below k_max 5 the late window holds one reading and no step, which
    # read as growth on every kernel; k_max 5 is the shortest horizon kept
    K = kl.FiniteKernel(points=[[0.0], [1.0]], P=[[0.5, 0.5], [0.5, 0.5]], A=[0, 1])
    V0 = kl.PotentialVector.from_values(K, [0.0, 0.0])
    for k_max in range(1, 5):
        with pytest.raises(ValueError, match="k_max must be at least 5"):
            kl.VerifyParams(k_max=k_max)
    rep = kl.verify_theorem21(K, V0, kl.VerifyParams(k_max=5))
    assert rep.expbound["Lambda"] == pytest.approx(1.0, abs=1e-12)
    assert rep.expbound["verdict"] == "pass"


def test_verify_theorem21_bound_approached_from_below_passes():
    # sup (M / lam)^k 1 rises to its limit at every step, but its late steps
    # shrink about 6% a step: a bounded sequence, not a growing one
    K = kl.FiniteKernel(points=[[0.0], [1.0]], P=[[0.98, 0.02], [0.02, 0.98]], A=[0, 1])
    rep = kl.verify_theorem21(K, kl.PotentialVector.from_values(K, [0.0, 0.05]), kl.VerifyParams(k_max=80))
    steps = np.diff(rep.expbound["sequence"][60:])
    assert np.all(steps > 0) and steps[-1] < 0.5 * steps[0]
    assert rep.expbound["verdict"] == "pass"


@settings(max_examples=40, deadline=None)
@given(generated_kernels(), st.floats(-30.0, 9.0), st.sampled_from([0.5, 1.5]))
def test_verify_theorem21_invariant_under_potential_shift(kernel, c, r):
    # lam(V + c) = e^c lam(V) leaves M / lam, and so every reading, unchanged
    K, V = kernel
    params = kl.VerifyParams(r=r, c=0.5, k_max=40)
    rep = kl.verify_theorem21(K, V, params)
    shifted = kl.verify_theorem21(K, kl.PotentialVector.from_values(K, V.V + c), params)
    for part in ("feller", "irreducibility", "concentration", "expbound"):
        assert getattr(shifted, part)["verdict"] == getattr(rep, part)["verdict"]
    assert shifted.irreducibility["m"] == rep.irreducibility["m"]
    assert shifted.feller["C"] == pytest.approx(rep.feller["C"], rel=1e-9, abs=1e-12)
    assert np.isfinite(shifted.feller["C"])  # even where h off A is a huge Cesaro surrogate


def test_condition_report_json_roundtrips():
    K = absorbing_three_state()
    V0 = kl.PotentialVector.from_values(K, np.zeros(3))
    rep = kl.verify_theorem21(K, V0, kl.VerifyParams(r=0.5, c=0.5, k_max=30))
    import json

    payload = json.loads(rep.to_json())
    assert payload["concentration"]["verdict"] == "fail"
    assert payload["all_pass"] is False


def test_contraction_factor_identity_at_m0(rng):
    K, V = random_kernel_potential(rng, 5)
    M = kl.build_tilted_matrix(K, V)
    t = kl.perron_triple(M, K.A)
    assert kl.kantorovich_contraction_factor(M, t, K.points, 1.0 / K.diam, 0) == 1.0


def test_contraction_search_halves_distance(rng):
    for trial in range(3):
        n = int(rng.integers(4, 8))
        K, V = random_kernel_potential(rng, n, v_scale=0.5)
        M = kl.build_tilted_matrix(K, V)
        t = kl.perron_triple(M, K.A)
        rep = kl.verify_theorem21(K, V, kl.VerifyParams(r=0.3, c=0.5, k_max=40))
        assert rep.all_pass
        theta, m, factor = kl.contraction_search(M, t, K.points, feller_C=rep.feller["C"])
        assert factor <= 0.5
        check = kl.kantorovich_contraction_factor(M, t, K.points, theta, m)
        assert check == pytest.approx(factor, rel=1e-9)


def test_contraction_factor_is_the_worst_pairwise_ratio(rng):
    K, V = random_kernel_potential(rng, 6, v_scale=0.5)
    M = kl.build_tilted_matrix(K, V)
    t = kl.perron_triple(M, K.A)
    theta = 4.0 / K.diam
    factor = kl.kantorovich_contraction_factor(M, t, K.points, theta, 2)
    # the pair-by-pair definition, one transport per pair of distinct states
    rows = np.linalg.matrix_power(M / t.lam, 2) * t.h[None, :] / t.h[:, None]
    mus = [measure_metrics.DiscreteMeasure(K.points, row) for row in rows]
    pairwise = max(
        measure_metrics.kantorovich_theta(mus[u], mus[v], theta) / min(1.0, theta * K.dists[u, v])
        for u in range(6)
        for v in range(u + 1, 6)
    )
    assert factor == pytest.approx(pairwise, abs=1e-12)


def test_contraction_factor_skips_coincident_pairs(path_searches):
    # states 0 and 1 share a point, so their pair is skipped: the other five
    # pairs, each row difference moving two atoms onto two, make five
    # transports of 2 x 2 (the skipped pair would make a sixth)
    P = [[0.4, 0.3, 0.2, 0.1], [0.3, 0.4, 0.1, 0.2], [0.2, 0.1, 0.4, 0.3], [0.1, 0.2, 0.3, 0.4]]
    K = kl.FiniteKernel(points=[[0.0], [0.0], [1.0], [3.0]], P=P, A=[0, 1, 2, 3])
    M = kl.build_tilted_matrix(K, kl.PotentialVector.from_values(K, np.zeros(4)))
    t = kl.perron_triple(M, K.A)
    assert kl.kantorovich_contraction_factor(M, t, K.points, 1.0, 1) == pytest.approx(0.4, abs=1e-12)
    assert path_searches == [(2, 2)] * 5
    same = kl.FiniteKernel(points=np.zeros((2, 1)), P=np.full((2, 2), 0.5), A=[0, 1])
    M = kl.build_tilted_matrix(same, kl.PotentialVector.from_values(same, [0.0, 0.0]))
    assert kl.kantorovich_contraction_factor(M, kl.perron_triple(M, same.A), same.points, 1.0, 1) == 0.0
    assert path_searches == [(2, 2)] * 5  # every pair degenerate: no search


def test_contraction_factor_rejects_non_finite_theta(rng, path_searches):
    K, V = random_kernel_potential(rng, 4)
    M = kl.build_tilted_matrix(K, V)
    with pytest.raises(ValueError, match="theta"):
        kl.kantorovich_contraction_factor(M, kl.perron_triple(M, K.A), K.points, np.nan, 1)
    assert path_searches == []


@pytest.mark.parametrize("m", [-1, 2.7, 2.0, True, "2", None])
def test_contraction_factor_rejects_a_horizon_that_is_not_a_count(rng, path_searches, m):
    # a negative m once read (M/lam)^-1 and a fractional one ran as its floor
    K, V = random_kernel_potential(rng, 4)
    M = kl.build_tilted_matrix(K, V)
    with pytest.raises(ValueError, match="horizon m"):
        kl.kantorovich_contraction_factor(M, kl.perron_triple(M, K.A), K.points, 1.0 / K.diam, m)
    assert path_searches == []


def test_contraction_factor_takes_numpy_integer_horizons(rng):
    K, V = random_kernel_potential(rng, 4)
    M = kl.build_tilted_matrix(K, V)
    t = kl.perron_triple(M, K.A)
    theta = 1.0 / K.diam
    assert kl.kantorovich_contraction_factor(M, t, K.points, theta, np.int64(2)) == kl.kantorovich_contraction_factor(
        M, t, K.points, theta, 2
    )
    assert kl.kantorovich_contraction_factor(M, t, K.points, theta, np.int32(0)) == 1.0


def test_augmentation_bound_names_the_contraction_factor(rng, monkeypatch):
    K, V = random_kernel_potential(rng, 4)
    M = kl.build_tilted_matrix(K, V)
    monkeypatch.setattr(measure_metrics, "_AUGMENTATIONS", 0)
    with pytest.raises(RuntimeError, match="^contraction factor: more than 0 augmentations"):
        kl.kantorovich_contraction_factor(M, kl.perron_triple(M, K.A), K.points, 1.0 / K.diam, 1)


def test_contraction_theta_threshold(rng):
    K, V = random_kernel_potential(rng, 4)
    M = kl.build_tilted_matrix(K, V)
    t = kl.perron_triple(M, K.A)
    with pytest.raises(ValueError):
        kl.kantorovich_contraction_factor(M, t, K.points, 0.5 / K.diam, 1)
