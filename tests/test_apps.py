import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fklab import apps
from fklab import feynman_kac as fk
from fklab import kernel_lab as kl
from fklab import rds_core as rc
from fklab.measure_metrics import DiscreteMeasure, dual_lipschitz
from conftest import dense_perron_triple, generated_kernels, random_stochastic_chain


@pytest.fixture(scope="module")
def chain_setup():
    rng = np.random.default_rng(23)
    K = random_stochastic_chain(rng, 4)
    chain = rc.FiniteChainModel.from_kernel(K)
    return K, chain


def test_occupation_measure_trivials(chain_setup):
    # the occupation measure of u_0..u_{k-1} is the empirical measure of those states
    _, chain = chain_setup
    states = chain.coords(rc.simulate(chain, chain.points[0], 10, seed=1))
    m1 = DiscreteMeasure.from_samples(states[:1])
    assert m1.support.shape[0] == 1
    assert np.allclose(m1.support[0], states[0])
    assert m1.total == pytest.approx(1.0)
    m = DiscreteMeasure.from_samples(np.tile(chain.points[2], (8, 1)))
    assert m.support.shape[0] == 1  # repeated states merge into one atom
    assert m.weights[0] == pytest.approx(1.0)


def test_occupation_converges_to_stationary(chain_setup):
    K, chain = chain_setup
    pi = kl.perron_triple(K.P, K.A).mu
    target = DiscreteMeasure(K.points, pi)
    dists = []
    for k in (100, 400, 1600):
        traj = rc.simulate(chain, chain.points[0], k, seed=3)
        dists.append(dual_lipschitz(DiscreteMeasure.from_samples(chain.coords(traj)[:k]), target))
    assert dists[-1] < 0.08
    assert dists[-1] <= dists[0] + 0.02


def test_ldp_finite_state_matches_legendre(chain_setup):
    K, _ = chain_setup
    rng = np.random.default_rng(6)
    f_values = rng.uniform(0, 1, K.n)
    mu = kl.perron_triple(K.P, K.A).mu
    mean = float(f_values @ mu)
    x_grid = [mean + 0.08, mean + 0.12]
    rep = apps.ldp_level1(K, f_values, x_grid, k_set=[30, 60, 90, 120], n_traj=200_000, u0=K.points[0], seed=7)
    for x, leg in zip(rep.x_grid, rep.legendre):
        if float(x) in rep.slope_rates:
            assert rep.slope_rates[float(x)] == pytest.approx(leg, rel=0.25)


def test_ldp_rejects_constant_f(chain_setup):
    K, _ = chain_setup
    with pytest.raises(ValueError):
        apps.ldp_level1(K, np.ones(K.n), [0.5], [10], 100, K.points[0])


def test_ldp_rejects_nan_x(chain_setup):
    K, _ = chain_setup
    with pytest.raises(ValueError, match="x_grid"):
        apps.ldp_level1(K, np.arange(K.n, dtype=float), [0.5, np.nan], [10], 100, K.points[0])


def test_ldp_legendre_is_the_sup_over_tilts(chain_setup):
    # the exact rate against a grid of a x - Q(a) and a golden-section
    # maximum; past the range of f it is +inf, at its ends -log P_ii
    K, _ = chain_setup
    f = np.random.default_rng(6).uniform(0, 1, K.n)
    mean = float(f @ kl.perron_triple(K.P, K.A).mu)

    def pressure(a):
        return np.log(dense_perron_triple(K.P * np.exp(a * f), K.A)[0])

    inside = [(f.min() + mean) / 2, (mean + f.max()) / 2, f.max() - 0.01 * np.ptp(f)]
    x_grid = [f.min() - 0.1, f.min(), mean, f.max(), f.max() + 0.1] + inside
    rep = apps.ldp_level1(K, f, x_grid, k_set=[1, 10], n_traj=100, u0=K.points[0], seed=1)
    legendre = dict(zip(x_grid, rep.legendre))
    for x in inside:
        lo, hi = (0.0, 200.0) if x > mean else (-200.0, 0.0)
        for _ in range(200):  # golden section on the concave a x - Q(a)
            a, b = hi - 0.618 * (hi - lo), lo + 0.618 * (hi - lo)
            lo, hi = (a, hi) if a * x - pressure(a) < b * x - pressure(b) else (lo, b)
        assert legendre[x] == pytest.approx(lo * x - pressure(lo), abs=1e-10)
        assert legendre[x] >= max(a * x - pressure(a) for a in np.linspace(-12, 12, 481)) - 1e-12
    assert abs(legendre[mean]) <= 1e-12
    i, j = np.argmin(f), np.argmax(f)
    assert legendre[f.min()] == pytest.approx(-np.log(K.P[i, i]), rel=1e-12)
    assert legendre[f.max()] == pytest.approx(-np.log(K.P[j, j]), rel=1e-12)
    assert legendre[f.min() - 0.1] == legendre[f.max() + 0.1] == np.inf


def test_ldp_corrected_rate_uses_the_exact_tilt(chain_setup):
    # one tilt a* and one Q''(a*) per x serve every k; no corrected rate below the mean
    K, _ = chain_setup
    f = np.random.default_rng(6).uniform(0, 1, K.n)
    mean = float(f @ kl.perron_triple(K.P, K.A).mu)
    rep = apps.ldp_level1(K, f, [mean - 0.05, mean + 0.05], [20, 40], 20_000, u0=K.points[0], seed=2)
    P, x = K.P, mean + 0.05
    lo, hi = 0.0, 20.0
    for _ in range(200):  # Q'(a) = x by bisection on the exact slope
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if kl.pressure_derivatives(P, mid * f)[1] @ f < x else (lo, mid)
    qpp = f @ kl.pressure_derivatives(P, lo * f)[2] @ f
    for k in (20, 40):
        cell = rep.cells[(x, k)]
        assert cell["observable"]
        want = -(np.log(cell["p"]) + np.log(lo * np.sqrt(2 * np.pi * k * qpp))) / k
        assert cell["rate_corrected"] == pytest.approx(want, rel=1e-9)
        assert rep.cells[(mean - 0.05, k)]["rate_corrected"] is None


def test_rate_function_zero_at_stationary(chain_setup):
    K, _ = chain_setup
    mu = kl.perron_triple(K.P, K.A).mu
    assert abs(apps.rate_function_eval(K, mu)) < 1e-12


@st.composite
def stochastic_kernels(draw):
    """``generated_kernels`` with rows scaled to sum to one: Markov chains
    on 2-8 states with an invariant set A (a strict one included) whose
    block may be cyclic, and a potential."""
    K, V = draw(generated_kernels())
    P = K.P / K.P.sum(axis=1, keepdims=True)
    return kl.FiniteKernel(points=K.points, P=P, A=K.A), V.V


@settings(max_examples=60, deadline=None)
@given(stochastic_kernels())
def test_rate_function_vanishes_at_stationary_on_generated_chains(kernel):
    K, _ = kernel
    mu = kl.perron_triple(K.P, K.A).mu
    assert abs(apps.rate_function_eval(K, mu)) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(stochastic_kernels())
@example((random_stochastic_chain(np.random.default_rng(23), 4), np.random.default_rng(5).uniform(0, 1, 4)))
def test_ldp_legendre_zero_at_mean(kernel):
    # the exact pressure a -> log lam(a f) on A has slope <f, mu> at 0, so
    # its Legendre transform vanishes at the mean, with tilt a* = 0
    K, f = kernel
    mu = kl.perron_triple(K.P, K.A).mu
    assume(np.ptp(f[K.A]) > 0)
    rate, astar, qpp = apps._legendre(K.P[np.ix_(K.A, K.A)], f[K.A], f @ mu, f @ mu)
    assert abs(rate) <= 1e-12 and astar == 0.0 and qpp >= -1e-12


def _seven_cycle_with_a_chord():
    # only state 1 has two successors, so Sigma_V has rank one: Q sees V
    # only through the sums of V around the two cycles
    P = np.zeros((7, 7))
    P[[0, 1, 1, 2, 3, 4, 5, 6], [5, 0, 4, 1, 6, 3, 4, 2]] = 0.05
    K = kl.FiniteKernel(points=np.arange(7.0)[:, None], P=P, A=np.arange(7))
    return K, kl.PotentialVector.from_values(K, [0.0, 1, 1, 1, 1, 1, 1])


@settings(max_examples=80, deadline=None)
@given(generated_kernels())
@example(_seven_cycle_with_a_chord())
def test_rate_function_gibbs_identity(kernel):
    # at sigma = pi_V the sup is attained at V: I(pi_V) = <V, pi_V> - log lam_V,
    # also where the Hessian is singular
    K, V = kernel
    Q, pi, _ = kl.pressure_derivatives(K.P[np.ix_(K.A, K.A)], V.V[K.A])
    sigma = np.zeros(K.n)
    sigma[K.A] = pi
    assert apps.rate_function_eval(K, sigma) == pytest.approx(V.V[K.A] @ pi - Q, abs=1e-9)


@settings(max_examples=80, deadline=None)
@given(generated_kernels(), arrays(float, 8, elements=st.floats(-1.0, 1.0)))
def test_rate_function_bounds_every_tilt(kernel, W):
    # I(sigma) >= <V, sigma> - log lam_V for every V, here at sigma = pi_W
    K, V = kernel
    P = K.P[np.ix_(K.A, K.A)]
    pi_W = kl.pressure_derivatives(P, W[: K.A.size])[1]
    sigma = np.zeros(K.n)
    sigma[K.A] = pi_W
    rate = apps.rate_function_eval(K, sigma)
    assert rate >= V.V[K.A] @ pi_W - kl.pressure_derivatives(P, V.V[K.A])[0] - 1e-12


def test_rate_function_at_a_dirac_is_minus_log_p_ii():
    # only V at state i matters: I(delta_i) = sup_v v - log(P_ii e^v); +inf when P_ii = 0
    P = np.array([[0.5, 0.5, 0.0], [0.25, 0.0, 0.75], [0.0, 0.4, 0.6]])
    K = kl.FiniteKernel(points=[[0.0], [1.0], [2.0]], P=P, A=[0, 1, 2])
    rates = [apps.rate_function_eval(K, np.eye(3)[i]) for i in range(3)]
    assert rates[0] == pytest.approx(np.log(2), rel=1e-14)
    assert rates[1] == np.inf
    assert rates[2] == pytest.approx(-np.log(0.6), rel=1e-14)


def test_rate_function_raises_where_the_sup_is_not_attained():
    # the 3-cycle permutation keeps only the uniform law: any other sigma
    # has rate +inf, approached but never attained, and a reducible P on
    # supp sigma has no Perron triple
    cycle = kl.FiniteKernel(points=[[0.0], [1.0], [2.0]], P=np.roll(np.eye(3), 1, axis=1), A=[0, 1, 2])
    assert abs(apps.rate_function_eval(cycle, np.full(3, 1 / 3))) <= 1e-15
    with pytest.raises(RuntimeError, match="not attained"):
        apps.rate_function_eval(cycle, np.array([0.2, 0.3, 0.5]))
    P = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.0, 0.0, 1.0]])
    K = kl.FiniteKernel(points=[[0.0], [1.0], [2.0]], P=P, A=[0, 1, 2])
    with pytest.raises(RuntimeError, match="reducible"):
        apps.rate_function_eval(K, np.array([0.5, 0.5, 0.0]))


def test_rate_function_infinite_outside_invariant_set(rng):
    pts = np.array([[0.0], [1.0], [2.0]])
    P = np.array([[0.6, 0.4, 0.0], [0.5, 0.5, 0.0], [0.2, 0.3, 0.5]])
    K = kl.FiniteKernel(points=pts, P=P, A=[0, 1])
    sigma = np.array([0.4, 0.4, 0.2])
    assert apps.rate_function_eval(K, sigma) == np.inf


def test_path_average_samples_rejects_k_below_one(chain_setup):
    _, chain = chain_setup
    f = fk.PotentialFn.from_chain(chain, np.arange(chain.points.shape[0], dtype=float))
    for k_set in ([0, 10], [-5, 10], []):
        with pytest.raises(ValueError, match="k_set"):
            apps.path_average_samples(chain, f, chain.points[0], k_set, 10)


def test_slln_time_constant_path():
    paths = np.zeros((16, 64))
    rep = apps.slln_time(paths, mu_f=0.0, eps=0.1, C=1.0)
    assert np.all(rep.T == 1)
    assert rep.censored_fraction == 0.0


def test_slln_time_flat_tail_is_insufficient():
    # one row violates the envelope to the end, the others never do, so the
    # tail of T has a single level and shows no decay to fit
    paths = np.zeros((200, 200))
    paths[0, :74] = 1.0
    rep = apps.slln_time(paths, mu_f=0.0, eps=0.1, C=1.0)
    assert np.unique(rep.tail_p).size == 1
    assert rep.verdict == "insufficient-tail"
    assert np.isnan(rep.exp_r2) and np.isnan(rep.poly_r2)


def test_slln_time_monotone_in_envelope(chain_setup):
    K, chain = chain_setup
    rng = rc.rng_stream(9, 0)
    n_traj, Klen = 400, 800
    X = rc.initial_ensemble(chain, chain.points[0], n_traj)
    f_values = np.linspace(-1, 1, K.n)
    mu = kl.perron_triple(K.P, K.A).mu
    mu_f = float(f_values @ mu)
    vals = np.empty((n_traj, Klen))
    for k, X, _ in rc.propagate(chain, X, rng, Klen):
        vals[:, k - 1] = f_values[X[:, 0]]
    rep_tight = apps.slln_time(vals, mu_f, eps=0.05, C=0.5)
    rep_loose = apps.slln_time(vals, mu_f, eps=0.45, C=0.5)
    # wider envelope: stochastically smaller T
    assert rep_loose.T.mean() <= rep_tight.T.mean()
    assert rep_loose.verdict in (
        "exponential-not-rejected",
        "heavy-tail-favored",
        "exponential-fit-degrades",
        "insufficient-tail",
    )
