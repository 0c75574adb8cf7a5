import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fklab import apps
from fklab import feynman_kac as fk
from fklab import kernel_lab as kl
from fklab import rds_core as rc
from fklab.measure_metrics import DiscreteMeasure, dual_lipschitz
from conftest import random_stochastic_chain


@pytest.fixture(scope="module")
def chain_setup():
    rng = np.random.default_rng(23)
    K = random_stochastic_chain(rng, 4)
    chain = rc.FiniteChainModel.from_kernel(K)
    return K, chain


def test_occupation_measure_trivials(chain_setup):
    _, chain = chain_setup
    traj = rc.simulate(chain, chain.points[0], 10, seed=1)
    traj = rc.Trajectory(states=chain.coords(traj.states), seed=traj.seed, stream=traj.stream)
    m1 = apps.occupation_measure(traj, 1)
    assert m1.support.shape[0] == 1
    assert np.allclose(m1.support[0], traj.states[0])
    assert m1.total == pytest.approx(1.0)
    const = rc.Trajectory(states=np.tile(chain.points[2], (8, 1)), seed=0, stream=0)
    m = apps.occupation_measure(const, 8)
    assert m.support.shape[0] == 1  # repeated states merge into one atom
    assert m.weights[0] == pytest.approx(1.0)
    with pytest.raises(ValueError):
        apps.occupation_measure(traj, 0)


def test_occupation_converges_to_stationary(chain_setup):
    K, chain = chain_setup
    pi = kl.perron_triple(K.P, K.A).mu
    target = DiscreteMeasure(K.points, pi)
    dists = []
    for k in (100, 400, 1600):
        traj = rc.simulate(chain, chain.points[0], k, seed=3)
        dists.append(dual_lipschitz(apps.occupation_measure(chain.coords(traj.states), k), target))
    assert dists[-1] < 0.08
    assert dists[-1] <= dists[0] + 0.02


def test_ldp_finite_state_matches_legendre(chain_setup):
    K, chain = chain_setup
    rng = np.random.default_rng(6)
    f_values = rng.uniform(0, 1, K.n)
    f = fk.PotentialFn.from_chain(chain, f_values)
    mu = kl.perron_triple(K.P, K.A).mu
    mean = float(f_values @ mu)

    def pressure(alpha):
        V = kl.PotentialVector.from_values(K, alpha * f_values)
        return float(np.log(kl.perron_triple(kl.build_tilted_matrix(K, V), K.A).lam))

    x_grid = [mean + 0.08, mean + 0.12]
    rep = apps.ldp_level1(
        chain, f, x_grid, k_set=[30, 60, 90, 120], n_traj=200_000,
        pressure_fn=pressure, alphas=np.linspace(-8, 8, 161), u0=K.points[0], seed=7,
    )
    for x, leg in zip(rep.x_grid, rep.legendre):
        if float(x) in rep.slope_rates:
            assert rep.slope_rates[float(x)] == pytest.approx(leg, rel=0.25)


def test_ldp_rejects_constant_f(chain_setup):
    _, chain = chain_setup
    f = fk.PotentialFn(fn=lambda U: np.ones(U.shape[0]))
    with pytest.raises(ValueError):
        apps.ldp_level1(chain, f, [0.5], [10], 100, lambda a: 0.0, [0.0, 1.0], chain.points[0])


def test_rate_function_zero_at_stationary(chain_setup):
    K, _ = chain_setup
    mu = kl.perron_triple(K.P, K.A).mu
    fam = apps.default_v_family(K)
    val = apps.rate_function_eval(K, mu, fam)
    assert 0.0 <= val < 1e-8


@st.composite
def irreducible_chains(draw):
    """A row-stochastic kernel on 2-8 points in the plane: sparse rows, kept
    irreducible by a random cycle through every state."""
    n = draw(st.integers(2, 8))
    W = draw(arrays(float, (n, n), elements=st.floats(0.05, 1.0)))
    keep = draw(arrays(bool, (n, n)))
    cycle = np.array(draw(st.permutations(range(n))))
    keep[cycle, np.roll(cycle, -1)] = True
    P = np.where(keep, W, 0.0)
    points = draw(arrays(float, (n, 2), elements=st.floats(-1.0, 1.0)))
    return kl.FiniteKernel(points=points, P=P / P.sum(axis=1, keepdims=True), A=np.arange(n))


@settings(max_examples=40, deadline=None)
@given(irreducible_chains())
def test_rate_function_vanishes_at_stationary_on_generated_chains(K):
    # <V, mu> <= log lam_V at the stationary mu, for every V of the family
    mu = kl.perron_triple(K.P, K.A).mu
    assert apps.rate_function_eval(K, mu, apps.default_v_family(K)) <= 1e-12


@st.composite
def chains_and_functions(draw):
    K = draw(irreducible_chains())
    return K, draw(arrays(float, K.n, elements=st.floats(-1.0, 1.0)))


@settings(max_examples=40, deadline=None)
@given(chains_and_functions())
@example((random_stochastic_chain(np.random.default_rng(23), 4), np.random.default_rng(5).uniform(0, 1, 4)))
def test_ldp_legendre_zero_at_mean(chain_and_f):
    # the exact pressure alpha -> log lam(alpha f) has slope <f, mu> at 0, so
    # its Legendre transform vanishes at the mean
    K, f_values = chain_and_f
    mu = kl.perron_triple(K.P, K.A).mu
    mean = f_values @ mu

    def pressure(alpha):
        V = kl.PotentialVector.from_values(K, alpha * f_values)
        return float(np.log(kl.perron_triple(kl.build_tilted_matrix(K, V), K.A).lam))

    alphas = np.linspace(-6, 6, 121)
    legendre = max(a * mean - pressure(a) for a in alphas)
    assert abs(legendre) < 1e-6


def test_rate_function_positive_at_dirac_and_monotone(chain_setup):
    K, _ = chain_setup
    sigma = np.zeros(K.n)
    sigma[0] = 1.0
    small_family = apps.default_v_family(K)[:3]
    big_family = apps.default_v_family(K)
    v_small = apps.rate_function_eval(K, sigma, small_family)
    v_big = apps.rate_function_eval(K, sigma, big_family)
    assert v_big > 0.01
    assert v_big >= v_small - 1e-12


def test_rate_function_infinite_outside_invariant_set(rng):
    pts = np.array([[0.0], [1.0], [2.0]])
    P = np.array([[0.6, 0.4, 0.0], [0.5, 0.5, 0.0], [0.2, 0.3, 0.5]])
    K = kl.FiniteKernel(points=pts, P=P, A=[0, 1])
    sigma = np.array([0.4, 0.4, 0.2])
    assert apps.rate_function_eval(K, sigma, apps.default_v_family(K)) == np.inf


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
