import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_particle_loop
from fklab import feynman_kac as fk
from fklab import kernel_lab as kl
from fklab import rds_core as rc
from fklab.dynamics_maps import ToyDiagonalMap
from fklab.measure_metrics import DiscreteMeasure, dual_lipschitz


@pytest.fixture(scope="module")
def chain_setup():
    rng = np.random.default_rng(11)
    n = 5
    pts = np.linspace(0, 2, n)[:, None]
    P = rng.uniform(0.1, 1.0, (n, n))
    P /= P.sum(axis=1, keepdims=True)
    K = kl.FiniteKernel(points=pts, P=P, A=np.arange(n))
    vals = rng.uniform(-0.5, 0.5, n)
    V = kl.PotentialVector.from_values(K, vals)
    triple = kl.perron_triple(kl.build_tilted_matrix(K, V), K.A)
    chain = rc.FiniteChainModel.from_kernel(K)
    Vfn = fk.PotentialFn.from_chain(chain, vals)
    return K, V, triple, chain, Vfn


@pytest.fixture(scope="module")
def toy_model():
    toy = ToyDiagonalMap.geometric(6, base=0.7, ratio=0.8)
    law = rc.KickLaw.from_decay(6, b0=0.3, s=1.0)
    return rc.RDSModel(map=toy, kicks=law, rho=1.0, contraction_factor=0.7)


def test_mc_semigroup_markov_mass(chain_setup):
    _, _, _, chain, _ = chain_setup
    est, err = fk.mc_semigroup_series(
        chain, fk.PotentialFn.zero(), lambda U: np.ones(U.shape[0]), chain.points[0], 7, 500, rc.rng_stream(2, 0)
    )
    assert est[-1] == 1.0
    assert err[-1] == 0.0


def test_mc_semigroup_series_averages_the_path_weights(toy_model):
    # the average of f(u_k) exp(V(u_1) + ... + V(u_k)) over one pass: with
    # V = 0 it is the mean of f(u_k) over the ensemble the same stream
    # draws, and a constant potential c with f = 1 gives e^{kc} at every k
    u0, f0 = np.full(6, 0.3), lambda U: U[:, 0]
    est, _ = fk.mc_semigroup_series(toy_model, fk.PotentialFn.zero(), f0, u0, 6, 300, rc.rng_stream(1, 0))
    means = [u0[0]] + [U[:, 0].mean() for _, U, _ in rc.propagate(
        toy_model, rc.initial_ensemble(toy_model, u0, 300), rc.rng_stream(1, 0), 6)]
    assert np.array_equal(est, means)
    const = fk.PotentialFn(fn=lambda U: np.full(U.shape[0], 0.2))
    est, err = fk.mc_semigroup_series(toy_model, const, lambda U: np.ones(U.shape[0]), u0, 6, 300, rc.rng_stream(1, 0))
    assert est == pytest.approx(np.exp(0.2 * np.arange(7)), rel=1e-12)
    assert not err.any()


def test_mc_semigroup_constant_potential(chain_setup):
    _, _, _, chain, _ = chain_setup
    const = fk.PotentialFn(fn=lambda U: np.full(U.shape[0], 0.3))
    est, err = fk.mc_semigroup_series(
        chain, const, lambda U: np.ones(U.shape[0]), chain.points[1], 5, 200, rc.rng_stream(3, 0)
    )
    assert est[-1] == pytest.approx(np.exp(1.5), rel=1e-12)
    assert err[-1] == pytest.approx(0.0, abs=1e-12)


def test_mc_semigroup_matches_matrix_power(chain_setup):
    K, V, triple, chain, Vfn = chain_setup
    M = kl.build_tilted_matrix(K, V)
    f = K.points[:, 0]
    for k, u0_idx in ((1, 0), (4, 2), (8, 3)):
        f_chain = lambda X: chain.coords(X)[:, 0]  # f on the chain's index states
        est, err = fk.mc_semigroup_series(chain, Vfn, f_chain, K.points[u0_idx], k, 40_000, rc.rng_stream(10 + k, 0))
        exact = (np.linalg.matrix_power(M, k) @ f)[u0_idx]
        assert abs(est[-1] - exact) <= 3 * err[-1]


def test_mc_semigroup_series_reads_every_horizon(chain_setup):
    # one pass gives, at every horizon, the numbers of a fresh run to that
    # horizon on the same stream
    K, V, triple, chain, Vfn = chain_setup
    f = lambda U: U[:, 0]
    est, err = fk.mc_semigroup_series(chain, Vfn, f, K.points[2], 6, 300, rc.rng_stream(9, 0))
    assert est.shape == err.shape == (7,)
    for k in range(7):
        e, s = fk.mc_semigroup_series(chain, Vfn, f, K.points[2], k, 300, rc.rng_stream(9, 0))
        assert (est[k], err[k]) == (e[-1], s[-1])
    with pytest.raises(ValueError):
        fk.mc_semigroup_series(chain, Vfn, f, K.points[2], 3, 1, rc.rng_stream(9, 0))


def test_shifted_scaled_chain_potential_is_a_table(chain_setup):
    # a chain potential is its value table read at the index states, and
    # shifted/scaled transform that table
    K, V, triple, chain, Vfn = chain_setup
    states = np.arange(K.n)[:, None]
    vals = V.V
    assert np.array_equal(Vfn(states), vals)
    assert np.array_equal(Vfn.scaled(0.7)(states), 0.7 * vals)
    assert np.array_equal(Vfn.shifted(0.3)(states), vals + 0.3)
    both = Vfn.shifted(-0.2).scaled(1.5)
    assert np.allclose(both(states), 1.5 * (vals - 0.2), rtol=0, atol=1e-15)
    # rows in any order and with repeats read the same table
    X = np.array([[3], [0], [3], [4]])
    assert np.array_equal(both(X), both(states)[X[:, 0]])
    assert np.array_equal(fk.PotentialFn.zero().scaled(2.0)(states), np.zeros(K.n))


def test_from_chain_rejects_bad_tables(chain_setup, toy_model):
    _, _, _, chain, _ = chain_setup
    with pytest.raises(ValueError, match="needs a chain model, not RDSModel"):
        fk.PotentialFn.from_chain(toy_model, np.zeros(6))
    bad = np.zeros(chain.points.shape[0])
    bad[2] = np.nan
    for values in ([0.1], np.zeros((5, 1)), np.zeros(6), bad, np.where(bad == bad, 0.0, np.inf)):
        with pytest.raises(ValueError, match="one finite value per state"):
            fk.PotentialFn.from_chain(chain, values)


def test_particle_fk_markov_case(chain_setup):
    K, _, _, chain, _ = chain_setup
    res = fk.particle_fk(chain, fk.PotentialFn.zero(), K.points[0], k=50, n_particles=4000, seed=4)
    assert abs(res.lam - 1.0) <= max(3 * res.lam_stderr, 1e-12)
    # terminal cloud close to the stationary measure in dual-Lipschitz norm
    pi = kl.perron_triple(K.P, K.A).mu
    d = dual_lipschitz(DiscreteMeasure.from_samples(chain.coords(res.mu_cloud)), DiscreteMeasure(K.points, pi))
    assert d < 0.05


def test_particle_fk_reproduces_exact_triple(chain_setup):
    K, V, triple, chain, Vfn = chain_setup
    res = fk.particle_fk(chain, Vfn, K.points[1], k=60, n_particles=10_000, seed=5)
    assert abs(res.lam - triple.lam) <= 3 * res.lam_stderr
    d = dual_lipschitz(
        DiscreteMeasure.from_samples(chain.coords(res.mu_cloud)), DiscreteMeasure(K.points, triple.mu)
    )
    assert d < 0.05
    for i in (0, 2, 4):
        h, err = fk.h_estimate(chain, Vfn, K.points[i], k=25, lam=res.lam, n_traj=20_000, seed=50 + i)
        assert abs(h - triple.h[i]) <= 3 * err + 0.01


def test_particle_fk_tilt_invariance(chain_setup):
    K, V, triple, chain, Vfn = chain_setup
    c = 0.8
    res0 = fk.particle_fk(chain, Vfn, K.points[0], k=50, n_particles=4000, seed=6)
    res1 = fk.particle_fk(chain, Vfn.shifted(c), K.points[0], k=50, n_particles=4000, seed=6)
    # identical randomness: the shift passes through exactly
    assert res1.lam == pytest.approx(np.exp(c) * res0.lam, rel=1e-12)
    assert np.array_equal(res0.mu_cloud, res1.mu_cloud)


def test_particle_fk_validates_inputs(chain_setup):
    _, _, _, chain, Vfn = chain_setup
    with pytest.raises(ValueError):
        fk.particle_fk(chain, Vfn, chain.points[0], k=10, n_particles=50)


def test_resampling_unbiasedness(toy_model, monkeypatch):
    # with and without resampling the mass estimates agree within error,
    # also when the loop resamples at nine tenths of n
    monkeypatch.setattr(fk, "ESS_THRESHOLD", 0.9)
    V = fk.PotentialFn.coordinate(0, scale=0.8, clip=1.0)
    k = 8
    est_mc, err_mc = (a[-1] for a in fk.mc_semigroup_series(
        toy_model, V, lambda U: np.ones(U.shape[0]), np.zeros(6), k, 40_000, rc.rng_stream(7, 0)
    ))
    res = fk.particle_fk(toy_model, V, np.zeros(6), k=k, n_particles=40_000, seed=8)
    est_pf = np.exp(res.log_mass_series[-1])
    assert abs(est_pf - est_mc) <= 3 * (err_mc + est_mc * 0.01)


def test_pressure_markov_zero(chain_setup):
    _, _, _, chain, _ = chain_setup
    fit = fk.pressure_estimate(chain, fk.PotentialFn.zero(), chain.points[0], k_max=40, n_traj=500, seed=9)
    assert fit.Q == pytest.approx(0.0, abs=1e-12)
    assert fit.accepted


def test_pressure_matches_perron(chain_setup):
    K, V, triple, chain, Vfn = chain_setup
    fit = fk.pressure_estimate(chain, Vfn, K.points[0], k_max=60, n_traj=8000, seed=10)
    assert abs(fit.Q - np.log(triple.lam)) <= 3 * fit.stderr
    assert fit.accepted


def test_pressure_constant_shift_exact(chain_setup):
    K, _, _, chain, Vfn = chain_setup
    f1 = fk.pressure_estimate(chain, Vfn, K.points[0], k_max=40, n_traj=2000, seed=11)
    f2 = fk.pressure_estimate(chain, Vfn.shifted(0.45), K.points[0], k_max=40, n_traj=2000, seed=11)
    assert f2.Q - f1.Q == pytest.approx(0.45, abs=1e-12)


def test_pressure_rejects_short_horizon(chain_setup):
    _, _, _, chain, Vfn = chain_setup
    with pytest.raises(ValueError):
        fk.pressure_estimate(chain, Vfn, chain.points[0], k_max=10)


def test_pressure_curve_matches_exact_curvature(chain_setup):
    K, _, triple, chain, _ = chain_setup
    rng = np.random.default_rng(3)
    vals = rng.uniform(-1, 1, K.n)
    Vfn = fk.PotentialFn.from_chain(chain, vals)
    mu0 = kl.perron_triple(K.P, K.A).mu
    vc = vals - vals @ mu0

    def q_exact(a):
        Vp = kl.PotentialVector.from_values(K, a * vc)
        return np.log(kl.perron_triple(kl.build_tilted_matrix(K, Vp), K.A).lam)

    eps = 1e-3
    sigma_exact = (q_exact(eps) + q_exact(-eps)) / eps**2
    curve = fk.pressure_curve(
        chain, Vfn, alphas=[-0.5, -0.25, 0.25, 0.5], u0=K.points[0], k_max=80, n_traj=20_000, seed=12
    )
    assert curve.convex
    assert curve.sigma_V == pytest.approx(sigma_exact, rel=0.1)
    # pointwise match against the exact curve recentred with the same
    # empirical shift the estimator used (a linear-in-alpha term)
    def q_exact_same_shift(a):
        Vp = kl.PotentialVector.from_values(K, a * (vals - curve.mean_shift))
        return np.log(kl.perron_triple(kl.build_tilted_matrix(K, Vp), K.A).lam)

    for a, q, err in zip(curve.alphas, curve.Q, curve.stderr):
        if a == 0:
            assert q == 0
        else:
            assert abs(q - q_exact_same_shift(a)) <= 3 * err + 2e-3


def test_lockstep_tilts_of_a_zero_potential_are_particle_fk(chain_setup, toy_model):
    # with V = 0 no tilt resamples, so every tilt of the lockstep loop holds
    # particle_fk's rows, weights and history, bitwise: only the kicks are shared
    chain = chain_setup[3]
    for model, u0 in ((toy_model, np.zeros(6)), (chain, chain.points[0])):
        ref = fk.particle_fk(model, fk.PotentialFn.zero(), u0, k=15, n_particles=300, seed=3).ensemble
        series, ensembles, _ = fk._particle_loop(model, fk.PotentialFn.zero(), u0, 15, 300, 3, (-0.5, 0.25, 1.0))
        assert series.shape == (3, 15) and not series.any()
        for ens in ensembles:
            assert not any(resampled for _, _, resampled in ens.history)
            assert np.array_equal(ens.particles, ref.particles)
            assert np.array_equal(ens.logweights, ref.logweights)
            assert ens.history == ref.history


def test_one_tilt_of_the_loop_is_particle_fk_on_the_scaled_potential(chain_setup, toy_model):
    # a single tilt alpha draws and resamples as particle_fk does on alpha V
    chain, Vfn = chain_setup[3], chain_setup[4]
    V_toy = fk.PotentialFn.coordinate(0, clip=2.0)
    for model, V, u0 in ((toy_model, V_toy, np.zeros(6)), (chain, Vfn, chain.points[0])):
        ref = fk.particle_fk(model, V.scaled(-1.5), u0, k=20, n_particles=400, seed=9)
        (series,), (ens,), _ = fk._particle_loop(model, V, u0, 20, 400, 9, (-1.5,))
        assert any(resampled for _, _, resampled in ens.history)
        assert np.array_equal(series, ref.log_mass_series)
        assert np.array_equal(ens.particles, ref.ensemble.particles)
        assert ens.history == ref.ensemble.history


def _collapses(ens):
    return sum(1 for _, ess, resampled in ens.history if resampled and ess <= 1.5)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["toy", "chain"]),
    base=st.lists(st.sampled_from([-3.0, -1.5, -0.5, -0.1, 0.0, 0.1, 0.5, 1.5, 3.0]), min_size=1, max_size=6),
    mirrored=st.booleans(),
    n=st.integers(100, 400),
    k=st.integers(5, 30),
    seed=st.integers(0, 2**32),
)
def test_block_sharing_loop_is_the_copy_per_tilt_loop(chain_setup, toy_model, kind, base, mirrored, n, k, seed):
    # tilts share a state block until they resample apart; every output and
    # the stream equal those of stepping one copy per tilt, bitwise
    tilts = (base + [-a for a in base])[:6] if mirrored else base
    chain, Vfn = chain_setup[3], chain_setup[4]
    if kind == "toy":
        model, V, init = toy_model, fk.PotentialFn.coordinate(0, clip=2.0), np.zeros(6)
    else:
        model, V, init = chain, Vfn, chain.points[[0, 3]]
    series, ensembles, rng = fk._particle_loop(model, V, init, k, n, seed, tilts)
    ref_series, ref_ensembles, ref_rng = reference_particle_loop(model, V, init, k, n, seed, tilts)
    assert np.array_equal(series, ref_series)
    for ens, ref in zip(ensembles, ref_ensembles, strict=True):
        assert np.array_equal(ens.particles, ref.particles)
        assert np.array_equal(ens.logweights, ref.logweights)
        assert ens.lognorm == ref.lognorm and ens.ess == ref.ess
        assert ens.history == ref.history and _collapses(ens) == _collapses(ref)
    assert rng.random() == ref_rng.random()


def test_tilts_share_a_block_until_they_resample(toy_model):
    # the zero tilts and the small one never resample and view one buffer;
    # each resampling tilt, the duplicates included, has a block of its own
    V = fk.PotentialFn.coordinate(0, clip=2.0)
    _, ensembles, _ = fk._particle_loop(toy_model, V, np.zeros(6), 20, 300, 5, (0.0, 3.0, 0.0, 0.1, 3.0))
    resamples = [sum(r for _, _, r in ens.history) for ens in ensembles]
    assert resamples[0] == resamples[2] == resamples[3] == 0 and resamples[1] > 0 and resamples[4] > 0
    P = [ens.particles for ens in ensembles]
    assert P[0] is not P[2] and np.shares_memory(P[0], P[2]) and np.shares_memory(P[0], P[3])
    for a, b in ((1, 0), (4, 0), (1, 4)):
        assert not np.shares_memory(P[a], P[b])


def test_loop_names_the_lowest_tilt_on_a_non_finite_block():
    # tilt 0 resamples onto a block of its own; tilts 1 and 2 stay on block
    # 0, where the state overflows first, so tilt 1 is named
    law = rc.KickLaw.from_decay(2, b0=0.3)
    model = rc.RDSModel(map=ToyDiagonalMap(factors=np.full(2, 1e100)), kicks=law, rho=1.0)
    V = fk.PotentialFn.coordinate(0, clip=2.0)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(FloatingPointError, match=r"in tilt 1, row \d+$"):
        fk._particle_loop(model, V, np.zeros(2), 10, 200, 1, (5.0, 0.0, 0.0))


def test_pressure_curve_rejects_a_recentring_run_of_no_step(toy_model):
    V = fk.PotentialFn.coordinate(0, clip=2.0, center=-0.5)
    with pytest.raises(ValueError, match="recenter_k = 50 .* at least 64"):
        fk.pressure_curve(toy_model, V, [-0.25, 0.25], np.zeros(6), k_max=20, n_traj=100, recenter_k=50)
    curve = fk.pressure_curve(toy_model, V, [-0.25, 0.25], np.zeros(6), k_max=20, n_traj=100, recenter_k=64)
    assert curve.mean_shift > 0.3  # the mean of u_0 + 0.5 under the stationary law is 0.5


@pytest.mark.slow
def test_pressure_curve_sigma_stderr_is_calibrated_on_a_fast_mixing_chain():
    # under shared kicks the tilts are correlated, and sigma_V's stderr,
    # read off the paired series s_- + s_+, still matches its spread over
    # seeds (the independence formula sqrt(e_-^2 + e_+^2) read 0.61)
    rng = np.random.default_rng(7)
    P = rng.uniform(0.1, 1.0, (5, 5))
    chain = rc.FiniteChainModel(points=np.linspace(0, 2, 5)[:, None], P=P / P.sum(axis=1, keepdims=True))
    V = fk.PotentialFn.from_chain(chain, rng.uniform(-1, 1, 5))
    curves = [
        fk.pressure_curve(chain, V, [-0.25, 0.25], chain.points[0], k_max=60, n_traj=2000, seed=seed)
        for seed in range(100)
    ]
    sigma = np.array([c.sigma_V for c in curves])
    stderr = np.array([c.sigma_V_stderr for c in curves])
    assert 0.75 <= sigma.std(ddof=1) / np.sqrt(np.mean(stderr**2)) <= 1.33


def test_pressure_curve_reads_sigma_off_grids_not_symmetric_about_zero():
    # the divided second difference over h_- h_+: on [-0.5, 0.25] and
    # [-0.25, 0.5] the min-spacing formula read 0.2498 and 0.2428 here
    rng = np.random.default_rng(7)
    P = rng.uniform(0.1, 1.0, (5, 5))
    K = kl.FiniteKernel(points=np.linspace(0, 2, 5)[:, None], P=P / P.sum(axis=1, keepdims=True), A=np.arange(5))
    vals = rng.uniform(-1, 1, 5)
    chain = rc.FiniteChainModel.from_kernel(K)
    vc = vals - vals @ kl.perron_triple(K.P, K.A).mu

    def q_exact(a):
        Vp = kl.PotentialVector.from_values(K, a * vc)
        return np.log(kl.perron_triple(kl.build_tilted_matrix(K, Vp), K.A).lam)

    eps = 1e-3
    sigma_exact = (q_exact(eps) + q_exact(-eps)) / eps**2
    for grid in ([-0.5, 0.25], [-0.25, 0.5]):
        curve = fk.pressure_curve(
            chain, fk.PotentialFn.from_chain(chain, vals), grid, chain.points[0], k_max=60, n_traj=20_000, seed=3
        )
        assert abs(curve.sigma_V - sigma_exact) <= 4 * curve.sigma_V_stderr


def test_pressure_curve_requires_straddling_grid(chain_setup):
    _, _, _, chain, Vfn = chain_setup
    with pytest.raises(ValueError):
        fk.pressure_curve(chain, Vfn, alphas=[0.25, 0.5], u0=chain.points[0], k_max=30, n_traj=500)


def slow_mixing_chain(rng, n=4, hold=0.8):
    """Chain with a strong diagonal: subdominant eigenvalue near ``hold``,
    slow enough for Monte Carlo to resolve the residual decay."""
    pts = np.linspace(0, 1.5, n)[:, None]
    P = hold * np.eye(n) + (1 - hold) * rng.dirichlet(np.ones(n), size=n)
    K = kl.FiniteKernel(points=pts, P=P, A=np.arange(n))
    vals = rng.uniform(-0.3, 0.3, n)
    V = kl.PotentialVector.from_values(K, vals)
    return K, V


def test_met_convergence_mc_chain():
    rng = np.random.default_rng(5)
    K, V = slow_mixing_chain(rng)
    triple = kl.perron_triple(kl.build_tilted_matrix(K, V), K.A)
    chain = rc.FiniteChainModel.from_kernel(K)
    Vfn = fk.PotentialFn.from_chain(chain, V.V)
    res = fk.particle_fk(chain, Vfn, K.points[1], k=120, n_particles=20_000, seed=13)
    starts = K.points[[0, 3]]
    h_at = [triple.h[0], triple.h[3]]
    # the observables read coordinates; the mu cloud and the ensembles hold index states
    f_list = [lambda X: chain.coords(X)[:, 0], lambda X: np.cos(2 * chain.coords(X)[:, 0])]
    rep = fk.met_convergence_mc(
        chain, Vfn, triple.lam, h_at, res.mu_cloud, f_list, starts, k_max=20, n_traj=40_000, seed=14
    )
    assert rep.verdict == "decaying"
    M = kl.build_tilted_matrix(K, V)
    mods = np.sort(np.abs(np.linalg.eigvals(M)))[::-1]
    gamma_true = -np.log(mods[1] / mods[0])
    assert rep.gamma == pytest.approx(gamma_true, rel=0.2)


def test_met_convergence_eigenfunction_inconclusive(chain_setup):
    K, V, triple, chain, Vfn = chain_setup
    res = fk.particle_fk(chain, Vfn, K.points[1], k=60, n_particles=8000, seed=15)
    h_vec = triple.h

    def f_eig(X):
        return h_vec[X[:, 0]]

    h_at = [triple.h[0]]
    rep = fk.met_convergence_mc(
        chain, Vfn, triple.lam, h_at, res.mu_cloud, [f_eig], K.points[[0]], k_max=12, n_traj=2000, seed=16
    )
    # residuals for the exact eigenfunction sit at the noise floor
    assert rep.verdict == "inconclusive" or rep.residuals[(0, 0)].max() < 0.02


def test_met_convergence_mc_draws_one_stream_per_function_and_start(chain_setup, monkeypatch):
    # 2 functions at 32 start points: 64 distinct streams (1000 + 31 fi + ui
    # gave (0, 31) and (1, 0) the same one)
    K, V, triple, chain, Vfn = chain_setup
    keys, rng_stream = [], fk.rng_stream
    monkeypatch.setattr(fk, "rng_stream", lambda seed, key: keys.append(key) or rng_stream(seed, key))
    starts = K.points[np.arange(32) % len(K.points)]
    f_list = [lambda X: chain.coords(X)[:, 0], lambda X: np.cos(chain.coords(X)[:, 0])]
    h_at = triple.h[np.arange(32) % len(K.points)]
    mu_cloud = np.arange(len(K.points))[:, None]  # index states, as particle_fk returns them
    fk.met_convergence_mc(chain, Vfn, triple.lam, h_at, mu_cloud, f_list, starts, k_max=3, n_traj=100, seed=1)
    assert len(keys) == len(set(keys)) == 64


def test_met_convergence_mc_fits_the_late_half(monkeypatch):
    # the Monte Carlo rate reads the window k >= (k_max + 1) // 2 of fits.late_half,
    # the one the exact MET fits read; at k_max = 12 that window starts at k = 6
    from fklab import fits

    rng = np.random.default_rng(5)
    K, V = slow_mixing_chain(rng)
    triple = kl.perron_triple(kl.build_tilted_matrix(K, V), K.A)
    chain = rc.FiniteChainModel.from_kernel(K)
    Vfn = fk.PotentialFn.from_chain(chain, V.V)
    res = fk.particle_fk(chain, Vfn, K.points[1], k=60, n_particles=5000, seed=13)
    line, seen = fits.line, []
    monkeypatch.setattr(fits, "line", lambda x, y: seen.append(np.asarray(x)) or line(x, y))
    fk.met_convergence_mc(
        chain, Vfn, triple.lam, [triple.h[0]], res.mu_cloud, [lambda X: chain.coords(X)[:, 0]], K.points[[0]],
        k_max=12, n_traj=20_000, seed=14,
    )
    (ks,) = seen
    assert ks.min() == 6 and ks.max() == 12


def test_non_finite_potential_values_are_numerical_failures(toy_model):
    nan = fk.PotentialFn(fn=lambda U: np.full(U.shape[0], np.nan))
    with pytest.raises(FloatingPointError, match="potential produced NaN"):
        nan(np.zeros((3, 6)))
    # 1e308 per step overflows the log-weights at step 2, before any resampling draw
    huge = fk.PotentialFn(fn=lambda U: np.full(U.shape[0], 1e308))
    with np.errstate(over="ignore"), pytest.raises(FloatingPointError, match="non-finite log-weights at step 2"):
        fk.particle_fk(toy_model, huge, np.zeros(6), k=10, n_particles=100, seed=1)
