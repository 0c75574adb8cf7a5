import warnings
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import integrate, stats

from conftest import brute_force_attraction_counter
from fklab import cli
from fklab import feynman_kac as fk
from fklab import rds_core as rc
from fklab.dynamics_maps import BurgersMap, ToyDiagonalMap
from fklab.measure_metrics import distances


@pytest.fixture
def toy_model():
    toy = ToyDiagonalMap.geometric(6, base=0.7, ratio=0.8)
    law = rc.KickLaw.from_decay(6, b0=0.3, s=1.0)
    return rc.RDSModel(map=toy, kicks=law, rho=1.0, contraction_factor=0.7)


def test_kick_law_validation():
    with pytest.raises(ValueError):
        rc.KickLaw(b=[0.1, 0.0, 0.2])
    for b in ([], [[0.1, 0.2]]):
        with pytest.raises(ValueError, match="nonempty vector"):
            rc.KickLaw(b=b)
    with pytest.raises(ValueError):
        rc.KickLaw.from_decay(4, s=0.4)
    law = rc.KickLaw.from_decay(4, b0=0.5, s=1.0)
    assert np.allclose(law.b, 0.5 / np.arange(1, 5))
    assert law.dim == 4


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: rc.KickLaw(b=[0.1, np.nan]), "b_j"),
        (lambda: rc.KickLaw(b=[np.inf, 0.1]), "b_j"),
        (lambda: rc.KickLaw.from_decay(3, b0=np.nan), "b_j"),
        (lambda: rc.KickLaw.from_decay(3, b0=np.inf), "b_j"),
        (lambda: rc.KickLaw.from_decay(3, s=np.nan), "decay exponent"),
    ],
    ids=["nan-b", "inf-b", "nan-b0", "inf-b0", "nan-s"],
)
def test_kick_law_rejects_non_finite_input(build, message):
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize("rho", [np.nan, np.inf, 0.0, -1.0])
def test_model_rejects_bad_rho(toy_model, rho):
    with pytest.raises(ValueError, match="rho must be positive and finite"):
        rc.RDSModel(map=toy_model.map, kicks=toy_model.kicks, rho=rho)


def test_density_contract():
    d = rc.KickLaw.from_decay(3).density
    mass, _ = integrate.quad(d.pdf, -1.0, 1.0, epsabs=1e-13)
    assert abs(mass - 1.0) < 1e-10
    assert d.cdf(1.0) - d.cdf(-1.0) == 1.0
    assert d.pdf(0.0) > 0
    assert d.pdf(1.5) == 0 and d.pdf(-1.5) == 0
    assert d.pdf(0.0) == pytest.approx(15.0 / 16.0)
    # C1 at the support edge
    assert d.pdf(1.0) == 0.0
    h = 1e-6
    assert abs(d.pdf(1.0 - h) / h) < 1e-4


def test_kick_support_and_symmetry(rng):
    law = rc.KickLaw.from_decay(5, b0=0.4)
    gen = rc.rng_stream(1, 0)
    kicks = rc.sample_kicks(law, gen, 100_000)
    assert np.all(np.abs(kicks) <= law.b[None, :])
    assert np.all(np.linalg.norm(kicks, axis=1) <= law.radius + 1e-12)
    # symmetric density: mean within 3 sigma of zero
    sd = kicks[:, 0].std() / np.sqrt(kicks.shape[0])
    assert abs(kicks[:, 0].mean()) < 3 * sd


def test_kick_marginal_matches_density():
    law = rc.KickLaw.from_decay(3, b0=0.7)
    gen = rc.rng_stream(2, 0)
    kicks = rc.sample_kicks(law, gen, 200_000)
    for j in range(3):
        res = stats.kstest(kicks[:, j] / law.b[j], law.density.cdf)
        assert res.pvalue > 1e-3


def beta_product(u):
    """The sampler's transform of the uniform triples in the last axis."""
    return 2.0 * (1.0 - u[..., 0]) ** (1 / 3) * (1.0 - u[..., 1]) ** 0.25 * (1.0 - u[..., 2]) ** 0.2 - 1.0


def test_kicks_take_three_uniforms_each_row_after_row():
    # after a batch the stream continues exactly like a twin that drew
    # 3 n dim uniforms, and each kick is the transform of its own triple
    law = rc.KickLaw.from_decay(5, b0=0.4)
    gen, twin = rc.rng_stream(4, 0), rc.rng_stream(4, 0)
    kicks = rc.sample_kicks(law, gen, 300)
    u = twin.random(3 * 300 * law.dim).reshape(300, law.dim, 3)
    assert np.array_equal(gen.random(8), twin.random(8))
    assert np.allclose(kicks, beta_product(u) * law.b, rtol=0, atol=1e-15)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 40),
    extra=st.integers(0, 40),
    b=arrays(float, st.integers(1, 7), elements=st.floats(1e-3, 1e3)),
    seed=st.integers(0, 2**32 - 1),
)
def test_kick_stream_contract(n, extra, b, seed):
    law = rc.KickLaw(b=b)
    gen, twin = rc.rng_stream(seed, 1), rc.rng_stream(seed, 1)
    big = rc.sample_kicks(law, gen, n + extra)
    assert np.all(np.abs(big) <= law.b)
    # the first n rows are the n-row batch, and both streams then agree
    assert np.array_equal(rc.sample_kicks(law, twin, n), big[:n])
    twin.random(3 * extra * law.dim)
    assert np.array_equal(gen.random(5), twin.random(5))


def test_kick_moments():
    # E xi^2 = 1/7 and E xi^4 = 1/21, within 5 standard errors; the
    # variances use E xi^6 = 5/231 and E xi^8 = 5/429
    n = 10**6
    xi = rc.QuarticBumpDensity.sample(rc.rng_stream(8, 0), (n,))
    for k, mean, var in ((2, 1 / 7, 1 / 21 - 1 / 49), (4, 1 / 21, 5 / 429 - 1 / 441)):
        assert abs((xi**k).mean() - mean) <= 5 * np.sqrt(var / n)


class StubGenerator:
    """Returns the given values, cycled, for any requested shape."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def random(self, size):
        return np.resize(self.values, size)


@pytest.mark.parametrize("values", [[0.0], [1 - 2**-53], [0.0, 1 - 2**-53, 0.5]], ids=["zero", "top", "mixed"])
def test_sample_at_the_ends_of_the_uniforms(values):
    with np.errstate(all="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        xi = rc.QuarticBumpDensity.sample(StubGenerator(values), (4, 3))
    assert xi.shape == (4, 3)
    assert np.all(np.isfinite(xi)) and np.all(np.abs(xi) <= 1.0)
    if values == [0.0]:
        assert np.all(xi == 1.0)


def test_kick_batch_prefix_is_the_smaller_batch():
    law = rc.KickLaw.from_decay(4, b0=0.5)
    big = rc.sample_kicks(law, rc.rng_stream(6, 2), 7 + 13)
    small = rc.sample_kicks(law, rc.rng_stream(6, 2), 7)
    assert np.array_equal(big[:7], small)


def test_simulate_deterministic(toy_model):
    u0 = np.full(6, 0.5)
    t1 = rc.simulate(toy_model, u0, 40, seed=9, stream=5)
    t2 = rc.simulate(toy_model, u0, 40, seed=9, stream=5)
    assert np.array_equal(t1, t2)
    t3 = rc.simulate(toy_model, u0, 40, seed=9, stream=6)
    assert not np.array_equal(t1, t3)
    t4 = rc.simulate(toy_model, u0, 40, seed=10, stream=5)
    assert not np.array_equal(t1, t4)


def test_simulate_zero_map_is_pure_noise():
    law = rc.KickLaw.from_decay(4, b0=0.5)
    zero_map = ToyDiagonalMap(factors=np.full(4, 1e-300))
    model = rc.RDSModel(map=zero_map, kicks=law, rho=1.0)
    traj = rc.simulate(model, np.full(4, 0.3), 30, seed=3)
    norms = np.linalg.norm(traj[1:], axis=1)
    assert np.all(norms <= law.radius + 1e-12)


def test_deterministic_iteration_without_kicks(toy_model):
    # a vanishing kick amplitude approximates the unforced map
    law = rc.KickLaw(b=np.full(6, 1e-15))
    model = rc.RDSModel(map=toy_model.map, kicks=law, rho=1.0)
    u0 = np.full(6, 0.8)
    traj = rc.simulate(model, u0, 5, seed=0)
    expect = u0.copy()
    for _ in range(5):
        expect = toy_model.map.apply(expect)
    assert np.allclose(traj[-1], expect, atol=1e-12)


def test_ensemble_matches_simulate_per_stream(toy_model):
    # a one-row ensemble on stream i is simulate(stream=i), bitwise, and a
    # single step draws exactly what a one-row ensemble step draws
    u0 = np.full(6, 0.4)
    for i in range(4):
        solo = rc.simulate(toy_model, u0, 25, seed=21, stream=i)
        X = u0[None, :].copy()
        for k, X, _ in rc.propagate(toy_model, X, rc.rng_stream(21, i), 25):
            assert np.array_equal(X[0], solo[k])
        u = toy_model.step(u0, rc.rng_stream(21, i))
        assert np.array_equal(u, solo[1])


def test_propagate_weights_and_active_rows(toy_model):
    V = lambda U: U[:, 0]
    X = np.tile(np.full(6, 0.4), (3, 1))
    active = np.array([True, False, True])
    seen = []
    for k, X, logw in rc.propagate(toy_model, X, rc.rng_stream(3, 0), 10, V=V, active=active):
        seen.append((k, X[:, 0].copy(), logw.copy()))
        if k == 4:
            active[0] = False
        if k == 6:
            active[2] = False
    assert [k for k, _, _ in seen] == [1, 2, 3, 4, 5, 6]  # ends once no row is active
    assert all(x[1] == 0.4 and w[1] == 0.0 for _, x, w in seen)  # frozen row untouched
    # logw is the running sum of V over each row's own steps
    assert seen[3][2][0] == pytest.approx(sum(x[0] for _, x, _ in seen[:4]), rel=1e-12)
    assert seen[-1][2][0] == seen[3][2][0]
    assert seen[-1][2][2] == pytest.approx(sum(x[2] for _, x, _ in seen), rel=1e-12)


def test_propagate_raises_on_non_finite_state():
    law = rc.KickLaw.from_decay(2, b0=0.3)
    model = rc.RDSModel(map=ToyDiagonalMap(factors=np.full(2, 1e100)), kicks=law, rho=1.0)
    # rows starting at norm ~1 overflow at step 4 (1e100^4); the frozen row
    # 0 never moves and row 1, started at zero, is one step behind
    X = np.array([[1.0, 1.0], [0.0, 0.0], [1.0, 1.0]])
    active = np.array([False, True, True])
    with np.errstate(over="ignore"), pytest.raises(FloatingPointError, match="step 4 in row 2"):
        for _ in rc.propagate(model, X, rc.rng_stream(0, 0), 10, active=active):
            pass


@pytest.mark.parametrize("kind", ["toy", "chain"])
def test_stacked_step_shares_its_draws_along_the_tilt_axis(toy_model, kind):
    # an (A, n, d) step is the 2-D step of each tilt from the same stream
    # state, bitwise, and leaves the stream where one 2-D step does
    rng = np.random.default_rng(5)
    if kind == "toy":
        model, X = toy_model, rng.uniform(-1, 1, size=(3, 50, 6))
    else:
        P = rng.uniform(0.1, 1.0, size=(4, 4))
        model = rc.FiniteChainModel(points=np.arange(4.0)[:, None], P=P / P.sum(axis=1, keepdims=True))
        X = rng.integers(0, 4, size=(3, 50, 1)).astype(np.intp)
    stacked = rc.rng_stream(8, 0)
    Y = model.step_many(X.copy(), stacked)
    assert Y.shape == X.shape and Y.dtype == X.dtype
    for a in range(3):
        solo = rc.rng_stream(8, 0)
        assert np.array_equal(Y[a], model.step_many(X[a].copy(), solo))
        assert np.array_equal(Y[a], model.step_many(X[None, a].copy(), rc.rng_stream(8, 0))[0])
    assert stacked.random() == solo.random()
    # propagate keeps one running weight per row of each tilt
    V = lambda Z: np.ones(Z.shape[:-1])
    _, _, logw = next(rc.propagate(model, X.copy(), rc.rng_stream(8, 0), 1, V=V))
    assert logw.shape == (3, 50) and np.all(logw == 1.0)


def test_propagate_names_the_tilt_and_row_of_a_non_finite_state(toy_model):
    X = np.zeros((3, 5, 6))
    X[1, 3, 2] = np.nan
    with pytest.raises(FloatingPointError, match="non-finite state at step 1 in tilt 1, row 3") as err:
        next(rc.propagate(toy_model, X, rc.rng_stream(0, 0), 5))
    assert err.value.index == (1, 3)
    # a mask over the blocks: the tilt index goes through the active blocks, the row stays
    X = np.zeros((3, 5, 6))
    X[2, 4, 0] = np.nan
    with pytest.raises(FloatingPointError, match="non-finite state at step 1 in tilt 2, row 4") as err:
        next(rc.propagate(toy_model, X, rc.rng_stream(0, 0), 5, active=np.array([False, True, True])))
    assert err.value.index == (2, 4)
    # a mask with gaps over the rows of an (n, d) ensemble
    X = np.zeros((6, 6))
    X[4, 5] = np.inf
    gaps = np.array([True, False, True, False, True, True])
    with pytest.raises(FloatingPointError, match="non-finite state at step 1 in row 4") as err:
        next(rc.propagate(toy_model, X, rc.rng_stream(0, 0), 5, active=gaps))
    assert err.value.index == (4,)


@pytest.mark.parametrize(
    "shape, active, view",
    [((8, 6), None, True), ((8, 6), [True] * 8, True), ((8, 6), [False, True, True, True] + [False] * 4, True),
     ((8, 6), [True, False] * 4, False), ((4, 8, 6), [True, True, False, False], True),
     ((4, 8, 6), [True, False, True, False], False)],
)
def test_propagate_steps_a_run_of_active_entries_as_a_view(toy_model, monkeypatch, shape, active, view):
    # a contiguous run of active rows or blocks reaches the map as a view of
    # X; a mask with gaps gathers a copy.  Either way the step is the same
    X = np.random.default_rng(2).uniform(-1, 1, size=shape)
    ref = X.copy()
    seen = []
    step_many = rc.RDSModel.step_many

    def spy(self, U, r):
        seen.append(np.shares_memory(U, X))
        return step_many(self, U, r)

    monkeypatch.setattr(rc.RDSModel, "step_many", spy)
    next(rc.propagate(toy_model, X, rc.rng_stream(4, 0), 1, active=None if active is None else np.array(active)))
    assert seen == [view]
    on = np.ones(shape[0], dtype=bool) if active is None else np.array(active)
    assert np.array_equal(X[on], step_many(toy_model, ref[on], rc.rng_stream(4, 0)))
    assert np.array_equal(X[~on], ref[~on])


def test_attainability_cloud_trivials(toy_model):
    B = np.zeros((1, 6))
    assert np.array_equal(rc.attainability_cloud(toy_model, B, 0), B)
    with pytest.raises(ValueError):
        rc.attainability_cloud(toy_model, np.empty((0, 6)), 2)
    # S ~ 0: the one-step cloud is the kick support mesh
    tiny = ToyDiagonalMap(factors=np.full(6, 1e-300))
    model0 = rc.RDSModel(map=tiny, kicks=toy_model.kicks, rho=1.0)
    cloud = rc.attainability_cloud(model0, B, 1, kicks_per_point=64)
    assert np.all(np.abs(cloud) <= toy_model.kicks.b[None, :])


def test_attainability_cloud_bounded_by_rho(toy_model):
    cloud = rc.attainability_cloud(toy_model, np.zeros((1, 6)), 40, seed=3, max_points=3000)
    # gamma_1 = 0.7 and kick radius give rho = radius / (1 - 0.7)
    rho = toy_model.kicks.radius / 0.3
    assert np.linalg.norm(cloud, axis=1).max() <= rho


def _all_parents_cloud(model, B, k, seed, kicks_per_point, max_points):
    # the construction that maps every parent before it subsamples the candidates
    cloud, rng = np.atleast_2d(np.asarray(B, dtype=float)), rc.rng_stream(seed, 987)
    for _ in range(k):
        img = model.map.apply_batch(cloud)
        kicks = rc._kick_mesh(model.kicks, rng, kicks_per_point)
        cloud = np.repeat(img, kicks_per_point, axis=0)
        cloud[:, : model.kicks.dim] += np.tile(kicks, (img.shape[0], 1))
        if cloud.shape[0] > max_points:
            cloud = cloud[rng.choice(cloud.shape[0], size=max_points, replace=False)]
    return cloud


@pytest.mark.parametrize("which", ["toy", "burgers16"])
def test_attainability_cloud_maps_only_kept_parents(toy_model, monkeypatch, which):
    model = toy_model
    if which == "burgers16":
        bm = BurgersMap(nu=1.0, modes=16, dt=2e-2)
        model = rc.RDSModel(map=bm, kicks=rc.KickLaw.from_decay(8, b0=0.3, s=1.0), rho=0.7)
    B = np.zeros((1, model.dim))
    ref = _all_parents_cloud(model, B, 5, 2, 6, 500)
    mapped, apply_batch = [], type(model.map).apply_batch
    monkeypatch.setattr(type(model.map), "apply_batch", lambda self, U: mapped.append(len(U)) or apply_batch(self, U))
    cloud = rc.attainability_cloud(model, B, 5, seed=2, kicks_per_point=6, max_points=500)
    assert np.array_equal(cloud, ref)
    # 1, 6 and 36 parents are mapped whole; of 216 and then 500 parents, only those kept
    assert mapped[:3] == [1, 6, 36] and 0 < mapped[3] < 216 and 0 < mapped[4] < 500


def test_hitting_time_immediate_hit(toy_model):
    rep = rc.hitting_time_stats(toy_model, [np.zeros(6)], eps=0.5, n_traj=50, horizon=50, seed=1)
    taus = next(iter(rep.taus.values()))
    assert np.all(taus == 0)


def test_hitting_time_duplicate_starts_kept_apart(toy_model):
    u0 = np.full(6, 0.9)
    rep = rc.hitting_time_stats(toy_model, [u0, u0], eps=0.3, n_traj=50, horizon=100, seed=4)
    assert sorted(rep.taus) == [0, 1]
    assert all(tau.shape == (50,) for tau in rep.taus.values())
    # each start has its own rows of the one stream
    assert not np.array_equal(rep.taus[0], rep.taus[1])


def _hand_taus(model, starts, eps, n, horizon, seed):
    """First hitting times by a hand-written propagate loop: start m in
    rows m n .. (m + 1) n - 1 of one ensemble on stream (seed, 0)."""
    X = np.repeat(np.asarray(starts, dtype=float), n, axis=0)
    tau, alive = np.full(len(X), horizon + 1), np.ones(len(X), dtype=bool)
    for k, X, _ in rc.propagate(model, X, rc.rng_stream(seed, 0), horizon, active=alive):
        hit = alive & (np.linalg.norm(X, axis=1) <= eps)
        tau[hit], alive[hit] = k, False
    return tau


def test_hitting_times_run_every_start_on_one_stream(toy_model):
    u0, eps, n, horizon = np.full(6, 0.9), 0.3, 200, 60
    rep = rc.hitting_time_stats(toy_model, [u0], eps, n_traj=n, horizon=horizon, seed=5)
    tau = _hand_taus(toy_model, [u0], eps, n, horizon, seed=5)
    assert list(rep.taus) == [0] and np.array_equal(rep.taus[0], tau)
    assert rep.censored_fraction == (tau > horizon).mean()
    # two starts: one ensemble of 2 n rows, n taus per start read off its block
    starts = [u0, np.full(6, 0.5)]
    rep = rc.hitting_time_stats(toy_model, starts, eps, n_traj=n, horizon=horizon, seed=5)
    tau = _hand_taus(toy_model, starts, eps, n, horizon, seed=5)
    assert sorted(rep.taus) == [0, 1] and all(t.shape == (n,) for t in rep.taus.values())
    assert np.array_equal(rep.taus[0], tau[:n]) and np.array_equal(rep.taus[1], tau[n:])


def test_hitting_time_contraction_bound(toy_model):
    # deterministic contraction: tau <= ceil(log(||u0||/eps)/log(1/a)) + slack
    u0 = np.full(6, 1.2)
    eps = 0.45
    rep = rc.hitting_time_stats(toy_model, [u0], eps=eps, n_traj=400, horizon=300, seed=2)
    taus = next(iter(rep.taus.values()))
    a = 0.7
    bound = int(np.ceil(np.log(np.linalg.norm(u0) / (eps - toy_model.kicks.radius / 0.3 * 0))))
    # crude bound: contraction plus bounded kicks settle within a few steps
    assert taus.max() <= np.ceil(np.log(eps / np.linalg.norm(u0)) / np.log(a)) + 10
    assert rep.censored_fraction == 0.0
    assert rep.delta > 0


def test_hitting_time_geometric_tail(toy_model):
    rep = rc.hitting_time_stats(
        toy_model, [np.full(6, 0.9)], eps=0.25, n_traj=10_000, horizon=400, seed=3
    )
    taus = next(iter(rep.taus.values()))
    ms = np.arange(1, taus.max())
    tail = np.array([(taus > m).mean() for m in ms])
    keep = tail > 0
    if keep.sum() >= 3:
        slope, intercept = np.polyfit(ms[keep], np.log(tail[keep]), 1)
        pred = slope * ms[keep] + intercept
        resid = np.log(tail[keep]) - pred
        r2 = 1 - resid.var() / np.log(tail[keep]).var()
        assert slope < 0
        assert r2 > 0.95


def test_attraction_counter_zero_inside(toy_model):
    cloud = rc.attainability_cloud(toy_model, np.zeros((1, 6)), 40, seed=5, max_points=4000)
    rep = rc.attraction_counter(
        toy_model, cloud, eps=0.3, u0s=cloud[:16], n_traj=64, horizon=100, seed=6
    )
    assert rep.counts.max() <= 1  # starting on the attractor: essentially never outside
    assert rep.alpha_moment < np.inf


def test_attraction_counter_eps_below_resolution(toy_model):
    cloud = rc.attainability_cloud(toy_model, np.zeros((1, 6)), 20, seed=7, max_points=200)
    with pytest.raises(ValueError):
        rc.attraction_counter(toy_model, cloud, eps=1e-9, u0s=np.zeros((1, 6)), n_traj=10, horizon=10)


def test_attraction_counter_tail_fit(toy_model):
    cloud = rc.attainability_cloud(toy_model, np.zeros((1, 6)), 40, seed=8, max_points=4000)
    rep = rc.attraction_counter(
        toy_model, cloud, eps=0.25, u0s=np.full((1, 6), 0.9), n_traj=4000, horizon=300, seed=9
    )
    assert rep.delta > 0
    # exponential moment at alpha = delta/2 stays modest (empirical form of
    # the finite-exponential-moment claim)
    assert rep.alpha_moment < 50


@contextmanager
def counted_searches():
    """The rows of every nearest-point search of the attraction counter made inside."""
    calls = []
    nearest = rc._CloudSearch.nearest

    def counting(self, X, cuts):
        calls.append(np.array(X))
        return nearest(self, X, cuts)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rc._CloudSearch, "nearest", counting)
        yield calls


@pytest.fixture(scope="module")
def counter_cases():
    """The toy with settling on and Burgers M = 16 with settling off, each
    with an attainable cloud, its eps and the radius of its start points."""
    toy = rc.RDSModel(
        ToyDiagonalMap.geometric(6, base=0.7, ratio=0.8), rc.KickLaw.from_decay(6, b0=0.3, s=1.0),
        rho=1.0, contraction_factor=0.7,
    )
    bm = BurgersMap(nu=1.0, modes=16, dt=2e-2)
    burgers = rc.RDSModel(bm, rc.KickLaw.from_decay(8, b0=0.3, s=1.0), rho=0.7)
    return {
        "toy": (toy, rc.attainability_cloud(toy, np.zeros((1, 6)), 40, seed=8, max_points=2000), 0.2, 2.5),
        "burgers": (
            burgers,
            rc.attainability_cloud(burgers, np.zeros((1, bm.dim)), 14, seed=2, kicks_per_point=5, max_points=2000),
            0.16,
            0.7,
        ),
    }


@pytest.mark.parametrize("case, settles", [("toy", True), ("burgers", False)])
@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_attraction_counter_equals_a_query_per_row(counter_cases, case, settles, seed):
    # the cached bound decides some rows and the search the rest; every
    # number of the report equals that of one kd-tree query per active row
    model, cloud, eps, radius = counter_cases[case]
    gen = np.random.default_rng(seed)
    dirs = gen.normal(size=(20, model.dim))
    u0s = dirs / np.linalg.norm(dirs, axis=1, keepdims=True) * (radius * gen.random((20, 1)))
    with counted_searches() as queries:
        rep = rc.attraction_counter(model, cloud, eps, u0s, n_traj=200, horizon=40, seed=seed)
    ref = brute_force_attraction_counter(model, cloud, eps, u0s, 200, 40, seed)
    assert rep.settling_shortcut is ref["settling_shortcut"] is settles
    assert np.array_equal(rep.counts, ref["counts"])
    for key in ("censored_fraction", "delta", "Lambda", "alpha_moment"):
        assert getattr(rep, key) == ref[key], key
    # the bound decides more than a third of the rows (a half to three fifths here)
    assert 0 < sum(map(len, queries)) < 2 / 3 * ref["queried_rows"]


class IdentityMap:
    """S(u) = u on the plane."""

    dim = 2

    def apply_batch(self, U):
        return np.array(U, dtype=float)


def test_attraction_counter_queries_a_row_at_the_edge_of_its_bound():
    # kicks of 1e-300 leave every row where it starts; rows 0 and 1 sit
    # 1e-12 inside and outside eps of cloud point 0, their first cached
    # point, and must reach the search at every step; row 2, at eps / 2,
    # never does; row 3 is eps / 5 from cloud point 3 and reaches the search
    # once, which then caches that point
    model = rc.RDSModel(IdentityMap(), rc.KickLaw(np.full(2, 1e-300)), rho=1.0)
    eps = 0.1
    cloud = np.array([[1.0, 0.0], [1.05, 0.0], [1.1, 0.0], [1.15, 0.0]])
    u0s = np.array([[1.0, eps - 1e-12], [1.0, eps + 1e-12], [1.0, eps / 2], [1.15, eps / 5]])
    with counted_searches() as asked:
        rep = rc.attraction_counter(model, cloud, eps, u0s, n_traj=4, horizon=5, seed=1)
    ref = brute_force_attraction_counter(model, cloud, eps, u0s, 4, 5, 1)
    assert rep.counts.tolist() == ref["counts"].tolist() == [0, 5, 0, 0]
    assert len(asked) == 5 and np.array_equal(asked[0], u0s[[0, 1, 3]])
    assert all(np.array_equal(x, u0s[:2]) for x in asked[1:])


@settings(max_examples=60, deadline=None)
@given(
    dim=st.integers(1, 40), n=st.integers(1, 30), ring=st.integers(0, 6), dups=st.integers(0, 4),
    offset=st.sampled_from([0.0, 1.0, 1e3]), seed=st.integers(0, 2**32 - 1),
)
def test_cloud_search_is_the_kd_tree_search(dim, n, ring, dups, offset, seed):
    # clouds with duplicate points and a ring of points near-tied at distance
    # t from a centre; far from the origin (offset 1e3) the product's
    # rounding can misorder points a relative 1e-9 apart, so the candidate
    # alone would decide some of the rows near t wrongly
    from scipy.spatial import cKDTree

    gen = np.random.default_rng(seed)
    t, centre = 0.5, gen.normal(size=dim)
    dirs = gen.normal(size=(ring, dim))
    nudge = gen.choice([-1e-9, -1e-12, 0.0, 1e-12, 1e-9], size=(ring, 1))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    pts = np.vstack([gen.normal(size=(n, dim)), centre + t * (1 + nudge) * dirs])
    cloud = offset + np.vstack([pts, pts[gen.integers(0, len(pts), dups)]])
    # rows: the centre, every cloud point, random points, and rows 1e-12
    # (relative) inside and outside t of a cloud point
    u = gen.normal(size=(4, dim))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    edge = cloud[gen.integers(0, len(cloud), 4)] + t * (1 + np.array([[-1e-12], [1e-12], [-1e-12], [1e-12]])) * u
    X = np.vstack([offset + centre, cloud, offset + gen.normal(size=(5, dim)), edge])
    search = rc._CloudSearch(cloud)
    cuts = (t, rc.SETTLE_FRAC * t)
    d, j = search.nearest(X, cuts)
    table = distances(X, cloud)
    rows = np.arange(len(X))
    exact = table.min(axis=1)
    assert np.array_equal(d, table[rows, j])  # distances' bits for the point returned
    for cut in cuts:  # each decision is the exact distance's
        assert np.array_equal(d > cut, exact > cut), cut
    kd_d, kd_j = cKDTree(cloud).query(X)
    assert np.allclose(kd_d, exact, rtol=1e-13, atol=0)
    # the kd-tree's point, or one tied with it up to the product's rounding
    reach = np.linalg.norm(X, axis=1) + np.linalg.norm(cloud, axis=1).max()
    slack = 4 * (dim + 2) * np.finfo(float).eps * reach**2
    assert np.all((j == kd_j) | (d**2 - exact**2 <= slack))
    # the spacing, self excluded, is distances' exact one and the kd-tree's k = 2 column
    own = distances(cloud, cloud)
    np.fill_diagonal(own, np.inf)
    assert search.spacing() == own.min(axis=1).max()
    assert search.spacing() == pytest.approx(cKDTree(cloud).query(cloud, k=2)[0][:, 1].max(), rel=1e-13, abs=0)


@settings(max_examples=30, deadline=None)
@given(dim=st.integers(1, 8), n=st.integers(20, 60), seed=st.integers(0, 2**32 - 1))
def test_cloud_spacing_is_exact_where_the_largest_spacing_is_a_near_tie(dim, n, seed):
    # points 1 apart along a line far from the origin, each gap nudged by at
    # most 1e-12: the product cannot tell a point's two neighbours apart, so
    # the point with the largest candidate distance is seldom the one with
    # the largest spacing, and every point whose candidate reaches the
    # largest lower bound must be searched exactly
    gen = np.random.default_rng(seed)
    u = gen.normal(size=dim)
    cloud = 1e3 + np.cumsum(1 + gen.uniform(-1e-12, 1e-12, n))[:, None] * (u / np.linalg.norm(u))
    own = distances(cloud, cloud)
    np.fill_diagonal(own, np.inf)
    assert rc._CloudSearch(cloud).spacing() == own.min(axis=1).max()


@pytest.mark.parametrize("dim", [1, 2, 6, 32, 40])
def test_cloud_search_slack_covers_the_rounding_bounds(dim):
    # twice a product entry's bound gamma_(2d+2) (|x| + R)^2 and a
    # recomputed square's gamma_(d+4), here with |x| + R = 1
    u = np.finfo(float).eps / 2
    gamma = lambda k: k * u / (1 - k * u)  # noqa: E731
    cloud = np.zeros((2, dim))
    cloud[1, 0] = 1.0
    low = rc._CloudSearch(cloud)._low(np.zeros((1, dim)), np.zeros(1))
    assert -low[0] >= 2 * (gamma(2 * dim + 2) + gamma(dim + 4))


def test_cloud_search_searches_few_rows_exactly(counter_cases, monkeypatch):
    # the exact whole-cloud search is kept for the rows the product leaves
    # in doubt: the largest spacing's row, and none of the counter's rows
    cloud = counter_cases["burgers"][1]
    rows = []
    search_rows = rc._CloudSearch._search

    def counting(self, X, exact, skip=None):
        if exact:
            rows.append(len(X))
        return search_rows(self, X, exact, skip)

    monkeypatch.setattr(rc._CloudSearch, "_search", counting)
    search = rc._CloudSearch(cloud)
    spacing = search.spacing()
    X = cloud[:500] + np.random.default_rng(5).normal(scale=0.05, size=(500, cloud.shape[1]))
    search.nearest(X, (0.16, 0.12))
    own = distances(cloud, cloud)
    np.fill_diagonal(own, np.inf)
    assert spacing == own.min(axis=1).max()
    assert rows[0] <= 3 and rows[1] == 0


def test_verify_map_conditions_toy_exact(toy_model):
    plan = rc.SamplePlan(radii=(1.0, 2.0), r=0.5, projection_dims=(1, 2, 4), seed=0)
    rep = rc.verify_map_conditions(toy_model, plan)
    g = toy_model.map.factors
    for N, val in rep["smoothing"]["gamma_N"].items():
        assert val == pytest.approx(g[N], rel=1e-9)
    assert rep["smoothing"]["monotone_decay"]
    for R, entry in rep["dissipativity"].items():
        assert entry["n0"] == 1
        assert entry["a"] < 1


def test_verify_map_conditions_linear_decay_rate(toy_model):
    plan = rc.SamplePlan(radii=(1.0,), r=0.5, n_iter=6, seed=1)
    rep = rc.verify_map_conditions(toy_model, plan)
    seq = rep["dissipativity"][1.0]["a_sequence"]
    # linear contraction: empirical a at iterate n matches gamma_1^n
    ratios = seq / (0.7 ** np.arange(1, 7))
    assert np.all(ratios <= 2.0 + 1e-9)


def test_chain_model_roundtrip(rng):
    pts = np.array([[0.0], [1.0], [2.5]])
    P = np.array([[0.2, 0.5, 0.3], [0.3, 0.4, 0.3], [0.5, 0.25, 0.25]])
    chain = rc.FiniteChainModel(points=pts, P=P)
    assert chain.index_of(np.array([[1.0], [2.5]])).tolist() == [1, 2]
    X0 = rc.initial_ensemble(chain, [0.0], 5000)  # the point 0.0 is state 0
    assert X0.dtype == np.intp and X0.shape == (5000, 1) and not X0.any()
    states = [chain.coords(X)[:, 0] for k, X, _ in rc.propagate(chain, X0, rc.rng_stream(12, 0), 400)
              if k >= 200]
    # occupation matches the stationary distribution
    w, V = np.linalg.eig(P.T)
    pi = np.abs(V[:, np.argmax(w.real)].real)
    pi /= pi.sum()
    occ = np.array([(np.abs(np.asarray(states) - p) < 1e-9).mean() for p in pts[:, 0]])
    assert np.abs(occ - pi).max() < 0.02


def test_attraction_needs_a_continuous_map():
    chain = rc.FiniteChainModel(points=np.array([[0.0], [1.0]]), P=np.full((2, 2), 0.5))
    with pytest.raises(ValueError, match="continuous map"):
        rc.attainability_cloud(chain, np.zeros((1, 1)), 2)
    with pytest.raises(ValueError, match="continuous map"):
        rc.attraction_counter(chain, np.array([[0.0], [1.0]]), 2.0, np.zeros((1, 1)), n_traj=4, horizon=3)
    # hitting times read state norms, which index states do not have
    with pytest.raises(ValueError, match="continuous map"):
        rc.hitting_time_stats(chain, np.zeros((1, 1)), 0.5, n_traj=4, horizon=3)


def test_chain_rejects_non_stochastic():
    with pytest.raises(ValueError):
        rc.FiniteChainModel(points=np.array([[0.0], [1.0]]), P=np.array([[0.5, 0.6], [0.5, 0.5]]))


@pytest.mark.parametrize(
    "P",
    [
        [[0.5, 0.5], [0.5, 0.5]],
        [[0.5, 0.5, 0.0]],
        [[1.5, -0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]],
        [[np.nan, 1.0, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]],
        [[np.inf, 1.0, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]],
    ],
    ids=["size-mismatch", "non-square", "negative", "nan", "inf"],
)
def test_chain_rejects_malformed_P(P):
    with pytest.raises(ValueError, match="chain P"):
        rc.FiniteChainModel(points=np.array([[0.0], [1.0], [2.0]]), P=np.array(P))


def test_chain_rejects_coincident_points():
    # on the 3-cycle, index_of would send state 1 to state 0 and never use row 1
    cycle = np.roll(np.eye(3), 1, axis=1)
    with pytest.raises(ValueError, match="chain points 0 and 1 coincide"):
        rc.FiniteChainModel(points=np.array([[0.0], [0.0], [1.0]]), P=cycle)
    # distinct points whose squared distance underflows to zero count as coincident
    with pytest.raises(ValueError, match="chain points 1 and 2 coincide"):
        rc.FiniteChainModel(points=np.array([[1.0], [0.0], [1e-300]]), P=cycle)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_index_of_is_the_kd_tree_nearest_point(data):
    from scipy.spatial import cKDTree

    n, d = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 5))
    grid = st.integers(-10_000, 10_000).map(lambda i: i / 1000)  # points stay distinguishable
    pts = data.draw(arrays(float, (n, d), elements=grid, unique=True))
    chain = rc.FiniteChainModel(points=pts, P=np.full((n, n), 1.0 / n))
    assert chain.index_of(pts).tolist() == list(range(n))
    assert chain.index_of(pts).tolist() == cKDTree(pts).query(pts)[1].tolist()
    coord = st.floats(-10, 10, allow_nan=False, allow_infinity=False)
    U = data.draw(arrays(float, (data.draw(st.integers(1, 30)), d), elements=coord))
    ours, ref = chain.index_of(U), cKDTree(pts).query(U)[1]
    reps = -(-(rc.SEARCH_BLOCK_BYTES // (8 * n) + 1) // len(U))  # enough rows to span more than one row block
    assert np.array_equal(chain.index_of(np.tile(U, (reps, 1))), np.tile(ours, reps))
    sq = ((U[:, None, :] - pts[None]) ** 2).sum(-1)
    rows = np.arange(U.shape[0])
    # equal, or an exact tie the tree breaks the other way
    assert np.all((ours == ref) | np.isclose(sq[rows, ours], sq[rows, ref], rtol=1e-12, atol=0))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_chain_ensembles_step_index_states(data):
    n, d = data.draw(st.integers(2, 8), label="states"), data.draw(st.integers(1, 3), label="dim")
    grid = st.integers(-10_000, 10_000).map(lambda i: i / 1000)
    pts = data.draw(arrays(float, (n, d), elements=grid, unique=True), label="points")
    W = data.draw(arrays(float, (n, n), elements=st.sampled_from([0.0, 0.1, 0.5, 1.0]) | st.floats(0, 1)))
    W[W.sum(axis=1) == 0] = 1.0  # zero entries stay: chains need not be irreducible
    chain = rc.FiniteChainModel(points=pts, P=W / W.sum(axis=1, keepdims=True))
    u0 = data.draw(arrays(float, d, elements=st.floats(-12, 12)), label="u0")
    rows, steps = data.draw(st.integers(1, 40), label="rows"), data.draw(st.integers(1, 12), label="steps")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    i = data.draw(st.integers(0, d - 1), label="coordinate")
    coord = {"kind": "coordinate", "index": i, "scale": data.draw(st.floats(-3, 3)),
             "center": data.draw(st.floats(-3, 3)), "clip": data.draw(st.none() | st.floats(0.1, 5))}
    V_coord = fk.PotentialFn.coordinate(i, scale=coord["scale"], center=coord["center"], clip=coord["clip"])
    V = cli._build_potential(cli._Config({"potential": coord}, "pressure"), chain)  # tabulated on the points once

    # the ensemble starts at the nearest point, as an index column
    X = rc.initial_ensemble(chain, u0, rows)
    idx = np.full(rows, chain.index_of(u0)[0])
    assert X.dtype == np.intp and X.shape == (rows, 1) and np.array_equal(X[:, 0], idx)
    # propagate on index states is step_indices by hand on the same stream
    hand, logw_hand = rc.rng_stream(seed, 0), np.zeros(rows)
    for _, X, logw in rc.propagate(chain, X, rc.rng_stream(seed, 0), steps, V=V):
        idx = chain.step_indices(idx, hand)
        assert np.array_equal(X[:, 0], idx)
        # coords returns chain points, and the table is the coordinate potential on them
        assert np.array_equal(chain.coords(X), pts[idx])
        assert np.array_equal(V(X), V_coord(pts[idx]))
        logw_hand += V_coord(pts[idx])
        assert np.array_equal(logw, logw_hand)


def test_initial_ensemble_puts_each_start_in_a_row_block(toy_model):
    # 3 starts in 8 rows: consecutive blocks of ceil(8 / 3) = 3, 3 and 2 rows
    u0s = np.arange(18.0).reshape(3, 6)
    assert np.array_equal(rc.initial_ensemble(toy_model, u0s, 8), u0s[[0, 0, 0, 1, 1, 1, 2, 2]])
    # on a chain, as the indices the starts snap to
    chain = rc.FiniteChainModel(points=np.array([[0.0], [1.0], [2.5]]), P=np.full((3, 3), 1 / 3))
    X = rc.initial_ensemble(chain, [[0.1], [2.4], [1.0]], 8)
    assert X.dtype == np.intp and X[:, 0].tolist() == [0, 0, 0, 2, 2, 2, 1, 1]


def test_initial_ensemble_enters_coordinates(toy_model):
    chain = rc.FiniteChainModel(points=np.array([[0.0], [1.0], [2.5]]), P=np.full((3, 3), 1 / 3))
    assert np.array_equal(rc.initial_ensemble(toy_model, np.full(6, 0.4), 3), np.full((3, 6), 0.4))
    # a point of the wrong width is rejected, not broadcast or snapped on a
    # subset of its coordinates, and so is an empty set of start points
    for bad in ([np.nan], [[1.0], [np.inf]], [1.0, 2.0], np.zeros((2, 0)), np.zeros((0, 1))):
        with pytest.raises(ValueError, match="start points must be finite, with 1 coordinates"):
            rc.initial_ensemble(chain, bad, 4)
    with pytest.raises(ValueError, match="with 6 coordinates"):
        rc.initial_ensemble(toy_model, [0.5], 4)
    with pytest.raises(ValueError, match="start points must be finite"):
        rc.simulate(toy_model, np.full(6, np.nan), 3, seed=0)


def test_rng_stream_independence():
    a = rc.rng_stream(5, 0).random(8)
    b = rc.rng_stream(5, 1).random(8)
    c = rc.rng_stream(5, 0).random(8)
    assert np.array_equal(a, c)
    assert not np.array_equal(a, b)


def test_rng_stream_keys_do_not_collide():
    # the list form SeedSequence([seed, stream]) gives these two keys one stream
    a = rc.rng_stream(2**32 + 5, 7).random(4)
    b = rc.rng_stream(5, 1 + 7 * 2**32).random(4)
    assert not np.array_equal(a, b)


def test_rng_stream_masks_seed_and_stream_to_64_bits():
    assert np.array_equal(rc.rng_stream(-1, 3).random(4), rc.rng_stream(2**64 - 1, 3).random(4))
    assert np.array_equal(rc.rng_stream(9, -2).random(4), rc.rng_stream(9, 2**64 - 2).random(4))
    assert not np.array_equal(rc.rng_stream(-1, 3).random(4), rc.rng_stream(1, 3).random(4))


def test_rng_stream_bits_are_pinned():
    # every seeded Monte Carlo output moves if these do
    assert [x.hex() for x in rc.rng_stream(101, 0).random(3)] == [
        "0x1.0de4d72b9161fp-1",
        "0x1.96d51fd110320p-1",
        "0x1.7c77029000846p-1",
    ]
