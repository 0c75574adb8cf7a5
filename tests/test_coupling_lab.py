import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

from fklab import coupling_lab as cl
from fklab import rds_core as rc
from fklab.dynamics_maps import BurgersMap, ToyDiagonalMap
from conftest import two_array_coupled_step


@pytest.fixture(scope="module")
def law():
    return rc.KickLaw.from_decay(6, b0=0.4, s=1.0)


@pytest.fixture(scope="module")
def model(law):
    toy = ToyDiagonalMap.geometric(6, base=0.7, ratio=0.8)
    return rc.RDSModel(map=toy, kicks=law, rho=1.0, contraction_factor=0.7)


def test_tv_quadrature_matches_closed_form(law):
    # reference: 1 - integral of min(p(x), p(x - s)) by adaptive quadrature,
    # split at the crossing point s/2
    p = law.density
    for s in (-1.4, -0.3, 0.0, 1e-6, 0.2, 1.4, 1.999, 2.0, 2.5):
        lo, hi = max(-1.0, s - 1.0), min(1.0, s + 1.0)
        overlap = 0.0
        if lo < hi:
            overlap, _ = integrate.quad(
                lambda x: min(p.pdf(x), p.pdf(x - s)),
                lo,
                hi,
                points=[s / 2.0] if lo < s / 2.0 < hi else None,
                epsabs=1e-13,
                limit=200,
            )
        assert cl.tv_shifted(p, s) == pytest.approx(1.0 - overlap, abs=1e-12)


def test_tv_lipschitz_is_density_at_zero(law):
    p = law.density
    assert cl.tv_lipschitz(p) == float(p.pdf(0.0))
    ss = np.linspace(0.0, 2.0, 400)
    tv = np.array([cl.tv_shifted(p, s) for s in ss])
    assert cl.tv_lipschitz(p) == pytest.approx(np.max(np.diff(tv) / np.diff(ss)), abs=1e-5)


def test_tv_symmetry(law):
    for s in (0.3, 1.1):
        assert cl.tv_shifted(law.density, s) == pytest.approx(
            cl.tv_shifted(law.density, -s), abs=1e-10
        )


def test_maximal_coupling_identical_laws(law):
    rng = rc.rng_stream(0, 0)
    x1, x2, coupled = cl._coupled_coordinates(law.density, np.zeros(100), np.zeros(100), 0.5, rng)
    assert coupled.all()
    assert np.array_equal(x1, x2)


def test_maximal_coupling_disjoint_supports(law):
    # shift 1.3 against kick scale 0.5: the supports [0.8, 1.8] and
    # [-0.5, 0.5] are disjoint, so the coupling never succeeds
    rng = rc.rng_stream(1, 0)
    x1, x2, coupled = cl._coupled_coordinates(law.density, np.full(100, 1.3), np.zeros(100), 0.5, rng)
    assert not coupled.any()
    assert np.all(np.abs(x1 - 1.3) <= 0.5) and np.all(np.abs(x2) <= 0.5)


def test_coupling_probability_matches_tv_oracle(law):
    rng = rc.rng_stream(2, 0)
    n = 400_000
    delta, b = 0.23, 0.4
    x1, x2, coupled = cl._coupled_coordinates(
        law.density, np.full(n, delta), np.zeros(n), b, rng
    )
    p_true = 1 - cl.tv_shifted(law.density, delta / b)
    sigma = np.sqrt(p_true * (1 - p_true) / n)
    z = (coupled.mean() - p_true) / sigma
    assert abs(z) < 3
    # never statistically above the optimum
    assert coupled.mean() <= p_true + 3 * sigma


def test_coupled_marginals_ks(law):
    rng = rc.rng_stream(3, 0)
    n = 400_000
    delta, b = 0.31, 0.4
    x1, x2, _ = cl._coupled_coordinates(law.density, np.full(n, delta), np.zeros(n), b, rng)
    assert stats.kstest((x1 - delta) / b, law.density.cdf).pvalue > 1e-3
    assert stats.kstest(x2 / b, law.density.cdf).pvalue > 1e-3


def test_residual_law_ks(law):
    # off the coupled event side 2 follows its residual law, whose CDF is
    # (F(t) - F(t - s)) / TV up to the crossing point s/2 and 1 beyond it
    rng = rc.rng_stream(15, 0)
    n = 400_000
    delta, b = 0.31, 0.4
    s = delta / b
    x1, x2, coupled = cl._coupled_coordinates(law.density, np.full(n, delta), np.zeros(n), b, rng)
    F, tv = law.density.cdf, cl.tv_shifted(law.density, s)

    def residual_cdf(t):
        t = np.minimum(t, s / 2.0)
        return (F(t) - F(t - s)) / tv

    y = x2[~coupled] / b
    assert y.size > 10_000
    assert stats.kstest(y, residual_cdf).pvalue > 1e-3


@settings(max_examples=300, deadline=None)
@given(lam=st.floats(0.0, 8.0, exclude_min=True))
def test_kolmogorov_sf_matches_scipy(lam):
    ref = special.kolmogorov(lam)
    assert abs(cl.kolmogorov_sf(lam) - ref) <= max(1e-14 * ref, 1e-300)


def test_kolmogorov_sf_series_switch():
    # each series holds on its side of the switch, and the two meet there
    s = cl.KOLMOGOROV_SWITCH
    below, above = np.nextafter(s, 0.0), np.nextafter(s, 1.0)
    for lam in (below, s, above):
        assert cl.kolmogorov_sf(lam) == pytest.approx(special.kolmogorov(lam), rel=1e-14, abs=0)
    assert abs(cl.kolmogorov_sf(s) - cl.kolmogorov_sf(above)) < 1e-14


def test_kolmogorov_sf_tends_to_one_at_zero():
    lams = [5e-324, 1e-300, 1e-3, 0.04, 0.1, 0.2, 0.3]
    q = [cl.kolmogorov_sf(lam) for lam in lams]
    assert q[:5] == [1.0] * 5
    assert 1 - 1e-12 < q[5] < 1.0 and 1 - 1e-5 < q[6] < q[5]


@settings(max_examples=200, deadline=None)
@given(lam=st.floats(1e-3, 8.0), gap=st.floats(1e-3, 8.0))
def test_kolmogorov_sf_decreases(lam, gap):
    assert cl.kolmogorov_sf(lam) >= cl.kolmogorov_sf(lam + gap)


def test_reflection_off_the_coupled_event(law):
    # x2 is the mirror image of x1 about the midpoint of the two means
    rng = rc.rng_stream(16, 0)
    m1 = rng.uniform(-0.5, 0.5, size=(20_000, 3))
    m2 = m1 + rng.uniform(-0.6, 0.6, size=m1.shape)
    x1, x2, coupled = cl._coupled_coordinates(law.density, m1, m2, law.b[:3], rng)
    assert 0 < coupled.mean() < 1
    assert np.max(np.abs((x1 + x2) - (m1 + m2))[~coupled]) <= 1e-15


def test_coupled_step_identical_states(model):
    rng = rc.rng_stream(4, 0)
    Y, coupled = cl.coupled_step(model, 3, np.full((4, 2, 6), 0.2), rng)
    assert Y.shape == (4, 2, 6) and coupled.shape == (4, 3)
    assert coupled.all()
    assert np.array_equal(Y[:, 0], Y[:, 1])


def test_coupled_step_zero_map_always_couples(law):
    tiny = ToyDiagonalMap(factors=np.full(6, 1e-300))
    model0 = rc.RDSModel(map=tiny, kicks=law, rho=1.0)
    rng = rc.rng_stream(5, 0)
    X = np.stack([np.full((50, 6), 0.5), np.full((50, 6), -0.5)], axis=1)
    Y, coupled = cl.coupled_step(model0, 4, X, rng)
    assert coupled.all()
    assert np.array_equal(Y[:, 0, :4], Y[:, 1, :4])


def test_coupled_step_tail_kicks_shared_per_pair(model):
    # the diagonal toy maps equal tail coordinates to equal values, so the
    # pair's tails stay bitwise equal only if both sides add the same kicks
    rng = rc.rng_stream(14, 0)
    U = rng.uniform(-0.3, 0.3, size=(200, 6))
    Up = U.copy()
    Up[:, :3] += rng.uniform(-0.1, 0.1, size=(200, 3))  # pairs that differ only below N
    Y, coupled = cl.coupled_step(model, 3, np.stack([U, Up], axis=1), rng)
    u1, u1p = Y[:, 0], Y[:, 1]
    S1 = model.map.apply_batch(U)
    assert np.array_equal(u1[:, 3:], u1p[:, 3:])
    assert np.all(np.abs(u1[:, 3:] - S1[:, 3:]) <= model.kicks.b[3:])
    assert not np.array_equal(u1[:, 3:], S1[:, 3:])
    assert np.array_equal(u1[:, :3][coupled], u1p[:, :3][coupled])
    assert 0 < coupled.mean() < 1


def test_property_b_bitwise_along_runs(model):
    # one batch mixes pairs equal beyond N (the first ten) and unequal ones:
    # shared tail kicks keep equal tail coordinates bitwise equal at every step
    v = np.full(6, 0.2) + 0.01 * np.arange(10)[:, None]
    v_prime = v.copy()
    v_prime[:, :3] += 1e-3
    pairs = np.stack([np.vstack([v, v]), np.vstack([v_prime, v + 1e-3])], axis=1)
    states, flags = cl.coupled_trajectories(model, 3, pairs, K=12, seed=6)
    assert states.shape == (13, 20, 2, 6) and flags.shape == (12, 20, 3)
    assert np.array_equal(states[:, :10, 0, 3:], states[:, :10, 1, 3:])
    assert not np.array_equal(states[:, 10:, 0, 3:], states[:, 10:, 1, 3:])
    # agreement flags imply bitwise equality of the coupled block
    assert np.array_equal(states[1:, :, 0, :3][flags], states[1:, :, 1, :3][flags])


def test_coupled_trajectories_is_coupled_step_on_stream_0(model):
    pairs = np.random.default_rng(3).uniform(-0.3, 0.3, size=(5, 2, 6))
    states, flags = cl.coupled_trajectories(model, 3, pairs, K=4, seed=2)
    rng, X = rc.rng_stream(2, 0), pairs
    for k in range(4):
        X, coupled = cl.coupled_step(model, 3, X, rng)
        assert np.array_equal(states[k + 1], X)
        assert np.array_equal(flags[k], coupled)


def _coupling_model(kind):
    if kind == "toy-q":
        toy = ToyDiagonalMap.geometric(6, base=0.7, ratio=0.8, q=0.35, cutoff_radius=1.5)
        return rc.RDSModel(map=toy, kicks=rc.KickLaw.from_decay(6, b0=0.4, s=1.0), rho=1.0)
    modes = {"burgers16": 16, "burgers64": 64}[kind]
    return rc.RDSModel(map=BurgersMap(nu=1.0, modes=modes), kicks=rc.KickLaw.from_decay(8, b0=0.3, s=1.0), rho=0.7)


@pytest.mark.parametrize(
    "kind, N, n",
    [
        ("toy-q", 0, 1), ("toy-q", 3, 7), ("toy-q", 8, 300),
        ("burgers16", 0, 7), ("burgers16", 3, 121), ("burgers16", 8, 300),
        ("burgers64", 3, 1), ("burgers64", 8, 7),
    ],
)
def test_coupled_trajectories_equal_the_two_array_step(kind, N, n):
    # the batch maps both sides in one apply_batch, the oracle maps them
    # stacked side after side; at M = 16 a chunk of the map holds 240 rows,
    # so 121 and 300 pairs cross a chunk boundary in both layouts, and at
    # start distances near 0.1 the runs hold coupled and uncoupled steps
    model = _coupling_model(kind)
    gen = np.random.default_rng(n + N)
    base = gen.uniform(-0.3, 0.3, size=(n, model.dim)) / np.sqrt(model.dim)
    pairs = np.stack([base, base + 0.1 * gen.normal(size=base.shape)], axis=1)
    states, flags = cl.coupled_trajectories(model, N, pairs, K=5, seed=n)
    rng, u, up = rc.rng_stream(n, 0), pairs[:, 0], pairs[:, 1]
    for k in range(5):
        u, up, coupled = two_array_coupled_step(model, N, u, up, rng)
        assert np.array_equal(states[k + 1, :, 0], u) and np.array_equal(states[k + 1, :, 1], up)
        assert np.array_equal(flags[k], coupled)


def test_decoupling_probability_linear_in_distance(model, law):
    # P(decouple in one step) <= C_N ||u - u'||, with the closed-form constant
    rng = rc.rng_stream(7, 0)
    N = 3
    C_N = cl.decoupling_constant(law, N)
    n = 200_000
    dist = 1e-3
    u = np.tile(np.full(6, 0.1), (n, 1))
    d = rng.normal(size=6)
    d /= np.linalg.norm(d)
    up = u + dist * d
    S1 = model.map.apply_batch(u)
    S2 = model.map.apply_batch(up)
    x1, x2, coupled = cl._coupled_coordinates(law.density, S1[:, :N], S2[:, :N], law.b[:N], rng)
    p_dec = 1 - coupled.all(axis=1).mean()
    assert p_dec <= C_N * dist
    # per-coordinate exact oracle (independent couplings)
    tvs = [cl.tv_shifted(law.density, abs(S1[0, j] - S2[0, j]) / law.b[j]) for j in range(N)]
    p_exact = 1 - np.prod([1 - t for t in tvs])
    sigma = np.sqrt(p_exact * (1 - p_exact) / n)
    assert abs(p_dec - p_exact) < 3 * sigma


def test_diagonal_map_never_decouples_after_agreement(model):
    # exactly diagonal map: once the leading block agrees, the shift stays
    # zero and the maximal coupling succeeds forever
    N = 3
    n_pairs = 20_000
    rng = rc.rng_stream(8, 0)
    base = rng.uniform(-0.2, 0.2, size=(n_pairs, 6))
    runs_alive = base + 0.05 * rng.normal(size=(n_pairs, 6))
    first_disagree = _decoupling_cascade(model, N, base, runs_alive, r_max=4, rng=rng)
    counts = np.array([(first_disagree == r).sum() for r in range(1, 5)])
    assert counts[0] > 0
    assert np.all(counts[1:] == 0)


def _decoupling_cascade(model, N, u, up, r_max, rng):
    """First step at which each pair's coupled block disagrees (0: never
    within r_max), advancing the pairs still agreeing with coupled_step."""
    n_pairs = u.shape[0]
    first_disagree = np.zeros(n_pairs, dtype=int)
    X = np.stack([u, up], axis=1)
    alive = np.ones(n_pairs, dtype=bool)
    for r in range(1, r_max + 1):
        idx = np.flatnonzero(alive)
        if idx.size == 0:
            break
        X[idx], coupled = cl.coupled_step(model, N, X[idx], rng)
        ok = coupled.all(axis=1)
        first_disagree[idx[~ok]] = r
        alive[idx[~ok]] = False
    return first_disagree


def test_decoupling_log_tail_slope(law):
    # with a genuine tail-to-head coupling the first-disagreement law decays
    # at least at the empirical smoothing rate
    toy = ToyDiagonalMap.geometric(6, base=0.7, ratio=0.8, q=0.35, cutoff_radius=1.5)
    model = rc.RDSModel(map=toy, kicks=law, rho=1.0)
    plan = rc.SamplePlan(radii=(0.5,), r=0.3, projection_dims=(3,), seed=2)
    gamma_N = rc.verify_map_conditions(model, plan)["smoothing"]["gamma_N"][3]
    N = 3
    n_pairs = 400_000
    rng = rc.rng_stream(9, 0)
    base = rng.uniform(-0.2, 0.2, size=(n_pairs, 6))
    up = base + 0.02 * rng.normal(size=(n_pairs, 6))
    first_disagree = _decoupling_cascade(model, N, base, up, r_max=4, rng=rng)
    counts = np.array([(first_disagree == r).sum() for r in range(1, 5)])
    probs = counts / n_pairs
    keep = probs > 1e-5
    rs = np.arange(1, 5)[keep]
    assert keep.sum() >= 3
    slope = np.polyfit(rs, np.log(probs[keep]), 1)[0]
    assert slope <= np.log(gamma_N) + 0.3


def test_squeezing_toy_exact_alignment(model):
    # difference along mode N+1 survives coupling untouched and contracts at
    # exactly gamma_{N+1} per step
    N = 3
    gamma_N = model.map.factors[N]
    v = np.full(6, 0.1)
    e = np.zeros(6)
    e[N] = 1e-6
    pairs = np.stack([np.tile(v, (64, 1)), np.tile(v + e, (64, 1))], axis=1)
    rep = cl.squeezing_check(model, N, pairs, r_max=4, gamma_N=gamma_N, seed=9)
    assert rep.verdict == "pass"
    for r, ratios in rep.ratios.items():
        if len(ratios):
            assert ratios.max() == pytest.approx(1.0, abs=1e-6)


def test_squeezing_random_pairs(model):
    rng = rc.rng_stream(10, 0)
    base = rng.uniform(-0.3, 0.3, size=(300, 6))
    pairs = np.stack([base, base + 1e-3 * rng.normal(size=base.shape)], axis=1)
    rep = cl.squeezing_check(model, 3, pairs, r_max=6, gamma_N=model.map.factors[3], seed=11)
    assert rep.verdict == "pass"
    assert all(rep.occurrences[r] > 0 for r in range(1, 7))


def test_squeezing_degenerate_pairs_skipped(model):
    v = np.full(6, 0.2)
    pairs = np.stack([np.tile(v, (5, 1)), np.tile(v, (5, 1))], axis=1)
    rep = cl.squeezing_check(model, 3, pairs, r_max=3, gamma_N=model.map.factors[3], seed=12)
    assert rep.verdict == "inconclusive"


def test_squeezing_advances_a_degenerate_pair_but_never_counts_it(model):
    # pair 0 has u = u': it is advanced with the batch and agrees at every
    # step, yet no occurrence counts it
    rng = rc.rng_stream(17, 0)
    base = rng.uniform(-0.3, 0.3, size=(40, 6))
    pairs = np.stack([base, base + 1e-3 * rng.normal(size=base.shape)], axis=1)
    pairs[0, 1] = pairs[0, 0]
    rep = cl.squeezing_check(model, 3, pairs, r_max=5, gamma_N=model.map.factors[3], seed=13)
    states, flags = cl.coupled_trajectories(model, 3, pairs, 5, seed=13)
    assert flags[:, 0].all() and not np.array_equal(states[5, 0, 0], pairs[0, 0])
    agreed = np.logical_and.accumulate(flags.all(axis=2), axis=0)
    assert [rep.occurrences[r] for r in range(1, 6)] == agreed[:, 1:].sum(axis=1).tolist()
    assert rep.verdict == "pass"


def test_feller_bound_check_trivial_cases(model):
    from fklab import feynman_kac as fk

    V0 = fk.PotentialFn.zero()
    ones = (lambda U: np.ones(U.shape[0]), 1.0, 0.0)
    pairs = np.stack([np.full((2, 6), 0.2), np.full((2, 6), 0.2)], axis=1)
    sup_mass = np.ones(3)
    rep = cl.feller_bound_check(model, V0, [ones], pairs, k_max=3, c=0.5, sup_mass=sup_mass, n_traj=500, seed=13)
    # f = 1 under V = 0: both sides conserve mass, C = 0 suffices
    assert rep.C == 0.0
    assert not rep.growing
