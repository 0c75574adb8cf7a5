"""Acceptance suite: every numbered criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -v -s`` or in
the captured output of a failing run).  The heavy ensemble criteria are
marked ``slow`` so day-to-day runs can deselect them; the full suite runs
them by default.  Every test here carries the ``acceptance`` marker, so
``pytest -m acceptance`` runs the criteria alone.
"""

import time

import numpy as np
import pytest
from scipy import stats

from fklab import apps, coupling_lab as cl, feynman_kac as fk
from fklab import kernel_lab as kl, rds_core as rc
from fklab.dynamics_maps import BurgersMap, ToyDiagonalMap, l1_circle_metric
from fklab.measure_metrics import DiscreteMeasure, dual_lipschitz, verify_metric_sandwich
from conftest import dense_perron_triple, random_kernel_potential

pytestmark = pytest.mark.acceptance


def _line(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} [{status}] {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def _kernel_battery(n_kernels=200, seed=915):
    rng = np.random.default_rng(seed)
    out = []
    for trial in range(n_kernels):
        n = int(rng.integers(2, 21))
        out.append(random_kernel_potential(rng, n, strict_subset=trial % 2 == 1))
    return out


@pytest.fixture(scope="module")
def chain_bridge():
    """Five-state chain embedded as a model, with its exact eigen-objects."""
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


def test_criterion_01_perron_oracle_equivalence():
    battery = _kernel_battery()
    solver_time = 0.0
    worst_lam, worst_vec = 0.0, 0.0
    for K, V in battery:
        M = kl.build_tilted_matrix(K, V)
        t0 = time.perf_counter()
        triple = kl.perron_triple(M, K.A)
        solver_time += time.perf_counter() - t0
        lam, h, mu = dense_perron_triple(M, K.A)
        worst_lam = max(worst_lam, abs(triple.lam - lam) / lam)
        worst_vec = max(worst_vec, np.abs(triple.h - h).max(), np.abs(triple.mu - mu).max())
    ok = worst_lam < 1e-10 and worst_vec < 1e-8 and solver_time < 10.0
    _line(
        1,
        "perron-oracle-equivalence",
        ok,
        f"200 kernels: rel lam err {worst_lam:.2e}, vec err {worst_vec:.2e}, "
        f"solver time {solver_time:.2f}s",
    )


def test_criterion_02_met_exponential_rate():
    battery = _kernel_battery()
    worst_rate = 0.0
    envelope_ok = True
    for i, (K, V) in enumerate(battery):
        M = kl.build_tilted_matrix(K, V)
        triple = kl.perron_triple(M, K.A)
        mods = np.sort(np.abs(np.linalg.eigvals(M)))[::-1]
        if mods[1] <= 0:
            continue
        gamma_true = -np.log(mods[1] / mods[0])
        gamma, _info = kl.met_rate_estimate(K, V, triple)
        if not np.isfinite(gamma):
            continue
        worst_rate = max(worst_rate, abs(gamma - gamma_true) / gamma_true)
        if i % 10 == 0:
            k_max = int(np.clip(25 / gamma_true, 12, 400))
            rng = np.random.default_rng(i)
            C, g_fit, res = kl.met_residuals(K, V, triple, rng.uniform(-1, 1, K.n), k_max=k_max)
            ks = np.arange(1, k_max + 1)
            window = (ks >= (k_max + 1) // 2) & (res >= 1e-13)
            if np.isfinite(g_fit) and window.any():
                envelope_ok &= bool(
                    np.all(res[window] <= C * np.exp(-g_fit * ks[window]) * (1 + 1e-9))
                )
    ok = worst_rate < 0.05 and envelope_ok
    _line(
        2,
        "met-exponential-rate",
        ok,
        f"worst gamma error {worst_rate:.1e} (tolerance 5%), envelope holds: {envelope_ok}",
    )


def test_criterion_03_theorem_necessity():
    pts = np.array([[0.0], [1.0], [3.0]])
    # concentration violator: absorbing state outside the invariant set
    K3 = kl.FiniteKernel(
        points=pts, P=np.array([[0.6, 0.4, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]]), A=[0, 1]
    )
    V0 = kl.PotentialVector.from_values(K3, np.zeros(3))
    rep3 = kl.verify_theorem21(K3, V0, kl.VerifyParams(r=0.5, c=0.5, k_max=60))
    conc_flagged = rep3.concentration["verdict"] == "fail"
    triple3 = kl.perron_triple(kl.build_tilted_matrix(K3, V0), K3.A)
    _, _, res = kl.met_residuals(K3, V0, triple3, np.array([0.2, -0.3, 1.0]), k_max=60)
    non_decaying = res[-1] > 0.5 * res[0] and res[-1] > 1e-3
    # exponential-bound violator: amplifying loop outside the invariant set
    K4 = kl.FiniteKernel(
        points=pts, P=np.array([[0.6, 0.4, 0.0], [0.5, 0.5, 0.0], [0.1, 0.0, 1.6]]), A=[0, 1]
    )
    rep4 = kl.verify_theorem21(K4, V0, kl.VerifyParams(r=0.5, c=0.5, k_max=50))
    exp_flagged = rep4.expbound["verdict"] == "fail"
    ok = conc_flagged and non_decaying and exp_flagged
    _line(
        3,
        "theorem-necessity-flags",
        ok,
        f"(iii) flagged: {conc_flagged}, residual non-decay: {non_decaying}, "
        f"(iv) flagged: {exp_flagged}",
    )


def test_criterion_04_contraction_and_sandwich():
    rng = np.random.default_rng(44)
    n_pass, factors = 0, []
    for trial in range(12):
        n = int(rng.integers(4, 9))
        K, V = random_kernel_potential(rng, n, v_scale=0.5)
        M = kl.build_tilted_matrix(K, V)
        triple = kl.perron_triple(M, K.A)
        rep = kl.verify_theorem21(K, V, kl.VerifyParams(r=0.3, c=0.5, k_max=40))
        if not rep.all_pass:
            continue
        theta, m, factor = kl.contraction_search(M, triple, K.points, feller_C=rep.feller["C"])
        factors.append(factor)
        n_pass += 1
    contraction_ok = n_pass >= 8 and all(f <= 0.5 for f in factors)

    sandwich_ok = True
    for _ in range(1000):
        m1 = DiscreteMeasure(rng.uniform(-1, 1, (5, 2)), rng.dirichlet(np.ones(5)))
        m2 = DiscreteMeasure(rng.uniform(-1, 1, (5, 2)), rng.dirichlet(np.ones(5)))
        theta = float(rng.uniform(0.4, 4.0))
        rep = verify_metric_sandwich(m1, m2, theta=theta, diam=2 * np.sqrt(2) + 0.1, tol=1e-9)
        sandwich_ok &= rep.ok
    ok = contraction_ok and sandwich_ok
    _line(
        4,
        "contraction-and-sandwich",
        ok,
        f"{n_pass} kernels passed conditions, max factor "
        f"{max(factors):.3f} <= 0.5; sandwich on 1000 pairs: {sandwich_ok}",
    )


def test_criterion_05_mc_exact_bridge(chain_bridge):
    K, V, triple, chain, Vfn = chain_bridge
    t0 = time.perf_counter()
    res = fk.particle_fk(chain, Vfn, K.points[1], k=60, n_particles=10_000, seed=4)
    lam_ok = abs(res.lam - triple.lam) <= 3 * res.lam_stderr
    d_mu = dual_lipschitz(
        DiscreteMeasure.from_samples(chain.coords(res.mu_cloud)), DiscreteMeasure(K.points, triple.mu)
    )
    mu_ok = d_mu <= 0.05
    h_ok = True
    for i in range(K.n):
        h, err = fk.h_estimate(chain, Vfn, K.points[i], k=25, lam=res.lam, n_traj=10_000, seed=100 + i)
        h_ok &= abs(h - triple.h[i]) <= 3 * err
    fit = fk.pressure_estimate(chain, Vfn, K.points[0], k_max=60, n_traj=10_000, seed=5)
    q_ok = abs(fit.Q - np.log(triple.lam)) <= 3 * fit.stderr
    elapsed = time.perf_counter() - t0
    ok = lam_ok and mu_ok and h_ok and q_ok and elapsed < 60
    _line(
        5,
        "mc-exact-bridge",
        ok,
        f"lambda 3n-sigma: {lam_ok}, dual-Lipschitz(mu) {d_mu:.4f} <= 0.05: {mu_ok}, "
        f"h 3-sigma: {h_ok}, Q 3-sigma: {q_ok}, {elapsed:.1f}s < 60s",
    )


def test_criterion_06_tilt_identities(chain_bridge):
    K, _, _, chain, _ = chain_bridge
    rng = np.random.default_rng(66)
    lam_ok, q_ok = True, True
    worst_lam = 0.0
    for trial in range(20):
        vals = rng.uniform(-1, 1, K.n)
        c = float(rng.uniform(-1.5, 1.5))
        V = kl.PotentialVector.from_values(K, vals)
        Vc = kl.PotentialVector.from_values(K, vals + c)
        t1 = kl.perron_triple(kl.build_tilted_matrix(K, V), K.A)
        t2 = kl.perron_triple(kl.build_tilted_matrix(K, Vc), K.A)
        rel = abs(t2.lam / t1.lam - np.exp(c)) / np.exp(c)
        worst_lam = max(worst_lam, rel)
        lam_ok &= rel <= 1e-8
        Vfn = fk.PotentialFn.from_chain(chain, vals)
        f1 = fk.pressure_estimate(chain, Vfn, K.points[0], k_max=40, n_traj=1000, seed=600 + trial)
        f2 = fk.pressure_estimate(
            chain, Vfn.shifted(c), K.points[0], k_max=40, n_traj=1000, seed=600 + trial
        )
        q_ok &= abs(f2.Q - f1.Q - c) <= max(f1.stderr, 1e-12)
    # one independent-seed pair, judged at three combined stderr
    Vfn = fk.PotentialFn.from_chain(chain, rng.uniform(-1, 1, K.n))
    g1 = fk.pressure_estimate(chain, Vfn, K.points[0], k_max=60, n_traj=8000, seed=1)
    g2 = fk.pressure_estimate(chain, Vfn.shifted(0.4), K.points[0], k_max=60, n_traj=8000, seed=2)
    indep_ok = abs(g2.Q - g1.Q - 0.4) <= 3 * np.hypot(g1.stderr, g2.stderr)
    ok = lam_ok and q_ok and indep_ok
    _line(
        6,
        "tilt-identities",
        ok,
        f"exact lambda ratio err {worst_lam:.2e} <= 1e-8, Q-shift within stderr: {q_ok}, "
        f"independent-seed 3-sigma: {indep_ok}",
    )


def test_criterion_07_map_conditions_fast_parts():
    # toy diagonal map: smoothing constants are exactly the shifted factors
    toy = ToyDiagonalMap.geometric(8, base=0.7, ratio=0.8)
    law = rc.KickLaw.from_decay(8, b0=0.3, s=1.0)
    model = rc.RDSModel(map=toy, kicks=law, rho=1.0, contraction_factor=0.7)
    rep = rc.verify_map_conditions(
        model, rc.SamplePlan(radii=(1.0, 2.0), r=0.5, projection_dims=(1, 2, 4), seed=0)
    )
    toy_ok = all(
        rep["smoothing"]["gamma_N"][N] == pytest.approx(toy.factors[N], rel=1e-9)
        for N in (1, 2, 4)
    )
    # Burgers: dissipativity decay and monotone smoothing constants reported
    bm = BurgersMap(nu=1.0, modes=16, dt=5e-3)
    bmodel = rc.RDSModel(map=bm, kicks=rc.KickLaw.from_decay(8, b0=0.3, s=1.0), rho=0.7)
    brep = rc.verify_map_conditions(
        bmodel,
        rc.SamplePlan(
            radii=(0.7, 1.4), r=0.3, projection_dims=(2, 4, 8, 16),
            n_pairs=200, n_iter=6, n_samples=50, seed=1,
        ),
    )
    burgers_ok = (
        all(v["n0"] == 1 and v["a"] < 1 for v in brep["dissipativity"].values())
        and brep["smoothing"]["monotone_decay"]
    )
    ok = toy_ok and burgers_ok
    _line(
        7,
        "map-conditions (toy exact, burgers A/C)",
        ok,
        f"toy gamma_N exact: {toy_ok}; burgers decay a<1 and gamma_N monotone: {burgers_ok}",
    )


@pytest.mark.slow
def test_criterion_07_burgers_l1_subcontraction():
    bm = BurgersMap(nu=1.0, modes=64, dt=1e-3)
    rng = np.random.default_rng(7)
    n = 10_000
    decay = np.exp(-0.25 * np.arange(bm.dim))
    A = rng.normal(size=(n, bm.dim)) * decay
    A *= 0.6 * rng.random((n, 1)) / np.maximum(np.linalg.norm(A, axis=1, keepdims=True), 1e-12)
    B = A + 0.25 * rng.normal(size=(n, bm.dim)) * decay
    metric = l1_circle_metric(bm)
    den = metric(A, B)
    SA = bm.apply_batch(A)
    SB = bm.apply_batch(B)
    num = metric(SA, SB)
    pos = den > 0
    worst = float((num[pos] / den[pos]).max())
    ok = worst <= 1 + 1e-6
    _line(
        7,
        "burgers-L1-subcontraction",
        ok,
        f"max ratio {worst:.8f} <= 1+1e-6 over {int(pos.sum())} pairs (M=64, dt=1e-3)",
    )


def test_criterion_08_coupling():
    law = rc.KickLaw.from_decay(6, b0=0.4, s=1.0)
    toy = ToyDiagonalMap.geometric(6, base=0.7, ratio=0.8)
    model = rc.RDSModel(map=toy, kicks=law, rho=1.0, contraction_factor=0.7)

    # property (b) bitwise along coupled runs: pairs equal beyond N keep
    # their tails bitwise equal (shared tail kicks), and agreement flags
    # mean bitwise-equal coupled coordinates
    v = np.full(6, 0.15) + 0.01 * np.arange(20)[:, None]
    v_prime = v.copy()
    v_prime[:, :3] += 2e-3
    states, _ = cl.coupled_trajectories(model, 3, np.stack([v, v_prime], axis=1), K=12, seed=8)
    prop_b = bool(np.array_equal(states[..., 0, 3:], states[..., 1, 3:]))
    states, flags = cl.coupled_trajectories(model, 3, np.stack([v, v + 2e-3], axis=1), K=12, seed=8)
    prop_b &= bool(np.array_equal(states[1:, :, 0, :3][flags], states[1:, :, 1, :3][flags]))

    # marginals and optimality at one million draws
    rng = rc.rng_stream(88, 0)
    n = 10**6
    delta, b = 0.23, 0.4
    x1, x2, coupled = cl._coupled_coordinates(
        law.density, np.full(n, delta), np.zeros(n), b, rng
    )
    ks1 = stats.kstest((x1 - delta) / b, law.density.cdf).pvalue
    ks2 = stats.kstest(x2 / b, law.density.cdf).pvalue
    ks_ok = min(ks1, ks2) > 1e-3
    p_true = 1 - cl.tv_shifted(law.density, delta / b)
    sigma = np.sqrt(p_true * (1 - p_true) / n)
    z = (coupled.mean() - p_true) / sigma
    prob_ok = abs(z) <= 3

    # squeezing over ten thousand pairs at tolerance 1e-2
    rngp = rc.rng_stream(89, 0)
    base = rngp.uniform(-0.3, 0.3, size=(10_000, 6))
    pairs = np.stack([base, base + 1e-3 * rngp.normal(size=base.shape)], axis=1)
    srep = cl.squeezing_check(model, 3, pairs, r_max=8, gamma_N=toy.factors[3], seed=90, tol=1e-2)
    squeeze_ok = srep.verdict == "pass"

    ok = prop_b and ks_ok and prob_ok and squeeze_ok
    _line(
        8,
        "coupling-properties",
        ok,
        f"property-b bitwise: {prop_b}, KS p=({ks1:.3g},{ks2:.3g})>1e-3: {ks_ok}, "
        f"coupling prob z={z:.2f} within 3: {prob_ok}, squeezing: {srep.verdict}",
    )


@pytest.mark.slow
def test_criterion_09_clt_variance(chain_bridge):
    K, _, _, chain, _ = chain_bridge
    rng = np.random.default_rng(99)
    vals = rng.uniform(-1, 1, K.n)
    mu0 = kl.perron_triple(K.P, K.A).mu
    vc = vals - vals @ mu0

    def q_exact(a):
        Vp = kl.PotentialVector.from_values(K, a * vc)
        return np.log(kl.perron_triple(kl.build_tilted_matrix(K, Vp), K.A).lam)

    eps = 0.25
    sigma_chain = (q_exact(eps) - 2 * q_exact(0) + q_exact(-eps)) / eps**2
    gen = rc.rng_stream(991, 0)
    n_traj, k = 10_000, 1000
    idx = np.full(n_traj, 0)
    acc = np.zeros(n_traj)
    for _ in range(k):
        idx = chain.step_indices(idx, gen)
        acc += vc[idx]
    emp_chain = float((acc / np.sqrt(k)).var())
    chain_ok = abs(emp_chain - sigma_chain) / sigma_chain <= 0.15

    toy = ToyDiagonalMap.geometric(6, base=0.7, ratio=0.8)
    law = rc.KickLaw.from_decay(6, b0=0.4, s=1.0)
    model = rc.RDSModel(map=toy, kicks=law, rho=1.0, contraction_factor=0.7)
    V = fk.PotentialFn.coordinate(0, scale=1.0, clip=2.0)
    curve = fk.pressure_curve(
        model, V, alphas=[-0.5, -0.25, 0.25, 0.5], u0=np.zeros(6),
        k_max=80, n_traj=30_000, seed=21, recenter_k=20_000,
    )
    gen = rc.rng_stream(992, 0)
    U = np.zeros((n_traj, 6))
    acc = np.zeros(n_traj)
    for _ in range(k):
        U = model.step_many(U, gen)
        acc += V(U) - curve.mean_shift
    emp_toy = float((acc / np.sqrt(k)).var())
    toy_ok = abs(emp_toy - curve.sigma_V) / curve.sigma_V <= 0.15
    ok = chain_ok and toy_ok and curve.convex
    _line(
        9,
        "clt-variance",
        ok,
        f"chain: emp {emp_chain:.4f} vs curve {sigma_chain:.4f} "
        f"({abs(emp_chain - sigma_chain) / sigma_chain:.1%}); "
        f"toy: emp {emp_toy:.4f} vs curve {curve.sigma_V:.4f} "
        f"({abs(emp_toy - curve.sigma_V) / curve.sigma_V:.1%}); convex: {curve.convex}",
    )


@pytest.mark.slow
def test_criterion_10_ldp_level1():
    rng = np.random.default_rng(23)
    n = 4
    pts = np.sort(rng.uniform(-2, 2, size=(n, 1)), axis=0)
    P = rng.uniform(0.05, 1.0, (n, n))
    P /= P.sum(axis=1, keepdims=True)
    K = kl.FiniteKernel(points=pts, P=P, A=np.arange(n))
    f_values = rng.uniform(0, 1, n)
    mu = kl.perron_triple(K.P, K.A).mu
    mean = float(f_values @ mu)

    def pressure(alpha):
        V = kl.PotentialVector.from_values(K, alpha * f_values)
        return float(np.log(kl.perron_triple(kl.build_tilted_matrix(K, V), K.A).lam))

    alphas = np.linspace(-12, 12, 481)
    legendre_at_mean = max(a * mean - pressure(a) for a in alphas)
    zero_ok = abs(legendre_at_mean) <= 1e-6

    h = 1e-3
    sig = (pressure(h) - 2 * pressure(0) + pressure(-h)) / h**2
    x_grid = [mean + c * np.sqrt(sig) for c in (0.25, 0.35, 0.45)]
    rep = apps.ldp_level1(K, f_values, x_grid, k_set=[20, 40, 60, 90, 120], n_traj=4_000_000, u0=K.points[0], seed=7)
    slope_ok, corrected_ok = True, True
    details = []
    for xi, x in enumerate(rep.x_grid):
        leg = rep.legendre[xi]
        sl = rep.slope_rates.get(float(x))
        slope_ok &= sl is not None and abs(sl - leg) / leg <= 0.25
        largest = None
        for k in rep.k_set[::-1]:
            cell = rep.cells[(float(x), k)]
            if cell["observable"] and cell["rate_corrected"] is not None:
                largest = (k, cell["rate_corrected"])
                break
        corrected_ok &= largest is not None and abs(largest[1] - leg) / leg <= 0.25
        details.append(
            f"x={x:.3f}: I={leg:.4f} slope={sl:.4f} corrected@k{largest[0]}={largest[1]:.4f}"
        )
    ok = zero_ok and slope_ok and corrected_ok
    _line(
        10,
        "ldp-level1",
        ok,
        f"I(mean)={legendre_at_mean:.2e}<=1e-6; " + "; ".join(details),
    )


@pytest.mark.slow
def test_criterion_11_attraction_speed():
    # toy model
    toy = ToyDiagonalMap.geometric(6, base=0.7, ratio=0.8)
    law = rc.KickLaw.from_decay(6, b0=0.3, s=1.0)
    model = rc.RDSModel(map=toy, kicks=law, rho=1.0, contraction_factor=0.7)
    cloud = rc.attainability_cloud(model, np.zeros((1, 6)), 40, seed=8, max_points=10_000)
    rng = np.random.default_rng(111)
    dirs = rng.normal(size=(50, 6))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    u0s = dirs * rng.random((50, 1))
    toy_att = rc.attraction_counter(
        model, cloud, eps=0.25, u0s=u0s, n_traj=10_000, horizon=300, seed=9
    )
    toy_hit = rc.hitting_time_stats(
        model, [np.full(6, 0.9)], eps=0.3, n_traj=5_000, horizon=500, seed=10
    )
    toy_moment = max(
        float(np.exp(toy_hit.delta * tau[tau <= 500]).mean()) for tau in toy_hit.taus.values()
    )
    toy_ok = toy_att.delta > 0 and toy_moment <= 2.0 and toy_hit.censored_fraction == 0

    # Burgers model at nu = 1 with an empirically measured contraction factor
    bm = BurgersMap(nu=1.0, modes=16, dt=2e-2)
    blaw = rc.KickLaw.from_decay(8, b0=0.3, s=1.0)
    probe = rc.RDSModel(map=bm, kicks=blaw, rho=0.7)
    small = rc.attainability_cloud(probe, np.zeros((1, bm.dim)), 12, seed=1, kicks_per_point=6, max_points=1200)
    gen = np.random.default_rng(2)
    i = gen.integers(0, small.shape[0], 300)
    j = gen.integers(0, small.shape[0], 300)
    keep = i != j
    lip = float(
        (
            np.linalg.norm(bm.apply_batch(small[i[keep]]) - bm.apply_batch(small[j[keep]]), axis=1)
            / np.linalg.norm(small[i[keep]] - small[j[keep]], axis=1)
        ).max()
    )
    bmodel = rc.RDSModel(map=bm, kicks=blaw, rho=0.7, contraction_factor=lip)
    bcloud = rc.attainability_cloud(
        bmodel, np.zeros((1, bm.dim)), 14, seed=2, kicks_per_point=5, max_points=10_000
    )
    bdirs = gen.normal(size=(50, bm.dim))
    bdirs /= np.linalg.norm(bdirs, axis=1, keepdims=True)
    bu0s = bdirs * (0.7 * gen.random((50, 1)))
    b_att = rc.attraction_counter(
        bmodel, bcloud, eps=0.16, u0s=bu0s, n_traj=10_000, horizon=150, seed=3
    )
    b_hit = rc.hitting_time_stats(
        bmodel, [np.full(bm.dim, 0.6 / np.sqrt(bm.dim))], eps=0.35, n_traj=2_000, horizon=100, seed=4
    )
    b_moment = max(
        float(np.exp(b_hit.delta * tau[tau <= 100]).mean()) for tau in b_hit.taus.values()
    )
    b_ok = b_att.delta > 0 and b_moment <= 2.0 and b_hit.censored_fraction == 0
    ok = toy_ok and b_ok
    _line(
        11,
        "attraction-speed",
        ok,
        f"toy: delta={toy_att.delta:.2f}>0, E e^(d tau)={toy_moment:.3f}<=2; "
        f"burgers (Lip~{lip:.2f}): delta={b_att.delta:.2f}>0, E e^(d tau)={b_moment:.3f}<=2, "
        f"censored {b_att.censored_fraction:.3f}",
    )


def test_criterion_12_reproducibility(tmp_path):
    import json

    from fklab.cli import main

    cfg = {
        "model": {
            "kind": "toy", "dim": 6, "base": 0.7, "ratio": 0.8,
            "kick_dim": 6, "kick_b0": 0.3, "rho": 1.0,
        },
        "potential": {"kind": "coordinate", "index": 0, "scale": 1.0, "clip": 2.0},
        "u0": [0] * 6,
        "k_max": 40,
        "n_traj": 500,
        "alphas": [-0.4, -0.2, 0.2, 0.4],
        "recenter_k": 1000,
        "seed": 12,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    sim_cfg = {
        "model": cfg["model"], "u0": [0.4] * 6, "K": 80, "stream": 1, "seed": 12,
    }
    sim_path = tmp_path / "sim.json"
    sim_path.write_text(json.dumps(sim_cfg))

    outs = []
    for tag, threads in (("a", "1"), ("b", "4")):
        out = tmp_path / f"press_{tag}"
        assert main(["pressure", "--config", str(cfg_path), "--out", str(out), "--threads", threads]) == 0
        outs.append(out)
        outs_sim = tmp_path / f"sim_{tag}"
        assert main(["simulate", "--config", str(sim_path), "--out", str(outs_sim), "--threads", threads]) == 0
        outs.append(outs_sim)
    same = True
    for name in ("results.json", "manifest.json", "pressure_curve.csv"):
        same &= (outs[0] / name).read_bytes() == (outs[2] / name).read_bytes()
    for name in ("results.json", "manifest.json", "trajectory.csv"):
        same &= (outs[1] / name).read_bytes() == (outs[3] / name).read_bytes()
    _line(12, "bitwise-reproducibility", same, "pressure curve + trajectory reruns across --threads 1/4")
