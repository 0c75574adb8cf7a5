"""Seeded output digest: one sha256 per case, to compare two checkouts.

Run it from the root of a source checkout (fklab is imported from ``src/``):

    python tools/output_digest.py              # every case
    python tools/output_digest.py chain cli_   # cases whose names start so

Each case makes fixed, seeded fklab calls and hashes what they return:
arrays by dtype, shape and bytes, floats by ``float.hex``, and every file a
CLI run writes.  Run it in two checkouts and compare the lines: an equal
line means bitwise-equal outputs.  Chain states are hashed as points
(the chain's ``coords`` where the checkout has it), so a checkout whose chains
carry coordinates and one whose chains carry indices hash alike.  Likewise a trajectory is hashed as its
states, whether ``simulate`` returns them bare or in a result object, and
a coupled pair as its states and flags, whether ``coupled_trajectories``
takes one pair or a batch of them.  The ``coupling-check`` KS p-values have
a case of their own.

Needs nothing beyond the standard library and fklab (with its numpy).  The
full list takes about a minute on one core (50 s on a 2-vCPU Xeon);
criterion 10's ldp case, 4,000,000 paths, is 45 s of it.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from fklab import apps, cli, coupling_lab as cl, feynman_kac as fk  # noqa: E402
from fklab import kernel_lab as kl, rds_core as rc  # noqa: E402
from fklab.dynamics_maps import BurgersMap, ToyDiagonalMap, l1_circle_metric  # noqa: E402
from fklab.measure_metrics import DiscreteMeasure, verify_metric_sandwich  # noqa: E402


def feed(h, obj):
    """Hash ``obj`` into ``h``, tagging each value with its type."""
    if isinstance(obj, dict):
        h.update(b"{")
        for key in sorted(obj, key=str):
            feed(h, str(key))
            feed(h, obj[key])
        h.update(b"}")
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for item in obj:
            feed(h, item)
        h.update(b"]")
    elif isinstance(obj, np.ndarray):
        arr = np.ascontiguousarray(obj)
        h.update(f"a{arr.dtype.str}{arr.shape}".encode() + arr.tobytes())
    elif isinstance(obj, np.generic):
        feed(h, obj.item())
    elif isinstance(obj, bool) or obj is None:
        h.update(f"b{obj}".encode())
    elif isinstance(obj, float):
        h.update(b"f" + obj.hex().encode())
    elif isinstance(obj, int):
        h.update(f"i{obj}".encode())
    elif isinstance(obj, (str, bytes)):
        h.update(b"s" + (obj.encode() if isinstance(obj, str) else obj))
    else:
        raise TypeError(f"cannot hash {type(obj).__name__}")


def points(model, X):
    """Coordinates of ensemble states, whichever form the checkout uses."""
    return model.coords(X) if hasattr(model, "coords") else X


def trajectory(run):
    """States of a ``simulate`` run, returned bare or in a result object."""
    return getattr(run, "states", run)


def coupled_pair(model, N, v, v_prime, K, seed):
    """States (K+1, 2, dim) and flags (K, N) of one coupled pair, whichever
    form the checkout's ``coupled_trajectories`` has."""
    if hasattr(cl, "CoupledRun"):
        run = cl.coupled_trajectories(model, N, v, v_prime, K, seed=seed)
        return [run.states, run.coupled]
    states, flags = cl.coupled_trajectories(model, N, np.stack([v, v_prime])[None], K, seed=seed)
    return [states[:, 0], flags[:, 0]]


def fit_fields(fit):
    return [fit.Q, fit.stderr, fit.series, fit.curvature, fit.accepted, getattr(fit, "diagnostics", {})]


def fk_fields(model, res):
    ens = res.ensemble
    return [res.lam, res.lam_stderr, res.log_mass_series, points(model, res.mu_cloud),
            points(model, ens.particles), ens.logweights, ens.lognorm, ens.ess, ens.history]


# --- inputs ------------------------------------------------------------------------


def bridge_chain():
    """Criteria 05, 06 and 09's five-state chain and its potential."""
    rng = np.random.default_rng(11)
    n = 5
    pts = np.linspace(0, 2, n)[:, None]
    P = rng.uniform(0.1, 1.0, (n, n))
    P /= P.sum(axis=1, keepdims=True)
    K = kl.FiniteKernel(points=pts, P=P, A=np.arange(n))
    vals = rng.uniform(-0.5, 0.5, n)
    chain = rc.FiniteChainModel.from_kernel(K)
    return K, chain, vals, fk.PotentialFn.from_chain(chain, vals)


def random_kernel(rng, n, v_scale=1.0):
    d = int(rng.integers(1, 4))
    P = rng.uniform(0.05, 1.0, size=(n, n)) * rng.uniform(0.5, 1.5, size=(n, 1))
    K = kl.FiniteKernel(points=rng.uniform(-1, 1, size=(n, d)), P=P, A=np.arange(n))
    return K, kl.PotentialVector.from_values(K, rng.uniform(-v_scale, v_scale, size=n))


def reversible_chain(rng, n):
    pts = np.sort(rng.uniform(-2, 2, size=(n, 1)), axis=0)
    R = rng.uniform(0.1, 1.0, (n, n))
    W = R + R.T
    return kl.FiniteKernel(points=pts, P=W / W.sum(axis=1, keepdims=True), A=np.arange(n))


def toy_model(dim=6, b0=0.3):
    return rc.RDSModel(
        map=ToyDiagonalMap.geometric(dim, base=0.7, ratio=0.8),
        kicks=rc.KickLaw.from_decay(dim, b0=b0, s=1.0), rho=1.0, contraction_factor=0.7,
    )


def burgers_model():
    return rc.RDSModel(map=BurgersMap(nu=1.0, modes=16, dt=2e-2), kicks=rc.KickLaw.from_decay(8), rho=0.7)


TOY_V = fk.PotentialFn.coordinate(0, scale=1.0, clip=2.0)
TOY_MODEL_CFG = {"kind": "toy", "dim": 6, "base": 0.7, "ratio": 0.8, "kick_dim": 6, "kick_b0": 0.3, "rho": 1.0}
CHAIN_CFG = {
    "kind": "chain", "points": [[0.0], [1.0], [2.5], [4.0]],
    "P": [[0.2, 0.5, 0.3, 0.0], [0.3, 0.4, 0.3, 0.0], [0.5, 0.25, 0.25, 0.0], [0.1, 0.2, 0.3, 0.4]],
}


# --- chain cases -------------------------------------------------------------------


def chain_05():
    K, chain, vals, Vfn = bridge_chain()
    out = fk_fields(chain, fk.particle_fk(chain, Vfn, K.points[1], k=60, n_particles=10_000, seed=4))
    out += [fk.h_estimate(chain, Vfn, K.points[i], k=25, lam=out[0], n_traj=10_000, seed=100 + i) for i in range(K.n)]
    return out + fit_fields(fk.pressure_estimate(chain, Vfn, K.points[0], k_max=60, n_traj=10_000, seed=5))


def chain_06():
    K, chain, _, _ = bridge_chain()
    rng = np.random.default_rng(66)
    out = []
    for trial in range(20):
        Vfn = fk.PotentialFn.from_chain(chain, rng.uniform(-1, 1, K.n))
        c = float(rng.uniform(-1.5, 1.5))
        for V in (Vfn, Vfn.shifted(c)):
            out += fit_fields(fk.pressure_estimate(chain, V, K.points[0], k_max=40, n_traj=1000, seed=600 + trial))
    Vfn = fk.PotentialFn.from_chain(chain, rng.uniform(-1, 1, K.n))
    out += fit_fields(fk.pressure_estimate(chain, Vfn, K.points[0], k_max=60, n_traj=8000, seed=1))
    return out + fit_fields(fk.pressure_estimate(chain, Vfn.shifted(0.4), K.points[0], k_max=60, n_traj=8000, seed=2))


def chain_09():
    K, chain, _, _ = bridge_chain()
    vc = np.random.default_rng(99).uniform(-1, 1, K.n)
    gen, idx, acc = rc.rng_stream(991, 0), np.full(10_000, 0), np.zeros(10_000)
    for _ in range(1000):
        idx = chain.step_indices(idx, gen)
        acc += vc[idx]
    curve = fk.pressure_curve(
        chain, fk.PotentialFn.from_chain(chain, vc), alphas=[-0.5, -0.25, 0.25, 0.5], u0=K.points[0],
        k_max=80, n_traj=4000, seed=12,
    )
    return [acc, curve.alphas, curve.Q, curve.stderr, curve.sigma_V, curve.sigma_V_stderr, curve.mean_shift, curve.accepted]


def chain_10():
    rng = np.random.default_rng(23)
    pts = np.sort(rng.uniform(-2, 2, size=(4, 1)), axis=0)
    P = rng.uniform(0.05, 1.0, (4, 4))
    K = kl.FiniteKernel(points=pts, P=P / P.sum(axis=1, keepdims=True), A=np.arange(4))
    f_values = rng.uniform(0, 1, 4)

    def pressure(alpha):
        V = kl.PotentialVector.from_values(K, alpha * f_values)
        return float(np.log(kl.perron_triple(kl.build_tilted_matrix(K, V), K.A).lam))

    mean = float(f_values @ kl.perron_triple(K.P, K.A).mu)
    h = 1e-3
    sig = (pressure(h) - 2 * pressure(0) + pressure(-h)) / h**2
    rep = apps.ldp_level1(
        K, f_values, [mean + c * np.sqrt(sig) for c in (0.25, 0.35, 0.45)],
        k_set=[20, 40, 60, 90, 120], n_traj=4_000_000, u0=K.points[0], seed=7,
    )
    return [rep.x_grid, rep.legendre, rep.cells, rep.slope_rates, rep.mean_f]


def chain_estimators():
    """The other chain estimators: series, MET residuals, path averages,
    occupation measures and a cloud start."""
    K, chain, vals, Vfn = bridge_chain()
    f = lambda X: points(chain, X)[:, 0]  # noqa: E731
    out = list(fk.mc_semigroup_series(chain, Vfn, f, K.points[2], 8, 3000, rc.rng_stream(9, 0)))
    res = fk.particle_fk(chain, Vfn, K.points[[0, 3, 4]], k=40, n_particles=2000, seed=13)
    out += fk_fields(chain, res)
    triple = kl.perron_triple(kl.build_tilted_matrix(K, kl.PotentialVector.from_values(K, vals)), K.A)
    rep = fk.met_convergence_mc(
        chain, Vfn, triple.lam, [triple.h[0], triple.h[3]], res.mu_cloud, [f], K.points[[0, 3]],
        k_max=12, n_traj=4000, seed=14,
    )
    out += [rep.residuals, rep.stderrs, rep.gamma, rep.verdict]
    out += [apps.path_average_samples(chain, Vfn.scaled(0.5), K.points[1] + 0.1, [1, 5, 30], 5000, seed=3)]
    traj = trajectory(rc.simulate(chain, K.points[4], 300, seed=2, stream=1))
    occ = DiscreteMeasure.from_samples(points(chain, traj)[:300])
    return out + [points(chain, traj), occ.support, occ.weights]


# --- chain_exact operations (the benchmark's recipes at fixed seeds) ----------------


def exact_contraction():
    rng = np.random.default_rng(404)
    out = []
    for i in range(6):
        K, V = random_kernel(rng, 4 + i % 3, v_scale=0.5)
        M = kl.build_tilted_matrix(K, V)
        triple = kl.perron_triple(M, K.A)
        rep = kl.verify_theorem21(K, V, kl.VerifyParams(r=0.3, c=0.5, k_max=40))
        out.append(rep.to_json())
        if rep.all_pass:
            out.append(kl.contraction_search(M, triple, K.points, feller_C=rep.feller["C"]))
    return out


def exact_conditions():
    """The four-condition check on strict-subset kernels (dominated or not)
    and on a three-state chain that reaches every ball in two steps, each
    with V, V - 20 and V + 9, and on a complement that grows 4x a step past
    the Perron value."""
    rng = np.random.default_rng(408)
    chain = kl.FiniteKernel(points=[[0.0], [1.0], [2.0]], P=[[0.5, 0.5, 0.0], [0.25, 0.5, 0.25], [0.0, 0.5, 0.5]], A=[0, 1, 2])
    kernels = [(chain, kl.PotentialVector.from_values(chain, np.zeros(3)))]
    for i in range(6):
        K, V = random_kernel(rng, 3 + i)
        A = np.arange(int(rng.integers(1, K.n)))
        P = K.P.copy()
        P[np.ix_(A, np.arange(A.size, K.n))] = 0.0
        kernels.append((kl.FiniteKernel(points=K.points, P=P, A=A), V))
    out = []
    for K, V in kernels:
        for c in (0.0, -20.0, 9.0):
            V_c = kl.PotentialVector.from_values(K, V.V + c)
            out.append(kl.verify_theorem21(K, V_c, kl.VerifyParams(r=0.3, c=0.5, k_max=40)).to_json())
    K = kl.FiniteKernel(points=[[0.0], [1.0]], P=[[1.0, 0.25], [0.0, 0.25]], A=[1])
    for k_max in (30, 50, 80):
        out.append(kl.verify_theorem21(K, kl.PotentialVector.from_values(K, [0.0, 0.0]), kl.VerifyParams(k_max=k_max)).to_json())
    return out


def exact_sandwich():
    rng = np.random.default_rng(405)
    out = []
    for _ in range(40):
        m1 = DiscreteMeasure(rng.uniform(-1, 1, (5, 2)), rng.dirichlet(np.ones(5)))
        m2 = DiscreteMeasure(rng.uniform(-1, 1, (5, 2)), rng.dirichlet(np.ones(5)))
        rep = verify_metric_sandwich(m1, m2, theta=float(rng.uniform(0.4, 4.0)), diam=2 * np.sqrt(2) + 0.1)
        out.append([getattr(rep, name) for name in sorted(vars(rep))])
    return out


def exact_perron():
    rng = np.random.default_rng(406)
    out = []
    for _ in range(60):
        K, V = random_kernel(rng, int(rng.integers(2, 21)))
        t = kl.perron_triple(kl.build_tilted_matrix(K, V), K.A)
        out += [t.lam, t.h, t.mu]
    return out


def battery_kernel(rng, n, strict_subset):
    """The acceptance battery's kernels (``random_kernel_potential`` in
    ``tests/conftest.py``): with ``strict_subset``, a proper A whose
    complement rows are scaled below half the A-block's Perron value."""
    d = int(rng.integers(1, 4))
    pts = rng.uniform(-1, 1, size=(n, d))
    A = np.arange(n)
    if strict_subset and n >= 3:
        A = np.sort(rng.choice(n, size=int(rng.integers(2, n)), replace=False))
    P = rng.uniform(0.05, 1.0, size=(n, n)) * rng.uniform(0.5, 1.5, size=(n, 1))
    outside = np.setdiff1d(np.arange(n), A)
    values = rng.uniform(-1, 1, size=n)
    if outside.size:
        P[np.ix_(A, outside)] = 0.0
        M = P * np.exp(values)[None, :]
        lamA = np.abs(np.linalg.eigvals(M[np.ix_(A, A)])).max()
        rowsum = M[np.ix_(outside, outside)].sum(axis=1).max()
        if rowsum > 0.5 * lamA:
            P[outside, :] *= 0.5 * lamA / rowsum
    K = kl.FiniteKernel(points=pts, P=P, A=A)
    return K, kl.PotentialVector.from_values(K, values)


def exact_met_rate():
    """The MET rate on criterion 02's first 20 kernels and on three kernels
    whose complement is not dominated (criterion 03's two and a 2-state
    one whose surrogate h reaches 1.6e305)."""
    rng = np.random.default_rng(915)
    kernels = [battery_kernel(rng, int(rng.integers(2, 21)), trial % 2 == 1) for trial in range(20)]
    line = [[0.0], [1.0], [3.0]]
    for pts, P, A in ((line, [[0.6, 0.4, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]], [0, 1]),
                      (line, [[0.6, 0.4, 0.0], [0.5, 0.5, 0.0], [0.1, 0.0, 1.6]], [0, 1]),
                      ([[0.0], [1.0]], [[1.0, 0.25], [0.0, 0.25]], [1])):
        K = kl.FiniteKernel(points=pts, P=P, A=A)
        kernels.append((K, kl.PotentialVector.from_values(K, np.zeros(K.n))))
    return [kl.met_rate_estimate(K, V, kl.perron_triple(kl.build_tilted_matrix(K, V), K.A)) for K, V in kernels]


def exact_chain_bridge():
    rng = np.random.default_rng(407)
    K = reversible_chain(rng, 5)
    chain = rc.FiniteChainModel.from_kernel(K)
    Vfn = fk.PotentialFn.from_chain(chain, rng.uniform(-0.5, 0.5, 5))
    out = fk_fields(chain, fk.particle_fk(chain, Vfn, K.points[1], k=60, n_particles=10_000, seed=31))
    return out + fit_fields(fk.pressure_estimate(chain, Vfn, K.points[1], k_max=60, n_traj=10_000, seed=32))


def exact_pressure_derivatives():
    """``pressure_derivatives`` (Q, pi, Sigma) on the A-blocks of the
    battery's kernels, strict subsets A included."""
    rng = np.random.default_rng(916)
    out = []
    for trial in range(20):
        K, V = battery_kernel(rng, int(rng.integers(2, 13)), trial % 2 == 1)
        out += list(kl.pressure_derivatives(K.P[np.ix_(K.A, K.A)], V.V[K.A]))
    return out


def exact_rate_function():
    """``rate_function_eval`` on the battery's kernels, strict subsets A
    included: at the tilted laws of random potentials, at Dirichlet laws on
    A, and at a law that charges the complement."""
    rng = np.random.default_rng(917)
    out = []
    for trial in range(12):
        K, V = battery_kernel(rng, int(rng.integers(2, 9)), trial % 2 == 1)
        pi = kl.pressure_derivatives(K.P[np.ix_(K.A, K.A)], V.V[K.A])[1]
        for law in (pi, rng.dirichlet(np.ones(K.A.size)), rng.dirichlet(np.full(K.A.size, 0.3))):
            sigma = np.zeros(K.n)
            sigma[K.A] = law / law.sum()
            out.append(apps.rate_function_eval(K, sigma))
        if K.A.size < K.n:
            out.append(apps.rate_function_eval(K, np.full(K.n, 1.0 / K.n)))
    return out


# --- toy and Burgers estimators ------------------------------------------------------


def toy_estimators():
    model = toy_model()
    u0 = np.zeros(6)
    out = [trajectory(rc.simulate(model, np.full(6, 0.5), 200, seed=11))]
    out += list(fk.mc_semigroup_series(model, TOY_V, lambda U: U[:, 1], u0, 10, 2000, rc.rng_stream(3, 0)))
    out += fk_fields(model, fk.particle_fk(model, TOY_V, u0, k=40, n_particles=2000, seed=4))
    out += fit_fields(fk.pressure_estimate(model, TOY_V, u0, k_max=40, n_traj=2000, seed=5))
    curve = fk.pressure_curve(model, TOY_V, [-0.5, 0.5], u0, k_max=40, n_traj=2000, seed=6, recenter_k=2000)
    out += [curve.Q, curve.stderr, curve.sigma_V, curve.mean_shift, curve.accepted]
    out += [fk.h_estimate(model, TOY_V, np.full(6, 0.3), k=10, lam=1.0, n_traj=2000, seed=7)]
    out += [apps.path_average_samples(model, TOY_V, u0, [1, 10, 40], 2000, seed=8)]
    hit = rc.hitting_time_stats(model, np.full((2, 6), 0.8), 0.3, n_traj=300, horizon=200, seed=9)
    out += [hit.taus, hit.delta, hit.censored_fraction]
    cloud = rc.attainability_cloud(model, np.zeros((1, 6)), 12, seed=10, max_points=1500)
    att = rc.attraction_counter(model, cloud, 0.4, np.full((1, 6), 0.8), n_traj=300, horizon=100, seed=11)
    out += [cloud, att.counts, att.delta, att.Lambda, att.censored_fraction, att.settling_shortcut]
    out += coupled_pair(model, 3, np.full(6, 0.5), np.full(6, -0.5), 60, seed=12)
    pairs = np.random.default_rng(13).uniform(-0.5, 0.5, size=(12, 2, 6))
    f_list = [(lambda U: np.clip(U[:, 0], -1, 1), 1.0, 1.0)]
    feller = cl.feller_bound_check(model, TOY_V, f_list, pairs, 10, 0.7, np.ones(10), n_traj=500, seed=14)
    out += [getattr(feller, name) for name in sorted(vars(feller))]
    rep = rc.verify_map_conditions(model, rc.SamplePlan(seed=15))
    return out + [rep]


def toy_curve_split_tilts():
    """``toy_fk``'s pressure curve at 4,000 particles with alphas +-0.1,
    +-0.25 and +-0.5, whose tilts resample apart at different steps (-0.5
    first at step 24, 0.5 at 25, -0.25 at 80, the others never), and the
    particle loop behind it: every tilt's ensemble and the stream after it."""
    model, u0, alphas = toy_model(), np.zeros(6), [-0.5, -0.25, -0.1, 0.1, 0.25, 0.5]
    curve = fk.pressure_curve(model, TOY_V, alphas, u0, k_max=80, n_traj=4000, seed=30, recenter_k=20_000)
    out = [curve.alphas, curve.Q, curve.stderr, curve.sigma_V, curve.sigma_V_stderr, curve.convex, curve.mean_shift,
           curve.accepted]
    series, ensembles, rng = fk._particle_loop(model, TOY_V.shifted(-curve.mean_shift), u0, 80, 4000, 30, alphas)
    out.append(series)
    for ens in ensembles:
        out += [ens.particles, ens.logweights, ens.lognorm, ens.ess, ens.history]
    return out + [rng.random()]


def burgers_estimators():
    model = burgers_model()
    u0 = np.zeros(model.dim)
    u0[1] = 0.5
    out = [trajectory(rc.simulate(model, u0, 20, seed=21))]
    out += [model.map.apply_batch(np.random.default_rng(22).normal(size=(50, model.dim)) * 0.2)]
    out += fk_fields(model, fk.particle_fk(model, fk.PotentialFn.coordinate(1, clip=1.0), u0, k=10, n_particles=200, seed=23))
    rep = rc.verify_map_conditions(model, rc.SamplePlan(n_samples=50, n_iter=4, n_pairs=60, d_prime=l1_circle_metric(model.map), seed=24))
    return out + [rep]


def burgers64_simulate():
    """A one-row M = 64 trajectory at dt = 1e-3: the map on its padded
    8-row block, one call per step."""
    model = rc.RDSModel(map=BurgersMap(nu=1.0, modes=64, dt=1e-3), kicks=rc.KickLaw.from_decay(8), rho=0.7)
    u0 = np.random.default_rng(41).normal(size=model.dim) * np.exp(-0.25 * np.arange(model.dim))
    return trajectory(rc.simulate(model, 0.8 * u0 / np.linalg.norm(u0), 20, seed=42))


BURGERS_ATTRACT_CFG = {
    "model": {"kind": "burgers", "nu": 1.0, "modes": 16, "dt": 2e-2, "kick_dim": 8, "kick_b0": 0.3, "rho": 0.7},
    "eps": 0.12, "hit_eps": 0.35, "n_traj": 200, "horizon": 60, "cloud_k": 10, "cloud_points": 1500, "seed": 33,
}


def burgers_attract():
    """An M = 16 cloud; the attraction counter on it without a contraction
    factor and with one that turns settling on, resolution included; and
    ``attract`` on a Burgers config."""
    model = burgers_model()
    cloud = rc.attainability_cloud(model, np.zeros((1, model.dim)), 10, seed=31, kicks_per_point=5, max_points=1500)
    dirs = np.random.default_rng(32).normal(size=(8, model.dim))
    u0s = 0.7 * dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
    out = [cloud]
    for factor in (None, 0.6):
        m = rc.RDSModel(map=model.map, kicks=model.kicks, rho=model.rho, contraction_factor=factor)
        att = rc.attraction_counter(m, cloud, 0.12, u0s, n_traj=300, horizon=60, seed=34)
        out += [att.counts, att.delta, att.Lambda, att.alpha_moment, att.censored_fraction, att.resolution,
                att.settling_shortcut]
    return out + [run_cli("attract", BURGERS_ATTRACT_CFG)]


# --- CLI runs -------------------------------------------------------------------------


def run_cli(command, cfg, drop=()):
    """One in-process ``fklab`` run; hashes its exit code and every file it
    wrote, with the keys in ``drop`` taken out of results.json."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        out = os.path.join(tmp, "out")
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = cli.main([command, "--config", path, "--out", out, "--threads", "1"])
        files = {}
        for name in sorted(os.listdir(out)) if os.path.isdir(out) else []:
            with open(os.path.join(out, name), "rb") as fh:
                files[name] = fh.read()
        if drop and "results.json" in files:
            res = json.loads(files["results.json"])
            files["results.json"] = {k: v for k, v in res.items() if k not in drop}
            files["dropped"] = [res.get(k) for k in drop]
    return code, files


def shipped(name):
    with open(ROOT / "configs" / name) as fh:
        return json.load(fh)


def cli_shipped():
    return [run_cli("eigen", shipped("eigen_2state.json")), run_cli("met-check", shipped("eigen_2state.json")),
            run_cli("conditions", shipped("eigen_2state.json")),
            run_cli("pressure", shipped("pressure_curve_toy.json")), run_cli("pressure", shipped("pressure_toy_v0.json")),
            run_cli("simulate", shipped("simulate_toy.json"))]


def cli_chain():
    values = {"kind": "chain_values", "values": [0.3, -0.2, 0.1, 0.5]}
    kernel = {"points": CHAIN_CFG["points"], "P": CHAIN_CFG["P"], "A": [0, 1, 2]}
    return [
        run_cli("simulate", {"model": CHAIN_CFG, "u0": [2.5], "K": 200, "seed": 3}),
        run_cli("pressure", {"model": CHAIN_CFG, "potential": values, "u0": [1.0], "k_max": 40, "n_traj": 3000, "seed": 4}),
        run_cli("pressure", {"model": CHAIN_CFG, "potential": values, "u0": [0.0], "k_max": 40, "n_traj": 3000,
                             "alphas": [-0.5, 0.5], "recenter_k": 2000, "seed": 5}),
        run_cli("slln", {"model": CHAIN_CFG, "potential": values, "u0": [4.0], "n_traj": 300, "K": 300, "seed": 6}),
        run_cli("ldp", {"kernel": kernel, "f": [0.1, 0.5, 0.9, 0.3], "x_grid": [0.6, 0.7], "k_set": [10, 20, 30],
                        "n_traj": 20_000, "seed": 7}),
    ]


def cli_chain_off_point():
    """Simulated chain rows after an off-point u0: row 0 as given."""
    return run_cli("simulate", {"model": CHAIN_CFG, "u0": [1.4], "K": 200, "seed": 3})


def cli_toy():
    return [
        run_cli("slln", {"model": TOY_MODEL_CFG, "potential": {"kind": "coordinate", "index": 0, "clip": 2.0},
                         "u0": [0] * 6, "n_traj": 300, "K": 300, "seed": 8}),
        run_cli("attract", {"model": TOY_MODEL_CFG, "eps": 0.3, "n_traj": 200, "horizon": 100, "cloud_k": 20,
                            "cloud_points": 1000, "hit_eps": 0.5, "seed": 9}),
        run_cli("conditions", {"model": TOY_MODEL_CFG, "seed": 10}),
    ]


COUPLING = {"model": TOY_MODEL_CFG, "n_samples": 50_000, "delta": 0.1, "seed": 4}


def cli_coupling_check():
    """Everything ``coupling-check`` writes except its KS p-values."""
    code, files = run_cli("coupling-check", COUPLING, drop=("ks_pvalues",))
    files.pop("dropped")
    return code, files


def cli_coupling_check_ks_pvalues():
    return run_cli("coupling-check", COUPLING, drop=("ks_pvalues",))[1]["dropped"]


CASES = {
    "chain_05": chain_05,
    "chain_06": chain_06,
    "chain_09": chain_09,
    "chain_10": chain_10,
    "chain_estimators": chain_estimators,
    "exact_contraction": exact_contraction,
    "exact_conditions": exact_conditions,
    "exact_sandwich": exact_sandwich,
    "exact_perron": exact_perron,
    "exact_met_rate": exact_met_rate,
    "exact_chain_bridge": exact_chain_bridge,
    "exact_pressure_derivatives": exact_pressure_derivatives,
    "exact_rate_function": exact_rate_function,
    "toy_estimators": toy_estimators,
    "toy_curve_split_tilts": toy_curve_split_tilts,
    "burgers_estimators": burgers_estimators,
    "burgers_attract": burgers_attract,
    "burgers64_simulate": burgers64_simulate,
    "cli_shipped": cli_shipped,
    "cli_chain": cli_chain,
    "cli_chain_off_point": cli_chain_off_point,
    "cli_toy": cli_toy,
    "cli_coupling_check": cli_coupling_check,
    "cli_coupling_check_ks_pvalues": cli_coupling_check_ks_pvalues,
}


def main(prefixes):
    for name, case in CASES.items():
        if prefixes and not name.startswith(tuple(prefixes)):
            continue
        h = hashlib.sha256()
        feed(h, case())
        print(f"{name} {h.hexdigest()}", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
