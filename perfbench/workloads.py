"""Benchmark workloads: seed-generated inputs and self-checking operations.

Each workload is a list of operations.  An operation is one user-level call
(``fklab.cli.main`` in-process, or one public library function) followed by
a check of its output against a seed-free reference: an exact value, a
bound that holds for every input, or a statistical tolerance in units of
the estimator's own stderr.  Stored seeded outputs are never compared, so
re-keyed random streams or roundoff-level changes do not count as failures.

Inputs are generated once per run from the workload seed, before timing.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

from fklab import cli
from fklab import feynman_kac as fk
from fklab import kernel_lab as kl
from fklab import rds_core as rc
from fklab.dynamics_maps import BurgersMap, l1_circle_metric
from fklab.measure_metrics import DiscreteMeasure, verify_metric_sandwich

# Operations expected to fail at the commit that defined the benchmark.
# They still run and count in the failure fraction; the benchmark reports
# them as known rather than as a wrong result.
KNOWN_FAILING = {
    # `fklab ldp` hands ldp_level1 a lookup on the alpha grid as pressure_fn,
    # and _tilt_parameter evaluates it off the grid: KeyError, exit 2.
    "cli_ldp": "fklab ldp exits 2: pressure lookup off the alpha grid (KeyError)",
}


# A statistical check fails a correct program by chance with probability
# FALSE_ALARM per run, small enough that none does over the hundreds of
# seeds that repeated sets of runs draw.  The tolerances are the two-sided
# quantiles at that probability (scipy.stats.t.ppf / norm.ppf at
# 1 - FALSE_ALARM / 2).
# fklab's slope stderr is a batch mean over 8 blocks, so a z built on it is
# Student t with 7 degrees of freedom, not normal: over 200 seeds the
# chain_bridge z-scores had mean -0.1 and sd 1.2 (t7: 0 and 1.18).
FALSE_ALARM = 1e-6
Z_MAX_T7 = 15.77
Z_MAX_NORMAL = 4.89


class CheckFailed(AssertionError):
    pass


def check(ok, message):
    if not ok:
        raise CheckFailed(message)


class Context:
    """Where a workload's operations read and write."""

    def __init__(self, seed, workdir, repo_root):
        self.seed = seed
        self.workdir = workdir
        self.repo_root = repo_root

    def rng(self, tag):
        """Generator for one named input, derived from the workload seed."""
        digest = hashlib.sha256(tag.encode()).digest()
        return np.random.default_rng([self.seed, int.from_bytes(digest[:4], "little")])

    def subseed(self, tag):
        return int(self.rng(tag).integers(0, 2**31 - 1))

    def path(self, name):
        return os.path.join(self.workdir, name)

    def write_config(self, name, cfg):
        path = self.path(name)
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        return path


def cli_ok(argv):
    """One ``fklab`` invocation in-process; returns its results.json."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = cli.main(list(argv) + ["--threads", "1"])
    check(code == 0, f"exit {code}: {err.getvalue().strip()[-300:]}")
    out_dir = argv[argv.index("--out") + 1]
    with open(os.path.join(out_dir, "results.json")) as fh:
        return json.load(fh)


def file_bytes(out_dir, names):
    out = {}
    for name in names:
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = fh.read()
    return out


def same_as_first_pass(store, key, blob):
    """Byte-identity across passes of the same run (same inputs each pass)."""
    first = store.setdefault(key, blob)
    check(first == blob, f"{key}: output bytes differ from the first pass")


def read_trajectory(out_dir):
    data = np.loadtxt(os.path.join(out_dir, "trajectory.csv"), delimiter=",", comments="#", skiprows=2)
    return data[:, 1:]


def check_decay(states, factor, radius, tol=1e-9):
    """||u_k|| <= factor ||u_{k-1}|| + radius along a trajectory."""
    norms = np.linalg.norm(states, axis=1)
    check(np.all(np.isfinite(norms)), "non-finite trajectory state")
    excess = norms[1:] - (factor * norms[:-1] + radius)
    check(float(excess.max()) <= tol, f"norm bound violated by {float(excess.max()):.3g}")


# --- finite kernels (criterion-01/04 recipes) --------------------------------


def random_kernel_potential(rng, n, strict_subset=False, v_scale=1.0):
    """Random embedded kernel and potential; with ``strict_subset`` the rows
    outside A are scaled so the complement stays dominated by the A-block."""
    d = int(rng.integers(1, 4))
    pts = rng.uniform(-1, 1, size=(n, d))
    if strict_subset and n >= 3:
        A = np.sort(rng.choice(n, size=int(rng.integers(2, n)), replace=False))
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


def dense_perron(M, A):
    """Dense-eigensolver oracle for (lam, h, mu) with the same block layout
    and normalisation as ``perron_triple``."""
    n = M.shape[0]
    comp = np.setdiff1d(np.arange(n), A)
    MA = M[np.ix_(A, A)]
    w, Vr = np.linalg.eig(MA)
    top = np.argmax(w.real)
    lam = w.real[top]
    hA = np.abs(Vr[:, top].real)
    wl, Vl = np.linalg.eig(MA.T)
    muA = np.abs(Vl[:, np.argmax(wl.real)].real)
    h = np.zeros(n)
    h[A] = hA
    if comp.size:
        h[comp] = np.linalg.solve(lam * np.eye(comp.size) - M[np.ix_(comp, comp)], M[np.ix_(comp, A)] @ hA)
    mu = np.zeros(n)
    mu[A] = muA / muA.sum()
    return lam, h / (h @ mu), mu


def reversible_chain(rng, n):
    """Row-stochastic kernel from a symmetric weight matrix: the tilted
    matrix is then similar to a symmetric one, so its spectrum is real and
    ``met_rate_estimate`` needs no window extension for beating complex
    pairs (which made its work jump tenfold from seed to seed)."""
    pts = np.sort(rng.uniform(-2, 2, size=(n, 1)), axis=0)
    R = rng.uniform(0.1, 1.0, (n, n))
    W = R + R.T
    return kl.FiniteKernel(points=pts, P=W / W.sum(axis=1, keepdims=True), A=np.arange(n))


def kernel_cfg(kernel, values, seed):
    return {
        "kernel": {
            "points": kernel.points.tolist(), "P": kernel.P.tolist(),
            "A": kernel.A.tolist(), "V": list(map(float, values)),
        },
        "seed": seed,
    }


# --- toy_fk --------------------------------------------------------------------

TOY_MODEL = {"kind": "toy", "dim": 6, "base": 0.7, "ratio": 0.8, "kick_dim": 6, "kick_b0": 0.3, "rho": 1.0}
# For coordinate 0 of this toy, u_k = 0.7 u_{k-1} + 0.3 xi_k, so the CLT
# variance of the running mean of u_0 is 0.3^2 Var(xi) / (1 - 0.7)^2 = Var(xi)
# = 1/7 for the quartic bump (2 Beta(3,3) - 1).
TOY_SIGMA_V = 1.0 / 7.0
TOY_PRESSURE_TRAJ = 15_000
TOY_COUPLING_SAMPLES = 200_000


def toy_fk(ctx):
    store = {}
    curve_cfg = ctx.write_config("curve.json", {
        "model": TOY_MODEL,
        "potential": {"kind": "coordinate", "index": 0, "scale": 1.0, "clip": 2.0},
        "u0": [0.0] * 6, "k_max": 80, "n_traj": TOY_PRESSURE_TRAJ,
        "alphas": [-0.5, -0.25, 0.25, 0.5], "recenter_k": 20_000,
        "seed": ctx.subseed("pressure_curve"),
    })
    coupling_cfg = ctx.write_config("coupling.json", {
        "model": TOY_MODEL, "n_samples": TOY_COUPLING_SAMPLES,
        "delta": 0.1,  # the residual sampler's work grows with delta: keep it fixed
        "seed": ctx.subseed("coupling_check"),
    })
    configs = os.path.join(ctx.repo_root, "configs")

    def pressure_curve():
        res = cli_ok(["pressure", "--config", curve_cfg, "--out", ctx.path("curve")])
        z = (res["sigma_V"] - TOY_SIGMA_V) / res["sigma_V_stderr"]
        check(abs(z) <= Z_MAX_T7, f"sigma_V {res['sigma_V']:.5f} is {z:.2f} stderr from 1/7")
        check(res["convex"] is True, "pressure curve not convex")

    def pressure_v0():
        res = cli_ok([
            "pressure", "--config", os.path.join(configs, "pressure_toy_v0.json"),
            "--seed", str(ctx.subseed("pressure_v0")), "--out", ctx.path("v0"),
        ])
        check(abs(res["Q"]) <= 1e-12, f"Q = {res['Q']!r} for V = 0")

    def coupling_check():
        res = cli_ok(["coupling-check", "--config", coupling_cfg, "--out", ctx.path("coupling")])
        check(abs(res["z_score"]) <= Z_MAX_NORMAL, f"coupling z = {res['z_score']:.2f}")
        check(min(res["ks_pvalues"]) >= FALSE_ALARM / 2, f"KS p-values {res['ks_pvalues']}")

    def simulate():
        out = ctx.path("sim")
        cli_ok([
            "simulate", "--config", os.path.join(configs, "simulate_toy.json"),
            "--seed", str(ctx.subseed("simulate")), "--out", out,
        ])
        same_as_first_pass(store, "simulate", file_bytes(out, ("trajectory.csv", "results.json")))
        # toy factors are at most 0.7; kicks have norm at most the law radius
        radius = float(rc.KickLaw.from_decay(6, b0=0.3, s=1.0).radius)
        check_decay(read_trajectory(out), 0.7, radius)

    return [
        ("pressure_curve", pressure_curve),
        ("pressure_v0", pressure_v0),
        ("coupling_check", coupling_check),
        ("simulate", simulate),
    ]


# --- burgers64_pairs -------------------------------------------------------------

B64 = {"nu": 1.0, "modes": 64, "dt": 1e-3}
B64_PAIRS = 192  # A and B stacked: one apply_batch of 384 rows per pass
B64_SIM_STEPS = 20


def burgers64_pairs(ctx):
    store = {}
    bm = BurgersMap(**B64)
    rng = ctx.rng("pairs")
    decay = np.exp(-0.25 * np.arange(bm.dim))
    A = rng.normal(size=(B64_PAIRS, bm.dim)) * decay
    A *= 0.6 * rng.random((B64_PAIRS, 1)) / np.maximum(np.linalg.norm(A, axis=1, keepdims=True), 1e-12)
    B = A + 0.25 * rng.normal(size=(B64_PAIRS, bm.dim)) * decay
    AB = np.vstack([A, B])
    metric = l1_circle_metric(bm)

    u0 = ctx.rng("sim_u0").normal(size=bm.dim) * decay
    u0 *= 0.8 / np.linalg.norm(u0)
    sim_cfg = ctx.write_config("sim_b64.json", {
        "model": {"kind": "burgers", **B64, "kick_dim": 8, "kick_b0": 0.3, "rho": 0.7},
        "u0": u0.tolist(), "K": B64_SIM_STEPS, "stream": 0, "seed": ctx.subseed("simulate_b64"),
    })
    radius = float(rc.KickLaw.from_decay(8, b0=0.3, s=1.0).radius)

    def pair_maps():
        S = bm.apply_batch(AB)
        den = metric(A, B)
        num = metric(S[:B64_PAIRS], S[B64_PAIRS:])
        pos = den > 0
        check(int(pos.sum()) == B64_PAIRS, "degenerate pair")
        worst = float((num[pos] / den[pos]).max())
        check(worst <= 1 + 1e-6, f"L1 ratio {worst:.8f} > 1 + 1e-6")

    def simulate_b64():
        out = ctx.path("sim_b64")
        cli_ok(["simulate", "--config", sim_cfg, "--out", out])
        same_as_first_pass(store, "simulate_b64", file_bytes(out, ("trajectory.csv", "results.json")))
        # the zero-mean viscous flow contracts L2 by e^{-nu} per time unit
        check_decay(read_trajectory(out), np.exp(-B64["nu"]), radius)

    return [("pair_maps", pair_maps), ("simulate_b64", simulate_b64)]


# --- burgers16_attract --------------------------------------------------------------

B16_ATTRACT = {
    "cloud_k": 12, "cloud_points": 2000, "n_traj": 500, "horizon": 100,
    "eps": 0.3, "hit_eps": 0.35,
}


def burgers16_attract(ctx):
    dim = 32
    d = ctx.rng("u0").normal(size=dim)
    u0 = 0.6 * d / np.linalg.norm(d)
    cfg = ctx.write_config("attract.json", {
        "model": {"kind": "burgers", "nu": 1.0, "modes": 16, "dt": 2e-2, "kick_dim": 8, "kick_b0": 0.3, "rho": 0.7},
        "u0s": [u0.tolist()], **B16_ATTRACT, "seed": ctx.subseed("attract"),
    })

    def attract():
        res = cli_ok(["attract", "--config", cfg, "--out", ctx.path("attract")])
        check(res["attraction"]["delta"] > 0, f"attraction delta {res['attraction']['delta']}")
        check(res["hitting"]["censored_fraction"] == 0, f"censored {res['hitting']['censored_fraction']}")

    return [("attract", attract)]


# --- chain_exact ----------------------------------------------------------------------

CHAIN_CONTRACTION_KERNELS = 12
CHAIN_SANDWICH_PAIRS = 300
CHAIN_ORACLE_KERNELS = 200
CHAIN_BRIDGE = {"n_particles": 10_000, "k": 60}


def chain_exact(ctx):
    # criterion-04 kernels.  The contraction search's length varies from
    # kernel to kernel and seed to seed (6 to 168 LPs); small kernels with
    # cycled rather than drawn sizes keep that variation a small part of
    # the pass.
    rng = ctx.rng("contraction")
    contraction_kernels = [
        random_kernel_potential(rng, 4 + i % 3, v_scale=0.5) for i in range(CHAIN_CONTRACTION_KERNELS)
    ]
    rng = ctx.rng("sandwich")
    sandwich_pairs = [
        (
            DiscreteMeasure(rng.uniform(-1, 1, (5, 2)), rng.dirichlet(np.ones(5))),
            DiscreteMeasure(rng.uniform(-1, 1, (5, 2)), rng.dirichlet(np.ones(5))),
            float(rng.uniform(0.4, 4.0)),
        )
        for _ in range(CHAIN_SANDWICH_PAIRS)
    ]
    rng = ctx.rng("oracle")
    oracle = []
    for trial in range(CHAIN_ORACLE_KERNELS):
        K, V = random_kernel_potential(rng, int(rng.integers(2, 21)), strict_subset=trial % 2 == 1)
        oracle.append((kl.build_tilted_matrix(K, V), K.A))

    rng = ctx.rng("bridge")
    bridge_kernel = reversible_chain(rng, 5)
    bridge_vals = rng.uniform(-0.5, 0.5, 5)
    bridge_lam = dense_perron(
        kl.build_tilted_matrix(bridge_kernel, kl.PotentialVector.from_values(bridge_kernel, bridge_vals)),
        bridge_kernel.A,
    )[0]
    chain = rc.FiniteChainModel.from_kernel(bridge_kernel)
    Vfn = fk.PotentialFn.from_chain(chain, bridge_vals)
    bridge_seed = ctx.subseed("bridge_seed")

    rng = ctx.rng("cli_kernel")
    cli_kernel = reversible_chain(rng, 6)
    cli_vals = rng.uniform(-0.5, 0.5, 6)
    cli_M = kl.build_tilted_matrix(cli_kernel, kl.PotentialVector.from_values(cli_kernel, cli_vals))
    cli_lam = dense_perron(cli_M, cli_kernel.A)[0]
    mods = np.sort(np.abs(np.linalg.eigvals(cli_M)))[::-1]
    cli_gap = float(-np.log(mods[1] / mods[0]))
    cli_cfg = ctx.write_config("kernel.json", {**kernel_cfg(cli_kernel, cli_vals, ctx.subseed("cli_kernel_seed")), "k_max": 40})

    rng = ctx.rng("ldp")
    ldp_kernel = reversible_chain(rng, 4)
    ldp_f = rng.uniform(0, 1, 4)
    ldp_mu = dense_perron(ldp_kernel.P, ldp_kernel.A)[2]
    ldp_mean = float(ldp_f @ ldp_mu)
    ldp_cfg = ctx.write_config("ldp.json", {
        **kernel_cfg(ldp_kernel, np.zeros(4), ctx.subseed("ldp_seed")),
        "f": ldp_f.tolist(), "x_grid": [ldp_mean + 0.05, ldp_mean + 0.1],
        "k_set": [10, 20, 30], "n_traj": 2000,
    })

    def contraction():
        factors = []
        for K, V in contraction_kernels:
            M = kl.build_tilted_matrix(K, V)
            triple = kl.perron_triple(M, K.A)
            rep = kl.verify_theorem21(K, V, kl.VerifyParams(r=0.3, c=0.5, k_max=40))
            if rep.all_pass:
                factors.append(kl.contraction_search(M, triple, K.points, feller_C=rep.feller["C"])[2])
        need = -(-2 * CHAIN_CONTRACTION_KERNELS // 3)
        check(len(factors) >= need, f"{len(factors)} kernels passed the conditions, need {need}")
        check(max(factors) <= 0.5, f"contraction factor {max(factors):.3f} > 0.5")

    def sandwich():
        bad = sum(
            not verify_metric_sandwich(m1, m2, theta=theta, diam=2 * np.sqrt(2) + 0.1, tol=1e-9).ok
            for m1, m2, theta in sandwich_pairs
        )
        check(bad == 0, f"metric sandwich fails on {bad} pairs")

    def perron_oracle():
        worst_lam = worst_vec = 0.0
        for M, A in oracle:
            t = kl.perron_triple(M, A)
            lam, h, mu = dense_perron(M, A)
            worst_lam = max(worst_lam, abs(t.lam - lam) / lam)
            worst_vec = max(worst_vec, np.abs(t.h - h).max(), np.abs(t.mu - mu).max())
        check(worst_lam < 1e-10 and worst_vec < 1e-8, f"oracle errors lam {worst_lam:.2e}, vec {worst_vec:.2e}")

    def chain_bridge():
        u0 = bridge_kernel.points[1]
        res = fk.particle_fk(chain, Vfn, u0, k=CHAIN_BRIDGE["k"], n_particles=CHAIN_BRIDGE["n_particles"], seed=bridge_seed)
        z = (res.lam - bridge_lam) / res.lam_stderr
        check(abs(z) <= Z_MAX_T7, f"particle lambda {res.lam:.5f} is {z:.2f} stderr from {bridge_lam:.5f}")
        fit = fk.pressure_estimate(
            chain, Vfn, u0, k_max=CHAIN_BRIDGE["k"], n_traj=CHAIN_BRIDGE["n_particles"], seed=bridge_seed + 1
        )
        z = (fit.Q - np.log(bridge_lam)) / fit.stderr
        check(abs(z) <= Z_MAX_T7, f"pressure {fit.Q:.5f} is {z:.2f} stderr from log lambda")

    def cli_eigen():
        res = cli_ok(["eigen", "--config", cli_cfg, "--out", ctx.path("eigen")])
        check(abs(res["lambda"] - cli_lam) <= 1e-10 * cli_lam, f"lambda {res['lambda']!r} vs {cli_lam!r}")

    def cli_met_check():
        res = cli_ok(["met-check", "--config", cli_cfg, "--out", ctx.path("met")])
        check(abs(res["lambda"] - cli_lam) <= 1e-10 * cli_lam, f"lambda {res['lambda']!r} vs {cli_lam!r}")
        rate = res["gamma_rate_estimate"]
        check(abs(rate - cli_gap) <= 0.05 * cli_gap, f"rate {rate:.4f} vs spectral gap {cli_gap:.4f}")

    def cli_conditions():
        res = cli_ok(["conditions", "--config", cli_cfg, "--out", ctx.path("conditions")])
        rep = res["kernel_conditions"]
        # a strictly positive kernel with A = all states is irreducible and
        # has nothing outside A to concentrate or grow
        for part in ("irreducibility", "concentration", "expbound"):
            check(rep[part]["verdict"] == "pass", f"{part}: {rep[part]['verdict']}")

    def cli_ldp():
        res = cli_ok(["ldp", "--config", ldp_cfg, "--out", ctx.path("ldp")])
        leg = np.asarray(res["legendre"], dtype=float)
        check(np.all(np.isfinite(leg)) and np.all(leg >= -1e-9), f"Legendre values {leg}")

    return [
        ("contraction", contraction),
        ("sandwich", sandwich),
        ("perron_oracle", perron_oracle),
        ("chain_bridge", chain_bridge),
        ("cli_eigen", cli_eigen),
        ("cli_met_check", cli_met_check),
        ("cli_conditions", cli_conditions),
        ("cli_ldp", cli_ldp),
    ]


WORKLOADS = {
    "toy_fk": toy_fk,
    "burgers64_pairs": burgers64_pairs,
    "burgers16_attract": burgers16_attract,
    "chain_exact": chain_exact,
}
