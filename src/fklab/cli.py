"""Command line entry point.

Every run loads a JSON config, executes one subcommand, and writes
``results.json`` plus a ``manifest.json`` (config, its hash, the effective
seed, library versions) into the output directory.  Outputs are written
atomically and contain nothing time- or thread-dependent, so rerunning a
manifest reproduces every file byte for byte.

Exit codes: 0 success, 2 precondition/config error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import __version__
from . import apps, coupling_lab, feynman_kac as fk, kernel_lab as kl, rds_core as rc
from .dynamics_maps import BurgersMap, ToyDiagonalMap, l1_circle_metric

SUBCOMMANDS = (
    "simulate",
    "eigen",
    "pressure",
    "met-check",
    "coupling-check",
    "conditions",
    "ldp",
    "attract",
    "slln",
)


class ConfigError(ValueError):
    pass


def _fanout(fn, items, threads):
    """Order-preserving map over independent jobs."""
    if threads <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _atomic_write(path, text):
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    raise TypeError(f"not serializable: {type(obj)}")


_RUN_META = {"sha": "", "seed": 0}  # set once per CLI run; embedded in every file


def _write_json(path, payload):
    payload = dict(payload)
    payload.setdefault("config_sha256", _RUN_META["sha"])
    payload.setdefault("seed", _RUN_META["seed"])
    _atomic_write(path, json.dumps(payload, indent=2, sort_keys=True, default=_json_default) + "\n")


def _write_csv(path, array, header):
    array = np.atleast_2d(np.asarray(array, dtype=float))
    lines = [f"# config_sha256={_RUN_META['sha']} seed={_RUN_META['seed']}", header]
    for row in array:
        lines.append(",".join(repr(float(x)) for x in row))
    _atomic_write(path, "\n".join(lines) + "\n")


def _build_model(cfg):
    kind = cfg.get("kind")
    if kind == "toy":
        factors = cfg.get("factors")
        if factors is None:
            m = ToyDiagonalMap.geometric(
                int(cfg["dim"]), base=cfg.get("base", 0.7), ratio=cfg.get("ratio", 0.8),
                q=cfg.get("q", 0.0), cutoff_radius=cfg.get("cutoff_radius", 1.0),
            )
        else:
            m = ToyDiagonalMap(np.asarray(factors, dtype=float), q=cfg.get("q", 0.0))
        contraction = float(m.factors[0]) if m.q == 0 and m.factors[0] < 1 else None
    elif kind == "burgers":
        m = BurgersMap(nu=float(cfg["nu"]), modes=int(cfg.get("modes", 64)), dt=float(cfg.get("dt", 1e-3)))
        contraction = cfg.get("contraction_factor")  # assumed, not measured
        if contraction is not None:
            if isinstance(contraction, bool) or not isinstance(contraction, (int, float)):
                raise ConfigError(f"contraction_factor must be a number, not {contraction!r}")
            contraction = float(contraction)
    elif kind == "chain":
        return rc.FiniteChainModel(
            points=np.asarray(cfg["points"], dtype=float), P=np.asarray(cfg["P"], dtype=float)
        )
    else:
        raise ConfigError(f"unknown model kind {kind!r}")
    law = rc.KickLaw.from_decay(
        int(cfg.get("kick_dim", min(8, m.dim))), b0=cfg.get("kick_b0", 0.3), s=cfg.get("kick_s", 1.0)
    )
    return rc.RDSModel(map=m, kicks=law, rho=float(cfg.get("rho", 1.0)), contraction_factor=contraction)


def _build_map_model(cfg, command):
    model = _build_model(cfg)
    if isinstance(model, rc.FiniteChainModel):
        raise ConfigError(f"{command} needs a continuous map model (kind 'toy' or 'burgers'), not a chain")
    return model


def _load_kernel(cfg):
    if "kernel" not in cfg:
        raise ConfigError("config requires a 'kernel' section")
    kc = cfg["kernel"]
    kernel = kl.FiniteKernel(
        points=np.asarray(kc["points"], dtype=float),
        P=np.asarray(kc["P"], dtype=float),
        A=np.asarray(kc.get("A", range(len(kc["P"]))), dtype=int),
    )
    V = kc.get("V", cfg.get("potential", {}).get("V") if isinstance(cfg.get("potential"), dict) else None)
    potential = kl.PotentialVector.from_values(kernel, V if V is not None else np.zeros(kernel.n))
    return kernel, potential


def _build_potential(cfg, model):
    pc = cfg.get("potential", {"kind": "zero"})
    kind = pc.get("kind", "zero")
    if kind == "chain_values":
        return fk.PotentialFn.from_chain(model, pc["values"])
    if kind == "zero":
        V = fk.PotentialFn.zero()
    elif kind == "coordinate":
        index = int(pc.get("index", 0))
        if not 0 <= index < model.dim:
            raise ConfigError(f"potential index = {index} must lie in 0..{model.dim - 1} (model dim)")
        V = fk.PotentialFn.coordinate(
            index, scale=pc.get("scale", 1.0), center=pc.get("center", 0.0), clip=pc.get("clip"),
        )
    else:
        raise ConfigError(f"unknown potential kind {kind!r}")
    # a chain's states are indices, so its potential is V tabulated on its points
    return fk.PotentialFn.from_chain(model, V(model.points)) if isinstance(model, rc.FiniteChainModel) else V


# --- subcommand implementations -------------------------------------------


def _cmd_simulate(cfg, seed, out, threads):
    model = _build_model(cfg["model"])
    u0 = np.asarray(cfg.get("u0", np.zeros(model.dim)), dtype=float)
    K = int(cfg.get("K", 100))
    stream = int(cfg.get("stream", 0))
    states = rc.simulate(model, u0, K, seed=seed, stream=stream).states
    if isinstance(model, rc.FiniteChainModel):
        states = model.coords(states)
    states[0] = u0  # as given, even off a chain's points
    header = "step," + ",".join(f"x{i}" for i in range(states.shape[1]))
    _write_csv(os.path.join(out, "trajectory.csv"), np.column_stack([np.arange(K + 1), states]), header)
    return {"K": K, "stream": stream, "final_norm": float(np.linalg.norm(states[-1]))}


def _cmd_eigen(cfg, seed, out, threads):
    kernel, potential = _load_kernel(cfg)
    M = kl.build_tilted_matrix(kernel, potential)
    triple = kl.perron_triple(M, kernel.A)
    print(f"lambda = {triple.lam:.12g}")
    return {
        "lambda": triple.lam,
        "h": triple.h,
        "mu": triple.mu,
        "extension_ok": triple.extension_ok,
    }


def _cmd_pressure(cfg, seed, out, threads):
    model = _build_model(cfg["model"])
    V = _build_potential(cfg, model)
    u0 = np.asarray(cfg.get("u0", np.zeros(model.dim)), dtype=float)
    k_max = int(cfg.get("k_max", 60))
    n_traj = int(cfg.get("n_traj", 4000))
    alphas = cfg.get("alphas")
    if alphas:
        curve = fk.pressure_curve(
            model, V, alphas, u0, k_max=k_max, n_traj=n_traj, seed=seed,
            recenter=cfg.get("recenter", True), recenter_k=int(cfg.get("recenter_k", 10_000)),
        )
        _write_csv(
            os.path.join(out, "pressure_curve.csv"),
            np.column_stack([curve.alphas, curve.Q, curve.stderr]),
            "alpha,Q,stderr",
        )
        result = {
            "alphas": curve.alphas,
            "Q": curve.Q,
            "stderr": curve.stderr,
            "sigma_V": curve.sigma_V,
            "sigma_V_stderr": curve.sigma_V_stderr,
            "convex": curve.convex,
            "mean_shift": curve.mean_shift,
            "accepted": curve.accepted,
        }
        print(f"sigma_V = {curve.sigma_V:.6g}")
        if not curve.accepted.all():
            print(f"fit rejected at alpha = {curve.alphas[~curve.accepted].tolist()}", file=sys.stderr)
        return result
    fit = fk.pressure_estimate(model, V, u0, k_max=k_max, n_traj=n_traj, seed=seed)
    _write_csv(
        os.path.join(out, "log_mass.csv"),
        np.column_stack([np.arange(1, k_max + 1), fit.series]),
        "k,log_mass",
    )
    print(f"Q = {fit.Q:.6g} +- {fit.stderr:.2g}")
    return {"Q": fit.Q, "stderr": fit.stderr, "curvature": fit.curvature, "accepted": fit.accepted}


def _cmd_met_check(cfg, seed, out, threads):
    kernel, potential = _load_kernel(cfg)
    M = kl.build_tilted_matrix(kernel, potential)
    triple = kl.perron_triple(M, kernel.A)
    k_max = int(cfg.get("k_max", 80))
    rng = np.random.default_rng(seed)
    f = rng.uniform(-1, 1, kernel.n)
    C, gamma, residuals = kl.met_residuals(kernel, potential, triple, f, k_max=k_max)
    rate, info = kl.met_rate_estimate(kernel, potential, triple, seed=seed)
    _write_csv(
        os.path.join(out, "residuals.csv"),
        np.column_stack([np.arange(1, k_max + 1), residuals]),
        "k,residual",
    )
    return {
        "lambda": triple.lam,
        "C": C,
        "gamma_window_fit": gamma,
        "gamma_rate_estimate": rate,
        "rate_info": {k: v for k, v in info.items()},
    }


def _cmd_coupling_check(cfg, seed, out, threads):
    model = _build_map_model(cfg["model"], "coupling-check")
    kick_dim = model.kicks.dim
    N = int(cfg.get("N", kick_dim // 2))
    n_samples = int(cfg.get("n_samples", 100_000))
    delta = float(cfg.get("delta", 0.1))
    j = int(cfg.get("coordinate", 0))
    if not 0 <= N <= kick_dim:
        raise ConfigError(f"N = {N} must lie in 0..kick_dim = {kick_dim}")
    if not 0 <= j < kick_dim:
        raise ConfigError(f"coordinate {j} must lie in 0..{kick_dim - 1} (kick_dim = {kick_dim})")
    if n_samples < 1:
        raise ConfigError(f"n_samples = {n_samples} must be at least 1")
    b = float(model.kicks.b[j])
    rng = rc.rng_stream(seed, 0)
    x1, x2, coupled = coupling_lab._coupled_coordinates(
        model.kicks.density, np.full(n_samples, delta), np.zeros(n_samples), b, rng
    )
    p_emp = float(coupled.mean())
    p_oracle = 1.0 - coupling_lab.tv_shifted(model.kicks.density, delta / b)
    sigma = float(np.sqrt(max(p_oracle * (1 - p_oracle), 1e-300) / n_samples))
    from scipy import stats

    # exact p-values cost up to 0.3 s at large n; asymptotic ones are within ~1% from 10^4 on
    method = "asymp" if n_samples >= 10_000 else "exact"
    ks1 = stats.kstest((x1 - delta) / b, model.kicks.density.cdf, method=method)
    ks2 = stats.kstest(x2 / b, model.kicks.density.cdf, method=method)
    return {
        "N": N,
        "delta": delta,
        "coupling_probability": p_emp,
        "oracle_probability": p_oracle,
        "z_score": (p_emp - p_oracle) / sigma if sigma > 0 else 0.0,
        "ks_pvalues": [float(ks1.pvalue), float(ks2.pvalue)],
        "decoupling_constant": coupling_lab.decoupling_constant(model.kicks, N),
    }


def _cmd_conditions(cfg, seed, out, threads):
    result = {}
    if "kernel" in cfg:
        kernel, potential = _load_kernel(cfg)
        params = kl.VerifyParams(**cfg.get("params", {}))
        rep = kl.verify_theorem21(kernel, potential, params)
        _atomic_write(os.path.join(out, "condition_report.json"), rep.to_json() + "\n")
        result["kernel_conditions"] = json.loads(rep.to_json())
    if "model" in cfg:
        model = _build_map_model(cfg["model"], "conditions")
        plan_cfg = cfg.get("plan", {})
        plan = rc.SamplePlan(
            radii=tuple(plan_cfg.get("radii", (model.rho, 2 * model.rho))),
            r=plan_cfg.get("r", 0.5),
            n_samples=int(plan_cfg.get("n_samples", 100)),
            n_iter=int(plan_cfg.get("n_iter", 8)),
            projection_dims=tuple(plan_cfg.get("projection_dims", (1, 2, 4))),
            n_pairs=int(plan_cfg.get("n_pairs", 200)),
            d_prime=l1_circle_metric(model.map) if cfg["model"].get("kind") == "burgers" else None,
            seed=seed,
        )
        rep = rc.verify_map_conditions(model, plan)
        result["map_conditions"] = rep
    if not result:
        raise ConfigError("conditions requires a 'kernel' or 'model' section")
    return result


def _cmd_ldp(cfg, seed, out, threads):
    kernel, _ = _load_kernel(cfg)
    chain = rc.FiniteChainModel.from_kernel(kernel)
    f_values = np.asarray(cfg["f"], dtype=float)
    f = fk.PotentialFn.from_chain(chain, f_values)
    alphas = cfg.get("alphas", list(np.linspace(-4, 4, 33)))

    def pressure(alpha):
        """Exact Perron pressure Q(alpha f), at any alpha on or off the grid."""
        V = kl.PotentialVector.from_values(kernel, alpha * f_values)
        return float(np.log(kl.perron_triple(kl.build_tilted_matrix(kernel, V), kernel.A).lam))

    rep = apps.ldp_level1(
        chain,
        f,
        cfg["x_grid"],
        cfg.get("k_set", [50, 100, 200]),
        int(cfg.get("n_traj", 100_000)),
        pressure,
        alphas,
        u0=np.asarray(cfg.get("u0", kernel.points[0]), dtype=float),
        seed=seed,
    )
    cells = {
        f"x={x:.6g},k={k}": v for (x, k), v in rep.cells.items()
    }
    return {
        "x_grid": rep.x_grid,
        "legendre": rep.legendre,
        "cells": cells,
        "slope_rates": {f"{x:.6g}": r for x, r in rep.slope_rates.items()},
        "mean_f": rep.mean_f,
    }


def _cmd_attract(cfg, seed, out, threads):
    model = _build_map_model(cfg["model"], "attract")
    eps = float(cfg.get("eps", 0.1))
    n_traj = int(cfg.get("n_traj", 2000))
    horizon = int(cfg.get("horizon", 400))
    cloud = rc.attainability_cloud(
        model,
        np.zeros((1, model.dim)),
        int(cfg.get("cloud_k", 40)),
        seed=seed,
        max_points=int(cfg.get("cloud_points", 4000)),
    )
    _write_csv(
        os.path.join(out, "attractor_cloud.csv"),
        cloud,
        ",".join(f"x{i}" for i in range(model.dim)),
    )
    u0s = np.asarray(cfg.get("u0s", [list(np.full(model.dim, model.rho))]), dtype=float)
    jobs = [
        lambda: rc.attraction_counter(
            model, cloud, eps, u0s, n_traj=n_traj, horizon=horizon, seed=seed
        ),
        lambda: rc.hitting_time_stats(
            model, u0s, float(cfg.get("hit_eps", model.rho / 2)), n_traj=n_traj,
            horizon=horizon, seed=seed + 1,
        ),
    ]
    att, hit = _fanout(lambda f: f(), jobs, threads)
    return {
        "attraction": {
            "delta": att.delta,
            "Lambda": att.Lambda,
            "alpha_moment": att.alpha_moment,
            "censored_fraction": att.censored_fraction,
            "resolution": att.resolution,
            "max_count": int(att.counts.max()),
            "contraction_factor": model.contraction_factor,
            "settling_shortcut": att.settling_shortcut,
        },
        "hitting": {
            "delta": hit.delta,
            "censored_fraction": hit.censored_fraction,
            "max_tau": int(max(t.max() for t in hit.taus.values())),
        },
    }


def _cmd_slln(cfg, seed, out, threads):
    model = _build_model(cfg["model"])
    V = _build_potential(cfg, model)
    n_traj = int(cfg.get("n_traj", 2000))
    K = int(cfg.get("K", 1000))
    U = rc.initial_ensemble(model, cfg.get("u0", np.zeros(model.dim)), n_traj)
    vals = np.empty((n_traj, K))
    for k, U, _ in rc.propagate(model, U, rc.rng_stream(seed, 0), K):
        vals[:, k - 1] = V(U)
    mu_f = float(cfg.get("mu_f", vals[:, K // 2 :].mean()))
    rep = apps.slln_time(vals, mu_f, eps=float(cfg.get("eps", 0.1)), C=float(cfg.get("C", 1.0)))
    return {
        "censored_fraction": rep.censored_fraction,
        "exp_r2": rep.exp_r2,
        "poly_r2": rep.poly_r2,
        "exp_slopes": rep.exp_slopes,
        "verdict": rep.verdict,
        "T_mean": float(rep.T.mean()),
        "T_max": int(rep.T.max()),
    }


_HANDLERS = {
    "simulate": _cmd_simulate,
    "eigen": _cmd_eigen,
    "pressure": _cmd_pressure,
    "met-check": _cmd_met_check,
    "coupling-check": _cmd_coupling_check,
    "conditions": _cmd_conditions,
    "ldp": _cmd_ldp,
    "attract": _cmd_attract,
    "slln": _cmd_slln,
}


def main(argv=None):
    parser = argparse.ArgumentParser(prog="fklab", description=__doc__)
    parser.add_argument("command", choices=SUBCOMMANDS)
    parser.add_argument("--config", required=True, help="path to the run config JSON")
    parser.add_argument("--seed", type=int, default=None, help="overrides the config seed")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument(
        "--threads",
        type=int,
        default=int(os.environ.get("FK_LAB_THREADS", "1")),
        help="independent-job parallelism (results are thread-count invariant)",
    )
    args = parser.parse_args(argv)

    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot load config: {exc}", file=sys.stderr)
        return 2
    seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
    os.makedirs(args.out, exist_ok=True)
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    _RUN_META["sha"] = hashlib.sha256(canonical.encode()).hexdigest()
    _RUN_META["seed"] = seed

    try:
        result = _HANDLERS[args.command](cfg, seed, args.out, max(args.threads, 1))
    except (ConfigError, KeyError, ValueError, FileNotFoundError) as exc:
        print(f"error: {exc!r}", file=sys.stderr)
        return 2
    except (kl.PowerIterationError, fk.EnsembleCollapse, FloatingPointError, RuntimeError) as exc:
        print(f"numerical failure: {exc!r}", file=sys.stderr)
        return 3

    manifest = {
        "command": args.command,
        "config": cfg,
        "versions": {
            "fklab": __version__,
            "numpy": np.__version__,
            "python": ".".join(map(str, sys.version_info[:3])),
        },
    }
    _write_json(os.path.join(args.out, "results.json"), result)
    _write_json(os.path.join(args.out, "manifest.json"), manifest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
