"""Command line entry point.

Every run loads a JSON config, executes one subcommand, and writes
``results.json`` plus a ``manifest.json`` (config, its hash, the effective
seed, library versions) into the output directory.  Outputs are written
atomically, only on success, and contain nothing time- or thread-dependent,
so rerunning a manifest reproduces every file byte for byte.  A config key
no subcommand reads, a wrong type or a value below its bound is rejected
before any computation.  Each handler imports the fklab modules it runs,
so ``import fklab.cli`` loads numpy and no computation module, and a run
loads only those of its subcommand: ``eigen``, say, no simulated dynamics.

Exit codes: 0 success, 2 bad config or input (ValueError, OSError, MemoryError),
3 numerical failure (ArithmeticError, RuntimeError, LinAlgError).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import numbers
import os
import sys
import tempfile

import numpy as np

from . import __version__

# every key some subcommand reads, per config section ("" is the top level)
_KEYS = {
    "": set(
        "seed model potential kernel params plan u0 u0s K stream k_max n_traj alphas recenter_k"
        " N n_samples delta coordinate f x_grid k_set eps horizon cloud_k cloud_points hit_eps mu_f C".split()
    ),
    "model": set(
        "kind factors dim base ratio q cutoff_radius nu modes dt contraction_factor points P"
        " kick_dim kick_b0 kick_s rho".split()
    ),
    "potential": {"kind", "values", "index", "scale", "center", "clip"},
    "kernel": {"points", "P", "A", "V"},
    "params": None,  # the fields of kernel_lab.VerifyParams, read by _all_keys
    "plan": {"radii", "r", "n_samples", "n_iter", "projection_dims", "n_pairs"},
}
_REQUIRED = object()
_TYPES = {float: (numbers.Real, "a number"), int: (numbers.Integral, "an integer"), bool: (bool, "a boolean")}


class ConfigError(ValueError):
    pass


def _all_keys():
    """``_KEYS`` with the ``params`` keys, which load kernel_lab."""
    from . import kernel_lab as kl
    return dict(_KEYS, params=set(vars(kl.VerifyParams())))


def _check_keys(cfg):
    """Reject a section that is not a JSON object, and any key no subcommand reads."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"the config must be a JSON object, not {type(cfg).__name__}")
    for section, known in (_all_keys() if "params" in cfg else _KEYS).items():
        sec = cfg.get(section, {}) if section else cfg
        if not isinstance(sec, dict):
            raise ConfigError(f"section {section!r} must be a JSON object, not {sec!r}")
        for key in sec:
            if key not in known:
                import difflib  # only on this error path: import fklab.cli stays lean

                lower = {k.lower(): k for k in known}
                near = difflib.get_close_matches(key.lower(), lower, n=1)
                home = [f"in {s!r}" if s else "at the top level" for s, keys in _all_keys().items() if key in keys]
                hint = f"; did you mean {lower[near[0]]!r}?" if near else f"; it belongs {home[0]}" if home else ""
                raise ConfigError(f"unknown key {key!r}{f' in {section!r}' if section else ''}{hint}")


def _section(cfg, name):
    if name not in cfg:
        raise ConfigError(f"config requires a {name!r} section")
    return cfg[name]


def _num(sec, key, default=_REQUIRED, typ=float, lo=None, gt=None):
    """``sec[key]`` as a ``typ`` (float, int or bool) of at least ``lo`` and
    above ``gt``; a float must be finite, as no key takes ±inf, and an int
    must fit in 64 bits.  ``default`` when absent, and None for null when
    the default is None."""
    v = sec.get(key, default)
    if v is _REQUIRED:
        raise ConfigError(f"missing key {key!r}")
    if v is None and default is None:
        return None
    kind, name = _TYPES[typ]
    if not isinstance(v, kind) or (isinstance(v, bool) and typ is not bool):
        raise ConfigError(f"{key} must be {name}, not {v!r}")
    if typ is int and not -(2**63) <= v < 2**64:  # no numpy count holds it; a seed is taken mod 2^64
        raise ConfigError(f"{key} must fit in 64 bits, got {v}")
    # finite, as a float: no NaN or ±inf, and no integer literal past the float range
    if typ is float and not abs(v) <= sys.float_info.max or gt is not None and not v > gt:
        bound = "" if gt is None else "positive and " if gt == 0 else f"above {gt} and "
        raise ConfigError(f"{key} must be {bound}finite, got {v}")
    if lo is not None and v < lo:
        raise ConfigError(f"{key} = {v} must be at least {lo}")
    return typ(v)


def _arr(sec, key, default=_REQUIRED, dtype=float, ndim=None):
    """``sec[key]`` as a rectangular array of numbers (of integers when
    ``dtype`` is int; ``dtype=None`` keeps JSON's ints and floats) with
    ``ndim`` axes if given; ``default`` when absent, and None for null when
    the default is None."""
    v = sec.get(key, default)
    if v is _REQUIRED:
        raise ConfigError(f"missing key {key!r}")
    if v is None and default is None:
        return None
    try:
        a = np.asarray(v)
    except ValueError:  # ragged nesting
        a = np.empty(())
    if a.ndim == 0 or ndim not in (None, a.ndim) or a.dtype.kind not in ("iu" if dtype is int else "iuf"):
        shape = f" ({ndim}-d)" if ndim else ""
        raise ConfigError(f"{key} must be an array of {'integers' if dtype is int else 'numbers'}{shape}, not {v!r}")
    return a if dtype is None else a.astype(dtype)


def _env_threads():
    text = os.environ.get("FK_LAB_THREADS", "1")
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"FK_LAB_THREADS = {text!r} must be an integer") from None


def _fanout(fn, items, threads):
    """Order-preserving map over independent jobs."""
    if threads <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    from concurrent.futures import ThreadPoolExecutor
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


def _json_text(payload, sha, seed):
    payload = {"config_sha256": sha, "seed": seed, **payload}
    return json.dumps(payload, indent=2, sort_keys=True, default=_json_default) + "\n"


def _csv_text(header, array, sha, seed):
    array = np.atleast_2d(np.asarray(array, dtype=float))
    lines = [f"# config_sha256={sha} seed={seed}", header] + [",".join(map(repr, row)) for row in array.tolist()]
    return "\n".join(lines) + "\n"


def _build_model(cfg):
    from . import rds_core as rc
    from .dynamics_maps import BurgersMap, ToyDiagonalMap
    mc = _section(cfg, "model")
    kind = mc.get("kind")
    if kind == "toy":
        factors, q = _arr(mc, "factors", None), _num(mc, "q", 0.0)
        if factors is None:
            m = ToyDiagonalMap.geometric(
                _num(mc, "dim", typ=int, lo=1), base=_num(mc, "base", 0.7), ratio=_num(mc, "ratio", 0.8),
                q=q, cutoff_radius=_num(mc, "cutoff_radius", 1.0),
            )
        else:
            m = ToyDiagonalMap(factors, q=q)
        contraction = float(m.factors[0]) if m.q == 0 and m.factors[0] < 1 else None
    elif kind == "burgers":
        m = BurgersMap(nu=_num(mc, "nu"), modes=_num(mc, "modes", 64, int, 1), dt=_num(mc, "dt", 1e-3))
        contraction = _num(mc, "contraction_factor", None)  # assumed, not measured
    elif kind == "chain":
        return rc.FiniteChainModel(points=_arr(mc, "points"), P=_arr(mc, "P"))
    else:
        raise ConfigError(f"unknown model kind {kind!r}")
    law = rc.KickLaw.from_decay(
        _num(mc, "kick_dim", min(8, m.dim), int, 1), b0=_num(mc, "kick_b0", 0.3), s=_num(mc, "kick_s", 1.0)
    )
    return rc.RDSModel(map=m, kicks=law, rho=_num(mc, "rho", 1.0, gt=0), contraction_factor=contraction)


def _build_map_model(cfg, command):
    from . import rds_core as rc
    model = _build_model(cfg)
    if isinstance(model, rc.FiniteChainModel):
        raise ConfigError(f"{command} needs a continuous map model (kind 'toy' or 'burgers'), not a chain")
    return model


def _load_kernel(cfg):
    """The ``kernel`` section: ``points``, ``P``, ``A`` (default: every
    state) and the potential ``V`` (default: zero)."""
    from . import kernel_lab as kl
    kc = _section(cfg, "kernel")
    P = _arr(kc, "P")
    kernel = kl.FiniteKernel(points=_arr(kc, "points"), P=P, A=_arr(kc, "A", range(len(P)), int))
    return kernel, kl.PotentialVector.from_values(kernel, _arr(kc, "V", np.zeros(kernel.n)))


def _build_potential(cfg, model):
    from . import feynman_kac as fk, rds_core as rc
    pc = cfg.get("potential", {})
    kind = pc.get("kind", "zero")
    if kind == "chain_values":
        return fk.PotentialFn.from_chain(model, _arr(pc, "values"))
    if kind == "zero":
        V = fk.PotentialFn.zero()
    elif kind == "coordinate":
        index = _num(pc, "index", 0, int)
        if not 0 <= index < model.dim:
            raise ConfigError(f"potential index = {index} must lie in 0..{model.dim - 1} (model dim)")
        V = fk.PotentialFn.coordinate(
            index, scale=_num(pc, "scale", 1.0), center=_num(pc, "center", 0.0), clip=_num(pc, "clip", None, gt=0),
        )
    else:
        raise ConfigError(f"unknown potential kind {kind!r}")
    # a chain's states are indices, so its potential is V tabulated on its points
    return fk.PotentialFn.from_chain(model, V(model.points)) if isinstance(model, rc.FiniteChainModel) else V


# --- subcommand implementations -------------------------------------------
# Each returns (results, files): files maps a file name to its text, or to a
# (header, rows) pair that main writes as a stamped CSV.


def _cmd_simulate(cfg, seed, threads):
    from . import rds_core as rc
    model = _build_model(cfg)
    u0 = _arr(cfg, "u0", np.zeros(model.dim))
    K, stream = _num(cfg, "K", 100, int, 0), _num(cfg, "stream", 0, int, 0)
    states = rc.simulate(model, u0, K, seed=seed, stream=stream)
    if isinstance(model, rc.FiniteChainModel):
        states = model.coords(states)
    states[0] = u0  # as given, even off a chain's points
    header = "step," + ",".join(f"x{i}" for i in range(states.shape[1]))
    result = {"K": K, "stream": stream, "final_norm": float(np.linalg.norm(states[-1]))}
    return result, {"trajectory.csv": (header, np.column_stack([np.arange(K + 1), states]))}


def _cmd_eigen(cfg, seed, threads):
    from . import kernel_lab as kl
    kernel, potential = _load_kernel(cfg)
    M = kl.build_tilted_matrix(kernel, potential)
    triple = kl.perron_triple(M, kernel.A)
    print(f"lambda = {triple.lam:.12g}")
    return {
        "lambda": triple.lam,
        "h": triple.h,
        "mu": triple.mu,
        "extension_ok": triple.extension_ok,
    }, {}


def _cmd_pressure(cfg, seed, threads):
    from . import feynman_kac as fk
    model = _build_model(cfg)
    V = _build_potential(cfg, model)
    u0 = _arr(cfg, "u0", np.zeros(model.dim))
    k_max, n_traj = _num(cfg, "k_max", 60, int), _num(cfg, "n_traj", 4000, int, 100)
    alphas = _arr(cfg, "alphas", None, ndim=1)
    recenter_k = _num(cfg, "recenter_k", 10_000, int, 0)
    if alphas is not None and alphas.size:
        curve = fk.pressure_curve(model, V, alphas, u0, k_max=k_max, n_traj=n_traj, seed=seed, recenter_k=recenter_k)
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
        rows = np.column_stack([curve.alphas, curve.Q, curve.stderr])
        return result, {"pressure_curve.csv": ("alpha,Q,stderr", rows)}
    fit = fk.pressure_estimate(model, V, u0, k_max=k_max, n_traj=n_traj, seed=seed)
    print(f"Q = {fit.Q:.6g} +- {fit.stderr:.2g}")
    result = {"Q": fit.Q, "stderr": fit.stderr, "curvature": fit.curvature, "accepted": fit.accepted}
    return result, {"log_mass.csv": ("k,log_mass", np.column_stack([np.arange(1, k_max + 1), fit.series]))}


def _cmd_met_check(cfg, seed, threads):
    from . import kernel_lab as kl, rds_core as rc
    kernel, potential = _load_kernel(cfg)
    k_max = _num(cfg, "k_max", 80, int, 1)
    M = kl.build_tilted_matrix(kernel, potential)
    triple = kl.perron_triple(M, kernel.A)
    f = rc.rng_stream(seed, 0).uniform(-1, 1, kernel.n)
    C, gamma, residuals = kl.met_residuals(kernel, potential, triple, f, k_max=k_max)
    rate, info = kl.met_rate_estimate(kernel, potential, triple)
    return {
        "lambda": triple.lam,
        "C": C,
        "gamma_window_fit": gamma,
        "gamma_rate_estimate": rate,
        "rate_info": info,
    }, {"residuals.csv": ("k,residual", np.column_stack([np.arange(1, k_max + 1), residuals]))}


def _cmd_coupling_check(cfg, seed, threads):
    from . import coupling_lab, rds_core as rc
    model = _build_map_model(cfg, "coupling-check")
    kick_dim = model.kicks.dim
    N = _num(cfg, "N", kick_dim // 2, int)
    n_samples = _num(cfg, "n_samples", 100_000, int, 1)
    delta = _num(cfg, "delta", 0.1)
    j = _num(cfg, "coordinate", 0, int)
    if not 0 <= N <= kick_dim:
        raise ConfigError(f"N = {N} must lie in 0..kick_dim = {kick_dim}")
    if not 0 <= j < kick_dim:
        raise ConfigError(f"coordinate {j} must lie in 0..{kick_dim - 1} (kick_dim = {kick_dim})")
    b = float(model.kicks.b[j])
    rng = rc.rng_stream(seed, 0)
    x1, x2, coupled = coupling_lab._coupled_coordinates(
        model.kicks.density, np.full(n_samples, delta), np.zeros(n_samples), b, rng
    )
    p_emp = float(coupled.mean())
    p_oracle = 1.0 - coupling_lab.tv_shifted(model.kicks.density, delta / b)
    sigma = float(np.sqrt(max(p_oracle * (1 - p_oracle), 1e-300) / n_samples))
    # both marginals against the kick law; from 10^4 samples on the p-values
    # are asymptotic and load no scipy (coupling_lab.ks_test)
    _, p1 = coupling_lab.ks_test((x1 - delta) / b, model.kicks.density.cdf)
    _, p2 = coupling_lab.ks_test(x2 / b, model.kicks.density.cdf)
    return {
        "N": N,
        "delta": delta,
        "coupling_probability": p_emp,
        "oracle_probability": p_oracle,
        "z_score": (p_emp - p_oracle) / sigma if sigma > 0 else 0.0,
        "ks_pvalues": [p1, p2],
        "decoupling_constant": coupling_lab.decoupling_constant(model.kicks, N),
    }, {}


def _cmd_conditions(cfg, seed, threads):
    if "kernel" not in cfg and "model" not in cfg:
        raise ConfigError("conditions requires a 'kernel' or 'model' section")
    result, files = {}, {}
    if "kernel" in cfg:
        from . import kernel_lab as kl
        kernel, potential = _load_kernel(cfg)
        pc = cfg.get("params", {})
        params = kl.VerifyParams(**{k: _num(pc, k, d, type(d)) for k, d in vars(kl.VerifyParams()).items()})
    if "model" in cfg:
        from . import rds_core as rc
        from .dynamics_maps import BurgersMap, l1_circle_metric
        model = _build_map_model(cfg, "conditions")
        pc = cfg.get("plan", {})
        plan = rc.SamplePlan(
            radii=tuple(_arr(pc, "radii", (model.rho, 2 * model.rho), None, 1).tolist()),
            r=_num(pc, "r", 0.5),
            n_samples=_num(pc, "n_samples", 100, int, 1),
            n_iter=_num(pc, "n_iter", 8, int, 1),
            projection_dims=tuple(_arr(pc, "projection_dims", (1, 2, 4), int, 1).tolist()),
            n_pairs=_num(pc, "n_pairs", 200, int, 1),
            d_prime=l1_circle_metric(model.map) if isinstance(model.map, BurgersMap) else None,
            seed=seed,
        )
    if "kernel" in cfg:
        rep = kl.verify_theorem21(kernel, potential, params)
        files["condition_report.json"] = rep.to_json() + "\n"
        result["kernel_conditions"] = json.loads(rep.to_json())
    if "model" in cfg:
        result["map_conditions"] = rc.verify_map_conditions(model, plan)
    return result, files


def _cmd_ldp(cfg, seed, threads):
    from . import apps
    kernel, _ = _load_kernel(cfg)
    f_values, x_grid = _arr(cfg, "f"), _arr(cfg, "x_grid", ndim=1)
    k_set = _arr(cfg, "k_set", [50, 100, 200], int, 1).tolist()
    n_traj = _num(cfg, "n_traj", 100_000, int, 1)
    u0 = _arr(cfg, "u0", kernel.points[0])
    rep = apps.ldp_level1(kernel, f_values, x_grid, k_set, n_traj, u0=u0, seed=seed)
    return {
        "x_grid": rep.x_grid,
        "legendre": rep.legendre,
        "cells": {f"x={x:.6g},k={k}": v for (x, k), v in rep.cells.items()},
        "slope_rates": {f"{x:.6g}": r for x, r in rep.slope_rates.items()},
        "mean_f": rep.mean_f,
    }, {}


def _cmd_attract(cfg, seed, threads):
    from . import rds_core as rc
    model = _build_map_model(cfg, "attract")
    eps, hit_eps = _num(cfg, "eps", 0.1, gt=0), _num(cfg, "hit_eps", model.rho / 2, gt=0)
    n_traj, horizon = _num(cfg, "n_traj", 2000, int, 1), _num(cfg, "horizon", 400, int, 1)
    cloud_k, cloud_points = _num(cfg, "cloud_k", 40, int, 0), _num(cfg, "cloud_points", 4000, int, 1)
    u0s = _arr(cfg, "u0s", [list(np.full(model.dim, model.rho))])
    cloud = rc.attainability_cloud(model, np.zeros((1, model.dim)), cloud_k, seed=seed, max_points=cloud_points)
    jobs = [
        lambda: rc.attraction_counter(model, cloud, eps, u0s, n_traj=n_traj, horizon=horizon, seed=seed),
        lambda: rc.hitting_time_stats(model, u0s, hit_eps, n_traj=n_traj, horizon=horizon, seed=seed + 1),
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
    }, {"attractor_cloud.csv": (",".join(f"x{i}" for i in range(model.dim)), cloud)}


def _cmd_slln(cfg, seed, threads):
    from . import apps, rds_core as rc
    model = _build_model(cfg)
    V = _build_potential(cfg, model)
    u0 = _arr(cfg, "u0", np.zeros(model.dim))
    n_traj, K = _num(cfg, "n_traj", 2000, int, 1), _num(cfg, "K", 1000, int, 1)
    mu_f, eps, C = _num(cfg, "mu_f", None), _num(cfg, "eps", 0.1, gt=0), _num(cfg, "C", 1.0, gt=0)
    U = rc.initial_ensemble(model, u0, n_traj)
    vals = np.empty((n_traj, K))
    for k, U, _ in rc.propagate(model, U, rc.rng_stream(seed, 0), K):
        vals[:, k - 1] = V(U)
    if mu_f is None:
        mu_f = float(vals[:, K // 2 :].mean())
    rep = apps.slln_time(vals, mu_f, eps=eps, C=C)
    return {
        "censored_fraction": rep.censored_fraction,
        "exp_r2": rep.exp_r2,
        "poly_r2": rep.poly_r2,
        "exp_slopes": rep.exp_slopes,
        "verdict": rep.verdict,
        "T_mean": float(rep.T.mean()),
        "T_max": int(rep.T.max()),
    }, {}


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
    parser.add_argument("command", choices=_HANDLERS)
    parser.add_argument("--config", required=True, help="path to the run config JSON")
    parser.add_argument("--seed", type=int, default=None, help="overrides the config seed")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument(
        "--threads",
        type=int,
        default=None,
        help="independent-job parallelism (results are thread-count invariant); default FK_LAB_THREADS, else 1",
    )
    args = parser.parse_args(argv)

    try:
        threads = args.threads if args.threads is not None else _env_threads()
        with open(args.config) as fh:
            cfg = json.load(fh)
        _check_keys(cfg)
        seed = args.seed if args.seed is not None else _num(cfg, "seed", 0, int)
        sha = hashlib.sha256(json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()).hexdigest()
        os.makedirs(args.out, exist_ok=True)
        result, files = _HANDLERS[args.command](cfg, seed, max(threads, 1))
        for name, body in files.items():
            text = body if isinstance(body, str) else _csv_text(*body, sha, seed)
            _atomic_write(os.path.join(args.out, name), text)
        manifest = {
            "command": args.command,
            "config": cfg,
            "versions": {
                "fklab": __version__,
                "numpy": np.__version__,
                "python": ".".join(map(str, sys.version_info[:3])),
            },
        }
        _atomic_write(os.path.join(args.out, "results.json"), _json_text(result, sha, seed))
        _atomic_write(os.path.join(args.out, "manifest.json"), _json_text(manifest, sha, seed))
    except (np.linalg.LinAlgError, ArithmeticError, RuntimeError) as exc:
        print(f"numerical failure: {exc!r}", file=sys.stderr)
        return 3
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc!r}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
