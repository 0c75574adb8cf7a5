"""Command line entry point.

Every run loads a JSON config, executes one subcommand, and writes
``results.json`` plus a ``manifest.json`` (config, its hash, the effective
seed, library versions) into the output directory.  Outputs are written
atomically, only on success, and contain nothing time- or thread-dependent,
so rerunning a manifest reproduces every file byte for byte.  Every key is
declared once, with its type, default and domain, in a section's table or a
subcommand's (``_COMMANDS``), and read through it: a key no table holds, a
wrong type or a value outside its domain exits 2 before any computation, and
``manifest.json`` lists the keys a run did not read (``unread_keys``).  Each
handler imports the fklab modules it runs, so ``import fklab.cli`` loads
numpy and no computation module, and a run loads only those of its
subcommand: ``eigen``, say, no simulated dynamics.

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
from typing import NamedTuple

import numpy as np

from . import __version__

_REQUIRED, _FILLED = object(), object()  # no default; a default the handler derives from the model or kernel
_TYPES = {float: (numbers.Real, "a number"), int: (numbers.Integral, "an integer"), str: (str, "a string")}


class Key(NamedTuple):
    """One config key: its type (float, int or str; an array's entry type, None keeping JSON's ints
    and floats), its default (None: null reads as None) and its domain: finite, at least ``lo``, above
    ``gt``, with ``ndim`` axes (0 a scalar, None an array of any rank)."""

    typ: type | None
    default: object = _REQUIRED
    lo: float | None = None
    gt: float | None = None
    ndim: int | None = 0


# The sections, each declared once; a subcommand's table (in _COMMANDS) holds its top-level keys and
# sections.  The params section (None) is the fields of kernel_lab.VerifyParams, loaded by _table.
_ARRAY, _ARRAY_FILLED = Key(float, ndim=None), Key(float, _FILLED, ndim=None)
_MODEL = {
    "kind": Key(str), "factors": Key(float, None, ndim=None), "q": Key(float, 0.0), "dim": Key(int, lo=1),
    "base": Key(float, 0.7), "ratio": Key(float, 0.8), "cutoff_radius": Key(float, 1.0), "nu": Key(float),
    "modes": Key(int, 64, lo=1), "dt": Key(float, 1e-3), "contraction_factor": Key(float, None),
    "points": _ARRAY, "P": _ARRAY, "kick_dim": Key(int, _FILLED, lo=1), "kick_b0": Key(float, 0.3),
    "kick_s": Key(float, 1.0), "rho": Key(float, 1.0, gt=0),
}
_POTENTIAL = {
    "kind": Key(str, "zero"), "values": _ARRAY, "index": Key(int, 0), "scale": Key(float, 1.0),
    "center": Key(float, 0.0), "clip": Key(float, None, gt=0),
}
_KERNEL = {"points": _ARRAY, "P": _ARRAY, "A": Key(int, _FILLED, ndim=None), "V": _ARRAY_FILLED}
_PLAN = {
    "radii": Key(None, _FILLED, ndim=1), "r": Key(float, 0.5), "n_samples": Key(int, 100, lo=1),
    "n_iter": Key(int, 8, lo=1), "projection_dims": Key(int, (1, 2, 4), ndim=1), "n_pairs": Key(int, 200, lo=1),
}
_SEED = Key(int, 0, lo=0)  # 0 .. 2^64 - 1, which rng_stream maps one to one onto its streams


class ConfigError(ValueError):
    pass


def _table(table, name):
    """The table of section ``name``; the params one loads kernel_lab."""
    if name != "params":
        return table[name]
    from . import kernel_lab as kl
    return {k: Key(type(d), d) for k, d in vars(kl.VerifyParams()).items()}


def _known(params):
    """Every key some subcommand reads, per section ("" is the top level); the params section if ``params``."""
    sections = [k for k, v in _ALL.items() if not isinstance(v, Key) and (params or k != "params")]
    return {"": set(_ALL), **{k: set(_table(_ALL, k)) for k in sections}}


def _check_keys(cfg):
    """Reject a section that is not a JSON object, and any key no subcommand reads."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"the config must be a JSON object, not {type(cfg).__name__}")
    for section, known in _known("params" in cfg).items():
        sec = cfg.get(section, {}) if section else cfg
        if not isinstance(sec, dict):
            raise ConfigError(f"section {section!r} must be a JSON object, not {sec!r}")
        for key in sec:
            if key not in known:
                import difflib  # only on this error path: import fklab.cli stays lean

                lower = {k.lower(): k for k in known}
                near = difflib.get_close_matches(key.lower(), lower, n=1)
                home = [f"in {s!r}" if s else "at the top level" for s, keys in _known(True).items() if key in keys]
                hint = f"; did you mean {lower[near[0]]!r}?" if near else f"; it belongs {home[0]}" if home else ""
                raise ConfigError(f"unknown key {key!r}{f' in {section!r}' if section else ''}{hint}")


def _check(key, spec, v):
    """``v`` as a value of ``spec``: a float finite (no key takes ±inf), an int within 64 bits, each at
    least ``lo`` and above ``gt``; an array rectangular with ``ndim`` axes.  None for null when the
    default is None."""
    if v is None and spec.default is None:
        return None
    if v is _REQUIRED:
        raise ConfigError(f"missing key {key!r}")
    if spec.ndim != 0:
        try:
            a = np.asarray(v)
        except ValueError:  # ragged nesting
            a = np.empty(())
        if a.ndim == 0 or spec.ndim not in (None, a.ndim) or a.dtype.kind not in ("iu" if spec.typ is int else "iuf"):
            what, shape = "integers" if spec.typ is int else "numbers", f" ({spec.ndim}-d)" if spec.ndim else ""
            raise ConfigError(f"{key} must be an array of {what}{shape}, not {v!r}")
        return a if spec.typ is None else a.astype(spec.typ)
    kind, name = _TYPES[spec.typ]
    if not isinstance(v, kind) or isinstance(v, bool):
        raise ConfigError(f"{key} must be {name}, not {v!r}")
    if spec.typ is int and not -(2**63) <= v < 2**64:  # no numpy count holds it; rng_stream takes a seed mod 2^64
        raise ConfigError(f"{key} must fit in 64 bits, got {v}")
    # finite, as a float: no NaN or ±inf, and no integer literal past the float range
    gt = spec.gt
    if spec.typ is float and not abs(v) <= sys.float_info.max or gt is not None and not v > gt:
        bound = "" if gt is None else "positive and " if gt == 0 else f"above {gt} and "
        raise ConfigError(f"{key} must be {bound}finite, got {v}")
    if spec.lo is not None and v < spec.lo:
        raise ConfigError(f"{key} = {v} must be at least {spec.lo}")
    return spec.typ(v)


class _Config(dict):
    """A config as one subcommand reads it: ``cfg("K")`` or ``cfg("model.rho")`` is the value checked
    against its table entry, the default when absent (``fill`` for a derived one); ``read`` collects
    each path read."""

    def __init__(self, cfg, command):
        super().__init__(cfg)
        self.table, self.read = _COMMANDS[command][1], set()

    def __call__(self, path, fill=None):
        self.read.add(path)
        *sec, key = path.split(".")
        spec = _table(self.table, sec[0])[key] if sec else self.table[key]
        if sec and sec[0] not in self and spec.default is _REQUIRED:
            raise ConfigError(f"config requires a {sec[0]!r} section")
        v = (self.get(sec[0], {}) if sec else self).get(key, spec.default)
        return _check(key, spec, fill if v is _FILLED else v)

    def unread(self):
        """The sorted paths of the keys this run did not read."""
        keys = {k for k in self if isinstance(_ALL[k], Key)}
        return sorted((keys | {f"{k}.{s}" for k in self.keys() - keys for s in self[k]}) - self.read)


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


def _build_model(cfg, command=None):
    """The ``model`` section's model; a chain is refused when ``command`` needs a map."""
    from . import rds_core as rc
    from .dynamics_maps import BurgersMap, ToyDiagonalMap
    kind = cfg("model.kind")
    if kind == "toy":
        factors, q = cfg("model.factors"), cfg("model.q")
        if factors is None:
            m = ToyDiagonalMap.geometric(
                cfg("model.dim"), base=cfg("model.base"), ratio=cfg("model.ratio"), q=q,
                cutoff_radius=cfg("model.cutoff_radius"),
            )
        else:
            m = ToyDiagonalMap(factors, q=q)
        contraction = float(m.factors[0]) if m.q == 0 and m.factors[0] < 1 else None
    elif kind == "burgers":
        m = BurgersMap(nu=cfg("model.nu"), modes=cfg("model.modes"), dt=cfg("model.dt"))
        contraction = cfg("model.contraction_factor")  # assumed, not measured
    elif kind == "chain":
        if command:
            raise ConfigError(f"{command} needs a continuous map model (kind 'toy' or 'burgers'), not a chain")
        return rc.FiniteChainModel(points=cfg("model.points"), P=cfg("model.P"))
    else:
        raise ConfigError(f"unknown model kind {kind!r}")
    law = rc.KickLaw.from_decay(cfg("model.kick_dim", min(8, m.dim)), b0=cfg("model.kick_b0"), s=cfg("model.kick_s"))
    return rc.RDSModel(map=m, kicks=law, rho=cfg("model.rho"), contraction_factor=contraction)


def _load_kernel(cfg):
    """The ``kernel`` section's ``points``, ``P`` and ``A`` (default: every state)."""
    from . import kernel_lab as kl
    P = cfg("kernel.P")
    return kl.FiniteKernel(points=cfg("kernel.points"), P=P, A=cfg("kernel.A", range(len(P))))


def _load_tilt(cfg):
    """The kernel and its potential ``V`` (default: zero); ``ldp`` reads no ``V``."""
    from . import kernel_lab as kl
    kernel = _load_kernel(cfg)
    return kernel, kl.PotentialVector.from_values(kernel, cfg("kernel.V", np.zeros(kernel.n)))


def _build_potential(cfg, model):
    from . import feynman_kac as fk, rds_core as rc
    kind = cfg("potential.kind")
    if kind == "chain_values":
        return fk.PotentialFn.from_chain(model, cfg("potential.values"))
    if kind == "zero":
        V = fk.PotentialFn.zero()
    elif kind == "coordinate":
        index = cfg("potential.index")
        if not 0 <= index < model.dim:
            raise ConfigError(f"potential index = {index} must lie in 0..{model.dim - 1} (model dim)")
        V = fk.PotentialFn.coordinate(
            index, scale=cfg("potential.scale"), center=cfg("potential.center"), clip=cfg("potential.clip"),
        )
    else:
        raise ConfigError(f"unknown potential kind {kind!r}")
    # a chain's states are indices, so its potential is V tabulated on its points
    return fk.PotentialFn.from_chain(model, V(model.points)) if isinstance(model, rc.FiniteChainModel) else V


# --- subcommand implementations -------------------------------------------
# Each returns (results, files): files maps a file name to its text, or to a
# (header, rows) pair that main writes as a stamped CSV.


def _cmd_simulate(cfg, seed):
    from . import rds_core as rc
    model = _build_model(cfg)
    u0, K, stream = cfg("u0", np.zeros(model.dim)), cfg("K"), cfg("stream")
    states = rc.simulate(model, u0, K, seed=seed, stream=stream)
    if isinstance(model, rc.FiniteChainModel):
        states = model.coords(states)
    states[0] = u0  # as given, even off a chain's points
    header = "step," + ",".join(f"x{i}" for i in range(states.shape[1]))
    result = {"K": K, "stream": stream, "final_norm": float(np.linalg.norm(states[-1]))}
    return result, {"trajectory.csv": (header, np.column_stack([np.arange(K + 1), states]))}


def _cmd_eigen(cfg, seed):
    from . import kernel_lab as kl
    kernel, potential = _load_tilt(cfg)
    M = kl.build_tilted_matrix(kernel, potential)
    triple = kl.perron_triple(M, kernel.A)
    print(f"lambda = {triple.lam:.12g}")
    return {"lambda": triple.lam, "h": triple.h, "mu": triple.mu, "extension_ok": triple.extension_ok}, {}


def _cmd_pressure(cfg, seed):
    from . import feynman_kac as fk
    model = _build_model(cfg)
    V = _build_potential(cfg, model)
    u0 = cfg("u0", np.zeros(model.dim))
    k_max, n_traj, alphas = cfg("k_max"), cfg("n_traj"), cfg("alphas")
    if alphas is not None and alphas.size:
        recenter_k = cfg("recenter_k")  # read by a curve alone: without one it is listed as unread
        curve = fk.pressure_curve(model, V, alphas, u0, k_max=k_max, n_traj=n_traj, seed=seed, recenter_k=recenter_k)
        result = {
            "alphas": curve.alphas, "Q": curve.Q, "stderr": curve.stderr, "sigma_V": curve.sigma_V,
            "sigma_V_stderr": curve.sigma_V_stderr, "convex": curve.convex, "mean_shift": curve.mean_shift,
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


def _cmd_met_check(cfg, seed):
    from . import kernel_lab as kl, rds_core as rc
    kernel, potential = _load_tilt(cfg)
    k_max = cfg("k_max")
    M = kl.build_tilted_matrix(kernel, potential)
    triple = kl.perron_triple(M, kernel.A)
    f = rc.rng_stream(seed, 0).uniform(-1, 1, kernel.n)
    C, gamma, residuals = kl.met_residuals(kernel, potential, triple, f, k_max=k_max)
    rate, info = kl.met_rate_estimate(kernel, potential, triple)
    return {
        "lambda": triple.lam, "C": C, "gamma_window_fit": gamma, "gamma_rate_estimate": rate, "rate_info": info,
    }, {"residuals.csv": ("k,residual", np.column_stack([np.arange(1, k_max + 1), residuals]))}


def _cmd_coupling_check(cfg, seed):
    from . import coupling_lab, rds_core as rc
    model = _build_model(cfg, "coupling-check")
    kick_dim = model.kicks.dim
    N, n_samples, delta, j = cfg("N", kick_dim // 2), cfg("n_samples"), cfg("delta"), cfg("coordinate")
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
        "N": N, "delta": delta, "coupling_probability": p_emp, "oracle_probability": p_oracle,
        "z_score": (p_emp - p_oracle) / sigma if sigma > 0 else 0.0, "ks_pvalues": [p1, p2],
        "decoupling_constant": coupling_lab.decoupling_constant(model.kicks, N),
    }, {}


def _cmd_conditions(cfg, seed):
    if "kernel" not in cfg and "model" not in cfg:
        raise ConfigError("conditions requires a 'kernel' or 'model' section")
    result, files = {}, {}
    if "kernel" in cfg:
        from . import kernel_lab as kl
        kernel, potential = _load_tilt(cfg)
        params = kl.VerifyParams(**{k: cfg(f"params.{k}") for k in cfg.get("params", {})})
    if "model" in cfg:
        from . import rds_core as rc
        from .dynamics_maps import BurgersMap, l1_circle_metric
        model = _build_model(cfg, "conditions")
        plan = rc.SamplePlan(
            radii=tuple(cfg("plan.radii", (model.rho, 2 * model.rho)).tolist()), r=cfg("plan.r"),
            n_samples=cfg("plan.n_samples"), n_iter=cfg("plan.n_iter"), n_pairs=cfg("plan.n_pairs"),
            projection_dims=tuple(cfg("plan.projection_dims").tolist()),
            d_prime=l1_circle_metric(model.map) if isinstance(model.map, BurgersMap) else None, seed=seed,
        )
    if "kernel" in cfg:
        rep = kl.verify_theorem21(kernel, potential, params)
        files["condition_report.json"] = rep.to_json() + "\n"
        result["kernel_conditions"] = json.loads(rep.to_json())
    if "model" in cfg:
        result["map_conditions"] = rc.verify_map_conditions(model, plan)
    return result, files


def _cmd_ldp(cfg, seed):
    from . import apps
    kernel = _load_kernel(cfg)
    f_values, x_grid, k_set, n_traj = cfg("f"), cfg("x_grid"), cfg("k_set").tolist(), cfg("n_traj")
    u0 = cfg("u0", kernel.points[0])
    rep = apps.ldp_level1(kernel, f_values, x_grid, k_set, n_traj, u0=u0, seed=seed)
    return {
        "x_grid": rep.x_grid, "legendre": rep.legendre, "mean_f": rep.mean_f,
        "cells": {f"x={x:.6g},k={k}": v for (x, k), v in rep.cells.items()},
        "slope_rates": {f"{x:.6g}": r for x, r in rep.slope_rates.items()},
    }, {}


def _cmd_attract(cfg, seed):
    from . import rds_core as rc
    model = _build_model(cfg, "attract")
    eps, hit_eps, n_traj, horizon = cfg("eps"), cfg("hit_eps", model.rho / 2), cfg("n_traj"), cfg("horizon")
    cloud_k, cloud_points, u0s = cfg("cloud_k"), cfg("cloud_points"), cfg("u0s", [np.full(model.dim, model.rho)])
    cloud = rc.attainability_cloud(model, np.zeros((1, model.dim)), cloud_k, seed=seed, max_points=cloud_points)
    att = rc.attraction_counter(model, cloud, eps, u0s, n_traj=n_traj, horizon=horizon, seed=seed)
    hit = rc.hitting_time_stats(model, u0s, hit_eps, n_traj=n_traj, horizon=horizon, seed=seed + 1)
    return {
        "attraction": {
            "delta": att.delta, "Lambda": att.Lambda, "alpha_moment": att.alpha_moment,
            "censored_fraction": att.censored_fraction, "resolution": att.resolution,
            "max_count": int(att.counts.max()), "contraction_factor": model.contraction_factor,
            "settling_shortcut": att.settling_shortcut,
        },
        "hitting": {
            "delta": hit.delta, "censored_fraction": hit.censored_fraction,
            "max_tau": int(max(t.max() for t in hit.taus.values())),
        },
    }, {"attractor_cloud.csv": (",".join(f"x{i}" for i in range(model.dim)), cloud)}


def _cmd_slln(cfg, seed):
    from . import apps, rds_core as rc
    model = _build_model(cfg)
    V = _build_potential(cfg, model)
    u0, n_traj, K = cfg("u0", np.zeros(model.dim)), cfg("n_traj"), cfg("K")
    mu_f, eps, C = cfg("mu_f"), cfg("eps"), cfg("C")
    U = rc.initial_ensemble(model, u0, n_traj)
    vals = np.empty((n_traj, K))
    for k, U, _ in rc.propagate(model, U, rc.rng_stream(seed, 0), K):
        vals[:, k - 1] = V(U)
    if mu_f is None:
        mu_f = float(vals[:, K // 2 :].mean())
    rep = apps.slln_time(vals, mu_f, eps=eps, C=C)
    return {
        "censored_fraction": rep.censored_fraction, "exp_r2": rep.exp_r2, "poly_r2": rep.poly_r2,
        "exp_slopes": rep.exp_slopes, "verdict": rep.verdict, "T_mean": float(rep.T.mean()), "T_max": int(rep.T.max()),
    }, {}


# each subcommand: its handler and the table of its top-level keys and sections
_COMMANDS = {
    "simulate": (_cmd_simulate, {
        "seed": _SEED, "model": _MODEL, "u0": _ARRAY_FILLED, "K": Key(int, 100, lo=0), "stream": Key(int, 0, lo=0),
    }),
    "eigen": (_cmd_eigen, {"seed": _SEED, "kernel": _KERNEL}),
    "pressure": (_cmd_pressure, {
        "seed": _SEED, "model": _MODEL, "potential": _POTENTIAL, "u0": _ARRAY_FILLED, "k_max": Key(int, 60),
        "n_traj": Key(int, 4000, lo=100), "alphas": Key(float, None, ndim=1), "recenter_k": Key(int, 10_000, lo=0),
    }),
    "met-check": (_cmd_met_check, {"seed": _SEED, "kernel": _KERNEL, "k_max": Key(int, 80, lo=1)}),
    "coupling-check": (_cmd_coupling_check, {
        "seed": _SEED, "model": _MODEL, "N": Key(int, _FILLED), "n_samples": Key(int, 100_000, lo=1),
        "delta": Key(float, 0.1), "coordinate": Key(int, 0),
    }),
    "conditions": (_cmd_conditions, {"seed": _SEED, "kernel": _KERNEL, "params": None, "model": _MODEL, "plan": _PLAN}),
    "ldp": (_cmd_ldp, {
        "seed": _SEED, "kernel": _KERNEL, "f": _ARRAY, "x_grid": Key(float, ndim=1),
        "k_set": Key(int, (50, 100, 200), ndim=1), "n_traj": Key(int, 100_000, lo=1), "u0": _ARRAY_FILLED,
    }),
    "attract": (_cmd_attract, {
        "seed": _SEED, "model": _MODEL, "eps": Key(float, 0.1, gt=0), "hit_eps": Key(float, _FILLED, gt=0),
        "n_traj": Key(int, 2000, lo=1), "horizon": Key(int, 400, lo=1), "cloud_k": Key(int, 40, lo=0),
        "cloud_points": Key(int, 4000, lo=1), "u0s": _ARRAY_FILLED,
    }),
    "slln": (_cmd_slln, {
        "seed": _SEED, "model": _MODEL, "potential": _POTENTIAL, "u0": _ARRAY_FILLED, "n_traj": Key(int, 2000, lo=1),
        "K": Key(int, 1000, lo=1), "mu_f": Key(float, None), "eps": Key(float, 0.1, gt=0), "C": Key(float, 1.0, gt=0),
    }),
}
_ALL = {k: v for _, table in _COMMANDS.values() for k, v in table.items()}  # every top-level key


def main(argv=None):
    parser = argparse.ArgumentParser(prog="fklab", description=__doc__)
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", required=True, help="path to the run config JSON")
    parser.add_argument("--seed", type=int, default=None, help="overrides the config seed")
    parser.add_argument("--out", default=".", help="output directory")
    # read by nothing: fklab runs on one thread; the flag goes once the benchmark stops passing it
    parser.add_argument("--threads", type=int, help="accepted and ignored (fklab runs on one thread)")
    args = parser.parse_args(argv)

    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
        _check_keys(cfg)
        cfg = _Config(cfg, args.command)
        seed = cfg("seed") if args.seed is None else _check("seed", _SEED, args.seed)
        sha = hashlib.sha256(json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()).hexdigest()
        os.makedirs(args.out, exist_ok=True)
        result, files = _COMMANDS[args.command][0](cfg, seed)
        for name, body in files.items():
            text = body if isinstance(body, str) else _csv_text(*body, sha, seed)
            _atomic_write(os.path.join(args.out, name), text)
        unread = cfg.unread()
        manifest = {
            **({"unread_keys": unread} if unread else {}),
            "command": args.command,
            "config": cfg,
            "versions": {
                "fklab": __version__, "numpy": np.__version__, "python": ".".join(map(str, sys.version_info[:3])),
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
