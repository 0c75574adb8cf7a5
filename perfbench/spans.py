"""Per-layer spans recorded from outside the fklab package.

The recorder wraps the public seams of each module in place, keeps every
span in memory (name, start, end, parent, operation id, size quantities)
and reduces them to per-layer metrics after the run.  Names are patched
where they are looked up: a module global for functions other fklab code
calls by bare name, a class attribute for methods.  Operations run on one
thread (the benchmark pins ``--threads 1``), so one span stack suffices.
"""

from __future__ import annotations

import functools
import time

import numpy as np


def _rows(U):
    a = np.asarray(U)
    return 1 if a.ndim < 2 else int(a.shape[0])


def _burgers_sizes(bmap, U):
    rows = _rows(U)
    M = bmap.modes
    G = bmap._tables["G"]
    steps = bmap.steps_per_unit
    # Two nonlinear evaluations per ETDRK2 step, each one irfft and one rfft
    # of length G per row.
    ffts = 4 * steps * rows
    fft_bytes = ffts * ((G // 2 + 1) * 16 + G * 8)
    # Arrays live during one nonlinear evaluation: Z, Za, N0 (M complex),
    # the padded spectrum and rfft output (G/2+1 complex), u and u*u (G real).
    working_set = rows * (3 * 16 * M + 2 * 16 * (G // 2 + 1) + 2 * 8 * G)
    return {"rows": rows, "ffts": ffts, "fft_bytes": fft_bytes, "ws_bytes": working_set}


def _particle_health(result):
    hist = result.ensemble.history
    n = result.ensemble.particles.shape[0]
    return {
        "resamples": sum(1 for _, _, resampled in hist if resampled),
        "ess_min_frac": min(ess for _, ess, _ in hist) / n if hist else 1.0,
    }


class Recorder:
    """In-memory span store; ``op`` tags spans with the running operation."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.op = -1

    def span(self, name, sizes=None):
        """Decorator recording one span per call; ``sizes(args, kwargs,
        result)`` returns the span's size quantities."""

        def deco(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                idx = len(self.spans)
                self.spans.append(None)
                parent = self._stack[-1] if self._stack else -1
                self._stack.append(idx)
                t0 = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                except BaseException:
                    self._stack.pop()
                    self.spans[idx] = (name, t0, time.perf_counter(), parent, self.op, {})
                    raise
                t1 = time.perf_counter()
                self._stack.pop()
                q = sizes(args, kwargs, result) if sizes is not None else {}
                self.spans[idx] = (name, t0, t1, parent, self.op, q)
                return result

            return wrapper

        return deco

    def op_span(self, op_id, name):
        """Root span around one benchmark operation."""
        self.op = op_id
        return self.span("op." + name)

    def dump(self):
        return [
            {"name": n, "start": s, "end": e, "parent": p, "op": o, **q}
            for n, s, e, p, o, q in self.spans
        ]


def install(rec):
    """Wrap every seam of the layer table; returns a function that restores
    the original attributes."""
    from fklab import apps, cli, coupling_lab, feynman_kac, kernel_lab, measure_metrics, rds_core
    from fklab.dynamics_maps import BurgersMap, ToyDiagonalMap

    saved = []

    def patch(owner, attr, name, sizes=None, static=False):
        raw = owner.__dict__[attr]
        fn = raw.__func__ if static else raw
        wrapped = rec.span(name, sizes)(fn)
        saved.append((owner, attr, raw))
        setattr(owner, attr, staticmethod(wrapped) if static else wrapped)

    def rows_arg(i):
        return lambda a, k, r: {"rows": _rows(a[i])}

    def coords(a, k, r):
        size = a[1] if len(a) > 1 else k["size"]
        return {"coords": int(np.prod(size))}

    patch(rds_core.QuarticBumpDensity, "sample", "rds_core.kicks", coords, static=True)
    patch(rds_core.RDSModel, "step", "rds_core.step", lambda a, k, r: {"rows": 1})
    patch(rds_core.RDSModel, "step_many", "rds_core.step", rows_arg(1))
    patch(rds_core.FiniteChainModel, "step_many", "rds_core.chain", rows_arg(1))
    patch(rds_core.FiniteChainModel, "index_of", "rds_core.chain", rows_arg(1))
    for attr in ("attraction_counter", "hitting_time_stats", "attainability_cloud"):
        patch(rds_core, attr, "rds_core.attract")
    patch(BurgersMap, "apply_batch", "dynamics_maps.burgers", lambda a, k, r: _burgers_sizes(a[0], a[1]))
    patch(BurgersMap, "l1_norm", "dynamics_maps.l1", rows_arg(1))
    patch(ToyDiagonalMap, "apply_batch", "dynamics_maps.toy", rows_arg(1))
    patch(feynman_kac.PotentialFn, "__call__", "feynman_kac.potential", rows_arg(1))
    patch(feynman_kac, "particle_fk", "feynman_kac.particle", lambda a, k, r: _particle_health(r))
    patch(coupling_lab, "_coupled_coordinates", "coupling_lab.couple", lambda a, k, r: {"rows": int(np.size(a[1]))})
    patch(coupling_lab, "tv_lipschitz", "coupling_lab.couple")
    patch(kernel_lab, "perron_triple", "kernel_lab.perron", lambda a, k, r: {"rows": int(np.shape(a[0])[0])})
    patch(kernel_lab, "kantorovich_contraction_factor", "kernel_lab.contraction")
    patch(measure_metrics, "linprog", "measure_metrics.lp", lambda a, k, r: {"vars": int(np.size(a[0]))})
    patch(apps, "ldp_level1", "apps.ldp")
    patch(apps, "path_average_samples", "apps.ldp")
    patch(cli, "_atomic_write", "cli.io", lambda a, k, r: {"bytes": len(a[1].encode())})

    def uninstall():
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)

    return uninstall


SEAMS = (
    "rds_core.kicks",
    "rds_core.step",
    "rds_core.chain",
    "rds_core.attract",
    "dynamics_maps.burgers",
    "dynamics_maps.l1",
    "dynamics_maps.toy",
    "feynman_kac.potential",
    "feynman_kac.particle",
    "coupling_lab.couple",
    "kernel_lab.perron",
    "kernel_lab.contraction",
    "measure_metrics.lp",
    "apps.ldp",
    "cli.io",
)


def reduce_pass(spans, l2_bytes, base=0):
    """Per-layer metrics of one pass from its spans, which start at index
    ``base`` of the recorder's list (parents are indices into that list).

    ``self_s`` is a span's duration minus the durations of its direct
    children; ``op.self_s`` is the time inside operations that no seam
    covers.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"] - base] += s["end"] - s["start"]
    acc = {name: {"calls": 0, "rows": 0, "self_s": 0.0} for name in SEAMS + ("op",)}
    extra = {
        "coords": 0, "ffts": 0, "fft_bytes": 0, "ws_bytes": 0, "burgers_rows_max": 0,
        "resamples": 0, "ess_min_frac": 1.0, "io_bytes": 0, "lp_vars": 0, "b1_calls": 0, "b1_self_s": 0.0,
    }
    for i, s in enumerate(spans):
        name = "op" if s["name"].startswith("op.") else s["name"]
        a = acc[name]
        a["calls"] += 1
        a["rows"] += s.get("rows", 0)
        a["self_s"] += (s["end"] - s["start"]) - child[i]
        extra["coords"] += s.get("coords", 0)
        extra["ffts"] += s.get("ffts", 0)
        extra["fft_bytes"] += s.get("fft_bytes", 0)
        extra["ws_bytes"] = max(extra["ws_bytes"], s.get("ws_bytes", 0))
        if name == "dynamics_maps.burgers":
            extra["burgers_rows_max"] = max(extra["burgers_rows_max"], s.get("rows", 0))
            if s.get("rows") == 1:
                extra["b1_calls"] += 1
                extra["b1_self_s"] += (s["end"] - s["start"]) - child[i]
        extra["resamples"] += s.get("resamples", 0)
        extra["ess_min_frac"] = min(extra["ess_min_frac"], s.get("ess_min_frac", 1.0))
        extra["io_bytes"] += s.get("bytes", 0)
        extra["lp_vars"] += s.get("vars", 0)

    out = {}
    for name in SEAMS:
        out[f"{name}.calls"] = acc[name]["calls"]
        out[f"{name}.self_s"] = acc[name]["self_s"]
    for name in ("rds_core.step", "rds_core.chain", "dynamics_maps.burgers", "dynamics_maps.l1",
                 "dynamics_maps.toy", "feynman_kac.potential", "coupling_lab.couple", "kernel_lab.perron"):
        out[f"{name}.rows"] = acc[name]["rows"]
    kicks = acc["rds_core.kicks"]
    out["rds_core.kicks.coords"] = extra["coords"]
    out["rds_core.kicks.ns_per_coord"] = 1e9 * kicks["self_s"] / extra["coords"] if extra["coords"] else 0.0
    burg = acc["dynamics_maps.burgers"]
    out["dynamics_maps.burgers.rows_max"] = extra["burgers_rows_max"]
    batched_rows = burg["rows"] - extra["b1_calls"]
    batched_s = burg["self_s"] - extra["b1_self_s"]
    out["dynamics_maps.burgers.ms_per_state"] = 1e3 * batched_s / batched_rows if batched_rows else 0.0
    out["dynamics_maps.burgers.ms_per_state_b1"] = 1e3 * extra["b1_self_s"] / extra["b1_calls"] if extra["b1_calls"] else 0.0
    out["dynamics_maps.burgers.fft_count"] = extra["ffts"]
    out["dynamics_maps.burgers.fft_bytes_computed"] = extra["fft_bytes"]
    out["dynamics_maps.burgers.ws_max_mib_computed"] = extra["ws_bytes"] / 2**20
    out["dynamics_maps.burgers.ws_max_over_l2_computed"] = extra["ws_bytes"] / l2_bytes
    out["feynman_kac.particle.resample_count"] = extra["resamples"]
    out["feynman_kac.particle.ess_min_frac"] = extra["ess_min_frac"] if acc["feynman_kac.particle"]["calls"] else 0.0
    lp = acc["measure_metrics.lp"]
    out["measure_metrics.lp.solves"] = lp["calls"]
    out["measure_metrics.lp.vars_mean"] = extra["lp_vars"] / lp["calls"] if lp["calls"] else 0.0
    out["cli.io.bytes"] = extra["io_bytes"]
    out["op.self_s"] = acc["op"]["self_s"]
    return out


def parse_importtime(stderr_text):
    """Self import time per fklab module and per third-party root package,
    in seconds, from ``python -X importtime`` output."""
    out = {}
    for line in stderr_text.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, _cum, name = (part.strip() for part in line[len("import time:"):].split("|"))
        root = name.split(".")[0]
        key = name if root == "fklab" else root if root in ("numpy", "scipy") else "other"
        out[key] = out.get(key, 0.0) + float(self_us) * 1e-6
    return out
