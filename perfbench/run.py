"""fklab benchmark: entry point.

    python3 perfbench/run.py --workload toy_fk --seed 101 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

Run from the root of a source checkout; fklab is imported from ``src/``.
Each workload runs in a fresh child interpreter (``worker.py``), one at a
time, with every thread pool pinned to one thread.  ``setup_s`` is the
median time to ``import fklab.cli`` over the child and ``SETUP_SAMPLES``
more fresh interpreters.  Times are in reference seconds (``speed.py``).
With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics
and each layer's share of a traced pass goes to standard error.  A full
record of every run (machine, library versions, load average, per-operation
times and failures) is written under ``perfbench/out/``.  See
``perfbench/NOTES.md`` for the workloads and metrics.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 110  # with three set-up children of at most 15 s, a run ends within 180 s
DEFAULT_SEED = 101
HELD_OUT_SEED = 202  # claims made on DEFAULT_SEED must also hold here
PINNED = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "FK_LAB_THREADS": "1",
}
FKLAB_MODULES = (
    "fklab", "fklab.kernel_lab", "fklab.measure_metrics", "fklab.rds_core", "fklab.dynamics_maps",
    "fklab.feynman_kac", "fklab.coupling_lab", "fklab.apps", "fklab.cli",
)


def child_env():
    env = dict(os.environ, **PINNED, PYTHONHASHSEED="0")
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def read_first(path, default=""):
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return default


def cache_bytes(level):
    """Size of the unified cache of one level for cpu0, from sysfs."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        d = os.path.join(base, entry)
        if read_first(os.path.join(d, "level")) == str(level) and read_first(os.path.join(d, "type")) == "Unified":
            size = read_first(os.path.join(d, "size"))
            mult = {"K": 2**10, "M": 2**20}.get(size[-1:], 1)
            return int(size.rstrip("KM")) * mult
    return 0


def machine():
    model = ""
    for line in read_first("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor(),
        "l2_bytes": cache_bytes(2),
        "l3_bytes": cache_bytes(3),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "thread_pinning": PINNED,
    }


def setup_samples(n, importtime):
    """Set-up time in ``n`` fresh interpreters, as (raw, reference) pairs;
    with ``importtime`` also the per-module self import times of each."""
    argv = [sys.executable] + (["-X", "importtime"] if importtime else [])
    argv += [os.path.join(HERE, "worker.py"), "--root", ROOT, "--setup-only"]
    times, modules = [], []
    for _ in range(n):
        proc = subprocess.run(argv, env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=15)
        if proc.returncode != 0:
            raise RuntimeError(f"import fklab.cli failed: {proc.stderr.strip()[-500:]}")
        t = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append((t["raw"], t["ref"]))
        if importtime:
            modules.append(spans.parse_importtime(proc.stderr))
    return times, modules


def run_workload(bench, name, seed, seconds, trace, stamp):
    os.makedirs(OUT, exist_ok=True)
    info = machine()
    load_before = read_first("/proc/loadavg")
    setup_times, import_modules = setup_samples(SETUP_SAMPLES, importtime=bool(trace))
    workdir = tempfile.mkdtemp(prefix=f"work-{name}-", dir=OUT)
    tag = f"{name}-seed{seed}-trace{trace}-{stamp}"
    result_path = os.path.join(workdir, "result.json")
    argv = [
        sys.executable, os.path.join(HERE, "worker.py"), "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--root", ROOT, "--workdir", workdir,
        "--result", result_path, "--l2-bytes", str(info["l2_bytes"] or 2**21),
    ]
    if trace:
        argv += ["--spans", os.path.join(OUT, f"spans-{tag}.json")]
    try:
        proc = subprocess.run(argv, env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"workload {name} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        with open(result_path) as fh:
            child = json.load(fh)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    load_after = read_first("/proc/loadavg")

    ops = [op for p in child["passes"] for op in p["ops"]]
    failures = [op for op in ops if op["error"] is not None]
    unexpected = [op for op in failures if op["op"] not in child["known_failing"]]
    if not trace:  # traced runs time set-up under -X importtime instead
        setup_times.append((child["setup_raw_s"], child["setup_s"]))
    end_to_end = {
        "setup_s": statistics.median([ref for _, ref in setup_times]),
        "wall_s": statistics.median(child["plain_walls"]),
        "peak_rss_mb": child["peak_rss_kib"] / 1024.0,
        "ok_frac": 1.0 - len(failures) / len(ops),
    }
    if trace:
        layers = dict(child["layers"])
        layers["trace.overhead_s"] = statistics.median(child["traced_walls"]) - statistics.median(child["plain_walls"])
        layers["trace.wall_s"] = statistics.median(child["traced_walls"])
        for mod in FKLAB_MODULES + ("numpy", "scipy", "other"):
            layers[f"cli.import.{mod}.self_s"] = statistics.median([m.get(mod, 0.0) for m in import_modules])
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]} for m in bench["per_layer"]}
        # self times are raw seconds, so their share is of the raw traced pass
        traced_raw = statistics.median([p["raw_wall_s"] for p in child["passes"] if p["traced"]])
        shares = {k[: -len(".self_s")]: v / traced_raw for k, v in child["layers"].items() if k.endswith(".self_s")}
        for layer, share in sorted(shares.items(), key=lambda kv: -kv[1]):
            if share > 0:
                print(f"# share {name} {layer} {100 * share:.1f}%", file=sys.stderr)
    else:
        metrics = {m["name"]: {"value": end_to_end[m["name"]], "unit": m["unit"]} for m in bench["end_to_end"]}

    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "machine": info, "loadavg_before": load_before, "loadavg_after": load_after,
        "setup_samples_raw_ref_s": setup_times, "import_modules_s": import_modules,
        "plain_walls_s": child["plain_walls"], "traced_walls_s": child["traced_walls"],
        "end_to_end": end_to_end,
        "per_layer": child.get("layers"), "shares": shares if trace else None,
        "passes": child["passes"], "known_failing": child["known_failing"],
    }
    with open(os.path.join(OUT, f"run-{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    for op in failures:
        kind = "known" if op not in unexpected else "FAILED"
        print(f"# {kind} {name}.{op['op']}: {op['error'][:300]}", file=sys.stderr)
    return {
        "correct": not unexpected,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": metrics,
    }


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "fklab", "cli.py")):
        print(f"error: no fklab sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=names + ["all"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help=f"workload seed; held-out seed {HELD_OUT_SEED}")
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    stamp = time.strftime("%Y%m%dT%H%M%S") + f"-{os.getpid()}"
    try:
        if args.workload != "all":
            out = run_workload(bench, args.workload, args.seed, args.seconds, args.trace, stamp)
        else:
            out = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
            for name in names:
                one = run_workload(bench, name, args.seed, args.seconds, args.trace, stamp)
                out["correct"] &= one["correct"]
                out["attempted"] += one["attempted"]
                out["failed"] += one["failed"]
                out["metrics"].update({f"{name}.{k}": v for k, v in one["metrics"].items()})
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for key, m in out["metrics"].items():
        print(f"{key} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
