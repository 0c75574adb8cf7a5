"""Wall time of each fklab subcommand as a fresh process, for two source trees.

    python3 tools/cli_walls.py PARENT_ROOT CHANGE_ROOT [--pairs 10]

Each case is one subcommand on one config: the shipped configs under
``CHANGE_ROOT/configs`` and one small Burgers ``attract`` config.  A run is
``python -m fklab.cli <command> --config <cfg> --out <fresh dir> --threads 1``
with fklab imported from ``<root>/src``, every thread pool pinned to one
thread, and its wall time taken around the whole process, so interpreter
start-up and imports count.  Pair i runs both trees on every case, the
parent first when i is even.  For each case it prints the median and
quartiles (linear, as ``numpy.percentile``) of each tree, their ratio and
how many pairs the change won; the last line of standard output is a JSON
object with every run.  Both trees must write byte-identical files on every
case, or the script exits 1.  Standard library only; it is run on demand,
not by the test suite.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

PINNED = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "FK_LAB_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
# (command, config): a shipped config by file name, or a config written here
BURGERS_ATTRACT = {
    "model": {"kind": "burgers", "nu": 1.0, "modes": 16, "dt": 2e-2, "kick_dim": 8, "rho": 0.7},
    "eps": 0.3, "hit_eps": 0.35, "n_traj": 50, "horizon": 20, "cloud_k": 6, "cloud_points": 300, "seed": 5,
}
CASES = [
    ("eigen", "eigen_2state.json"),
    ("met-check", "eigen_2state.json"),
    ("conditions", "eigen_2state.json"),
    ("simulate", "simulate_toy.json"),
    ("coupling-check", "simulate_toy.json"),
    ("pressure", "pressure_toy_v0.json"),
    ("pressure", "pressure_curve_toy.json"),
    ("attract", BURGERS_ATTRACT),
]


def run_once(root, command, cfg_path, out):
    env = dict(os.environ, **PINNED, PYTHONPATH=os.path.join(root, "src"))
    argv = [sys.executable, "-m", "fklab.cli", command, "--config", cfg_path, "--out", out, "--threads", "1"]
    start = time.perf_counter()
    proc = subprocess.run(argv, env=env, cwd=out, capture_output=True, text=True)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        sys.exit(f"{root}: {command} {cfg_path} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return wall


def read_dir(path):
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            out[name] = fh.read()
    return out


def summary(runs):
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": runs}


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("parent", help="root of the parent source tree")
    p.add_argument("change", help="root of the changed source tree")
    p.add_argument("--pairs", type=int, default=10)
    args = p.parse_args()
    roots = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}

    with tempfile.TemporaryDirectory() as tmp:
        cases = []
        for i, (command, cfg) in enumerate(CASES):
            if isinstance(cfg, dict):
                name, path = f"{command}_burgers16", os.path.join(tmp, f"case{i}.json")
                with open(path, "w") as fh:
                    json.dump(cfg, fh)
            else:
                name, path = cfg, os.path.join(roots["change"], "configs", cfg)
            cases.append((f"{command} {name}", command, path))
        walls = {label: {"parent": [], "change": []} for label, _, _ in cases}
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for label, command, path in cases:
                files = {}
                for side in order:
                    out = tempfile.mkdtemp(dir=tmp)
                    walls[label][side].append(run_once(roots[side], command, path, out))
                    files[side] = read_dir(out)
                if files["parent"] != files["change"]:
                    sys.exit(f"{label}: the two trees wrote different files")

    print(f"{'case':<40} {'parent median [q1, q3] s':<26} {'change median [q1, q3] s':<26} ratio  wins")
    report = {"pairs": args.pairs, "python": sys.version.split()[0], "nproc": os.cpu_count(), "cases": {}}
    for label, sides in walls.items():
        par, chg = summary(sides["parent"]), summary(sides["change"])
        wins = sum(c < p for p, c in zip(sides["parent"], sides["change"]))
        report["cases"][label] = {"parent": par, "change": chg, "change_wins": wins}
        cell = "{median:.3f} [{q1:.3f}, {q3:.3f}]"
        print(f"{label:<40} {cell.format(**par):<26} {cell.format(**chg):<26} "
              f"{chg['median'] / par['median']:.3f}  {wins}/{args.pairs}")
    print(json.dumps(report))


if __name__ == "__main__":
    main()
