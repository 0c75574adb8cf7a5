import io
import json
import numbers
import os
import pathlib
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fresh_process, fresh_python
from fklab import rds_core as rc
from fklab.cli import main


def run_cli(args):
    return main(args)


def write_cfg(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


TOY_MODEL = {
    "kind": "toy", "dim": 6, "base": 0.7, "ratio": 0.8,
    "kick_dim": 6, "kick_b0": 0.3, "rho": 1.0,
}


CHAIN_MODEL = {
    "kind": "chain", "points": [[0.0], [1.0], [2.5]],
    "P": [[0.2, 0.5, 0.3], [0.3, 0.4, 0.3], [0.5, 0.25, 0.25]],
}


def test_eigen_two_state_example(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        {
            "kernel": {
                "points": [[0.0], [1.0]],
                "P": [[0.5, 0.5], [0.5, 0.5]],
                "A": [0, 1],
                "V": [0.0, float(np.log(2.0))],
            },
            "seed": 1,
        },
    )
    out = tmp_path / "out"
    assert run_cli(["eigen", "--config", cfg, "--out", str(out)]) == 0
    assert "lambda = 1.5" in capsys.readouterr().out
    results = json.loads((out / "results.json").read_text())
    assert results["lambda"] == pytest.approx(1.5, abs=1e-9)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 1
    assert len(manifest["config_sha256"]) == 64


def test_pressure_zero_potential(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        {"model": TOY_MODEL, "potential": {"kind": "zero"},
         "u0": [0, 0, 0, 0, 0, 0], "k_max": 30, "n_traj": 500, "seed": 3},
    )
    out = tmp_path / "out"
    assert run_cli(["pressure", "--config", cfg, "--out", str(out)]) == 0
    results = json.loads((out / "results.json").read_text())
    assert results["Q"] == pytest.approx(0.0, abs=1e-12)


def test_missing_config_exits_2(tmp_path, capsys):
    assert run_cli(["eigen", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 2


def test_malformed_config_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli(["eigen", "--config", str(bad), "--out", str(tmp_path)]) == 2


def test_incomplete_config_exits_2(tmp_path):
    cfg = write_cfg(tmp_path, {"seed": 1})
    assert run_cli(["eigen", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_simulate_writes_trajectory(tmp_path):
    cfg = write_cfg(
        tmp_path,
        {"model": TOY_MODEL, "u0": [0.5] * 6, "K": 50, "stream": 2, "seed": 11},
    )
    out = tmp_path / "out"
    assert run_cli(["simulate", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "trajectory.csv").read_text().strip().split("\n")
    assert rows[0].startswith("# config_sha256=")
    assert rows[1].startswith("step,")
    assert len(rows) == 53


def test_conditions_on_kernel(tmp_path):
    cfg = write_cfg(
        tmp_path,
        {
            "kernel": {
                "points": [[0.0], [1.0], [3.0]],
                "P": [[0.6, 0.4, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]],
                "A": [0, 1],
            },
            "params": {"r": 0.5, "c": 0.5, "k_max": 40},
            "seed": 2,
        },
    )
    out = tmp_path / "out"
    assert run_cli(["conditions", "--config", cfg, "--out", str(out)]) == 0
    rep = json.loads((out / "results.json").read_text())["kernel_conditions"]
    assert rep["concentration"]["verdict"] == "fail"
    assert rep["expbound"]["verdict"] == "pass"


def test_condition_report_json_roundtrips(tmp_path):
    # condition_report.json and results.json encode the one report, all_pass included
    kernel = {"points": [[0.0], [1.0], [3.0]], "P": [[0.6, 0.4, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]], "A": [0, 1]}
    cfg = write_cfg(tmp_path, {"kernel": kernel, "params": {"r": 0.5, "c": 0.5, "k_max": 30}, "seed": 2})
    out = tmp_path / "out"
    assert run_cli(["conditions", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "condition_report.json").read_text())
    assert payload == json.loads((out / "results.json").read_text())["kernel_conditions"]
    assert payload["concentration"]["verdict"] == "fail"
    assert payload["all_pass"] is False


@pytest.mark.parametrize("seed, next_seed", [(6, 7), (2**64 - 1, 0)])
def test_attract_streams_belong_to_their_seed(tmp_path, monkeypatch, seed, next_seed):
    # the cloud, the attraction counter and the hitting times each draw from a
    # stream of the run's own seed, so no two seeds share a key (mod 2^64, as
    # rng_stream takes them)
    stream, keys = rc.rng_stream, set()

    def recording(s, key=0):
        keys.add((s % 2**64, key % 2**64))
        return stream(s, key)

    monkeypatch.setattr(rc, "rng_stream", recording)
    cfg = write_cfg(tmp_path, BASE_RUNS["attract"][1])
    seen = []
    for s in (seed, next_seed):
        keys.clear()
        assert run_cli(["attract", "--config", cfg, f"--seed={s}", "--out", str(tmp_path / str(s))]) == 0
        seen.append(set(keys))
    assert seen[0] == {(seed, 987), (seed, 0), (seed, 1)}
    assert not seen[0] & seen[1]


THREAD_RUNS = {
    "pressure": (
        {"model": TOY_MODEL, "potential": {"kind": "coordinate", "index": 0, "scale": 1.0, "clip": 2.0},
         "u0": [0] * 6, "k_max": 30, "n_traj": 400, "alphas": [-0.4, -0.2, 0.2, 0.4], "recenter_k": 1000, "seed": 13},
        "4", "pressure_curve.csv",
    ),
    # --threads is accepted and read by nothing: passing it changes no byte (the benchmark passes it)
    "attract": (
        {"model": TOY_MODEL, "eps": 0.3, "n_traj": 200, "horizon": 100, "cloud_k": 20, "cloud_points": 1000,
         "hit_eps": 0.5, "seed": 9},
        "2", "attractor_cloud.csv",
    ),
}


@pytest.mark.parametrize("command", THREAD_RUNS)
def test_reproducible_across_thread_counts(tmp_path, command):
    payload, threads, written = THREAD_RUNS[command]
    cfg = write_cfg(tmp_path, payload)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli([command, "--config", cfg, "--out", str(out1), "--threads", "1"]) == 0
    assert run_cli([command, "--config", cfg, "--out", str(out2), "--threads", threads]) == 0
    for name in ("results.json", "manifest.json", written):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_pressure_curve_reports_each_fit_verdict(tmp_path, capsys, monkeypatch):
    # a rejected fit keeps the exit code but reaches results.json and stderr
    from fklab import feynman_kac as fk

    monkeypatch.setattr(fk, "CURVATURE_TOL", -1.0)  # every tilt's fit rejects its curvature
    cfg = write_cfg(
        tmp_path,
        {"model": TOY_MODEL, "potential": {"kind": "coordinate", "index": 0, "scale": 1.0, "clip": 2.0},
         "u0": [0] * 6, "k_max": 20, "n_traj": 100, "alphas": [-0.2, 0.2], "recenter_k": 200, "seed": 13},
    )
    out = tmp_path / "out"
    assert run_cli(["pressure", "--config", cfg, "--out", str(out)]) == 0
    res = json.loads((out / "results.json").read_text())
    assert res["alphas"] == [-0.2, 0.0, 0.2]
    assert res["accepted"] == [False, True, False]
    assert "fit rejected at alpha = [-0.2, 0.2]" in capsys.readouterr().err


def test_pressure_recentring_of_no_step_exits_2(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        {"model": TOY_MODEL, "potential": {"kind": "coordinate", "index": 0, "center": -0.5, "clip": 2.0},
         "u0": [0] * 6, "k_max": 20, "n_traj": 100, "alphas": [-0.2, 0.2], "recenter_k": 50, "seed": 13},
    )
    out = tmp_path / "out"
    assert run_cli(["pressure", "--config", cfg, "--out", str(out)]) == 2
    assert "recenter_k = 50 runs no recentring step; it must be at least 64" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_seed_override_changes_manifest(tmp_path):
    cfg = write_cfg(
        tmp_path,
        {"model": TOY_MODEL, "u0": [0.2] * 6, "K": 10, "seed": 5},
    )
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert run_cli(["simulate", "--config", cfg, "--out", str(out1)]) == 0
    assert run_cli(["simulate", "--config", cfg, "--out", str(out2), "--seed", "99"]) == 0
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    assert m1["seed"] == 5 and m2["seed"] == 99
    assert "unread_keys" not in m1 and m2["unread_keys"] == ["seed"]  # --seed replaces the config's
    assert (out1 / "trajectory.csv").read_bytes() != (out2 / "trajectory.csv").read_bytes()


def test_coupling_check_command(tmp_path):
    cfg = write_cfg(
        tmp_path,
        {"model": TOY_MODEL, "N": 3, "n_samples": 50_000, "delta": 0.12, "seed": 4},
    )
    out = tmp_path / "out"
    assert run_cli(["coupling-check", "--config", cfg, "--out", str(out)]) == 0
    res = json.loads((out / "results.json").read_text())
    assert abs(res["z_score"]) < 4
    assert min(res["ks_pvalues"]) > 1e-3


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"model": {"kind": "chain", "points": [[0.0], [1.0]], "P": [[0.5, 0.5], [0.5, 0.5]]}}, "not a chain"),
        ({"model": TOY_MODEL, "coordinate": 6}, "coordinate 6"),
        ({"model": TOY_MODEL, "coordinate": -1}, "coordinate -1"),
        ({"model": TOY_MODEL, "N": 9}, "N = 9"),
        ({"model": TOY_MODEL, "n_samples": 0}, "n_samples = 0"),
    ],
    ids=["chain", "coordinate-past-kicks", "negative-coordinate", "N-past-kicks", "no-samples"],
)
def test_coupling_check_rejects_bad_config(tmp_path, capsys, payload, message):
    cfg = write_cfg(tmp_path, {"n_samples": 1000, **payload, "seed": 4})
    out = tmp_path / "out"
    assert run_cli(["coupling-check", "--config", cfg, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not (out / "results.json").exists()


@pytest.mark.parametrize(
    "command, payload, message",
    [
        ("attract", {"eps": float("nan")}, "eps must be positive and finite, got nan"),
        ("attract", {"eps": float("inf")}, "eps must be positive and finite, got inf"),
        ("attract", {"hit_eps": float("nan")}, "hit_eps must be positive and finite, got nan"),
        ("attract", {"hit_eps": float("inf")}, "hit_eps must be positive and finite, got inf"),
        ("coupling-check", {"delta": float("nan")}, "delta must be finite, got nan"),
        ("coupling-check", {"delta": float("-inf")}, "delta must be finite, got -inf"),
    ],
    ids=["nan-eps", "inf-eps", "nan-hit-eps", "inf-hit-eps", "nan-delta", "inf-delta"],
)
def test_non_finite_threshold_exits_2(tmp_path, capsys, monkeypatch, command, payload, message):
    # a NaN or infinite threshold gives no verdict (an infinite delta read as
    # a certified tail, a NaN p-value), only exit 2, and attract says so
    # before it builds the cloud
    def no_cloud(*args, **kwargs):
        raise AssertionError("the cloud was built")

    monkeypatch.setattr(rc, "attainability_cloud", no_cloud)
    base = {
        "attract": {"eps": 0.5, "n_traj": 10, "horizon": 5, "cloud_k": 2, "cloud_points": 50},
        "coupling-check": {"n_samples": 1000},
    }[command]
    cfg = write_cfg(tmp_path, {"model": TOY_MODEL, **base, **payload, "seed": 1})
    out = tmp_path / "out"
    assert run_cli([command, "--config", cfg, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not (out / "results.json").exists()


def test_attract_command(tmp_path):
    cfg = write_cfg(
        tmp_path,
        {"model": TOY_MODEL, "eps": 0.3, "n_traj": 300, "horizon": 150,
         "cloud_k": 30, "cloud_points": 2000, "hit_eps": 0.5, "seed": 6},
    )
    out = tmp_path / "out"
    assert run_cli(["attract", "--config", cfg, "--out", str(out)]) == 0
    res = json.loads((out / "results.json").read_text())
    assert res["attraction"]["delta"] > 0
    assert res["hitting"]["delta"] > 0


@pytest.mark.parametrize("factor, shortcut", [(0.5, True), (None, False)], ids=["assumed", "absent"])
def test_attract_reports_settling_assumption(tmp_path, factor, shortcut):
    # a burgers contraction_factor is not measured; results.json says
    # whether it switched the settling shortcut on
    model = {"kind": "burgers", "nu": 0.5, "modes": 8, "dt": 0.05, "kick_dim": 4, "rho": 1.0}
    if factor is not None:
        model["contraction_factor"] = factor
    cfg = write_cfg(
        tmp_path,
        {"model": model, "eps": 0.3, "n_traj": 100, "horizon": 40, "cloud_k": 15,
         "cloud_points": 800, "hit_eps": 0.5, "seed": 6},
    )
    out = tmp_path / "out"
    assert run_cli(["attract", "--config", cfg, "--out", str(out)]) == 0
    att = json.loads((out / "results.json").read_text())["attraction"]
    assert att["contraction_factor"] == factor
    assert att["settling_shortcut"] is shortcut


@pytest.mark.parametrize("factor", [[0.5], "0.5", True, {"c": 0.5}], ids=["list", "string", "bool", "object"])
def test_attract_rejects_non_number_contraction_factor(tmp_path, capsys, factor):
    model = {"kind": "burgers", "nu": 0.5, "modes": 8, "dt": 0.05, "kick_dim": 4,
             "contraction_factor": factor}
    cfg = write_cfg(tmp_path, {"model": model, "eps": 0.3, "n_traj": 10, "horizon": 5, "seed": 6})
    assert run_cli(["attract", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "contraction_factor" in capsys.readouterr().err


@pytest.mark.parametrize("u0s", [[[0.5, float("nan"), 0, 0, 0, 0]], [[0.5, 0.5, 0.5]]], ids=["nan", "3-wide"])
def test_attract_rejects_bad_start_points(tmp_path, capsys, u0s):
    # the attraction counter checks its start points as every ensemble does
    cfg = write_cfg(
        tmp_path,
        {"model": TOY_MODEL, "u0s": u0s, "eps": 0.3, "n_traj": 10, "horizon": 5, "cloud_k": 2,
         "cloud_points": 50, "seed": 1},
    )
    assert run_cli(["attract", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "start points must be finite, with 6 coordinates" in capsys.readouterr().err


def test_attract_on_chain_exits_2(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        {"model": {"kind": "chain", "points": [[0.0], [1.0]], "P": [[0.5, 0.5], [0.5, 0.5]]},
         "eps": 0.3, "n_traj": 10, "horizon": 5, "seed": 1},
    )
    assert run_cli(["attract", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "continuous map" in capsys.readouterr().err


@pytest.mark.parametrize(
    "points, P",
    [
        ([[0.0], [1.0], [2.0]], [[0.5, 0.5], [0.5, 0.5]]),
        ([[0.0], [1.0]], [[0.5, 0.5]]),
        ([[0.0], [1.0]], [[1.5, -0.5], [0.5, 0.5]]),
    ],
    ids=["size-mismatch", "non-square", "negative"],
)
def test_simulate_rejects_malformed_chain(tmp_path, capsys, points, P):
    cfg = write_cfg(
        tmp_path,
        {"model": {"kind": "chain", "points": points, "P": P}, "u0": points[-1], "K": 5, "seed": 1},
    )
    assert run_cli(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "chain P" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("kick_b0", float("nan"), "kick_b0 must be finite, got nan"),
        ("kick_b0", float("inf"), "kick_b0 must be finite, got inf"),
        ("kick_s", float("nan"), "kick_s must be finite, got nan"),
        ("rho", float("nan"), "rho must be positive and finite"),
        ("rho", float("inf"), "rho must be positive and finite"),
    ],
    ids=["nan-b0", "inf-b0", "nan-s", "nan-rho", "inf-rho"],
)
@pytest.mark.parametrize("command", ["simulate", "attract"])
def test_non_finite_model_input_exits_2(tmp_path, capsys, command, key, value, message):
    cfg = write_cfg(
        tmp_path,
        {"model": {**TOY_MODEL, key: value}, "u0": [0.5] * 6, "K": 5,
         "eps": 0.3, "n_traj": 10, "horizon": 5, "cloud_k": 2, "cloud_points": 50, "seed": 1},
    )
    assert run_cli([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out" / "results.json").exists()


def test_eigen_rejects_non_finite_kernel(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"kernel": {"points": [[0.0], [1.0]], "P": [[np.nan, 0.5], [0.5, 0.5]], "A": [0, 1]}})
    assert run_cli(["eigen", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "P, pair",
    [([[1.0, 0.0], [0.0, 1.0]], "A[0] does not reach A[1]"), ([[0.5, 0.5], [0.0, 1.0]], "A[1] does not reach A[0]")],
    ids=["identity", "one-way"],
)
@pytest.mark.parametrize("command", ["eigen", "met-check", "conditions"])
def test_reducible_A_block_exits_2(tmp_path, capsys, command, P, pair):
    # no unique Perron triple: the identity's root is double, and [[.5, .5], [0, 1]] puts mu on state 1 alone
    cfg = write_cfg(tmp_path, {"kernel": {"points": [[0.0], [1.0]], "P": P}, "seed": 1})
    assert run_cli([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert f"reducible A-block: {pair}" in capsys.readouterr().err
    assert not (tmp_path / "out" / "results.json").exists()


def test_ldp_rejects_coincident_points(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        {"kernel": {"points": [[0.0], [0.0], [1.0]], "P": [[0, 1, 0], [0, 0, 1], [1, 0, 0]], "A": [0, 1, 2]},
         "f": [0.0, 1.0, 0.5], "x_grid": [0.5], "k_set": [3, 6], "n_traj": 10, "seed": 3},
    )
    assert run_cli(["ldp", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "chain points 0 and 1 coincide" in capsys.readouterr().err


def test_run_too_large_to_allocate_exits_2(tmp_path):
    # 2^50 start rows of six coordinates ask for 48 PiB, which the allocator
    # refuses at once: one error line, no traceback, no results
    cfg = write_cfg(tmp_path, {"model": TOY_MODEL, "n_traj": 2**50, "seed": 1})
    proc = fresh_process("-m", "fklab.cli", "slln", "--config", cfg, "--out", str(tmp_path / "out"))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and len(proc.stderr.splitlines()) == 1
    assert "Traceback" not in proc.stderr and "MemoryError" in proc.stderr
    assert not (tmp_path / "out" / "results.json").exists()


def test_import_loads_no_computation_module():
    # each handler imports the fklab modules it runs, scipy is imported only
    # inside the functions that use it, and the thread pool only with a pool
    code = ("import sys, fklab.cli; print(sorted(m for m in sys.modules if m.split('.')[0] in ('fklab', 'scipy')"
            " or m in ('concurrent.futures', 'dataclasses')))")
    assert fresh_python(code).strip() == "['fklab', 'fklab.cli']"


KERNEL_3 = {"points": [[0.0], [1.0], [2.5]], "P": [[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]],
            "A": [0, 1, 2], "V": [0.0, 0.2, 0.5]}
PLAN = {"radii": [1.0, 2.0], "r": 0.5, "n_samples": 10, "n_iter": 2, "projection_dims": [1, 2], "n_pairs": 10}
# one small run of each subcommand, conditions on a kernel and on a map
BASE_RUNS = {
    "simulate": ("simulate", {"model": TOY_MODEL, "u0": [0.5] * 6, "K": 20, "stream": 1, "seed": 11}),
    "eigen": ("eigen", {"kernel": KERNEL_3, "seed": 1}),
    "pressure": ("pressure", {"model": TOY_MODEL, "potential": {"kind": "coordinate", "index": 0, "scale": 1.0,
                                                                "center": 0.0, "clip": 2.0},
                              "u0": [0] * 6, "k_max": 20, "n_traj": 200, "alphas": [-0.2, 0.2], "recenter_k": 100,
                              "seed": 13}),
    "met-check": ("met-check", {"kernel": KERNEL_3, "k_max": 20, "seed": 1}),
    "coupling-check": ("coupling-check", {"model": TOY_MODEL, "N": 3, "n_samples": 10_000, "delta": 0.1,
                                          "coordinate": 0, "seed": 4}),
    "conditions-kernel": ("conditions", {"kernel": KERNEL_3, "params": {"r": 0.5, "c": 0.5, "k_max": 20}, "seed": 2}),
    "conditions-map": ("conditions", {"model": TOY_MODEL, "plan": PLAN, "seed": 2}),
    "ldp": ("ldp", {"kernel": {k: v for k, v in KERNEL_3.items() if k != "V"}, "f": [0.1, 0.5, 0.9],  # ldp reads no V
                    "x_grid": [0.55], "k_set": [5, 10], "n_traj": 200, "u0": [1.0], "seed": 3}),
    "attract": ("attract", {"model": TOY_MODEL, "eps": 0.3, "hit_eps": 0.5, "n_traj": 30, "horizon": 20,
                            "cloud_k": 5, "cloud_points": 100, "u0s": [[1.0] * 6], "seed": 6}),
    "slln": ("slln", {"model": TOY_MODEL, "potential": {"kind": "coordinate", "index": 0, "clip": 2.0},
                      "u0": [0] * 6, "n_traj": 20, "K": 10, "mu_f": 0.0, "eps": 0.1, "C": 0.5, "seed": 8}),
}
BURGERS_MODEL = {"kind": "burgers", "nu": 0.5, "modes": 8, "dt": 0.05, "kick_dim": 4, "rho": 1.0}
# the fklab modules each run loads besides fklab and fklab.cli
LOADS = {
    "simulate": "dynamics_maps fits measure_metrics rds_core",
    "eigen": "fits kernel_lab measure_metrics",
    "pressure": "dynamics_maps feynman_kac fits measure_metrics rds_core",
    "met-check": "fits kernel_lab measure_metrics rds_core",
    "coupling-check": "coupling_lab dynamics_maps feynman_kac fits measure_metrics rds_core",
    "conditions-kernel": "fits kernel_lab measure_metrics",
    "conditions-map": "dynamics_maps fits measure_metrics rds_core",
    "conditions-burgers": "dynamics_maps fits measure_metrics rds_core",
    "ldp": "apps feynman_kac fits kernel_lab measure_metrics rds_core",
    "attract": "dynamics_maps fits measure_metrics rds_core",
    "slln": "apps dynamics_maps feynman_kac fits kernel_lab measure_metrics rds_core",
}


@pytest.mark.parametrize("run", LOADS)
def test_subcommand_loads_its_modules(tmp_path, run):
    # start-up grows with the subcommand, not with the package: eigen, say,
    # never loads the simulated dynamics
    runs = {**BASE_RUNS, "conditions-burgers": ("conditions", {"model": BURGERS_MODEL, "plan": PLAN, "seed": 2})}
    command, payload = runs[run]
    code = ("import sys; from fklab.cli import main; assert main(sys.argv[1:]) == 0;"
            " print(sorted(m for m in sys.modules if m.split('.')[0] == 'fklab'))")
    stdout = fresh_python(code, command, "--config", write_cfg(tmp_path, payload), "--out", str(tmp_path / "out"))
    assert stdout.splitlines()[-1] == str(sorted(["fklab", "fklab.cli", *(f"fklab.{m}" for m in LOADS[run].split())]))


def test_coupling_check_from_1e4_samples_loads_no_scipy_stats(tmp_path):
    # from 10,000 samples on the KS p-values are asymptotic and computed
    # without scipy, whose stats module alone is about 70 MiB and 1 s
    cfg = write_cfg(tmp_path, {"model": TOY_MODEL, "n_samples": 10_000, "delta": 0.1, "seed": 4})
    out = tmp_path / "out"
    code = ("import sys; from fklab.cli import main; assert main(sys.argv[1:]) == 0;"
            " print([m for m in ('scipy.stats', 'scipy.special') if m in sys.modules])")
    stdout = fresh_python(code, "coupling-check", "--config", cfg, "--out", str(out))
    assert stdout.splitlines()[-1] == "[]"
    assert (out / "results.json").exists()


def test_attract_on_burgers_loads_no_scipy(tmp_path):
    # the attraction counter searches its cloud with numpy alone
    model = {"kind": "burgers", "nu": 1.0, "modes": 16, "dt": 2e-2, "kick_dim": 8, "rho": 0.7}
    cfg = write_cfg(tmp_path, {"model": model, "eps": 0.3, "hit_eps": 0.35, "n_traj": 50, "horizon": 20,
                               "cloud_k": 6, "cloud_points": 300, "seed": 5})
    out = tmp_path / "out"
    code = ("import sys; from fklab.cli import main; assert main(sys.argv[1:]) == 0;"
            " print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    stdout = fresh_python(code, "attract", "--config", cfg, "--out", str(out))
    assert stdout.splitlines()[-1] == "[]"
    assert (out / "results.json").exists()


def test_slln_command(tmp_path):
    cfg = write_cfg(
        tmp_path,
        {"model": TOY_MODEL,
         "potential": {"kind": "coordinate", "index": 0, "scale": 1.0, "clip": 2.0},
         "u0": [0] * 6, "n_traj": 300, "K": 400, "eps": 0.1, "C": 0.5, "seed": 8},
    )
    out = tmp_path / "out"
    assert run_cli(["slln", "--config", cfg, "--out", str(out)]) == 0
    res = json.loads((out / "results.json").read_text())
    assert res["T_max"] >= 1
    assert res["verdict"] in (
        "exponential-not-rejected", "heavy-tail-favored",
        "exponential-fit-degrades", "insufficient-tail",
    )


LDP_PROBE = {"kernel": {"points": [[0.0], [1.0], [2.0]], "P": [[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]],
                         "A": [0, 1, 2]},
             "f": [0.1, 0.5, 0.9], "k_set": [10, 20, 30], "n_traj": 2000, "seed": 3}


def test_ldp_command(tmp_path):
    mean = float(np.mean(LDP_PROBE["f"]))  # doubly stochastic: uniform stationary law
    cfg = write_cfg(tmp_path, {**LDP_PROBE, "x_grid": [mean + 0.05, mean + 0.1]})
    out = tmp_path / "out"
    assert run_cli(["ldp", "--config", cfg, "--out", str(out)]) == 0
    leg = np.asarray(json.loads((out / "results.json").read_text())["legendre"], dtype=float)
    assert np.all(np.isfinite(leg)) and np.all(leg >= 0)


def test_ldp_past_the_range_of_f_reads_infinity(tmp_path):
    # no path average exceeds max f = 0.9: the rate there is +inf, where a
    # maximum over an alpha grid read a finite 0.827
    cfg = write_cfg(tmp_path, {**LDP_PROBE, "x_grid": [0.95, 0.9]})
    out = tmp_path / "out"
    assert run_cli(["ldp", "--config", cfg, "--out", str(out)]) == 0
    res = json.loads((out / "results.json").read_text())
    assert res["legendre"][0] == np.inf
    assert res["legendre"][1] == pytest.approx(-np.log(0.5), rel=1e-12)  # -log P_22 at the end of the range


def test_ldp_reads_the_exact_rate_past_the_old_alpha_grid(tmp_path):
    # criterion 10's chain: at x = 0.7972 the tilt a* = 7.1 lies past the
    # old default grid of 33 alphas in [-4, 4], whose maximum read 0.562
    rng = np.random.default_rng(23)
    pts = np.sort(rng.uniform(-2, 2, size=(4, 1)), axis=0)
    P = rng.uniform(0.05, 1.0, (4, 4))
    P /= P.sum(axis=1, keepdims=True)
    f = rng.uniform(0, 1, 4)
    cfg = write_cfg(tmp_path, {"kernel": {"points": pts.tolist(), "P": P.tolist()}, "f": f.tolist(),
                               "x_grid": [0.7972], "k_set": [10, 20], "n_traj": 1000, "seed": 7})
    out = tmp_path / "out"
    assert run_cli(["ldp", "--config", cfg, "--out", str(out)]) == 0
    rate = json.loads((out / "results.json").read_text())["legendre"][0]

    def dual(a):  # a x - log lam(a f), by a dense eigenvalue solve
        return a * 0.7972 - np.log(np.abs(np.linalg.eigvals(P * np.exp(a * f))).max())

    lo, hi = 0.0, 40.0
    for _ in range(200):  # golden section on the concave dual
        a, b = hi - 0.618 * (hi - lo), lo + 0.618 * (hi - lo)
        lo, hi = (a, hi) if dual(a) < dual(b) else (lo, b)
    assert rate == pytest.approx(dual(lo), abs=1e-10)
    assert round(rate, 3) == 0.636 and 6 < lo < 8
    assert max(dual(a) for a in np.linspace(-4, 4, 33)) == pytest.approx(0.562, abs=5e-4)


@pytest.mark.parametrize("k_set", [[0, 10], [-5, 10]])
def test_ldp_rejects_k_below_one(tmp_path, capsys, k_set):
    cfg = write_cfg(tmp_path, {**LDP_PROBE, "x_grid": [0.6], "k_set": k_set})
    assert run_cli(["ldp", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "k_set" in capsys.readouterr().err
    assert not (tmp_path / "out" / "results.json").exists()


def test_ldp_loads_no_scipy(tmp_path):
    # the exact rates come from Perron triples and numpy solves alone
    cfg = write_cfg(tmp_path, {**LDP_PROBE, "x_grid": [0.55, 0.6]})
    out = tmp_path / "out"
    code = ("import sys; from fklab.cli import main; assert main(sys.argv[1:]) == 0;"
            " print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    stdout = fresh_python(code, "ldp", "--config", cfg, "--out", str(out))
    assert stdout.splitlines()[-1] == "[]"
    assert (out / "results.json").exists()


def test_simulate_overflow_exits_3(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        {"model": {"kind": "toy", "factors": [1e100, 1e100], "rho": 1.0},
         "u0": [1.0, 1.0], "K": 10, "seed": 1},
    )
    with np.errstate(over="ignore"):
        assert run_cli(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    assert "non-finite state at step 4 in row 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "model, values, message",
    [
        (TOY_MODEL, [0.1] * 6, "needs a chain model"),
        (CHAIN_MODEL, [0.1], "one finite value per state"),
        (CHAIN_MODEL, [0.1, float("nan"), 0.3], "one finite value per state"),
    ],
    ids=["toy-model", "short-table", "nan-entry"],
)
def test_pressure_rejects_bad_chain_potential(tmp_path, capsys, model, values, message):
    # rejected when the potential is built, before any step is taken
    cfg = write_cfg(
        tmp_path,
        {"model": model, "potential": {"kind": "chain_values", "values": values},
         "u0": [0.0] * (6 if model is TOY_MODEL else 1), "k_max": 20, "n_traj": 100, "seed": 1},
    )
    out = tmp_path / "out"
    assert run_cli(["pressure", "--config", cfg, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not (out / "results.json").exists()


def test_pressure_on_chain_tabulates_any_potential(tmp_path):
    # a coordinate potential on a chain is its table on the points:
    # 0.5 x clipped at 1 is (0, 0.5, 1) on the points 0, 1 and 2.5
    base = {"model": CHAIN_MODEL, "u0": [1.0], "k_max": 20, "n_traj": 200, "seed": 2}
    results = {}
    for name, potential in (
        ("coordinate", {"kind": "coordinate", "index": 0, "scale": 0.5, "clip": 1.0}),
        ("table", {"kind": "chain_values", "values": [0.0, 0.5, 1.0]}),
        ("zero", {"kind": "zero"}),
    ):
        cfg = write_cfg(tmp_path, {**base, "potential": potential}, name=f"{name}.json")
        out = tmp_path / name
        assert run_cli(["pressure", "--config", cfg, "--out", str(out)]) == 0
        res = json.loads((out / "results.json").read_text())
        res.pop("config_sha256")
        results[name] = res
    assert results["coordinate"] == results["table"]
    assert results["zero"]["Q"] == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize(
    "model, index",
    [(TOY_MODEL, 6), (TOY_MODEL, -1), (CHAIN_MODEL, 1)],
    ids=["toy-past-end", "toy-negative", "chain-past-end"],
)
def test_pressure_rejects_coordinate_index_out_of_range(tmp_path, capsys, model, index):
    # the index must name a model coordinate; -1 does not wrap to the last one
    dim = 6 if model is TOY_MODEL else 1
    cfg = write_cfg(
        tmp_path,
        {"model": model, "potential": {"kind": "coordinate", "index": index, "clip": 2.0},
         "u0": [0.0] * dim, "k_max": 20, "n_traj": 100, "seed": 1},
    )
    out = tmp_path / "out"
    assert run_cli(["pressure", "--config", cfg, "--out", str(out)]) == 2
    assert f"potential index = {index} must lie in 0..{dim - 1}" in capsys.readouterr().err
    assert not (out / "results.json").exists()


def test_simulate_on_chain_writes_points(tmp_path):
    from fklab import rds_core as rc

    cfg = write_cfg(tmp_path, {"model": CHAIN_MODEL, "u0": [1.2], "K": 30, "seed": 5})
    out = tmp_path / "out"
    assert run_cli(["simulate", "--config", cfg, "--out", str(out)]) == 0
    rows = np.loadtxt(out / "trajectory.csv", delimiter=",", comments="#", skiprows=2)
    assert rows[0].tolist() == [0.0, 1.2]  # u0 as given, off the chain's points
    # then the chain started from the nearest point, 1.0
    chain = rc.FiniteChainModel(points=CHAIN_MODEL["points"], P=CHAIN_MODEL["P"])
    traj = rc.simulate(chain, [1.0], 30, seed=5)
    assert np.array_equal(rows[1:, 1], chain.coords(traj)[1:, 0])
    final = json.loads((out / "results.json").read_text())["final_norm"]
    assert final == abs(rows[-1, 1])


@pytest.mark.parametrize("n_samples, method", [(9_999, "exact"), (10_000, "asymp")])
def test_coupling_check_ks_method_by_sample_count(tmp_path, monkeypatch, n_samples, method):
    # the exact KS p-value's cost depends on the draws at large n; from
    # n = 10,000 on the asymptotic one is used, within about 1% of it.
    # coupling_lab.ks_test gives scipy's D and, by the same rule, its p-value
    from scipy import stats

    from fklab import coupling_lab

    ks_test, seen = coupling_lab.ks_test, []

    def spy(x, cdf):
        seen.append((x, cdf, *ks_test(x, cdf)))
        return seen[-1][2:]

    monkeypatch.setattr(coupling_lab, "ks_test", spy)
    cfg = write_cfg(tmp_path, {"model": TOY_MODEL, "n_samples": n_samples, "delta": 0.1, "seed": 4})
    out = tmp_path / "out"
    assert run_cli(["coupling-check", "--config", cfg, "--out", str(out)]) == 0
    assert json.loads((out / "results.json").read_text())["ks_pvalues"] == [p for *_, p in seen]
    assert len(seen) == 2
    for x, cdf, D, p in seen:
        ref = stats.kstest(x, cdf, method=method)
        assert D == ref.statistic
        assert p == (ref.pvalue if method == "exact" else pytest.approx(ref.pvalue, rel=1e-14, abs=0))
        assert p == pytest.approx(stats.kstest(x, cdf, method="exact").pvalue, rel=0.02)


@pytest.mark.parametrize(
    "command, extra",
    [("simulate", {"K": 5}), ("pressure", {"potential": {"kind": "chain_values", "values": [0.1, 0.2, 0.3]},
                                           "k_max": 20, "n_traj": 100})],
)
def test_chain_start_point_of_wrong_width_exits_2(tmp_path, capsys, command, extra):
    # a 1-coordinate u0 on a chain in the plane is not snapped on its first coordinate
    model = {**CHAIN_MODEL, "points": [[0.0, 0.0], [1.0, 5.0], [0.2, 9.0]]}
    cfg = write_cfg(tmp_path, {"model": model, "u0": [0.9], **extra, "seed": 1})
    out = tmp_path / "out"
    assert run_cli([command, "--config", cfg, "--out", str(out)]) == 2
    assert "start points must be finite, with 2 coordinates" in capsys.readouterr().err
    assert not (out / "results.json").exists()


def test_conditions_on_chain_model_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"model": CHAIN_MODEL, "seed": 1})
    assert run_cli(["conditions", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "conditions needs a continuous map" in capsys.readouterr().err


def test_kernel_json_roundtrip(rng):
    # P, A (default: every state) and V survive the one kernel parser
    from conftest import random_kernel_potential

    from fklab.cli import _Config, _load_tilt

    K, V = random_kernel_potential(rng, 6, strict_subset=True)
    section = {"points": K.points.tolist(), "P": K.P.tolist(), "A": K.A.tolist(), "V": V.V.tolist()}
    K2, V2 = _load_tilt(_Config(json.loads(json.dumps({"kernel": section})), "eigen"))
    assert np.array_equal(K2.points, K.points) and np.array_equal(K2.P, K.P)
    assert np.array_equal(K2.A, K.A)
    assert np.array_equal(V2.V, V.V)
    K3, V3 = _load_tilt(_Config({"kernel": {k: section[k] for k in ("points", "P")}}, "eigen"))
    assert np.array_equal(K3.A, np.arange(6))
    assert np.array_equal(V3.V, np.zeros(6))


CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"
DROP = object()


def shipped(name, **changes):
    """A shipped config with ``changes`` applied: ``"model.kick_b": 0.3``
    style paths (dots written as ``__``), ``DROP`` deletes a key."""
    cfg = json.loads((CONFIGS / name).read_text())
    for path, value in changes.items():
        *head, key = path.split("__")
        sec = cfg
        for part in head:
            sec = sec.setdefault(part, {})
        if value is DROP:
            del sec[key]
        else:
            sec[key] = value
    return cfg


@pytest.mark.parametrize(
    "command, cfg, code, message",
    [
        ("simulate", shipped("simulate_toy.json", KK=5), 2, "unknown key 'KK'; did you mean 'K'?"),
        ("simulate", shipped("simulate_toy.json", model__kick_b=0.3), 2,
         "unknown key 'kick_b' in 'model'; did you mean 'kick_b0'?"),
        ("eigen", shipped("eigen_2state.json", kernel__V=DROP, kernel__v=[0.0, 0.7]), 2,
         "unknown key 'v' in 'kernel'; did you mean 'V'?"),
        ("eigen", shipped("eigen_2state.json", kernel__V=DROP, potential__V=[0.0, 0.7]), 2,
         "unknown key 'V' in 'potential'; it belongs in 'kernel'"),
        ("simulate", shipped("simulate_toy.json", K=[1]), 2, "K must be an integer, not [1]"),
        ("simulate", shipped("simulate_toy.json", model=5), 2, "section 'model' must be a JSON object"),
        ("eigen", shipped("eigen_2state.json", kernel=[1, 2]), 2, "section 'kernel' must be a JSON object"),
        ("conditions", shipped("eigen_2state.json", params__kmax=10), 2,
         "unknown key 'kmax' in 'params'; did you mean 'k_max'?"),
        ("conditions", shipped("eigen_2state.json", params__p_floor=1e-9), 2, "unknown key 'p_floor' in 'params'"),
        ("conditions", shipped("eigen_2state.json", params__k_max=4), 2, "k_max must be at least 5"),
        ("conditions", {"model": TOY_MODEL, "plan": {"radii": 5}}, 2, "radii must be an array of numbers"),
        ("simulate", shipped("simulate_toy.json", K=-3), 2, "K = -3 must be at least 0"),
        ("simulate", shipped("simulate_toy.json", model__factors=[], u0=[]), 2,
         "factors must be a nonempty vector"),
        ("pressure", shipped("pressure_curve_toy.json", potential__scale=1e308, potential__clip=DROP), 3,
         "potential produced NaN"),
        ("pressure", shipped("pressure_curve_toy.json", recenter=False), 2,
         "unknown key 'recenter'; did you mean 'recenter_k'?"),
        ("pressure", shipped("pressure_toy_v0.json", n_traj=10), 2, "n_traj = 10 must be at least 100"),
        # these three raised TypeError (exit 1)
        ("pressure", shipped("pressure_curve_toy.json", alphas=[[1.5]]), 2,
         "alphas must be an array of numbers (1-d), not [[1.5]]"),
        ("conditions", {"model": TOY_MODEL, "plan": {"radii": [[1.5]]}}, 2,
         "radii must be an array of numbers (1-d), not [[1.5]]"),
        ("ldp", {**LDP_PROBE, "x_grid": [[0.5]]}, 2, "x_grid must be an array of numbers (1-d), not [[0.5]]"),
    ],
    ids=["misspelt-K", "misspelt-kick_b0", "lowercase-V", "V-under-potential", "K-list", "model-number",
         "kernel-list", "params-kmax", "params-p_floor", "k_max-4", "radii-number", "K-negative", "no-factors",
         "scale-1e308", "recenter", "n_traj-10", "alphas-nested", "radii-nested", "x_grid-nested"],
)
def test_bad_config_exits_by_cause_and_names_the_key(tmp_path, capsys, command, cfg, code, message):
    out = tmp_path / "out"
    with np.errstate(over="ignore"):
        assert run_cli([command, "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == code
    assert message in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())  # no file from a failed run


SLLN_CFG = {"model": TOY_MODEL, "potential": {"kind": "coordinate", "index": 0, "clip": 2.0},
            "u0": [0] * 6, "n_traj": 20, "K": 10, "seed": 8}


@pytest.mark.parametrize(
    "command, cfg, message",
    [
        ("slln", {**SLLN_CFG, "mu_f": float("nan")}, "mu_f must be finite, got nan"),
        ("slln", {**SLLN_CFG, "C": float("nan")}, "C must be positive and finite, got nan"),
        ("slln", {**SLLN_CFG, "eps": float("nan")}, "eps must be positive and finite, got nan"),
        ("slln", {**SLLN_CFG, "C": 0}, "C must be positive and finite, got 0"),
        ("slln", {**SLLN_CFG, "C": -1.0}, "C must be positive and finite, got -1.0"),
        ("slln", {**SLLN_CFG, "potential": {"kind": "coordinate", "clip": 0.0}}, "clip must be positive and finite"),
        ("pressure", shipped("pressure_curve_toy.json", potential__clip=-1.0), "clip must be positive and finite"),
        ("slln", {**SLLN_CFG, "C": 10**400}, "C must be positive and finite, got 1000"),
        ("slln", {**SLLN_CFG, "mu_f": -(10**400)}, "mu_f must be finite, got -1000"),
        ("slln", {**SLLN_CFG, "K": 10**400}, "K must fit in 64 bits, got 1000"),
        ("slln", {**SLLN_CFG, "seed": 2**64}, "seed must fit in 64 bits, got 18446744073709551616"),
        ("slln", {**SLLN_CFG, "seed": -1}, "seed = -1 must be at least 0"),
    ],
    ids=["nan-mu_f", "nan-C", "nan-eps", "zero-C", "negative-C", "zero-clip", "negative-clip-pressure",
         "400-digit-C", "400-digit-mu_f", "400-digit-K", "seed-2^64", "seed-negative"],
)
def test_values_outside_a_keys_domain_exit_2(tmp_path, capsys, command, cfg, message):
    # slln read a NaN mu_f, C or eps as T = 1 with nothing censored and a
    # C <= 0 as every row censored; a clip <= 0 made the potential constant;
    # a float key past the float range raised OverflowError (exit 3), and
    # an int key past 64 bits fits no numpy count; rng_stream takes a seed
    # mod 2^64, so -1 ran seed 2^64 - 1's stream
    out = tmp_path / "out"
    assert run_cli([command, "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not (out / "results.json").exists()


@pytest.mark.parametrize(
    "seed, message",
    [(2**64, "seed must fit in 64 bits, got 18446744073709551616"),
     (-(2**63) - 1, "seed must fit in 64 bits, got -9223372036854775809"),
     (-1, "seed = -1 must be at least 0")],
    ids=["2^64", "below-int64", "negative"],
)
def test_seed_flag_outside_the_seed_domain_exits_2(tmp_path, capsys, seed, message):
    # --seed is read through the config seed's entry: 2^64 ran seed 0's
    # trajectory while results.json recorded 2^64, and -1 the trajectory
    # of 2^64 - 1
    out = tmp_path / "out"
    argv = ["simulate", "--config", str(CONFIGS / "simulate_toy.json"), f"--seed={seed}", "--out", str(out)]
    assert run_cli(argv) == 2
    assert message in capsys.readouterr().err
    assert not (out / "results.json").exists()


def test_float_key_takes_an_integer_beyond_int64():
    # JSON reads an integer literal past int64 as a Python int; the
    # finiteness test must not route it through a numpy cast that rejects it
    from fklab.cli import _Config

    assert _Config({"C": 10**30}, "slln")("C") == 1e30


SHIPPED_RUNS = [
    ("eigen", "eigen_2state.json"),
    ("pressure", "pressure_curve_toy.json"),
    ("pressure", "pressure_toy_v0.json"),
    ("simulate", "simulate_toy.json"),
]


@st.composite
def mutated_runs(draw, runs, values):
    """One of ``runs`` with one key dropped, renamed or set to one of
    ``values``; the key is at the top level or one section down.  Returns
    the command, the config, the key's path and the value set (DROP if
    none was)."""
    command, cfg = draw(st.sampled_from(runs))
    cfg = json.loads(json.dumps(cfg))
    paths = [(k,) for k in cfg] + [(k, sub) for k, v in cfg.items() if isinstance(v, dict) for sub in v]
    *head, key = draw(st.sampled_from(paths))
    sec = cfg[head[0]] if head else cfg
    how, value = draw(st.sampled_from(["drop", "rename", "set"])), DROP
    if how == "drop":
        del sec[key]
    elif how == "rename":
        sec[draw(st.sampled_from([key + "x", key.swapcase(), key[:-1]]))] = sec.pop(key)
    else:
        value = sec[key] = draw(st.sampled_from(values))
    return command, cfg, (*head, key), value


def exit_code(command, cfg):
    """The exit code of one run and the manifest it wrote ({} if none)."""
    with tempfile.TemporaryDirectory() as tmp, redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        path, out = os.path.join(tmp, "cfg.json"), os.path.join(tmp, "out")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        with np.errstate(all="ignore"):
            code = run_cli([command, "--config", path, "--out", out])
        manifest = pathlib.Path(out, "manifest.json")
        return code, json.loads(manifest.read_text()) if manifest.exists() else {}


def in_domain(command, path, value):
    """Whether the number ``value`` lies in the domain that ``command``'s
    table gives the key at ``path``: a finite scalar of the key's type, an
    int within 64 bits, at least ``lo`` and above ``gt``."""
    from fklab.cli import _COMMANDS, _table

    table = _COMMANDS[command][1]
    entry = (_table(table, path[0]) if len(path) == 2 else table)[path[-1]]
    if entry.ndim != 0 or not abs(value) <= sys.float_info.max:  # NaN fails too
        return False
    if not (entry.typ is float or (entry.typ is int and isinstance(value, int) and -(2**63) <= value < 2**64)):
        return False
    return (entry.lo is None or value >= entry.lo) and (entry.gt is None or value > entry.gt)


@settings(max_examples=40, deadline=None)
@given(run=mutated_runs([(command, shipped(name)) for command, name in SHIPPED_RUNS],
                        ["x", None, True, 7, 2.5, [1.5], [[1, 2], [3]], {"a": 1}, 0, -1, -3.5, -10**9]))
def test_mutated_shipped_configs_exit_0_2_or_3(run):
    # a bad config is a 2, a numerical failure a 3; never a traceback (1)
    assert exit_code(*run[:2])[0] in (0, 2, 3)


@settings(max_examples=1000, deadline=None)
@given(run=mutated_runs(list(BASE_RUNS.values()),
                        [float("nan"), float("inf"), float("-inf"), 1e308, -1e308, 10**400, -(10**400), "x", "",
                         None, True, [], [[1, 2], [3]], [[1.5]], {"a": 1}, 0, -1]))
def test_mutated_configs_of_every_subcommand_exit_0_2_or_3(run):
    # the same on one small run of each subcommand, with non-finite, huge
    # and nested values: a handler whose own imports miss a name exits 1.
    # A number set on a key and run to exit 0 was read, and lies in the
    # domain the subcommand's table gives that key
    command, cfg, path, value = run
    code, manifest = exit_code(command, cfg)
    assert code in (0, 2, 3)
    if code == 0 and isinstance(value, numbers.Real) and not isinstance(value, bool):
        assert ".".join(path) not in manifest.get("unread_keys", [])
        assert in_domain(command, path, value)


@pytest.mark.parametrize("run", BASE_RUNS)
def test_base_runs_read_every_key(run):
    # the property above rests on it: a key it sets on a base run is one
    # the run reads
    code, manifest = exit_code(*BASE_RUNS[run])
    assert code == 0 and "unread_keys" not in manifest


@pytest.mark.parametrize(
    "command, cfg, unread",
    [
        ("ldp", {**LDP_PROBE, "x_grid": [0.6], "alphas": [0, 1]}, ["alphas"]),
        ("ldp", {**LDP_PROBE, "kernel": KERNEL_3, "x_grid": [0.55]}, ["kernel.V"]),  # ldp's rates take no potential
        ("simulate", {"model": {**TOY_MODEL, "nu": 0.5}, "K": 5, "seed": 1}, ["model.nu"]),
        ("simulate", {"model": {"kind": "toy", "factors": [0.5, 0.4], "dim": 2, "base": 0.6}, "K": 5},
         ["model.base", "model.dim"]),
        ("simulate", {"model": CHAIN_MODEL, "potential": {"kind": "zero"}, "u0": [1.0], "K": 5},
         ["potential.kind"]),
        ("pressure", shipped("pressure_toy_v0.json", recenter_k=2000), ["recenter_k"]),  # only a curve recentres
        # the shipped configs under the subcommands tools/cli_walls.py runs them with
        ("eigen", shipped("eigen_2state.json"), None),
        ("met-check", shipped("eigen_2state.json"), None),
        ("conditions", shipped("eigen_2state.json"), None),
        ("simulate", shipped("simulate_toy.json"), None),
        ("coupling-check", shipped("simulate_toy.json"), ["K", "stream", "u0"]),
        ("pressure", shipped("pressure_toy_v0.json"), None),
        ("pressure", shipped("pressure_curve_toy.json"), None),
    ],
    ids=["ldp-alphas", "ldp-V", "toy-nu", "toy-factors", "chain-potential", "no-curve-recenter_k", "eigen", "met-check",
         "conditions", "simulate", "coupling-check", "pressure-v0", "pressure-curve"],
)
def test_manifest_lists_the_keys_a_run_did_not_read(tmp_path, command, cfg, unread):
    # sorted, and written only when some key went unread, so a fully read
    # config's manifest is byte for byte what it was before the list existed
    out = tmp_path / "out"
    assert run_cli([command, "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text()).get("unread_keys") == unread


def test_readme_config_sketch_keys_are_known():
    # every key the README shows is one the config reader accepts
    import re

    from fklab.cli import _known

    known = _known(params=False)
    readme = (CONFIGS.parent / "README.md").read_text()
    sketch = re.search(r"### Config sketch\n\n```jsonc\n(.*?)```", readme, re.S).group(1)
    cfg = json.loads(re.sub(r"//[^\n]*", "", sketch))
    for key, value in cfg.items():
        assert key in known[""]
        if isinstance(value, dict):
            assert set(value) <= known[key]
    kernel = re.search(r"`kernel` section\n`(\{.*?\})`", readme, re.S).group(1)
    assert set(re.findall(r'"(\w+)":', kernel)) == known["kernel"]


def test_csv_text_bytes_match_per_value_repr():
    # the rows are formatted off array.tolist(); the bytes are those of
    # repr(float(x)) on every numpy scalar
    from fklab.cli import _csv_text

    values = np.array([[0.1, -0.0, 1 / 3, 1e-310], [2.0**60, np.nan, -np.inf, 7.0]])
    rows = [",".join(repr(float(x)) for x in row) for row in values]
    assert _csv_text("a,b,c,d", values, "ab", 3) == "\n".join(["# config_sha256=ab seed=3", "a,b,c,d", *rows]) + "\n"
    assert _csv_text("x", np.float32(0.1), "ab", 3).endswith("\n0.10000000149011612\n")
