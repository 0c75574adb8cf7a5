"""One workload in a fresh interpreter: import, build inputs, run passes.

Started by ``run.py``.  With ``--setup-only`` it times ``import fklab.cli``
and prints it as JSON.  Otherwise it also runs the workload and writes its
measurements as JSON to ``--result``.

A pass runs every operation of the workload once, back to back (a closed
loop with one client).  Passes repeat with the same inputs until the next
one would end after ``--seconds``, with at least ``MIN_PASSES`` passes.
With ``--trace 1`` a first untraced pass warms the process up (lazy imports,
allocator growth) and is left out; then traced and untraced passes
alternate, at least one of each, so the tracing overhead is measured in the
same process.  Times are raw and in reference seconds (see ``speed.py``).
"""

import argparse
import json
import os
import resource
import statistics
import sys

import speed

MIN_PASSES = 3


def timed_import(root):
    """(raw, reference) seconds to import fklab.cli from ``root/src``."""
    with speed.Probe(speed.python_probe, speed.REF_PY_S, interval=0.02) as probe:
        start = probe.clock()
        import fklab.cli

        raw, ref = probe.reference(start)
    src = os.path.realpath(os.path.join(root, "src"))
    if not os.path.realpath(fklab.cli.__file__).startswith(src + os.sep):
        sys.exit(f"fklab imported from {fklab.cli.__file__}, not from {src}")
    return raw, ref


def run_pass(ops, rec, probe):
    """One pass; returns (raw seconds, reference seconds, per-op records)."""
    records = []
    start = probe.clock()
    for op_id, (name, fn) in enumerate(ops):
        call = rec.op_span(op_id, name)(fn) if rec is not None else fn
        op_start = probe.clock()
        error = None
        try:
            call()
        except (Exception, SystemExit) as exc:  # an operation's failure is a measurement
            error = f"{type(exc).__name__}: {exc}"
        raw, ref = probe.reference(op_start)
        records.append({"op": name, "seconds": raw, "ref_seconds": ref, "error": error})
    raw, ref = probe.reference(start)
    return raw, ref, records


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--root", required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir")
    p.add_argument("--result")
    p.add_argument("--spans", default=None)
    p.add_argument("--l2-bytes", type=int, default=2**21)
    args = p.parse_args()

    setup_raw, setup_ref = timed_import(args.root)
    if args.setup_only:
        print(json.dumps({"raw": setup_raw, "ref": setup_ref}))
        return

    import spans
    import workloads

    ctx = workloads.Context(args.seed, args.workdir, args.root)
    ops = workloads.WORKLOADS[args.workload](ctx)

    plain, traced_walls, traced_layers, passes = [], [], [], []
    rec = spans.Recorder() if args.trace else None
    warmup = None
    with speed.Probe(speed.MixProbe(), speed.REF_MIX_S, interval=0.1) as probe:
        start = probe.clock()
        while True:
            traced = bool(args.trace) and warmup is not None and len(plain) >= len(traced_walls)
            if traced:
                uninstall = spans.install(rec)
                first_span = len(rec.spans)
            try:
                raw, wall, records = run_pass(ops, rec if traced else None, probe)
            finally:
                if traced:
                    uninstall()
            passes.append({"traced": traced, "wall_s": wall, "raw_wall_s": raw, "ops": records})
            if traced:
                traced_walls.append(wall)
                traced_layers.append(spans.reduce_pass(rec.dump()[first_span:], args.l2_bytes, first_span))
            elif args.trace and warmup is None:
                warmup = wall
            else:
                plain.append(wall)
            elapsed = probe.reference(start)[0]
            enough = min(len(traced_walls), len(plain)) >= 1 if args.trace else len(plain) >= MIN_PASSES
            if enough and elapsed + statistics.median([q["raw_wall_s"] for q in passes]) > args.seconds:
                break

    result = {
        "setup_raw_s": setup_raw,
        "setup_s": setup_ref,
        "plain_walls": plain,
        "traced_walls": traced_walls,
        "passes": passes,
        "probe_samples": len(probe.samples),
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "known_failing": workloads.KNOWN_FAILING,
    }
    if args.trace:
        keys = traced_layers[0].keys()
        result["layers"] = {k: statistics.median([layer[k] for layer in traced_layers]) for k in keys}
        if args.spans:
            with open(args.spans, "w") as fh:
                json.dump(rec.dump(), fh)
    with open(args.result, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
