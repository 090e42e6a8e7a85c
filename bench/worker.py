"""One benchmark pass in a fresh interpreter; prints one JSON line.

    python3 bench/worker.py --workload NAME --seed N --spawned-at T
                            [--check full|none] [--trace] [--setup-only]

T is the monotonic clock reading of the parent just before it started this
process.  The pass starts the host-speed probe, imports drinfeldlab, builds
the workload's inputs (set-up), records the clock just before the first
pipeline call, runs every instance, then measures peak RSS and, with
``--check full``, runs the correctness gate; both happen after the timed
region.  ``--trace`` wraps the layers while the instances run and adds the
per-layer counts and self times; the spans go to ``.bench_out/`` at the
repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

from hostspeed import HostSpeedProbe

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOAD_NAMES = ("special-zero-dim", "generic-sweep", "uniformity-sweep")


def run_instances(workload, tracer, layers, ex):
    """Run every instance; returns {label: (result, error)}."""
    results = {}
    for label, thunk in workload.instances():
        before = layers.cap_events(tracer) if tracer else 0
        try:
            result, error = thunk(), None
        except Exception as exc:   # a failing instance is counted, not fatal
            result, error = None, f"{type(exc).__name__}: {exc}"
        if (tracer and getattr(result, "verdict", None) == ex.CONFIRMED
                and layers.cap_events(tracer) > before):
            tracer.stats[layers.CONFIRMED_DESPITE_CAP] += 1
        results[label] = (result, error)
    return results


def gate(workload, label, result, seed, workloads):
    try:
        problems = workload.problems(label, result)
    except Exception as exc:
        return [f"check raised {type(exc).__name__}: {exc}"]
    if seed == workloads.DEFAULT_SEED:
        expected = workloads.load_reference()[workload.name][label]
        if workload.canon(label, result) != expected:
            problems.append("output differs from the recorded reference")
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--check", choices=("full", "none"), default="none")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    probe = HostSpeedProbe()
    probe.start()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import layers
    import workloads
    from tracer import Tracer

    workload = workloads.WORKLOADS[args.workload](args.seed)
    t_first = time.monotonic()
    out = {"setup_wall_s": t_first - args.spawned_at}
    if args.setup_only:
        probe.stop()
        out["setup_s"] = probe.reference_seconds(args.spawned_at, t_first)
        print(json.dumps(out))
        return 0

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(layers.targets())
    t_start = time.monotonic()
    try:
        results = run_instances(workload, tracer, layers, workloads.ex)
    finally:
        t_end = time.monotonic()
        probe.stop()
        if tracer:
            tracer.restore()
    out["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out["setup_s"] = probe.reference_seconds(args.spawned_at, t_first)
    out["run_s"] = probe.reference_seconds(t_start, t_end)
    out["run_wall_s"] = t_end - t_start
    out["slowdown"] = probe.slowdown()

    out["instances"] = {}
    for label, (result, error) in results.items():
        entry = {"error": error, "canon": None, "problems": []}
        if result is not None:
            entry["canon"] = workload.canon(label, result)
            if args.check == "full":
                entry["problems"] = gate(workload, label, result, args.seed,
                                         workloads)
        out["instances"][label] = entry
    if tracer:
        out["trace"] = {"counts": layers.counts(tracer),
                        "self_s": layers.self_times(tracer)}
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.dump(os.path.join(
            out_dir, f"{args.workload}-seed{args.seed}.spans.jsonl"))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
