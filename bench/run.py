"""drinfeldlab benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

A closed loop with one client: each pass runs ``bench/worker.py`` in a fresh
interpreter (so module-level caches start empty, as in a command-line run),
waits for it, and starts the next pass only if it is expected to finish
within ``--seconds``.  At least one pass always runs.  The first pass runs
the full correctness gate; every later pass must reproduce its outputs.

With ``--trace 0`` the last line of output reports the end-to-end metrics
(medians over passes): ``setup_s`` (interpreter start to the first pipeline
call, topped up with set-up-only passes to at least MIN_SETUPS samples),
``run_s`` (first pipeline call to the last verdict), both in reference
seconds (bench/hostspeed.py), and ``peak_rss_mb``.
With ``--trace 1`` passes alternate untraced and traced, and the line reports
the per-layer metrics of bench/layers.py.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from worker import WORKLOAD_NAMES

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKER = os.path.join(BENCH, "worker.py")
HARD_LIMIT_S = 170       # every run must end within 180 s
MIN_SETUPS = 5


class BenchError(RuntimeError):
    pass


def spawn(worker_args, deadline):
    """Run one worker pass to completion; returns its decoded JSON line."""
    t_spawn = time.monotonic()
    if deadline - t_spawn <= 0:
        raise BenchError("time limit reached before the pass could start")
    try:
        proc = subprocess.run([sys.executable, WORKER, "--spawned-at",
                               repr(t_spawn)] + worker_args,
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=deadline - t_spawn)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {worker_args} timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {worker_args} failed "
                         f"(exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    data = json.loads(lines[-1])
    data["wall_s"] = time.monotonic() - t_spawn
    if "run_s" in data:
        print(f"pass {' '.join(worker_args[4:])}: run_s={data['run_s']:.4f}"
              f" wall={data['run_wall_s']:.4f}"
              f" slowdown={data['slowdown']:.3f}", file=sys.stderr)
    return data


class Tally:
    """attempted/failed over instance runs; later passes must match the first."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first = {}          # label -> (canon, passed the gate)

    def add(self, data):
        for label, entry in data["instances"].items():
            self.attempted += 1
            if label not in self.first:
                ok = entry["error"] is None and not entry["problems"]
                self.first[label] = (entry["canon"], ok)
                for why in ([entry["error"]] if entry["error"] else []) \
                        + entry["problems"]:
                    print(f"FAILED {label}: {why}", file=sys.stderr)
            else:
                canon, first_ok = self.first[label]
                ok = (first_ok and entry["error"] is None
                      and entry["canon"] == canon)
                if first_ok and not ok:
                    print(f"FAILED {label}: output changed between passes"
                          f" ({entry['error']})", file=sys.stderr)
            self.failed += not ok


def end_to_end(passes, setups):
    return {
        "setup_s": (statistics.median(setups), "s"),
        "run_s": (statistics.median(p["run_s"] for p in passes), "s"),
        "peak_rss_mb": (statistics.median(p["rss_kb"] for p in passes) / 1024,
                        "MB"),
    }


def per_layer(passes, traced):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import layers
    specs = layers.metric_specs()
    counts = traced[0]["trace"]["counts"]
    for other in traced[1:]:
        if other["trace"]["counts"] != counts:
            print("WARNING: per-layer counts differ between traced passes",
                  file=sys.stderr)
    values = dict(counts)
    for name in traced[0]["trace"]["self_s"]:
        values[name] = statistics.median(t["trace"]["self_s"][name]
                                         for t in traced)
    values["trace.overhead_ratio"] = (
        statistics.median(t["run_s"] for t in traced)
        / statistics.median(p["run_s"] for p in passes))
    if set(values) != set(specs):
        raise BenchError("per-layer metrics disagree with bench/layers.py")
    return {name: (values[name], specs[name][0]) for name in specs}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload not in WORKLOAD_NAMES:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(ROOT, "src", "drinfeldlab",
                                       "experiments.py")):
        print("src/drinfeldlab not found next to bench/", file=sys.stderr)
        return 2

    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    tally = Tally()
    passes, traced = [], []
    try:
        while True:
            began = time.monotonic()
            data = spawn(common + ["--check", "none" if passes else "full"],
                         deadline)
            tally.add(data)
            passes.append(data)
            if args.trace:
                data = spawn(common + ["--trace"], deadline)
                tally.add(data)
                traced.append(data)
            step = time.monotonic() - began
            now = time.monotonic()
            if now - start + step > args.seconds or now + step > deadline:
                break
        if args.trace:
            metrics = per_layer(passes, traced)
        else:
            setups = [p["setup_s"] for p in passes]
            while len(setups) < MIN_SETUPS:
                setups.append(spawn(common + ["--setup-only"],
                                    deadline)["setup_s"])
            metrics = end_to_end(passes, setups)
    except BenchError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
