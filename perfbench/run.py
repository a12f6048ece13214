"""Benchmark of liering: three workloads run in fresh interpreters.

    python3 perfbench/run.py --workload balanced|thin|normalize --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; the package is imported from
``src/``.  Each workload run starts a fresh interpreter, because the
package's unbounded ``lru_cache``s would make a repeated run in one process
nearly free, and a command-line user pays cold caches on every call.  Load
is a closed loop with one client: one child process at a time, items in a
fixed order, no threads.

A run first starts one untimed child to byte-compile the package, then
``SETUP_SAMPLES`` children that only set up (import plus input generation),
then full runs until the next one would end past ``--seconds``, with at
least ``MIN_RUNS``.  With ``--trace 1`` every round is one untraced and one
traced child, and the per-layer metrics come from the traced ones.

The second-to-last stdout line is a JSON record with the per-child values,
Python version, ``nproc`` and load average; the last line is the result
``{"correct", "attempted", "failed", "metrics"}`` with the metrics that
``BENCHMARK.json`` lists for the mode.  Values are medians over children;
item latencies are percentiles over items of each item's median latency.
Times of untraced children are rescaled to a reference host speed by
``speed.Sampler``; see ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("balanced", "thin", "normalize")
SETUP_SAMPLES = 5
MIN_RUNS = 2
DEADLINE_S = 170  # a run must end within 180 s, children included


class ChildError(RuntimeError):
    pass


def run_child(workload: str, seed: int, mode: str, deadline: float) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    # Import from this checkout's sources, with bytecode cached as an
    # installed package would have it, whatever the caller's environment.
    env.pop("PYTHONPATH", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    cmd = [sys.executable, os.path.join(BENCH, "child.py"),
           "--workload", workload, "--seed", str(seed), "--mode", mode]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired as exc:
        raise ChildError(f"{mode} child did not finish within {DEADLINE_S} s of the start") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise ChildError(f"{mode} child exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def median_of(records: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in records)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "liering", "__init__.py")):
        print(f"no liering sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)

    begin = perf_counter()
    deadline = begin + DEADLINE_S
    load_start = os.getloadavg()
    run_child(args.workload, args.seed, "setup", deadline)  # byte-compiles; not timed
    setups = [run_child(args.workload, args.seed, "setup", deadline)
              for _ in range(SETUP_SAMPLES)]
    modes = ("run", "trace") if args.trace else ("run",)
    min_rounds = 1 if args.trace else MIN_RUNS
    runs: list[dict] = []
    traced: list[dict] = []
    rounds = 0
    while True:
        round_start = perf_counter()
        for mode in modes:
            (traced if mode == "trace" else runs).append(
                run_child(args.workload, args.seed, mode, deadline))
        rounds += 1
        round_s = perf_counter() - round_start
        if rounds >= min_rounds and perf_counter() - begin + round_s > args.seconds:
            break

    children = runs + traced
    attempted = sum(r["attempted"] for r in children)
    failed = sum(r["failed"] for r in children)
    # Per-item latency is each item's median over the children; the
    # percentiles are taken over items, so they do not depend on how many
    # children fitted in the run.
    item_s = [statistics.median(times) for times in zip(*(r["item_s"] for r in runs))]
    values: dict[str, float] = {
        "wall_s": median_of(runs, "wall_s"),
        "setup_s": median_of(setups + children, "setup_s"),
        "peak_rss_mb": median_of(runs, "peak_rss_mb"),
        "item_p50_ms": statistics.median(item_s) * 1e3,
        "item_p99_ms": percentile(item_s, 0.99) * 1e3,
    }
    if traced:
        for key in (*traced[0]["layers"], *traced[0]["sizes"], *traced[0]["caches"]):
            values[key] = statistics.median(
                {**r["layers"], **r["sizes"], **r["caches"]}.get(key, 0) for r in traced)
        values["trace.overhead_frac"] = (median_of(traced, "wall_raw_s")
                                         / median_of(runs, "wall_raw_s") - 1)
    metrics = {}
    for metric in spec["per_layer" if args.trace else "end_to_end"]:
        # A layer metric whose function or cache no longer exists reads 0.
        metrics[metric["name"]] = {"value": values.get(metric["name"], 0),
                                   "unit": metric["unit"]}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "elapsed_s": perf_counter() - begin,
        "items_per_child": runs[0]["items"],
        "setup_samples": [r["setup_s"] for r in setups + children],
        "item_samples": len(item_s),
        "children": [{k: v for k, v in r.items() if k not in ("layers", "caches", "item_s")}
                     for r in children],
    }
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
