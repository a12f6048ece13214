"""Compare two checkouts on the perfbench workloads and write a BENCH record.

    python3 tools/bench_pairs.py --base DIR --change DIR --seconds 40 \
        --seed 1400 --out BENCH_<n>.json

For every workload that the base checkout's ``BENCHMARK.json`` names, each
of PAIRS pairs runs ``perfbench/run.py`` once in the base checkout and once
in the change checkout, alternating which goes first, with the same seed;
pair i uses seed ``--seed + i``.  The record
holds, for every workload and every end-to-end metric, the per-pair values,
the median and quartiles of each side, and in how many pairs the change was
lower.  Each side runs its own ``perfbench/`` and reads its own
``BENCHMARK.json``.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

PAIRS = 10


def workload_names(root: str) -> list[str]:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        return [w["name"] for w in json.load(handle)["workloads"]]


def run_once(root: str, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{root} {workload} seed {seed}: incorrect run {result}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    record = {"pairs": PAIRS, "seconds": args.seconds, "first_seed": args.seed,
              "python": platform.python_version(), "nproc": os.cpu_count(), "workloads": {}}
    for workload in workload_names(args.base):
        sides: dict[str, list[dict]] = {"base": [], "change": []}
        for i in range(PAIRS):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                root = args.base if side == "base" else args.change
                sides[side].append(run_once(root, workload, args.seed + i, args.seconds))
            print(workload, i, {s: sides[s][-1]["wall_s"] for s in sides}, file=sys.stderr)
        metrics = {}
        for name in sides["base"][0]:
            base = [r[name] for r in sides["base"]]
            change = [r[name] for r in sides["change"]]
            metrics[name] = {"base": summary(base), "change": summary(change),
                             "change_lower_in": sum(c < b for b, c in zip(base, change)),
                             "base_values": base, "change_values": change}
        record["workloads"][workload] = metrics
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
