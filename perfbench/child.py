"""One workload run in a fresh interpreter; prints one JSON record.

    python3 perfbench/child.py --workload NAME --seed N --mode setup|run|trace

``setup`` stops after importing liering and generating the inputs.
``run`` also times the items and checks the outputs.  ``trace`` does the
same with every traced function wrapped, adds per-layer metrics and writes
the spans to ``perfbench/out/``.  The package is imported from ``src/``
next to this directory, never from an installed copy.

Set-up, and in ``run`` mode the items, are timed with
:class:`speed.Sampler`: ``setup_s``, ``wall_s`` and ``item_s`` are times at
the reference host speed, and the ``*_raw_s`` fields are the plain times
outside the probes.  Traced items are timed plainly.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from time import perf_counter

import spans
import speed

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")


def timed(sampler: speed.Sampler, name: str, begin: float, end: float) -> dict:
    """``<name>_s`` at the reference speed and ``<name>_raw_s`` as measured."""
    raw, scaled = sampler.time(begin, end)
    return {f"{name}_s": scaled, f"{name}_raw_s": raw}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC)
    sampler = speed.Sampler()
    sampler.start()
    start = perf_counter()
    import liering
    import workloads
    workload = workloads.WORKLOADS[args.workload]
    jobs = workload.items(args.seed, False)
    setup_end = perf_counter()
    if args.mode != "run":
        sampler.stop()
    if not os.path.abspath(liering.__file__).startswith(SRC + os.sep):
        print(f"liering was imported from {liering.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.mode == "setup":
        print(json.dumps(timed(sampler, "setup", start, setup_end)))
        return 0

    tracer = spans.Tracer(args.workload) if args.mode == "trace" else None
    if tracer:
        tracer.install()
    outputs, stamps = [], []
    for label, job in jobs:
        if tracer:
            tracer.item = label
        t = perf_counter()
        outputs.append(workload.do(job))
        stamps.append((t, perf_counter()))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        item_s = [end - begin for begin, end in stamps]
        record = {"wall_raw_s": stamps[-1][1] - stamps[0][0]}
    else:
        sampler.stop()
        item_s = [sampler.time(begin, end)[1] for begin, end in stamps]
        record = timed(sampler, "wall", stamps[0][0], stamps[-1][1])
    record.update(timed(sampler, "setup", start, setup_end), probes=len(sampler.probes))
    if tracer:
        tracer.uninstall()
        record["layers"] = tracer.layer_metrics(record["wall_raw_s"])
        record["caches"] = spans.cache_entries()
        out_dir = os.path.join(BENCH, "out")
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.json"), "w",
                  encoding="utf-8") as handle:
            json.dump(tracer.spans, handle)

    attempted, failed, failures = workloads.evaluate(workload, args.seed, jobs, outputs)
    record.update(
        peak_rss_mb=peak_rss_mb,
        item_s=item_s,
        items=len(jobs),
        attempted=attempted,
        failed=failed,
        failures=failures[:20],
        sizes=workload.sizes(jobs, outputs),
    )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
