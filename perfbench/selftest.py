"""Tiny-size self-test of the benchmark's correctness gate.

    python3 perfbench/selftest.py

Runs each workload at tiny size (balanced on (3,3) and (4,4), thin up to
m = 6, 20 expressions) in this process.  It shows that every check passes
and every negative control is caught on the program's real output, and
that each kind of corrupted output below is reported as a failure, which
makes ``fail_frac`` positive.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import os
import random
import sys
from dataclasses import replace

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from liering.families import PartialSumIdentity  # noqa: E402
from liering.zlinalg import KernelLattice  # noqa: E402

import workloads  # noqa: E402

SEED = 1


def _edit_stdout(out, edit):
    rc, stdout, report = out
    data = json.loads(stdout)
    edit(data)
    return rc, json.dumps(data, indent=2) + "\n", report


def _bump_first(vector):
    j = next(i for i, v in enumerate(vector) if int(v))
    return [*vector[:j], str(int(vector[j]) + 1), *vector[j + 1:]]


def _balanced_corruptions(outputs):
    last = len(outputs) - 1
    rc, stdout, report = outputs[last]
    return {
        "kernel vector changed": (last, _edit_stdout(
            outputs[last], lambda d: d["basis"].__setitem__(0, _bump_first(d["basis"][0])))),
        "certificate flag cleared": (last, _edit_stdout(
            outputs[last], lambda d: d["certificates"][0].__setitem__("verified", False))),
        "basis vector dropped": (last, _edit_stdout(outputs[last], lambda d: d["basis"].pop())),
        "not surjective": (last, (rc, stdout, replace(report, rank=report.rank - 1))),
        "exit code 1": (last, (1, stdout, report)),
        "stdout truncated": (last, (rc, stdout[:100], report)),
    }


def _thin_corruptions(jobs, outputs, rng):
    kinds = [job[0] for _, job in jobs]
    s = next(i for i, (_, job) in enumerate(jobs) if job[0] == "slice" and outputs[i][1].rank)
    pm, lattice, report = outputs[s]
    bumped = tuple(int(v) for v in _bump_first(list(lattice.basis[0])))
    i33 = kinds.index("i33")
    cert, sums, member, oracle_report = outputs[i33]
    first = sums[0]
    broken = PartialSumIdentity(first.n, first.k, first.left,
                                first.right + workloads.random_term(first.right.bidegree, rng))
    rw = kinds.index("rewrite")
    grid = dict(outputs[rw])
    key = next(iter(grid))
    grid[key] = grid[key] + workloads.random_term(grid[key].bidegree, rng)
    return {
        "kernel vector changed": (s, (pm, KernelLattice(
            lattice.ambient, (bumped, *lattice.basis[1:])), report)),
        "kernel rank dropped": (s, (pm, KernelLattice(lattice.ambient, lattice.basis[:-1]), report)),
        "partial sum broken": (i33, (cert, [broken, *sums[1:]], member, oracle_report)),
        "membership not a generator": (i33, (cert, sums, replace(member, generator=False),
                                             oracle_report)),
        "oracle verdict fail": (i33, (cert, sums, member, replace(oracle_report, verdict="fail"))),
        "rewrite changed": (rw, grid),
    }


def _normalize_corruptions(outputs, rng):
    i = next(i for i, out in enumerate(outputs) if not out.is_zero())
    return {
        "coefficient changed": (i, outputs[i] + workloads.random_term(outputs[i].bidegree, rng)),
        "sign flipped": (i, -outputs[i]),
    }


def main() -> int:
    ok = True
    for name, workload in workloads.WORKLOADS.items():
        rng = random.Random(SEED)
        jobs = workload.items(SEED, True)
        outputs = [workload.do(job) for _, job in jobs]
        attempted, failed, failures = workloads.evaluate(workload, SEED, jobs, outputs)
        clean = failed == 0
        ok &= clean
        print(f"{name}: real output, fail_frac {failed}/{attempted}"
              f" {'ok' if clean else 'FAILED: ' + '; '.join(failures)}")
        if name == "balanced":
            corruptions = _balanced_corruptions(outputs)
        elif name == "thin":
            corruptions = _thin_corruptions(jobs, outputs, rng)
        else:
            corruptions = _normalize_corruptions(outputs, rng)
        for label, (index, bad) in corruptions.items():
            corrupted = list(outputs)
            corrupted[index] = bad
            attempted, failed, failures = workloads.evaluate(workload, SEED, jobs, corrupted)
            caught = failed > 0
            ok &= caught
            print(f"  {label}: fail_frac {failed}/{attempted}"
                  f" {'caught: ' + '; '.join(failures) if caught else 'NOT CAUGHT'}")
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
