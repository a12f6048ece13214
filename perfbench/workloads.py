"""The benchmark's workloads: generated inputs, timed items, checks, controls.

Every workload is a list of items ``(label, job)`` generated from the seed.
``do(job)`` is the timed part and calls only liering's public API.
``check(job, output, ref)`` returns failure messages; it runs after the
timed region and relies on the closed forms in ``liering.dims``, the
digests below and the reference code in ``checks.py``.
``control(seed, jobs, outputs, ref)`` runs negative controls: corrupted
outputs that the checks, ``verify_certificate`` and ``oracle_check`` must
reject.  It returns ``(name, caught)`` pairs; an uncaught control counts as
a failure, so a check that passes vacuously shows up.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stdout
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import liering
from liering import algebra, cli, dims, families, kernels, oracle

import checks

# ---------------------------------------------------------------------------
# balanced: `liering kernel K L --certify` on the balanced frontier

BALANCED_SLICES = ((6, 6), (6, 7), (7, 7), (7, 8))
TINY_BALANCED_SLICES = ((3, 3), (4, 4))

# SHA-256 of the stdout of `liering kernel K L --certify`, recorded at the
# commit that introduced the benchmark.  Any change to a printed number or
# to the formatting breaks the match.
CLI_DIGESTS = {
    (3, 3): "924829ad6265abf2b6a927eece0ac8194989a2a0877bd61bad2bb913e5725551",
    (4, 4): "877fdcdfd01be464e795c7540a83a7c90fe43a71e4e494c3d54eb981793d355d",
    (6, 6): "6dc40783bd851c06ed72ae39db3d894fba035de99ba4b740b5a311bb61cf12fa",
    (6, 7): "893852d956bd9bed731f764ef4628568a3eade8b46cec05e596c9e21e1711fb7",
    (7, 7): "721c2a902dac582fe0c39bc493ee644caf7ef13bf9002b0358c2f856a197389b",
    (7, 8): "3960f87519d73ba253f9d42806c10cd813f6cf709b043e945a2d33bf9734d40c",
}


def balanced_items(seed: int, tiny: bool) -> list:
    slices = TINY_BALANCED_SLICES if tiny else BALANCED_SLICES
    return [(f"kernel {k} {l}", (k, l)) for k, l in slices]


def balanced_do(job):
    k, l = job
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = cli.main(["kernel", str(k), str(l), "--certify"])
    return rc, buf.getvalue(), kernels.check_surjective(k, l)


def balanced_check(job, output, ref) -> list[str]:
    k, l = job
    rc, stdout, report = output
    fails = []
    if rc != 0:
        fails.append(f"exit code {rc}")
    if hashlib.sha256(stdout.encode("utf-8")).hexdigest() != CLI_DIGESTS[job]:
        fails.append("stdout digest differs from the recorded one")
    try:
        data = json.loads(stdout)
        basis = [[int(v) for v in vector] for vector in data["basis"]]
        verified = [cert["verified"] for cert in data["certificates"]]
    except (ValueError, KeyError, TypeError) as exc:
        return fails + [f"malformed stdout: {exc!r}"]
    expected = dims.kernel_dim_bigraded(k, l)
    if data["rank"] != expected or len(basis) != expected:
        fails.append(f"rank {data['rank']} with {len(basis)} vectors, closed form {expected}")
    rows = checks.sparse_rows(kernels.pair_matrix(k, l).matrix.entries)
    if not all(checks.annihilates(rows, vector) for vector in basis):
        fails.append("a basis vector does not annihilate the pair matrix")
    if len(verified) != expected or not all(flag is True for flag in verified):
        fails.append("certificates missing or not verified")
    if not report.surjective:
        fails.append("pair map reported not surjective")
    return fails


def balanced_control(seed: int, jobs, outputs, ref) -> list[tuple[str, bool]]:
    rng = random.Random(seed)
    k, l = rng.choice([job for _, job in jobs])
    cert = rng.choice(kernels.kernel_certificates(k, l))
    return _certificate_control(cert, rng)


def balanced_sizes(jobs, outputs) -> dict:
    sizes = _empty_sizes()
    for (_, (k, l)), (_, stdout, _) in zip(jobs, outputs):
        _add_matrix(sizes, kernels.pair_matrix(k, l).matrix)
        data = json.loads(stdout)
        sizes["zlinalg.kernel_max_bits"] = max(
            sizes["zlinalg.kernel_max_bits"],
            checks.max_bits(int(v) for vector in data["basis"] for v in vector))
        sizes["kernels.cert_max_bits"] = max(
            sizes["kernels.cert_max_bits"],
            checks.max_bits(int(c) for cert in data["certificates"]
                            for side in ("A", "B") for c, _ in cert[side]))
    return sizes


# ---------------------------------------------------------------------------
# thin: (3, m) slices, the i33 family and the [C_k,C_l,C_m,b] rewriter


def thin_items(seed: int, tiny: bool) -> list:
    m_max, n_max, k_max = (6, 2, 3) if tiny else (30, 10, 8)
    rng = random.Random(seed)
    items = [(f"slice 3 {m}", ("slice", m)) for m in range(1, m_max + 1)]
    items += [(f"i33 {n}", ("i33", n, rng.randrange(1 << 31))) for n in range(1, n_max + 1)]
    items += [(f"rewrite {k}", ("rewrite", k)) for k in range(1, k_max + 1)]
    return items


def thin_do(job):
    kind = job[0]
    if kind == "slice":
        m = job[1]
        return (kernels.pair_matrix(3, m), kernels.kernel_lattice(3, m),
                kernels.check_surjective(3, m))
    if kind == "i33":
        _, n, oracle_seed = job
        cert = families.i33_certificate(n)
        sums = [families.partial_sums(n, k) for k in range(1, n + 1)]
        return (cert, sums, kernels.lattice_membership(cert),
                oracle.oracle_check(cert, trials=50, dim=4, seed=oracle_seed))
    k = job[1]
    return {(l, m): families.append_b_rewrite(k, l, m) for l in range(k) for m in range(k + 1)}


def thin_check(job, output, ref) -> list[str]:
    kind = job[0]
    fails = []
    if kind == "slice":
        m = job[1]
        pm, lattice, report = output
        expected = dims.kernel_dim_a3(m)
        if lattice.rank != expected:
            fails.append(f"kernel rank {lattice.rank}, closed form {expected}")
        rows = checks.sparse_rows(pm.matrix.entries)
        if not all(checks.annihilates(rows, vector) for vector in lattice.basis):
            fails.append("a basis vector does not annihilate the pair matrix")
        if not report.surjective:
            fails.append("pair map reported not surjective")
    elif kind == "i33":
        n = job[1]
        cert, sums, member, report = output
        if not cert.verified:
            fails.append("certificate not verified")
        if len(sums) != n or not all(s.holds for s in sums):
            fails.append("a partial-sum identity does not hold")
        if not member.member or (n <= 2 and member.generator is not True):
            fails.append(f"membership failed: {member}")
        if not report.passed or report.trials != 50:
            fails.append(f"oracle verdict {report.verdict} after {report.trials} trials")
    else:
        k = job[1]
        expected_keys = {(l, m) for l in range(k) for m in range(k + 1)}
        if set(output) != expected_keys:
            fails.append("rewrite grid incomplete")
        for (l, m), value in output.items():
            direct = algebra.normalize(algebra.left_normed(
                algebra.engel_expr(k), algebra.engel_expr(l), algebra.engel_expr(m), "b"))
            if value != direct:
                fails.append(f"rewrite ({k},{l},{m}) differs from normalize")
    return fails


def thin_control(seed: int, jobs, outputs, ref) -> list[tuple[str, bool]]:
    rng = random.Random(seed)
    certs = [out[0] for (_, job), out in zip(jobs, outputs) if job[0] == "i33"]
    return _certificate_control(rng.choice(certs), rng)


def thin_sizes(jobs, outputs) -> dict:
    sizes = _empty_sizes()
    for (_, job), out in zip(jobs, outputs):
        if job[0] == "slice":
            pm, lattice, _ = out
            _add_matrix(sizes, pm.matrix)
            sizes["zlinalg.kernel_max_bits"] = max(
                sizes["zlinalg.kernel_max_bits"],
                checks.max_bits(v for vector in lattice.basis for v in vector))
        elif job[0] == "i33":
            cert, _, _, report = out
            sizes["kernels.cert_max_bits"] = max(
                sizes["kernels.cert_max_bits"],
                checks.max_bits([*cert.A.coeffs.values(), *cert.B.coeffs.values()]))
            sizes["oracle.trials"] += report.trials if report.passed else report.failed_trial + 1
    return sizes


# ---------------------------------------------------------------------------
# normalize: random bracket-expression strings, parsed and normalized

NORMALIZE_ITEMS = 2000
TINY_NORMALIZE_ITEMS = 20
WEIGHTS = (8, 14)
COEFFICIENTS = (-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)


def _random_tree(rng: random.Random, k: int, l: int):
    """A random bracket tree with k a's and l b's.

    Every inner subtree holds both letters, since a bracket of one letter
    with itself is zero; identical siblings are redrawn for the same reason.
    """
    if k + l == 1:
        return "a" if k else "b"
    splits = _splits(k, l)
    for _ in range(8):
        i, j = rng.choice(splits)
        left, right = _random_tree(rng, i, j), _random_tree(rng, k - i, l - j)
        if left != right:
            break
    return left, right


@lru_cache(maxsize=None)
def _splits(k: int, l: int) -> tuple[tuple[int, int], ...]:
    return tuple((i, j) for i in range(k + 1) for j in range(l + 1)
                 if _splittable(i, j) and _splittable(k - i, l - j))


def _splittable(k: int, l: int) -> bool:
    return k + l == 1 or (k > 0 and l > 0)


def _render(tree, rng: random.Random) -> str:
    if isinstance(tree, str):
        return tree
    if rng.random() < 0.5:
        return f"[{_render(tree[0], rng)},{_render(tree[1], rng)}]"
    # Left-normed sugar: [[x,y],z] written as [x,y,z].
    spine = []
    while isinstance(tree, tuple):
        spine.append(tree[1])
        tree = tree[0]
    spine.append(tree)
    return "[" + ",".join(_render(t, rng) for t in reversed(spine)) + "]"


def _render_sum(terms, rng: random.Random) -> str:
    text = ""
    for c, tree in terms:
        sign = "-" if c < 0 else "+"
        scale = "" if abs(c) == 1 else f"{abs(c)}*"
        text += f"{sign}{scale}{_render(tree, rng)}" if not text else f" {sign} {scale}{_render(tree, rng)}"
    return text.lstrip("+")


def normalize_items(seed: int, tiny: bool) -> list:
    # Every bidegree and term count occurs equally often for every seed.
    # The first pass meets each bidegree once, in ascending weight, and is
    # the same for every seed: it builds the cold reduction contexts, whose
    # items make most of the latency tail, so p99 does not jump with the
    # trees the seed draws there.  The rest comes in seeded order, and seeds
    # differ in its tree shapes, coefficients and order.
    bidegrees = [(k, weight - k) for weight in range(WEIGHTS[0], WEIGHTS[1] + 1)
                 for k in range(1, weight)]
    count = TINY_NORMALIZE_ITEMS if tiny else NORMALIZE_ITEMS
    shapes = [(bidegrees[i % len(bidegrees)], 1 + (i // len(bidegrees)) % 4) for i in range(count)]
    rng = random.Random(seed)
    rest = shapes[len(bidegrees):]
    rng.shuffle(rest)
    shapes[len(bidegrees):] = rest
    first = random.Random(0)
    items = []
    for i, ((k, l), n_terms) in enumerate(shapes):
        draw = first if i < len(bidegrees) else rng
        terms = [(draw.choice(COEFFICIENTS), _random_tree(draw, k, l)) for _ in range(n_terms)]
        items.append((f"expr {i}", (_render_sum(terms, draw), terms)))
    return items


def normalize_do(job):
    text, _ = job
    return algebra.normalize(algebra.parse_expr(text))


def normalize_check(job, output, ref) -> list[str]:
    _, terms = job
    if ref.combination(terms) != ref.lyndon_combination(output.coeffs):
        return ["expansion of the result differs from the expansion of the expression"]
    return []


def normalize_control(seed: int, jobs, outputs, ref) -> list[tuple[str, bool]]:
    rng = random.Random(seed)
    index = rng.choice([i for i, out in enumerate(outputs) if not out.is_zero()])
    bad = outputs[index] + random_term(outputs[index].bidegree, rng)
    caught = bool(normalize_check(jobs[index][1], bad, ref))
    cert = families.i2_certificate(rng.choice((2, 4, 6, 8, 10)))
    return [("expander rejects a corrupted result", caught)] + _certificate_control(cert, rng)


# ---------------------------------------------------------------------------
# shared helpers

SIZE_KEYS = ("kernels.rows", "kernels.cols", "kernels.nnz", "zlinalg.kernel_max_bits",
             "kernels.cert_max_bits", "oracle.trials")


def _empty_sizes() -> dict:
    return dict.fromkeys(SIZE_KEYS, 0)


def _add_matrix(sizes: dict, matrix) -> None:
    sizes["kernels.rows"] += matrix.rows
    sizes["kernels.cols"] += matrix.cols
    sizes["kernels.nnz"] += sum(1 for row in matrix.entries for v in row if v)


def random_term(bidegree, rng: random.Random):
    word = rng.choice(liering.lyndon_words(*bidegree))
    return algebra.LieElement(bidegree, {word: rng.choice((-2, -1, 1, 2))})


def _certificate_control(cert, rng: random.Random) -> list[tuple[str, bool]]:
    """Corrupt one coefficient of a valid certificate; both checkers must object."""
    k, l = cert.k, cert.l
    if rng.random() < 0.5:
        bad = kernels.IdentityCertificate(k, l, cert.A + random_term((k - 1, l), rng), cert.B,
                                          source="corrupted")
    else:
        bad = kernels.IdentityCertificate(k, l, cert.A, cert.B + random_term((k, l - 1), rng),
                                          source="corrupted")
    refuted = not oracle.oracle_check(bad, trials=50, dim=4, seed=rng.randrange(1 << 31)).passed
    return [("verify_certificate rejects a corrupted certificate", not kernels.verify_certificate(bad)),
            ("oracle_check refutes a corrupted certificate", refuted)]


@dataclass(frozen=True)
class Workload:
    items: Callable
    do: Callable
    check: Callable
    control: Callable
    sizes: Callable = lambda jobs, outputs: _empty_sizes()


def _checked(label: str, check, *args) -> list[str]:
    # A corrupted output may break a check midway; that is a failure too.
    try:
        return [f"{label}: {msg}" for msg in check(*args)]
    except Exception as exc:  # noqa: BLE001 - every check must report
        return [f"{label}: check raised {exc!r}"]


def evaluate(workload: Workload, seed: int, jobs, outputs) -> tuple[int, int, list[str]]:
    """Check every item and run the negative controls.

    Returns (attempted, failed, failure messages).  An item fails when any
    of its checks does; a control fails when the corruption is not caught.
    """
    ref = checks.Expander()
    failures: list[str] = []
    failed = 0
    for (label, job), output in zip(jobs, outputs):
        messages = _checked(label, workload.check, job, output, ref)
        failures += messages
        failed += bool(messages)
    try:
        controls = workload.control(seed, jobs, outputs, ref)
    except Exception as exc:  # noqa: BLE001 - a broken control is a failed one
        controls = [(f"control raised {exc!r}", False)]
    for name, caught in controls:
        if not caught:
            failures.append(f"negative control not caught: {name}")
            failed += 1
    return len(jobs) + len(controls), failed, failures


WORKLOADS = {
    "balanced": Workload(balanced_items, balanced_do, balanced_check, balanced_control,
                         balanced_sizes),
    "thin": Workload(thin_items, thin_do, thin_check, thin_control, thin_sizes),
    "normalize": Workload(normalize_items, normalize_do, normalize_check, normalize_control),
}
