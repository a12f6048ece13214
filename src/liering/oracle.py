"""Matrix-evaluation oracle for identity certificates.

Substituting concrete integer matrices for the letters turns any bracket
expression into an exact matrix (brackets become XY - YX).  A correct
certificate must evaluate to the zero matrix under every assignment, so a
single nonzero evaluation disproves it; passing trials are supporting
evidence only, never a proof, and the reports say so.

An expression or a certificate is compiled once into a program of nodes:
the letters (a = 0, b = 1), steps [X, Y] on two earlier nodes, and sums
sum c X.  Each distinct subtree is one step.  Where the top-level brackets
of a sum share a left factor, sum_t c_t [U, V_t] is compiled by bilinearity
as the one step [U, sum_t c_t V_t]; this holds exactly over Z and modulo
any m.  A certificate's [A, a] + [B, b] is two more steps on the sums A
and B and a final sum.

A run keeps every d x d node value as row-packed integers, row i packed as
sum_j x_ij 2^(S j).  By linearity row i of [X, Y] packs to sum_j (x_ij Y_j
- y_ij X_j), 2d products, and a sum adds packed rows, so only the nodes a
step reads, and the final one, are unpacked into entry rows.  Both run in
two straight-line functions compiled once per dimension d from a row
template, as dataclasses builds its methods: ``step`` holds the 2d packed
rows of X and Y in locals and computes each packed row of [X, Y] as one
expression of 2d products, and ``unpack`` cuts each packed row into a tuple
display of d slots.  Their source depends on the int d alone.  A schedule
fixes S from bounds on the entries (the letters' largest, 2d |X| |Y| for
[X, Y], sum |c| |X| for a sum), so every slot unpacks exactly.  Under a
modulus, a step or sum that a step reads is reduced once its bound reaches the
modulus, its bound restarting at modulus - 1, and the final value at the
end: reduction is a ring map, so residues are unchanged.  The evaluators
size the schedule from the entries they are given; oracle_check fixes it
once per certificate from max(|LOW|, |HIGH|), which bounds every drawn
entry, so a trial only packs its two letters and runs the nodes.

All randomness is drawn from explicit seeds and every assignment records
the seed that produced it, so counterexamples replay exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields
from functools import lru_cache, partial
from itertools import islice
from operator import add

from .algebra import as_expr, basis_expansion
from .kernels import IdentityCertificate
from .words import Leaf, Node

Matrix = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class MatrixAssignment:
    """Concrete d x d integer matrices for the letters a and b.

    Both are checked to be ``dim`` x ``dim``: the evaluation zips rows, so
    a wider or shorter matrix would be cut to fit, not refused.  ``dim`` is
    at least 2: 1 x 1 matrices commute, so every bracket would evaluate to 0
    and any certificate would pass.
    """

    dim: int
    a_matrix: Matrix
    b_matrix: Matrix
    seed: int | None = None

    def __post_init__(self):
        dim = self.dim
        if not isinstance(dim, int) or dim < 2:
            raise ValueError(f"dimension must be at least 2, got {dim}")
        for m in (self.a_matrix, self.b_matrix):
            if len(m) != dim or any(len(row) != dim or not all(isinstance(v, int) for v in row)
                                    for row in m):
                raise ValueError(f"letter matrices must be {dim} x {dim} integer matrices")


LOW, HIGH = -3, 3

# The most work oracle_check takes on, counted as trials * (dim + 4)**3: a
# commutator costs 2 dim**2 products of packed rows, and the + 4 covers the
# sums and the walk over the program at small dim.  On i33's (3, 3)
# certificate, with the generated step and unpack, a step took 0.22-0.34 us
# at dim 2, 0.19-0.31 us at dim 4 and 0.10-0.14 us at dim 120 (0.27-0.50,
# 0.24-0.43 and 0.10-0.13 us with a sum(map(mul)) per row; CPython 3.11,
# shared 2-core VM), 1-3.4 s at the limit.  A heavier certificate costs
# more, and there the big products dominate, so the generated code neither
# gains nor loses: one trial on i2's of weight 256 took 2.5-2.9 s at dim 100
# and 21 s at dim 211 modulo 101, and exact, whose slots grow with the
# weight, 4.0-4.2 s at dim 20.
# The default of 50 trials at dim 4 is 25600.
MAX_WORK = 10**7


def random_assignment(dim: int, seed: int) -> MatrixAssignment:
    """Deterministic assignment with entries uniform in [LOW, HIGH].

    Each entry takes the draws ``random.Random(seed).randint(LOW, HIGH)``
    would, without its per-call overhead: ``span.bit_length()`` random
    bits, drawn again while they reach ``span``.  So every seed keeps its
    matrices, and with them its verdicts and counterexamples.
    """
    bits, span = random.Random(seed).getrandbits, HIGH - LOW + 1
    entries = (LOW + r for r in iter(partial(bits, span.bit_length()), None) if r < span)

    def draw() -> Matrix:
        return tuple(tuple(islice(entries, dim)) for _ in range(dim))

    return MatrixAssignment(dim, draw(), draw(), seed=seed)


def _check_modulus(modulus: int | None) -> None:
    if modulus is None:
        return
    if isinstance(modulus, bool) or not isinstance(modulus, int):
        raise ValueError(f"modulus must be an int, got {modulus!r}")
    # Modulo 1 every matrix is zero, so a wrong certificate would pass.
    if modulus < 2:
        raise ValueError(f"modulus must be at least 2, got {modulus}")


class _Program:
    """A sum of trees or a certificate compiled to nodes.

    Nodes 0 and 1 are the letters a and b, node 2 + i is ``ops[i]``, and
    ``out`` is the node whose value the program computes.  A step is
    (left, right), the commutator of two nodes; a sum is (None, (nodes,
    coeffs)).
    """

    def __init__(self):
        self.ops: list[tuple] = []
        self.out = 0
        self._index = {Leaf("a"): 0, Leaf("b"): 1}

    def add(self, first, second) -> int:
        self.ops.append((first, second))
        return len(self.ops) + 1

    def tree(self, tree) -> int:
        """The node of a tree; each distinct subtree is stepped once."""
        index = self._index
        stack = [tree]  # post-order without recursion, however deep the tree
        while stack:
            node = stack[-1]
            if node in index:
                stack.pop()
            elif node.left in index and node.right in index:
                index[stack.pop()] = self.add(index[node.left], index[node.right])
            else:
                stack += (node.right, node.left)
        return index[tree]

    def total(self, terms) -> int:
        """The node of sum c t over (tree, c) pairs; sum_t c_t [U, V_t] is [U, sum_t c_t V_t]."""
        pairs, groups = [], {}
        for t, c in terms:
            if isinstance(t, Node):
                groups.setdefault(t.left, []).append((t, c))
            else:
                pairs.append((self.tree(t), c))
        for left, group in groups.items():
            if len(group) == 1:
                pairs.append((self.tree(group[0][0]), group[0][1]))
            else:
                right = self.combination([(self.tree(t.right), c) for t, c in group])
                pairs.append((self.add(self.tree(left), right), 1))
        return self.combination(pairs)

    def combination(self, pairs: list[tuple[int, int]]) -> int:
        """The node of sum c n over (node, c) pairs."""
        if len(pairs) == 1 and pairs[0][1] == 1:
            return pairs[0][0]
        return self.add(None, tuple(zip(*pairs)) or ((), ()))

    def schedule(self, dim: int, bound: int, modulus: int | None) -> tuple:
        """What every evaluation shares at ``dim`` with letter entries at most ``bound`` in size."""
        read = {n for left, right in self.ops if left is not None for n in (left, right)}
        bounds, plan = [bound, bound], []
        top = bound
        for n, (left, right) in enumerate(self.ops, 2):
            if left is None:
                b = sum(abs(c) * bounds[m] for m, c in zip(*right))
            else:
                b = 2 * dim * bounds[left] * bounds[right]
            top = max(top, b)
            reduced = bool(modulus) and n in read and b >= modulus
            bounds.append(modulus - 1 if reduced else b)
            plan.append((left, right, n in read, reduced))
        width = top.bit_length() + 1
        shifts = range(0, width * dim, width)
        half = 1 << (width - 1)
        offset = sum(half << s for s in shifts)  # makes every slot nonnegative
        return plan, self.out, shifts, ((1 << width) - 1, half, offset), modulus


def _sum(terms: list[str]) -> str:
    """The source of the sum of ``terms``, nested as a balanced tree."""
    # A flat chain of n terms nests n deep, and CPython 3.11 stops compiling
    # one near n = 3000, the 2 dim terms of a step at dim 1500; this nests
    # log2(n) deep.
    if len(terms) == 1:
        return terms[0]
    half = len(terms) // 2
    return f"({_sum(terms[:half])} + {_sum(terms[half:])})"


# One entry per dimension evaluated.  MAX_WORK admits dims 2 to 211 through
# oracle_check, so the oracle stores at most 210; evaluate_expr and
# evaluate_certificate add the dims of the matrices they are handed.  An
# entry's source grows as its dim, the matrices that call for it as dim**2.
@lru_cache(maxsize=None)
def _kernels(dim: int):
    """``step`` and ``unpack`` at ``dim``, compiled from one row template.

    step(X, Y, Xp, Yp) packs [X, Y] from its entry rows X, Y and packed rows
    Xp, Yp: row i is x_i0 Y_0 + ... - y_i0 X_0 - ... with the packed rows as
    locals.  unpack(P, shifts, mask, half, offset) cuts packed rows into
    tuples of entries.  The source depends on the int ``dim`` alone.
    """
    cols = range(dim)

    def names(prefix: str) -> str:
        return "".join(f"{prefix}{j}, " for j in cols)

    source = f"""
def step(X, Y, Xp, Yp):
    {names("X")}= Xp
    {names("Y")}= Yp
    return [{_sum([f"x{j} * Y{j}" for j in cols])} - {_sum([f"y{j} * X{j}" for j in cols])}
            for ({names("x")}), ({names("y")}) in zip(X, Y)]

def unpack(P, shifts, mask, half, offset):
    {names("s")}= shifts
    return [({"".join(f"(v >> s{j} & mask) - half, " for j in cols)}) for u in P for v in (u + offset,)]
"""
    namespace: dict = {}
    exec(source, namespace)
    return namespace["step"], namespace["unpack"]


def _evaluate(schedule: tuple, leaves) -> Matrix:
    """The matrix of the program's ``out`` node, the letters taking the values ``leaves``."""
    plan, out, shifts, cut, modulus = schedule
    step, unpack = _kernels(len(shifts))
    rows = list(leaves)
    packed = [[sum(v << s for v, s in zip(row, shifts)) for row in m] for m in leaves]
    for left, right, unpacked, reduced in plan:
        if left is None:
            p = [0] * len(shifts)
            for m, c in zip(*right):
                p = list(map(add, p, map(c.__mul__, packed[m])))
        else:
            p = step(rows[left], rows[right], packed[left], packed[right])
        r = unpack(p, shifts, *cut) if unpacked else None
        if reduced:  # reduce, then repack at the same width
            r = [[v % modulus for v in row] for row in r]
            p = [sum(v << s for v, s in zip(row, shifts)) for row in r]
        rows.append(r)
        packed.append(p)
    value = unpack(packed[out], shifts, *cut)
    return tuple(tuple(v % modulus for v in row) for row in value) if modulus else tuple(value)


def _certificate_program(cert: IdentityCertificate) -> _Program:
    """[A, a] + [B, b]: a step on each grouped sum and a sum of the two."""
    program = _Program()
    sides = [program.add(program.total(basis_expansion(x).terms.items()), letter)
             for x, letter in ((cert.A, 0), (cert.B, 1))]
    program.out = program.combination([(side, 1) for side in sides])
    return program


def _run(program: _Program, assignment: MatrixAssignment, modulus: int | None) -> Matrix:
    """One evaluation, its slots sized from the entries of this assignment."""
    leaves = assignment.a_matrix, assignment.b_matrix
    bound = max(abs(v) for m in leaves for row in m for v in row)
    return _evaluate(program.schedule(assignment.dim, bound, modulus), leaves)


def evaluate_expr(expr, assignment: MatrixAssignment, modulus: int | None = None) -> Matrix:
    """Evaluate a bracket expression to an exact integer matrix, mod ``modulus`` (>= 2) if given."""
    _check_modulus(modulus)
    program = _Program()
    program.out = program.total(as_expr(expr).terms.items())
    return _run(program, assignment, modulus)


def evaluate_certificate(cert: IdentityCertificate, assignment: MatrixAssignment,
                         modulus: int | None = None) -> Matrix:
    """The matrix value of [A, a] + [B, b] under the assignment, mod ``modulus`` (>= 2) if given."""
    _check_modulus(modulus)
    return _run(_certificate_program(cert), assignment, modulus)


@dataclass(frozen=True)
class OracleReport:
    """Outcome of a batch of evaluation trials for one certificate."""

    certificate: str
    dim: int
    trials: int
    seed: int
    modulus: int | None
    verdict: str  # "pass" or "fail"
    failed_trial: int | None
    note: str
    counterexample: MatrixAssignment | None

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_dict(self) -> dict:
        """Every field in declaration order; a counterexample as its seed and matrices."""
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        if self.counterexample is not None:
            data["counterexample"] = {
                "seed": self.counterexample.seed,
                "a_matrix": [list(r) for r in self.counterexample.a_matrix],
                "b_matrix": [list(r) for r in self.counterexample.b_matrix],
            }
        return data


def _trial_seed(seed: int, trial: int) -> int:
    return (seed << 20) ^ trial


def _certificate_label(cert: IdentityCertificate) -> str:
    return f"({cert.k},{cert.l}):{cert.source}"


def oracle_check(cert: IdentityCertificate, trials: int = 50, dim: int = 4,
                 seed: int = 0, modulus: int | None = None) -> OracleReport:
    """Run evaluation trials in order and report the first counterexample.

    A "fail" verdict is a sound disproof of the certificate; a "pass"
    verdict only says no counterexample appeared among the trials.  More
    than MAX_WORK of trials * (dim + 4)**3 is refused before any trial.
    """
    for name, value in (("trials", trials), ("dim", dim), ("seed", seed)):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"{name} must be an int, got {value!r}")
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    if dim < 2:
        raise ValueError(f"dimension must be at least 2, got {dim}")
    work = trials * (dim + 4)**3
    if work > MAX_WORK:
        raise ValueError(f"trials * (dim + 4)^3 = {work} is past the limit of {MAX_WORK}")
    _check_modulus(modulus)
    note = "passing trials are evidence, not proof"
    if modulus:
        note += f"; evaluated modulo {modulus}, which can mask nonzero integer values"
    # Every drawn entry lies in [LOW, HIGH], so one schedule serves every trial.
    schedule = _certificate_program(cert).schedule(dim, max(-LOW, HIGH), modulus)
    failed_trial = counterexample = None
    for trial in range(trials):
        assignment = random_assignment(dim, _trial_seed(seed, trial))
        if any(map(any, _evaluate(schedule, (assignment.a_matrix, assignment.b_matrix)))):
            failed_trial = trial
            counterexample = assignment
            break
    return OracleReport(
        certificate=_certificate_label(cert),
        dim=dim,
        trials=trials,
        seed=seed,
        modulus=modulus,
        verdict="pass" if failed_trial is None else "fail",
        failed_trial=failed_trial,
        counterexample=counterexample,
        note=note,
    )
