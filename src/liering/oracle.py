"""Matrix-evaluation oracle for identity certificates.

Substituting concrete integer matrices for the letters turns any bracket
expression into an exact matrix (brackets become XY - YX).  A correct
certificate must evaluate to the zero matrix under every assignment, so a
single nonzero evaluation disproves it; passing trials are supporting
evidence only, never a proof, and the reports say so.

A certificate is compiled once into a plan: its distinct subtrees numbered
in post-order (a = 0, b = 1) as steps (left, right), and each sum a list of
(node, coeff).  A trial keeps each d x d node value as entry rows and as
row-packed integers, row i packed as sum_j x_ij 2^(S j); by linearity row i
of [X, Y] packs to sum_j (x_ij Y_j - y_ij X_j), 2d products, and a sum adds
packed rows.  S is fixed per trial from bounds on the entries (the leaves'
largest, 2d |X| |Y| for [X, Y], sum |c| |X| for a sum), so every slot
unpacks exactly.  Under a modulus, a step that later steps read is reduced
once its bound reaches the modulus, its bound restarting at modulus - 1,
and the sums at the end: reduction is a ring map, so residues are unchanged.

All randomness is drawn from explicit seeds and every assignment records
the seed that produced it, so counterexamples replay exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields
from operator import mul

from .algebra import LieElement, as_expr
from .kernels import IdentityCertificate
from .words import Leaf, lyndon_bracket

Matrix = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class MatrixAssignment:
    """Concrete d x d integer matrices for the letters a and b.

    Both are checked to be ``dim`` x ``dim``: the evaluation zips rows, so
    a wider or shorter matrix would be cut to fit, not refused.
    """

    dim: int
    a_matrix: Matrix
    b_matrix: Matrix
    seed: int | None = None

    def __post_init__(self):
        dim = self.dim
        if not isinstance(dim, int) or dim < 1:
            raise ValueError(f"dimension must be positive, got {dim}")
        for m in (self.a_matrix, self.b_matrix):
            if len(m) != dim or any(len(row) != dim or not all(isinstance(v, int) for v in row)
                                    for row in m):
                raise ValueError(f"letter matrices must be {dim} x {dim} integer matrices")


LOW, HIGH = -3, 3

# The most work oracle_check takes on, counted as trials * (dim + 4)**3: a
# commutator costs 2 dim**2 products of packed rows, and the + 4 covers the
# sums and the walk over the plan at small dim.  On i33's (3, 3) certificate a
# step took 0.6 us at dim 2 to 0.13 us at dim 120 (CPython 3.11, shared 2-core
# VM), 1.3-6 s at the limit.  A heavier certificate costs more: one trial on
# i2's of weight 256 took 4.5 s at dim 100 and 39 s at dim 211 modulo 101,
# and exact, whose slots grow with the weight, 6.7 s at dim 20.
# The default of 50 trials at dim 4 is 25600.
MAX_WORK = 10**7


def random_assignment(dim: int, seed: int) -> MatrixAssignment:
    """Deterministic assignment with entries uniform in [LOW, HIGH]."""
    rng = random.Random(seed)

    def draw() -> Matrix:
        return tuple(tuple(rng.randint(LOW, HIGH) for _ in range(dim)) for _ in range(dim))

    return MatrixAssignment(dim, draw(), draw(), seed=seed)


def _check_modulus(modulus: int | None) -> None:
    # Modulo 1 every matrix is zero, so a wrong certificate would pass.
    if modulus is not None and modulus < 2:
        raise ValueError(f"modulus must be at least 2, got {modulus}")


def _plan(term_lists) -> tuple[list[tuple[int, int]], list[list[tuple[int, int]]]]:
    """(steps, sums) for lists of (tree, coeff) pairs: node 2 + s is steps[s]."""
    index = {Leaf("a"): 0, Leaf("b"): 1}
    steps, sums = [], []
    for terms in term_lists:
        pairs = []
        for tree, c in terms:
            stack = [tree]  # post-order without recursion, however deep the tree
            while stack:
                node = stack[-1]
                if node in index:
                    stack.pop()
                elif node.left in index and node.right in index:
                    index[stack.pop()] = len(index)
                    steps.append((index[node.left], index[node.right]))
                else:
                    stack += (node.right, node.left)
            pairs.append((index[tree], c))
        sums.append(pairs)
    return steps, sums


def _evaluate(plan, leaves, modulus: int | None = None) -> list[Matrix]:
    """The matrix of every sum of the plan, the first nodes taking the values ``leaves``."""
    steps, sums = plan
    dim = len(leaves[0])
    inner = {n for step in steps for n in step if n >= len(leaves)}  # steps a later step reads

    def bound(n: int) -> int:  # under a modulus, an inner node that may reach it is reduced
        return modulus - 1 if modulus and n in inner and bounds[n] >= modulus else bounds[n]

    bounds = [max(abs(v) for row in m for v in row) for m in leaves]
    for left, right in steps:
        bounds.append(2 * dim * bound(left) * bound(right))
    top = max(bounds + [sum(abs(c) * bound(n) for n, c in pairs) for pairs in sums])
    width = top.bit_length() + 1
    half, mask = 1 << (width - 1), (1 << width) - 1
    shifts = range(0, width * dim, width)
    offset = sum(half << s for s in shifts)  # makes every slot nonnegative

    def unpack(value: int) -> list[int]:
        value += offset
        return [(value >> s & mask) - half for s in shifts]

    rows = list(leaves)
    packed = [[sum(v << s for v, s in zip(row, shifts)) for row in m] for m in leaves]
    for n, (left, right) in enumerate(steps, len(leaves)):
        x, y, xp, yp = rows[left], rows[right], packed[left], packed[right]
        p = [sum(map(mul, xi, yp)) - sum(map(mul, yi, xp)) for xi, yi in zip(x, y)]
        rows.append([unpack(v) for v in p] if n in inner else None)
        if bound(n) < bounds[n]:  # reduce, then repack at the same width
            rows[n] = [[v % modulus for v in row] for row in rows[n]]
            p = [sum(v << s for v, s in zip(row, shifts)) for row in rows[n]]
        packed.append(p)
    return [tuple(tuple(v % modulus if modulus else v for v in unpack(r))
                  for r in (sum(c * packed[n][i] for n, c in pairs) for i in range(dim)))
            for pairs in sums]


def _evaluate_terms(terms, assignment: MatrixAssignment, modulus: int | None) -> Matrix:
    _check_modulus(modulus)
    return _evaluate(_plan([terms]), [assignment.a_matrix, assignment.b_matrix], modulus)[0]


def evaluate_expr(expr, assignment: MatrixAssignment, modulus: int | None = None) -> Matrix:
    """Evaluate a bracket expression to an exact integer matrix, mod ``modulus`` (>= 2) if given."""
    return _evaluate_terms(as_expr(expr).terms.items(), assignment, modulus)


def _element_terms(x: LieElement):
    return ((lyndon_bracket(word), c) for word, c in x.coeffs.items())


def evaluate_element(x: LieElement, assignment: MatrixAssignment, modulus: int | None = None) -> Matrix:
    """Evaluate basis coordinates through the standard bracketing, mod ``modulus`` (>= 2) if given."""
    return _evaluate_terms(_element_terms(x), assignment, modulus)


# [A, a] + [B, b] on the leaves a, b, A, B.
_OUTER = ([(2, 0), (3, 1)], [[(4, 1), (5, 1)]])


def _certificate_value(plan, assignment: MatrixAssignment, modulus: int | None) -> Matrix:
    leaves = [assignment.a_matrix, assignment.b_matrix]
    return _evaluate(_OUTER, leaves + _evaluate(plan, leaves, modulus), modulus)[0]


def evaluate_certificate(cert: IdentityCertificate, assignment: MatrixAssignment,
                         modulus: int | None = None) -> Matrix:
    """The matrix value of [A, a] + [B, b] under the assignment, mod ``modulus`` (>= 2) if given."""
    _check_modulus(modulus)
    plan = _plan([_element_terms(cert.A), _element_terms(cert.B)])
    return _certificate_value(plan, assignment, modulus)


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
    plan = _plan([_element_terms(cert.A), _element_terms(cert.B)])  # A and B share subtrees
    failed_trial = counterexample = None
    for trial in range(trials):
        assignment = random_assignment(dim, _trial_seed(seed, trial))
        if any(map(any, _certificate_value(plan, assignment, modulus))):
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
