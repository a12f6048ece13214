"""Matrix-evaluation oracle for identity certificates.

Substituting concrete integer matrices for the letters turns any bracket
expression into an exact matrix (brackets become XY - YX).  A correct
certificate must evaluate to the zero matrix under every assignment, so a
single nonzero evaluation disproves it; passing trials are supporting
evidence only, never a proof, and the reports say so.

All randomness is drawn from explicit seeds and every assignment records
the seed that produced it, so counterexamples replay exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .algebra import LieElement, as_expr
from .kernels import IdentityCertificate
from .words import BracketTree, Leaf, lyndon_bracket

Matrix = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class MatrixAssignment:
    """Concrete d x d integer matrices for the letters a and b."""

    dim: int
    a_matrix: Matrix
    b_matrix: Matrix
    seed: int | None = None


LOW, HIGH = -3, 3

# The most work oracle_check takes on, counted as trials * (dim + 4)**3: a
# trial costs dim**3 steps a matrix product, and at small dim the sums and
# the walk over the certificate, which (dim + 4)**3 also covers.  On the
# (3, 3) certificate of i33 one step took 0.4-1.0 us over dims 2 to 120
# (CPython 3.11 on a shared 2-core VM, twice that under load), so the
# limit is 4-20 s of trials, about the 16 s of ``kernel 9 9 --certify``
# on the balanced frontier; a larger certificate costs more a step.
# The default of 50 trials at dim 4 is 25600.
MAX_WORK = 10**7


def random_assignment(dim: int, seed: int) -> MatrixAssignment:
    """Deterministic assignment with entries uniform in [LOW, HIGH]."""
    if dim < 1:
        raise ValueError(f"dimension must be positive, got {dim}")
    rng = random.Random(seed)

    def draw() -> Matrix:
        return tuple(tuple(rng.randint(LOW, HIGH) for _ in range(dim)) for _ in range(dim))

    return MatrixAssignment(dim, draw(), draw(), seed=seed)


def _zero(dim: int) -> list[list[int]]:
    return [[0] * dim for _ in range(dim)]


def _check_modulus(modulus: int | None) -> None:
    # Modulo 1 every matrix is zero, so a wrong certificate would pass.
    if modulus is not None and modulus < 2:
        raise ValueError(f"modulus must be at least 2, got {modulus}")


def _reduced(mat, modulus: int | None):
    """The matrix with entries taken mod ``modulus``; unchanged for None."""
    if modulus is None:
        return mat
    return [[v % modulus for v in row] for row in mat]


def _mul(x, y, dim: int):
    out = _zero(dim)
    for i in range(dim):
        xi = x[i]
        oi = out[i]
        for k in range(dim):
            c = xi[k]
            if c:
                yk = y[k]
                for j in range(dim):
                    oi[j] += c * yk[j]
    return out


def _commutator(x, y, dim: int, modulus: int | None):
    xy = _mul(x, y, dim)
    yx = _mul(y, x, dim)
    return _reduced([[xy[i][j] - yx[i][j] for j in range(dim)] for i in range(dim)], modulus)


def _add_scaled(acc, mat, c: int, dim: int) -> None:
    for i in range(dim):
        ai = acc[i]
        mi = mat[i]
        for j in range(dim):
            ai[j] += c * mi[j]


def _eval_tree(tree: BracketTree, assignment: MatrixAssignment, modulus, cache):
    cached = cache.get(tree)
    if cached is not None:
        return cached
    if isinstance(tree, Leaf):
        value = _reduced(assignment.a_matrix if tree.letter == "a" else assignment.b_matrix, modulus)
    else:
        left = _eval_tree(tree.left, assignment, modulus, cache)
        right = _eval_tree(tree.right, assignment, modulus, cache)
        value = _commutator(left, right, assignment.dim, modulus)
    cache[tree] = value
    return value


def _sum_trees(terms, assignment: MatrixAssignment, modulus: int | None, cache: dict) -> Matrix:
    """The sum of c * value(tree) over (tree, c) pairs, reduced once at the end."""
    dim = assignment.dim
    acc = _zero(dim)
    for tree, c in terms:
        _add_scaled(acc, _eval_tree(tree, assignment, modulus, cache), c, dim)
    return tuple(tuple(row) for row in _reduced(acc, modulus))


def evaluate_expr(expr, assignment: MatrixAssignment, modulus: int | None = None) -> Matrix:
    """Evaluate a bracket expression to an exact integer matrix, mod ``modulus`` (>= 2) if given."""
    _check_modulus(modulus)
    return _sum_trees(as_expr(expr).terms.items(), assignment, modulus, {})


def _element_terms(x: LieElement):
    return ((lyndon_bracket(word), c) for word, c in x.coeffs.items())


def evaluate_element(x: LieElement, assignment: MatrixAssignment, modulus: int | None = None) -> Matrix:
    """Evaluate basis coordinates through the standard bracketing, mod ``modulus`` (>= 2) if given."""
    _check_modulus(modulus)
    return _sum_trees(_element_terms(x), assignment, modulus, {})


def evaluate_certificate(cert: IdentityCertificate, assignment: MatrixAssignment,
                         modulus: int | None = None) -> Matrix:
    """The matrix value of [A, a] + [B, b] under the assignment, mod ``modulus`` (>= 2) if given."""
    _check_modulus(modulus)
    dim = assignment.dim
    cache: dict = {}  # A and B share their subtrees' values
    value_a = _sum_trees(_element_terms(cert.A), assignment, modulus, cache)
    value_b = _sum_trees(_element_terms(cert.B), assignment, modulus, cache)
    out = _commutator(value_a, assignment.a_matrix, dim, modulus)
    _add_scaled(out, _commutator(value_b, assignment.b_matrix, dim, modulus), 1, dim)
    return tuple(tuple(row) for row in _reduced(out, modulus))


def _is_zero_matrix(mat: Matrix) -> bool:
    return all(v == 0 for row in mat for v in row)


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
    counterexample: MatrixAssignment | None
    note: str

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_dict(self) -> dict:
        data = {
            "certificate": self.certificate,
            "dim": self.dim,
            "trials": self.trials,
            "seed": self.seed,
            "modulus": self.modulus,
            "verdict": self.verdict,
            "failed_trial": self.failed_trial,
            "note": self.note,
        }
        if self.counterexample is not None:
            data["counterexample"] = {
                "seed": self.counterexample.seed,
                "a_matrix": [list(r) for r in self.counterexample.a_matrix],
                "b_matrix": [list(r) for r in self.counterexample.b_matrix],
            }
        else:
            data["counterexample"] = None
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
    failed_trial = None
    counterexample = None
    for trial in range(trials):
        assignment = random_assignment(dim, _trial_seed(seed, trial))
        value = evaluate_certificate(cert, assignment, modulus)
        if not _is_zero_matrix(value):
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
