"""Matrix-evaluation oracle: sound rejection, evidence-only passes."""

import ast
import dataclasses
import inspect
import random
import sys
import time
from operator import mul

import pytest

from helpers import (
    random_bidegree,
    random_expr,
    reference_evaluate_certificate,
    reference_evaluate_element,
    reference_evaluate_expr,
    reference_oracle_check,
)
from liering import oracle
from liering.algebra import BracketExpr, LieElement, as_expr, basis_expansion, left_normed, normalize
from liering.families import i2_certificate, i33_certificate
from liering.kernels import IdentityCertificate, kernel_certificates, verify_certificate
from liering.oracle import (
    MatrixAssignment,
    evaluate_certificate,
    evaluate_expr,
    oracle_check,
    random_assignment,
)
from liering.words import Leaf, Node, lyndon_bracket, lyndon_words


def unit_matrix(dim, i, j):
    return tuple(
        tuple(1 if (r, c) == (i, j) else 0 for c in range(dim)) for r in range(dim)
    )


def test_a_tree_on_a_third_letter_reaches_neither_normalize_nor_evaluation():
    # Such a tree used to normalize to the element [ac] and to make
    # evaluate_expr raise AttributeError; its leaf is refused when built.
    assignment = random_assignment(3, seed=5)
    for use in (normalize, lambda expr: evaluate_expr(expr, assignment)):
        with pytest.raises(ValueError, match="letter must be one of"):
            use(BracketExpr.from_tree(Node(Leaf("a"), Leaf("c"))))


def test_evaluate_elementary_matrices():
    assign = MatrixAssignment(3, unit_matrix(3, 0, 1), unit_matrix(3, 1, 2))
    assert evaluate_expr(left_normed("a", "b"), assign) == unit_matrix(3, 0, 2)


@pytest.mark.parametrize(
    "dim, a, b",
    [
        # Rows zipped against 2 x 3 rows used to evaluate [a, b] to zero.
        (2, ((1, 2, 3), (4, 5, 6)), ((1, 0, 1), (0, 1, 0))),
        # A 3 x 3 a with a 4 x 4 b used to give a 3 x 3 value.
        (3, unit_matrix(3, 0, 1), unit_matrix(4, 1, 2)),
        # dim was never read: dim 5 with 3 x 3 matrices gave a 3 x 3 value.
        (5, unit_matrix(3, 0, 1), unit_matrix(3, 1, 2)),
        # A float entry.
        (2, ((1, 0), (0, 1.5)), unit_matrix(2, 0, 1)),
    ],
)
def test_an_assignment_must_hold_two_dim_by_dim_integer_matrices(monkeypatch, dim, a, b):
    def no_evaluation(*args):
        raise AssertionError("a malformed assignment was evaluated")

    monkeypatch.setattr(oracle, "_evaluate", no_evaluation)
    with pytest.raises(ValueError, match=rf"^letter matrices must be {dim} x {dim} integer"):
        evaluate_expr(left_normed("a", "b"), MatrixAssignment(dim, a, b))


def test_an_assignment_must_be_at_least_2_x_2(monkeypatch):
    # 1 x 1 matrices commute, so every certificate evaluated to ((0,),):
    # i2_certificate(4) with A doubled among them.
    def no_evaluation(*args):
        raise AssertionError("a 1 x 1 assignment was evaluated")

    monkeypatch.setattr(oracle, "_evaluate", no_evaluation)
    four = i2_certificate(4)
    corrupted = dataclasses.replace(four, A=2 * four.A)
    for assign in (lambda: MatrixAssignment(1, ((2,),), ((3,),)), lambda: random_assignment(1, 7)):
        with pytest.raises(ValueError, match="^dimension must be at least 2, got 1$"):
            evaluate_certificate(corrupted, assign())


def test_weight_three_nilpotency():
    # Strictly upper triangular 3x3 matrices are nilpotent of class 2.
    a = ((0, 1, 2), (0, 0, 3), (0, 0, 0))
    b = ((0, 5, -1), (0, 0, 2), (0, 0, 0))
    assign = MatrixAssignment(3, a, b)
    zero = tuple((0,) * 3 for _ in range(3))
    for expr in (
        left_normed("a", "b", "a"),
        left_normed("a", "b", "b"),
        left_normed("a", "a", "b"),
    ):
        assert evaluate_expr(expr, assign) == zero


def test_weight_four_identity_vanishes_on_random_matrices():
    difference = left_normed("a", "b", "b", "a") - left_normed("a", "b", "a", "b")
    for seed in range(10):
        assign = random_assignment(4, seed)
        value = evaluate_expr(difference, assign)
        assert all(v == 0 for row in value for v in row)


def test_evaluate_element_matches_expr():
    x = normalize(left_normed("a", "b", "b", "a"))
    assign = random_assignment(4, 99)
    direct = evaluate_expr(-1 * left_normed("a", lyndon_bracket("abb")), assign)
    # -[a,[abb]] has the same coordinates as normalize([a,b,b,a]).
    assert evaluate_expr(basis_expansion(x), assign) == direct


def test_oracle_check_passes_on_valid_certificates():
    report = oracle_check(i33_certificate(1), trials=50, dim=4, seed=3)
    assert report.passed and report.counterexample is None
    assert report.seed == 3 and report.trials == 50
    assert "evidence" in report.note


def test_oracle_check_fails_on_corruption():
    cert = i33_certificate(2)
    # Add a same-bidegree disturbance to B; the result is no identity.
    corrupt_b = cert.B + normalize(left_normed("a", "b", "b", "b", "b", "b", "a", "a"))
    corrupted = dataclasses.replace(cert, B=corrupt_b)
    report = oracle_check(corrupted, trials=50, dim=4, seed=5)
    assert not report.passed
    assert report.failed_trial is not None
    assert report.counterexample is not None
    # The counterexample replays exactly from its recorded seed.
    replay = random_assignment(4, report.counterexample.seed)
    assert replay == report.counterexample
    value = evaluate_certificate(corrupted, replay)
    assert any(v for row in value for v in row)


def test_oracle_zero_certificate_passes():
    from liering.algebra import LieElement

    cert = IdentityCertificate(2, 2, LieElement.zero(), LieElement.zero())
    assert verify_certificate(cert)
    assert oracle_check(cert, trials=5, dim=3, seed=0).passed


def test_oracle_soundness_on_verified_kernels():
    for (k, l) in ((2, 2), (2, 4), (3, 3), (1, 1), (2, 0)):
        for cert in kernel_certificates(k, l):
            assert oracle_check(cert, trials=20, dim=4, seed=k * 100 + l).passed


def test_oracle_modulus_option():
    report = oracle_check(i2_certificate(4), trials=10, dim=4, seed=1, modulus=101)
    assert report.passed
    assert "modulo 101" in report.note
    assert report.to_dict()["modulus"] == 101


def test_oracle_determinism():
    first = oracle_check(i2_certificate(6), trials=10, dim=4, seed=17)
    second = oracle_check(i2_certificate(6), trials=10, dim=4, seed=17)
    assert first == second


def test_random_assignment_draws_what_randint_draws():
    # Entries come from getrandbits directly, but each seed must keep the
    # matrices, and so the verdicts and counterexamples, of randint.
    for dim in (2, 3, 4, 7):
        for seed in range(2000):
            rng = random.Random(seed)
            a, b = ([tuple(rng.randint(oracle.LOW, oracle.HIGH) for _ in range(dim))
                     for _ in range(dim)] for _ in range(2))
            got = random_assignment(dim, seed)
            assert (got.a_matrix, got.b_matrix, got.seed) == (tuple(a), tuple(b), seed), (dim, seed)


def test_oracle_validation(monkeypatch):
    cert = i2_certificate(2)
    with pytest.raises(ValueError):
        oracle_check(cert, trials=0)
    with pytest.raises(ValueError):
        oracle_check(cert, dim=1)
    with pytest.raises(ValueError):
        random_assignment(0, 1)
    # Modulo 1 every value vanishes, so a wrong certificate would pass.
    four = i2_certificate(4)
    corrupted = dataclasses.replace(four, A=2 * four.A)
    assert not oracle_check(corrupted, trials=5, seed=1).passed
    assign = random_assignment(4, 1)
    for modulus in (1, 0, -7):
        with pytest.raises(ValueError):
            oracle_check(corrupted, trials=5, seed=1, modulus=modulus)
        with pytest.raises(ValueError):
            evaluate_certificate(corrupted, assign, modulus=modulus)
        with pytest.raises(ValueError):
            evaluate_expr(basis_expansion(corrupted.A), assign, modulus=modulus)
        with pytest.raises(ValueError):
            evaluate_expr(left_normed("a", "b"), assign, modulus=modulus)
    assert not oracle_check(corrupted, trials=5, seed=1, modulus=2).passed
    # A float dim used to fail inside the schedule, a float trials or seed
    # with TypeError, and trials=True ran and was reported as True.
    def no_work(*args):
        raise AssertionError("a malformed call reached the certificate")

    monkeypatch.setattr(oracle, "_certificate_program", no_work)
    for name, value in (("dim", 4.0), ("trials", 2.0), ("seed", 1.5), ("trials", True),
                        ("dim", True), ("seed", False), ("seed", None)):
        with pytest.raises(ValueError, match=f"^{name} must be an int, got {value!r}$"):
            oracle_check(corrupted, **{name: value})


class TrialStarted(Exception):
    pass


def _first_trial_raises(dim, seed):
    raise TrialStarted


@pytest.mark.parametrize("trials, dim", [(1, 1000), (100000, 2), (100000, 4), (1, 212)])
def test_oracle_work_is_refused_before_any_trial(monkeypatch, trials, dim):
    monkeypatch.setattr(oracle, "random_assignment", _first_trial_raises)
    with pytest.raises(ValueError, match=f"limit of {oracle.MAX_WORK}"):
        oracle_check(i2_certificate(2), trials=trials, dim=dim)


@pytest.mark.parametrize("trials, dim", [(1, 211), (1, 47), (200, 8), (2000, 2)])
def test_oracle_work_limit_admits_its_boundary(monkeypatch, trials, dim):
    # 215**3 = 9938375 is the last single trial under the limit, and 216**3
    # is past it; the first trial is stopped as it starts.
    monkeypatch.setattr(oracle, "random_assignment", _first_trial_raises)
    with pytest.raises(TrialStarted):
        oracle_check(i2_certificate(2), trials=trials, dim=dim)


def test_oracle_work_limit_admits_the_defaults():
    # The default, 50 trials at dim 4, is also the largest call in the tests
    # and the benchmark.
    assert oracle_check(i2_certificate(2)).passed


def test_modulus_reduces_the_integer_value():
    rng = random.Random(4403)
    four = i2_certificate(4)
    certs = [i2_certificate(2), four, i33_certificate(1), i33_certificate(2),
             dataclasses.replace(four, A=2 * four.A)]
    exprs = []
    while len(exprs) < 6:
        expr = random_expr(rng, *random_bidegree(rng, 8, 2))
        if not normalize(expr).is_zero():
            exprs.append(expr)
    for seed in range(3):
        assign = random_assignment(4, 4403 + seed)
        exact_certs = [evaluate_certificate(cert, assign) for cert in certs]
        exact_exprs = [evaluate_expr(expr, assign) for expr in exprs]
        for p in (2, 3, 101):
            def mod(mat):
                return tuple(tuple(v % p for v in row) for row in mat)

            for cert, exact in zip(certs, exact_certs):
                assert evaluate_certificate(cert, assign, modulus=p) == mod(exact)
            for expr, exact in zip(exprs, exact_exprs):
                assert evaluate_expr(expr, assign, modulus=p) == mod(exact)
            # Some exact values lie outside [0, p), so the comparison is not vacuous.
            assert mod(exact_certs[-1]) != exact_certs[-1]
            assert any(mod(exact) != exact for exact in exact_exprs)


def test_sensitivity_every_small_basis_element_is_seen():
    # Every basis bracket of weight <= 9 evaluates nonzero under some 4x4
    # assignment with entries in [-3, 3]; record the first witness seed.
    witnesses = {}
    for n in range(1, 10):
        for k in range(n + 1):
            for word in lyndon_words(k, n - k):
                for seed in range(40):
                    assign = random_assignment(4, seed)
                    value = evaluate_expr(lyndon_bracket(word), assign)
                    if any(v for row in value for v in row):
                        witnesses[word] = seed
                        break
                assert word in witnesses, f"no witness for {word}"
    assert witnesses["ab"] is not None


MODULI = (None, 2, 3, 101, 2**61 - 1)


def _assignments(rng, count):
    """Seeded assignments at dims 2 to 9, every third one of entries near +-2^80."""
    out = []
    for i in range(count):
        dim = 2 + i % 8
        if i % 3:
            out.append(random_assignment(dim, rng.randrange(1 << 31)))
        else:
            a, b = (tuple(tuple(rng.choice((-1, 0, 1)) * (2**80 - rng.randint(0, 9))
                                for _ in range(dim)) for _ in range(dim)) for _ in range(2))
            out.append(MatrixAssignment(dim, a, b))
    return out


def test_evaluation_matches_the_reference():
    # The program on row-packed integers against the recursive walk with
    # dense products and a reduction after every step.
    rng = random.Random(1414)
    exprs = [random_expr(rng, *random_bidegree(rng, 9, 2)) for _ in range(24)]
    elements = [normalize(expr) for expr in exprs[:12]]
    # Sums of brackets [U, V_t] that repeat U, grouped as [U, sum_t c_t V_t];
    # in the second, the letter a sits beside brackets [a, V_t].
    u, ab = lyndon_bracket("aab"), Node(Leaf("a"), Leaf("b"))
    exprs += [as_expr(u).bracket(3 * as_expr(ab) - 2 * as_expr(Node(Leaf("a"), ab))
                                 + 5 * as_expr("b") + as_expr(u)),
              4 * as_expr("a") - as_expr("a").bracket(7 * as_expr(u) + as_expr(ab) - as_expr("b"))]
    four = i2_certificate(4)
    certs = [i2_certificate(2), four, i33_certificate(1), i33_certificate(2), i33_certificate(4),
             dataclasses.replace(four, A=2 * four.A), *kernel_certificates(3, 3)]
    for assign in _assignments(rng, 12):
        for modulus in MODULI:
            for expr in exprs:
                assert (evaluate_expr(expr, assign, modulus)
                        == reference_evaluate_expr(expr, assign, modulus)), (expr, modulus)
            for x in elements:
                assert (evaluate_expr(basis_expansion(x), assign, modulus)
                        == reference_evaluate_element(x, assign, modulus)), (x, modulus)
            for cert in certs:
                assert (evaluate_certificate(cert, assign, modulus)
                        == reference_evaluate_certificate(cert, assign, modulus)), modulus
    # Entries near 2^80 past weight 8 need slots of hundreds of bits.
    big = random_assignment(4, 3)
    big = MatrixAssignment(4, *(tuple(tuple(v * 2**80 + 1 for v in row) for row in m)
                                for m in (big.a_matrix, big.b_matrix)))
    value = evaluate_expr(lyndon_bracket("aabababb"), big)
    assert value == reference_evaluate_expr(lyndon_bracket("aabababb"), big)
    assert max(abs(v) for row in value for v in row).bit_length() > 600


def test_a_step_compiles_and_matches_the_row_products_at_dim_2500():
    # A flat chain of 2 dim terms nested too deep to compile at dim 2000 on
    # CPython 3.11; the compiler's limit differs between versions, so the
    # nesting of the sum is checked as well.
    rng = random.Random(2500)
    dim = 2500
    depth, stack = 0, [(ast.parse(oracle._sum([f"x{j} * Y{j}" for j in range(2 * dim)])), 0)]
    while stack:
        node, d = stack.pop()
        depth = max(depth, d)
        stack += ((child, d + 1) for child in ast.iter_child_nodes(node))
    assert depth <= 20  # 13 levels of + for 5000 terms, then the product and its operands
    step, unpack = oracle._kernels.__wrapped__(dim)
    x, y = ([tuple(rng.randint(-9, 9) for _ in range(dim)) for _ in range(2)] for _ in range(2))
    xp, yp = ([rng.randint(-2**90, 2**90) for _ in range(dim)] for _ in range(2))
    assert step(x, y, xp, yp) == [sum(map(mul, xi, yp)) - sum(map(mul, yi, xp))
                                  for xi, yi in zip(x, y)]
    shifts = range(0, 8 * dim, 8)  # 8-bit slots hold -128 to 127
    packed = [sum(v << s for v, s in zip(row, shifts)) for row in x]
    assert unpack(packed, shifts, 255, 128, sum(128 << s for s in shifts)) == x


def test_the_kernel_memo_holds_one_entry_per_dimension_evaluated():
    oracle._kernels.cache_clear()
    for dim in (2, 5, 3, 5, 2):
        evaluate_expr(left_normed("a", "b", "a"), random_assignment(dim, dim))
    oracle_check(i2_certificate(2), trials=3, dim=4)
    oracle_check(i2_certificate(4), trials=3, dim=3, modulus=7)
    assert oracle._kernels.cache_info().currsize == 4


def _corrupted():
    i2, i33, i33_4 = i2_certificate(6), i33_certificate(2), i33_certificate(4)
    return [
        dataclasses.replace(i2, A=2 * i2.A),
        dataclasses.replace(i2, B=i2.B + normalize(left_normed("a", "b", "b", "b", "a", "b", "b"))),
        dataclasses.replace(i33, B=i33.B + normalize(left_normed("a", "b", "b", "b", "b", "b",
                                                                 "a", "a"))),
        dataclasses.replace(i33_certificate(1), A=i33_certificate(1).A + 3 * normalize(
            left_normed("a", "b", "b", "a", "b"))),
        # A and B group brackets.  The disturbance is [Y, b, b], and [Y, b, b, b]
        # vanishes on 2 x 2 matrices whenever b's traceless part is nilpotent, as
        # on the first trial of seed 3, so that run fails at a later trial.
        dataclasses.replace(i33_4, B=i33_4.B + normalize(left_normed(
            "a", "b", "a", "b", "b", "b", "b", "b", "a", "b", "b", "b", "b", "b"))),
    ]


@pytest.mark.parametrize("modulus", MODULI)
def test_oracle_reports_match_the_reference(modulus):
    # Corrupted certificates fail at the same trial with the same
    # counterexample; sound ones pass alike.
    fails, late = 0, 0
    for cert in _corrupted() + [i2_certificate(6), i33_certificate(3)]:
        for dim, seed in ((2, 7), (4, 1), (5, 20), (2, 3)):
            report = oracle_check(cert, trials=20, dim=dim, seed=seed, modulus=modulus)
            assert report == reference_oracle_check(cert, 20, dim, seed, modulus)
            fails += not report.passed
            late += bool(report.failed_trial)
    assert fails >= 16  # of the 20 runs on corrupted certificates
    assert late  # some first failure comes after a passing trial


def test_a_weight_255_bracket_evaluates_without_recursion():
    # [a^127 b^128] nests 255 levels deep; the plan is walked with an explicit
    # stack, so a recursion limit the tree depth would exhaust is no obstacle.
    word = "a" * 127 + "b" * 128
    x = LieElement((127, 128), {word: 1})
    tree = lyndon_bracket(word)
    assign = random_assignment(4, 2)
    expected = reference_evaluate_element(x, assign, modulus=101)
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 60)
    try:
        with pytest.raises(RecursionError):
            reference_evaluate_element(x, assign, modulus=101)
        value = evaluate_expr(basis_expansion(x), assign, modulus=101)
        exact = evaluate_expr(tree, assign)
    finally:
        sys.setrecursionlimit(old)
    assert value == expected
    assert any(map(any, exact))
    assert tuple(tuple(v % 101 for v in row) for row in exact) == expected


def test_a_modulus_keeps_the_slots_of_a_weight_256_certificate_small():
    # Under a modulus, every step that later steps read is reduced once its
    # bound reaches the modulus, so the slots stay a few dozen bits wide at
    # any weight; exact slots for i2's weight-256 certificate at dim 20 are
    # thousands of bits wide, and such a trial took about 5 s.
    good = i2_certificate(254)
    bad = dataclasses.replace(good, A=2 * good.A)
    start = time.perf_counter()
    report = oracle_check(good, trials=1, dim=20, modulus=101)
    assert time.perf_counter() - start < 1.5
    assert report.passed
    # Reducing along the way leaves the residues of the exact values.
    for dim, seed in ((2, 5), (3, 6)):
        assign = random_assignment(dim, seed)
        exact = evaluate_certificate(bad, assign)
        assert any(map(any, exact))
        for modulus in (2, 3, 101):
            assert evaluate_certificate(bad, assign, modulus) == tuple(
                tuple(v % modulus for v in row) for row in exact)
