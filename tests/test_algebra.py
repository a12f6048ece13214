"""Bracket expressions, associative expansion, and basis normalization."""

import random
import re
import sys
import time

import pytest

import helpers
from helpers import (
    block_bracket,
    brute_expand_expr,
    brute_expand_tree,
    element_fold_normalize,
    random_bidegree,
    random_expr,
    random_tree,
    reference_bracket,
    reference_normalize,
    reference_parse_expr,
    reference_reduce,
)
from liering import algebra, cli, families
from liering.algebra import (
    MAX_DEPTH,
    BidegreeError,
    BracketExpr,
    InconsistencyError,
    LieElement,
    assoc_expand,
    basis_expansion,
    bracket,
    bracket_with_letter,
    engel,
    engel_expr,
    left_normed,
    normalize,
    parse_expr,
)
from liering.words import (Leaf, Node, bidegree, bracket_string, lyndon_bracket, lyndon_words,
                           standard_factorization, tree_bidegree)


def test_assoc_expand_examples():
    assert assoc_expand(left_normed("a", "b")).coeffs == {"ab": 1, "ba": -1}
    assert assoc_expand(left_normed("a", "b", "b")).coeffs == {"abb": 1, "bab": -2, "bba": 1}
    assert assoc_expand(BracketExpr()).is_zero()


def test_normalize_examples():
    assert normalize(left_normed("a", "b", "b", "a")).coeffs == {"aabb": -1}
    assert normalize(left_normed("a", "b", "a", "b")).coeffs == {"aabb": -1}
    square = normalize(left_normed("a", "a"))
    assert square.is_zero() and square.bidegree == (2, 0)


def test_normalize_zero_and_mixing():
    assert normalize(BracketExpr()).is_zero()
    mixed = left_normed("a", "b") + BracketExpr.letter("a")
    with pytest.raises(BidegreeError):
        normalize(mixed)


def test_normalize_pins_the_bidegree_error_and_typed_zeros():
    # The first tree fixes the bidegree even when it folds to zero, and the
    # error names the first tree that disagrees; both as BracketExpr.bidegree.
    for text, message in (("[a,a] + [a,b]", "expression mixes bidegrees (2, 0) and (1, 1)"),
                          ("[a,b] + 2*[b,a] + [[a,b],b] + [a,a,a]",
                           "expression mixes bidegrees (1, 1) and (1, 2)")):
        expr = parse_expr(text)
        for check in (normalize, BracketExpr.bidegree):
            with pytest.raises(BidegreeError) as info:
                check(expr)
            assert str(info.value) == message, (text, check)
    for text, bd in (("[[a,b],[a,b]]", (2, 2)), ("[a,b] + [b,a]", (1, 1)), ("[a,a]", (2, 0))):
        zero = normalize(parse_expr(text))
        assert zero.is_zero() and zero.coeffs == {} and zero.bidegree == bd, text
    untyped = normalize(parse_expr("[a,b] - [a,b]"))
    assert untyped.is_zero() and untyped.bidegree is None


def _random_sum_text(rng: random.Random, k: int, l: int, n_terms: int) -> str:
    """A sum of n_terms trees of bidegree (k, l), some of them written as left-normed sugar."""
    def tree(i: int, j: int) -> str:
        # Mostly trees drawn nonzero; the rest may hold zero subtrees such as [a,a].
        nonzero = (i and j or i + j == 1) and rng.random() < 0.9
        return bracket_string((helpers.random_nonzero_tree if nonzero else random_tree)(rng, i, j))

    terms = []
    for _ in range(n_terms):
        text = tree(k, l)
        if rng.random() < 0.4:  # [x1, ..., xn] over consecutive runs of shuffled letters
            letters = ["a"] * k + ["b"] * l
            rng.shuffle(letters)
            cuts = sorted(rng.sample(range(1, k + l), rng.randint(1, min(k + l - 1, 6))))
            runs = [letters[i:j] for i, j in zip([0] + cuts, cuts + [k + l])]
            text = "[" + ",".join(tree(r.count("a"), r.count("b")) for r in runs) + "]"
        terms.append(f"{rng.choice((-3, -2, -1, 1, 2, 5))}*{text}")
    return " + ".join(terms)


def test_normalize_matches_the_former_element_fold(monkeypatch):
    # The fold on plain dicts against the fold of LieElement brackets it
    # replaced, on sums of 1-4 trees of weight <= 14: left-normed sugar,
    # subtrees that fold to zero, such as [a,a], and trees drawn nonzero.
    # It takes no separate bidegree walk and no LieElement bracket.
    rng = random.Random(4424)
    exprs = []
    for i in range(300):
        weight = rng.randint(2, 14)
        k = rng.randint(1, weight - 1) if i % 8 else rng.choice((0, weight))  # (k, 0) or (0, l)
        exprs.append(parse_expr(_random_sum_text(rng, k, weight - k, 1 + i % 4)))
    expected = [element_fold_normalize(expr) for expr in exprs]
    assert sum(x.is_zero() for x in expected) >= 10 and sum(len(e.terms) == 4 for e in exprs) >= 50

    def refuse(*args):
        raise AssertionError("normalize walked a tree twice or built a LieElement per node")

    monkeypatch.setattr(algebra, "tree_bidegree", refuse)
    monkeypatch.setattr(algebra, "bracket", refuse)
    for expr, want in zip(exprs, expected):
        got = normalize(expr)
        assert got.coeffs == want.coeffs and got.bidegree == want.bidegree, expr


def test_reduce_aborts_on_non_lie_input():
    # The single word "ab" is not a Lie element, so the reference
    # back-substitution must leave a residual and abort instead of truncating.
    with pytest.raises(InconsistencyError):
        reference_reduce({"ab": 1}, (1, 1))


def _assert_matches_reference(expr):
    got, expected = normalize(expr), reference_normalize(expr)
    assert got == expected and got.bidegree == expected.bidegree, expr


def test_normalize_matches_the_full_vocabulary_reference():
    for n in range(1, 11):
        for k in range(n + 1):
            for word in lyndon_words(k, n - k):
                _assert_matches_reference(BracketExpr.from_tree(lyndon_bracket(word)))
    rng = random.Random(4405)
    for _ in range(300):
        k, l = random_bidegree(rng, 12, min_weight=2)
        _assert_matches_reference(random_expr(rng, k, l, 2) + random_expr(rng, k, l))
    for text in ("a", "-3*b", "[a,a]", "[[a,a],a] + 2*[a,[a,a]]", "[[b,b],b,b]",
                 "[a,b] + [b,a]", "[[a,b],[a,b,b]] + [[a,b,b],[a,b]]",
                 "[a,b,b,a] - [a,b,a,b] + [[a,b],[a,b]]"):
        _assert_matches_reference(parse_expr(text))


def test_tree_poly_cache_holds_only_lyndon_brackets():
    # Folding on coordinate dicts rewrites products of Lyndon words and expands
    # nothing, neither an input tree nor a Lyndon bracket: the cache stays
    # empty, not merely within the Lyndon words of weight <= 10.
    rng = random.Random(4406)
    lyndon_trees = {lyndon_bracket(w) for n in range(1, 11) for k in range(n + 1)
                    for w in lyndon_words(k, n - k)}
    exprs = []
    while len(exprs) < 200:
        k, l = random_bidegree(rng, 10, min_weight=3)
        expr = random_expr(rng, k, l)
        if not set(expr.terms) & lyndon_trees:
            exprs.append(expr)
    algebra._tree_poly.cache_clear()
    for expr in exprs:
        normalize(expr)
    assert algebra._tree_poly.cache_info().currsize == 0


def test_prod_matches_the_block_solve_up_to_weight_12():
    # Every product of Lyndon words u < v of total weight <= 12, rewritten,
    # against the back-substitution on the Lyndon block it replaced; and
    # bracket's signs for v < u and u = v.
    words = [w for n in range(1, 12) for k in range(n + 1) for w in lyndon_words(k, n - k)]
    pairs = 0
    for u in words:
        x = LieElement(bidegree(u), {u: 1})
        for v in words:
            if len(u) + len(v) > 12:
                continue
            y = LieElement(bidegree(v), {v: 1})
            if u < v:
                assert algebra._prod(u, v) == block_bracket(x, y).coeffs, (u, v)
                pairs += 1
            assert bracket(x, y) == block_bracket(x, y), (u, v)
    assert pairs == 1694


def test_normalize_of_random_trees_matches_the_reference():
    # Plain random trees, zero subtrees such as [a,a] included, and trees
    # drawn nonzero, of weight up to 12.
    rng = random.Random(4407)
    for i in range(400):
        k, l = random_bidegree(rng, 12, min_weight=2)
        draw = random_tree if i % 2 or not (k and l) else helpers.random_nonzero_tree
        expr = rng.choice((-2, -1, 1, 3)) * BracketExpr.from_tree(draw(rng, k, l))
        _assert_matches_reference(expr)


def test_bracket_at_the_weight_limit_within_the_default_recursion_limit():
    # [[a^127 b^128], b] has weight 256: the rewriting recurses about once
    # per letter of a^127 b^128, from a cold memo.  The small cases of the
    # same shape are checked against the full-vocabulary reference.
    assert sys.getrecursionlimit() <= 1000
    algebra._prod.cache_clear()
    standard_factorization.cache_clear()
    start = time.perf_counter()
    image = bracket_with_letter(LieElement((127, 128), {"a" * 127 + "b" * 128: 1}), "b")
    assert time.perf_counter() - start < 10
    assert image.bidegree == (127, 129) and len(image.coeffs) == 127
    assert LieElement((127, 129), image.coeffs) == image  # checks every word is Lyndon
    for i in range(1, 5):
        x = LieElement((i, i + 1), {"a" * i + "b" * (i + 1): 1})
        assert bracket_with_letter(x, "b") == reference_bracket(x, LieElement((0, 1), {"b": 1}))


def test_bracket_expr_constructor_checks_and_internal_results_drop_zeros():
    with pytest.raises(TypeError):
        BracketExpr({"ab": 1})
    with pytest.raises(TypeError):
        BracketExpr({Leaf("a"): 1, (Leaf("a"), Leaf("b")): 2})
    with pytest.raises(TypeError):
        BracketExpr.from_tree("ab")
    with pytest.raises(ValueError):
        BracketExpr.letter("c")
    ab = Node(Leaf("a"), Leaf("b"))
    assert BracketExpr({Leaf("a"): 0, ab: 2, Leaf("b"): 0}).terms == {ab: 2}
    assert BracketExpr({Leaf("a"): 0}).is_zero()
    x = parse_expr("2*[a,b] - 3*[[a,b],b] + a")
    for zero in (x - x, x + (-x), 0 * x, x * 0, BracketExpr().bracket(x), x.bracket(BracketExpr())):
        assert zero.terms == {}
    assert (x + x).terms == (2 * x).terms and all((x + x).terms.values())
    assert x.bracket("b").terms == {Node(ab, Leaf("b")): 2,
                                    Node(Node(ab, Leaf("b")), Leaf("b")): -3,
                                    Node(Leaf("a"), Leaf("b")): 1}


def test_bracket_examples():
    x = engel(2)
    assert bracket(x, x).is_zero()
    assert bracket(x, x).bidegree == (2, 4)
    assert bracket(engel(1), engel(0)).coeffs == {"aab": -1}


def test_bracket_zero_handling():
    zero = LieElement.zero()
    assert bracket(zero, engel(2)).is_zero()
    assert bracket(zero, engel(2)).bidegree is None
    typed = LieElement.zero((2, 1))
    out = bracket(typed, engel(0))
    assert out.is_zero() and out.bidegree == (3, 1)


def test_bracket_with_letter():
    assert bracket_with_letter(engel(2), "b") == engel(3)
    assert bracket_with_letter(engel(2), "a").coeffs == {"aabb": -1}
    assert bracket_with_letter(LieElement.zero((1, 2)), "a").bidegree == (2, 2)
    with pytest.raises(ValueError):
        bracket_with_letter(engel(1), "c")


def test_bracket_with_letter_matches_bracket_expr_reference():
    rng = random.Random(4401)
    for _ in range(200):
        k, l = random_bidegree(rng, 9)
        x = LieElement((k, l), {w: rng.choice((-3, -2, -1, 1, 2, 3)) for w in lyndon_words(k, l)})
        for letter in "ab":
            expected = normalize(basis_expansion(x).bracket(letter))
            assert bracket_with_letter(x, letter) == expected, (x, letter)


def test_assoc_commutator_matches_products():
    from liering.algebra import _commutators

    rng = random.Random(4402)

    def random_poly():
        poly = {"".join(rng.choice("ab") for _ in range(rng.randint(1, 4))): rng.randint(-3, 3)
                for _ in range(rng.randint(0, 6))}
        return {w: c for w, c in poly.items() if c}

    for _ in range(300):
        p, q = random_poly(), random_poly()
        brute: dict[str, int] = {}
        for u, cu in p.items():
            for v, cv in q.items():
                brute[u + v] = brute.get(u + v, 0) + cu * cv
                brute[v + u] = brute.get(v + u, 0) - cu * cv
        assert _commutators([(p, q, 1)]) == {w: c for w, c in brute.items() if c}
    assert _commutators([({"a": 2, "aa": 1}, {"aaa": -1}, 1)]) == {}


def test_commutators_match_a_double_loop():
    # Batches of 1-4 groups over words of mixed lengths, with small and packed
    # coefficients and scales; some groups undo earlier ones, so whole
    # batches cancel to {}.
    from liering.algebra import _commutators

    rng = random.Random(1902)

    def coefficient():
        if rng.random() < 0.3:  # packed: slots of 170 bits, past 2^600
            return sum(rng.randint(-9, 9) << (170 * t) for t in range(5)) or 1
        return rng.choice((-3, -2, -1, 1, 2, 3))

    def random_poly():
        return {"".join(rng.choice("ab") for _ in range(rng.randint(1, 4))): coefficient()
                for _ in range(rng.randint(0, 6))}

    empty = packed = 0
    for _ in range(300):
        groups = []
        for _ in range(rng.randint(1, 4)):
            if groups and rng.random() < 0.3:
                p, q, scale = rng.choice(groups)
                groups.append(rng.choice(((q, p, scale), (p, q, -scale))))
            else:
                scale = rng.choice((1, -1, coefficient()))
                groups.append((random_poly(), random_poly(), scale))
        snapshot = [(dict(p), dict(q)) for p, q, _ in groups]
        brute: dict[str, int] = {}
        for p, q, scale in groups:
            for u, cu in p.items():
                for v, cv in q.items():
                    brute[u + v] = brute.get(u + v, 0) + scale * cu * cv
                    brute[v + u] = brute.get(v + u, 0) - scale * cu * cv
        got = _commutators(groups)
        assert got == {w: c for w, c in brute.items() if c}
        assert all(got.values())
        assert [(p, q) for p, q, _ in groups] == snapshot
        empty += bool(brute) and not got  # product terms that all cancelled
        packed += any(abs(c) > 2**600 for c in got.values())
    assert empty and packed
    p = {"a": 2, "ab": -1}
    assert _commutators([(p, p, 5)]) == {} and p == {"a": 2, "ab": -1}


def test_difference_with_itself_is_typed_zero():
    x = normalize(parse_expr("[[a,b,b],[a,b]] + 2*[a,b,a,b,b]"))
    for y in (x, LieElement.zero((2, 3))):
        diff = y - y
        assert isinstance(diff, LieElement)
        assert diff.coeffs == {} and diff.bidegree == (2, 3)
    expr = parse_expr("[a,b] - 3*[[a,b],b]")
    assert isinstance(expr - expr, BracketExpr) and (expr - expr).terms == {}


def _fold_memo_snapshot():
    return {tree: (dict(coeffs), k, l) for tree, (coeffs, k, l) in algebra._FOLDS.items()}


def test_cached_tree_polys_are_never_mutated():
    # _accumulate writes into its first argument, so a cached _tree_poly,
    # _prod or _fold dict handed to it as `out` would corrupt every later result.
    from liering import kernels
    from liering.algebra import _prod, _tree_poly

    trees = [lyndon_bracket(w) for n in range(1, 6) for k in range(n + 1)
             for w in lyndon_words(k, n - k)]
    snapshot = {tree: dict(_tree_poly(tree)) for tree in trees}
    words = [w for n in range(1, 5) for k in range(n + 1) for w in lyndon_words(k, n - k)]
    products = {(u, v): dict(_prod(u, v)) for u in words for v in words if u < v}
    # Small trees, folds to zero and scaled sums, each folded into the _fold memo.
    rng = random.Random(2701)
    texts = [bracket_string(tree) for tree in trees]
    texts += [bracket_string(random_tree(rng, k, 6 - k)) for k in range(7) for _ in range(3)]
    texts += ["[a,a]", "[[a,b],[a,b]]", "[[a,a],b]", "[b,[b,b]]", "2*[[a,b],[a,b]] - [[a,a],[b,b]]",
              "3*[a,b] - 2*[b,a]", "-[[a,b],b] + 5*[a,b,b]", "2*[a,[a,b]] + [[a,b],a]"]
    exprs = [parse_expr(text) for text in texts]
    first = [normalize(expr) for expr in exprs]
    folds = _fold_memo_snapshot()
    assert all(tree in folds for tree in trees if isinstance(tree, Node))
    results = [(x.bidegree, dict(x.coeffs)) for x in first]
    for x in first:
        x.coeffs["ab"] = x.coeffs.get("ab", 0) + 7
        x.coeffs.pop(next(iter(x.coeffs)))
    assert [(x.bidegree, x.coeffs) for x in map(normalize, exprs)] == results
    assert _fold_memo_snapshot() == folds
    elements = [
        LieElement((1, 0), {"a": 3}),
        LieElement((0, 1), {"b": -2}),
        LieElement((1, 2), {"abb": 2}),
        LieElement((2, 3), {"aabbb": 2, "ababb": -1}),
        LieElement((3, 2), {"aaabb": 1, "aabab": 1}),
    ]
    for x in elements:
        assert normalize(basis_expansion(x) - basis_expansion(x)).is_zero()
        for letter in "ab":
            bracket_with_letter(x, letter)
        for y in elements:
            bracket(x, y)
    for k, l in ((1, 1), (2, 1), (2, 3), (3, 3)):
        kernels.pair_matrix.__wrapped__(k, l)
    for k, l in ((1, 1), (2, 2), (3, 2), (3, 3)):
        helpers._lyndon_block.__wrapped__(k, l)
    for k, l in ((2, 2), (2, 4), (3, 3)):
        for cert in kernels.kernel_certificates(k, l):
            assert kernels.verify_certificate(cert)
            assert not kernels.verify_certificate(
                kernels.IdentityCertificate(k, l, 2 * cert.A, cert.B))
    for tree in trees:
        assert _tree_poly(tree) == snapshot[tree], tree
    for (u, v), product in products.items():
        assert _prod(u, v) == product, (u, v)


def _all_trees(weight):
    if weight == 1:
        return [Leaf("a"), Leaf("b")]
    return [Node(s, t) for i in range(1, weight) for s in _all_trees(i) for t in _all_trees(weight - i)]


def test_fold_memo_keeps_only_light_trees_and_stays_bounded(monkeypatch):
    # A tree of weight <= FOLD_MEMO_WEIGHT is stored after its first fold and
    # answers every later one; heavier trees are folded afresh each time, so the
    # memo never holds more than the Catalan(n - 1) * 2^n trees of each weight
    # n = 2..6.
    monkeypatch.setattr(algebra, "_FOLDS", {})
    rng = random.Random(2702)
    exprs = []
    for i in range(300):
        weight = rng.randint(2, 14)
        k = rng.randint(1, weight - 1) if i % 8 else rng.choice((0, weight))
        exprs.append(parse_expr(_random_sum_text(rng, k, weight - k, 1 + i % 4)))
    cold = [normalize(expr) for expr in exprs]
    warm = [normalize(expr) for expr in exprs]
    assert [(x.coeffs, x.bidegree) for x in warm] == [(x.coeffs, x.bidegree) for x in cold]
    weights = {sum(tree_bidegree(tree)) for tree in algebra._FOLDS}
    assert weights == set(range(2, algebra.FOLD_MEMO_WEIGHT + 1)) and algebra.FOLD_MEMO_WEIGHT == 6
    bound = sum(len(_all_trees(n)) for n in range(2, 7))
    assert bound == 4 + 16 + 80 + 448 + 2688 == 3236 and len(algebra._FOLDS) <= bound
    for n in range(2, 8):
        for tree in _all_trees(n):
            normalize(tree)
    assert len(algebra._FOLDS) == bound


def _random_element(rng, k, l):
    words = lyndon_words(k, l)
    chosen = rng.sample(words, min(len(words), rng.randint(2, 4)))
    return LieElement((k, l), {w: rng.choice((-3, -2, -1, 1, 2, 3)) for w in chosen})


def test_bracket_matches_reference_on_random_elements():
    # x has two to four terms; y is random, and in the last 60 pairs it has
    # two terms as well (weight 5 + 5 is the only way to fit both in 10).
    rng = random.Random(4404)
    multi = [(k, n - k) for n in range(5, 10) for k in range(n + 1)
             if len(lyndon_words(k, n - k)) >= 2]
    for i in range(300):
        if i < 240:
            x = _random_element(rng, *rng.choice(multi))
            y = _random_element(rng, *random_bidegree(rng, 10 - x.weight()))
        else:
            x, y = (_random_element(rng, *rng.choice(((2, 3), (3, 2)))) for _ in range(2))
            assert len(x.coeffs) == len(y.coeffs) == 2
        if rng.random() < 0.5:
            x, y = y, x
        expected = reference_bracket(x, y)
        assert bracket(x, y) == expected, (x, y)
        assert bracket(x, y).bidegree == expected.bidegree


def test_family_brackets_match_reference(monkeypatch):
    # Every bracket the i2 and i33 families take for n <= 4 (engel_pair and
    # engel_triple) is recomputed on the full-vocabulary reference path.
    checked = []

    def checked_bracket(x, y):
        out = bracket(x, y)
        assert out == reference_bracket(x, y), (x, y)
        checked.append((x, y))
        return out

    monkeypatch.setattr(families, "bracket", checked_bracket)
    families.engel_pair.cache_clear()
    families.engel_triple.cache_clear()
    try:
        for n in range(1, 5):
            families.i2_certificate(2 * n)
            families.qbad_certificate(n)
            families.i33_certificate(n)
    finally:
        families.engel_pair.cache_clear()
        families.engel_triple.cache_clear()
    assert len(checked) >= 40


@pytest.mark.parametrize("bd", [(1, 1), (2, 3), (3, 3), (4, 2)])
def test_lyndon_block_refuses_a_non_unit_leading_coefficient(monkeypatch, bd):
    # The block solve is the test reference for the rewriting now.
    real = helpers._tree_poly

    def doubled_lead(tree):
        poly = dict(real(tree))
        poly[min(poly)] *= 2
        return poly

    monkeypatch.setattr(helpers, "_tree_poly", doubled_lead)
    with pytest.raises(InconsistencyError, match="unit triangular"):
        helpers._lyndon_block.__wrapped__(*bd)


def test_engel_examples():
    assert engel(0) == normalize(BracketExpr.letter("a"))
    assert engel(3) == normalize(left_normed("a", "b", "b", "b"))
    for n in range(0, 9):
        assert engel(n).terms() == [(1, "a" + "b" * n)]
    with pytest.raises(ValueError):
        engel(-1)


def test_left_normed_shapes():
    assert left_normed("a") == BracketExpr.letter("a")
    assert left_normed("a", "b", "b") == BracketExpr.from_tree(
        Node(Node(Leaf("a"), Leaf("b")), Leaf("b"))
    )
    e1, e2, e3 = engel_expr(1), engel_expr(2), engel_expr(3)
    assert left_normed(e1, e2, e3) == e1.bracket(e2).bracket(e3)
    with pytest.raises(ValueError):
        left_normed()


def test_lie_element_validation():
    with pytest.raises(ValueError):
        LieElement((1, 1), {"ba": 1})  # not Lyndon
    with pytest.raises(BidegreeError):
        LieElement((1, 1), {"abb": 1})  # wrong bidegree
    with pytest.raises(BidegreeError):
        LieElement((0, 0))
    with pytest.raises(BidegreeError):
        LieElement(None, {"ab": 1})


def test_lie_element_mixing_rules():
    untyped = LieElement.zero()
    typed_zero = LieElement.zero((2, 2))
    x = engel(2)
    assert (untyped + x) == x
    assert (x + untyped) == x
    assert typed_zero == untyped  # both are zero
    with pytest.raises(BidegreeError):
        typed_zero + x  # (2, 2) against (1, 2)


def test_lie_element_scalar_and_str():
    x = 3 * engel(1) - 2 * engel(1)
    assert x == engel(1)
    assert (0 * x).is_zero()
    assert str(engel(2)) == "[abb]"
    assert str(-2 * engel(2)) == "-2[abb]"


def test_triangularity_up_to_weight_10():
    for n in range(1, 11):
        for k in range(n + 1):
            for word in lyndon_words(k, n - k):
                poly = assoc_expand(BracketExpr.from_tree(lyndon_bracket(word))).coeffs
                assert poly[word] == 1
                assert all(other >= word for other in poly)


def test_normalize_round_trip_against_independent_expansion():
    rng = random.Random(20240811)
    for _ in range(300):
        k, l = random_bidegree(rng, 10)
        expr = random_expr(rng, k, l)
        element = normalize(expr)
        regenerated = assoc_expand(basis_expansion(element))
        assert regenerated.coeffs == brute_expand_expr(expr)


def test_random_expr_draws_nonzero_trees():
    # Where some tree of the bidegree is nonzero, every drawn tree is.
    rng = random.Random(20240811)
    for _ in range(300):
        k, l = random_bidegree(rng, 10)
        expr = random_expr(rng, k, l)
        if k + l == 1 or (k and l):
            assert all(brute_expand_tree(tree) for tree in expr.terms), (k, l)


def test_jacobi_and_antisymmetry_on_random_elements():
    rng = random.Random(987654)
    for _ in range(150):
        weights = [rng.randint(1, 3) for _ in range(3)]
        while sum(weights) > 9:
            weights[rng.randrange(3)] = 1
        elems = []
        for w in weights:
            k = rng.randint(0, w)
            elems.append(normalize(random_expr(rng, k, w - k)))
        x, y, z = elems
        jacobi = (
            bracket(bracket(x, y), z)
            + bracket(bracket(y, z), x)
            + bracket(bracket(z, x), y)
        )
        assert jacobi.is_zero()
        assert (bracket(x, y) + bracket(y, x)).is_zero()
        assert bracket(x, x).is_zero()


def test_proof_rewrite_rule():
    # [[ab^n ab^m], b] = [[ab^{n+1}], [ab^m]] + [ab^n ab^{m+1}] for n < m.
    for m in range(1, 7):
        for n in range(0, m):
            w = "a" + "b" * n + "a" + "b" * m
            lhs = normalize(BracketExpr.from_tree(lyndon_bracket(w)).bracket("b"))
            rhs = normalize(
                engel_expr(n + 1).bracket(engel_expr(m))
                + BracketExpr.from_tree(lyndon_bracket("a" + "b" * n + "a" + "b" * (m + 1)))
            )
            assert lhs == rhs, (n, m)


def test_parse_expr_grammar():
    assert parse_expr("a") == BracketExpr.letter("a")
    assert parse_expr("[a,b]") == left_normed("a", "b")
    assert parse_expr("[a,b,b]") == left_normed("a", "b", "b")
    assert parse_expr("3*[a,b] + -1*[b,a]") == 3 * left_normed("a", "b") - left_normed("b", "a")
    assert parse_expr(" [ a , [ a , b ] ] ") == left_normed("a", left_normed("a", "b"))
    assert parse_expr("a - b + 2*a") == 3 * BracketExpr.letter("a") - BracketExpr.letter("b")
    assert parse_expr("-[a,b]") == -left_normed("a", "b")
    assert parse_expr("[a+b,b]") == left_normed("a", "b") + left_normed("b", "b")
    assert normalize(parse_expr("3*[a,b] + -1*[b,a]")).coeffs == {"ab": 4}


@pytest.mark.parametrize("bad", ["", "c", "[a]", "[a,b", "3*", "a b", "2**a", "3"])
def test_parse_expr_rejects(bad):
    with pytest.raises(ValueError):
        parse_expr(bad)


def test_parse_expr_error_names_the_offending_token():
    with pytest.raises(ValueError, match="position 3: expected '\\*', got 'a'"):
        parse_expr("12 a")
    with pytest.raises(ValueError, match="position 5: unexpected end of input"):
        parse_expr("[a,b ")
    with pytest.raises(ValueError, match="position 1: a bracket needs at least two slots"):
        parse_expr(" [a] ")
    # The end of input reads the same wherever it comes, and so does a
    # coefficient past the interpreter's limit on integer digits.
    for text, position in (("2*", 2), ("+", 1), ("", 0), ("[a,b] - ", 8), ("3", 1)):
        with pytest.raises(ValueError, match=f"^parse error at position {position}: "
                                             "unexpected end of input$"):
            parse_expr(text)
    with pytest.raises(ValueError, match="^parse error at position 2: "
                                         "integer of 5000 digits is too long$"):
        parse_expr("- " + "7" * 5000 + "*[a,b]")


@pytest.mark.parametrize("text", ["\u0663*[a,b]", "[a,b] + \uff12*[a,b]", "\u00b2*a"])
def test_parse_expr_reads_ascii_digits_only(text):
    # str.isdigit accepts all of these, and int() the first two, but INT is ASCII.
    for parse in (parse_expr, reference_parse_expr):
        with pytest.raises(ValueError, match="parse error"):
            parse(text)


def test_parse_expr_builds_the_trees_itself(monkeypatch):
    # Sugar, nesting, sums and zero coefficients are folded into tree dicts
    # during the parse, with no expression built per slot or per atom.
    rng = random.Random(13)
    texts = ["[a,b,b,a,b]", "[[a,b],[a,[a,b]]]", "[a+b,b,a-2*b]", "3*[a,b] - 2*[[a,b],b] + [a,b]",
             "0*[a,b]", "0*[a,b] + [a,b,b]", "[0*a,b] + 2*[a,b] - 2*[a,b]", "-[a,-b,2*[a,b]]",
             "[" + ",".join("ab" * 9) + "]", "[a" + ",b" * MAX_DEPTH + "]",
             "[" * MAX_DEPTH + "a" + ",b]" * MAX_DEPTH]
    for _ in range(200):
        k, l = random_bidegree(rng, 10)
        text = " - ".join(f"{rng.randint(0, 3)}*{render(random_tree(rng, k, l))}"
                          for render in (bracket_string, _left_normed_string))
        texts.append(text)
    expected = [reference_parse_expr(text) for text in texts]

    def refuse(*args, **kwargs):
        raise AssertionError("the parser built an intermediate expression")

    monkeypatch.setattr(algebra, "left_normed", refuse)
    monkeypatch.setattr(algebra, "as_expr", refuse)
    monkeypatch.setattr(BracketExpr, "bracket", refuse)
    for text, want in zip(texts, expected):
        got = parse_expr(text)
        assert got == want, text
        assert all(c for c in got.terms.values()), text


def test_parse_expr_refuses_a_product_past_the_term_limit(capsys):
    # [a+b, ..., a+b] with n slots multiplies out to 2^n trees.
    def slots(n):
        return "[" + ",".join(["a+b"] * n) + "]"

    limit = algebra.MAX_PRODUCT_TERMS
    assert limit == 2**12
    assert len(parse_expr(slots(12)).terms) == limit
    assert len(parse_expr(f"[{slots(6)},{slots(6)}]").terms) == limit
    for text, position in ((slots(13), 49), (slots(20), 49), (f"[{slots(6)},{slots(7)}]", 27)):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"^parse error at position {position}: bracket "
                                             f"multiplies out to 8192 trees, past the limit"):
            parse_expr(text)
        assert time.perf_counter() - start < 1
    assert cli.main(["normalize", slots(20)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: parse error at position 49: ")


def _parse_outcome_text(parse, text):
    """The terms in order, or the error's text."""
    try:
        return list(parse(text).terms.items())
    except ValueError as err:
        return str(err)


@pytest.mark.parametrize("text", [
    # Slots that cancel down to one tree or to nothing.
    "[[a,b]-[a,b]+[a,b],b]", "[a+b-b,b,a]", "[a-a,b]", "[0*a,b,a]", "[2*a-a,b]", "[a+a,b]",
    "[[a+b-b,b]-[a,b]+[a,b],a]", "[[a,b]+[b,a]-[b,a],[a-a,b]]", "[a+b,0*b]", "[a+b,b-b+a,a]",
    "[b,a-a+a-a]", "[-a+a+a,[b-a+a,a]]",
    # Top-level sums that cancel down to one tree or to nothing.
    "[a,b] + [b,a] - [b,a]", "a - a + b", "2*[a,b] - [a,b]", "[a,b] - [a,b]", "0*a", "-0*[a,b]",
    "[a,b,b] - [a,b,b] + [a-a+a,b,b]",
    # Refused next to a value that switches form.
    "[a-a,b", "[a+b-b,b", "[2*a-a,b]]", "[a+b-b,,b]", "[a-a+,b]", "[a-a,b]+c", "[a-a,b,]",
    "[a+b-b]", " [a-a+b] ", "[a-a,b]+", "[a-a,b c]",
])
def test_parse_expr_where_a_lone_tree_and_a_sum_switch(text):
    # A lone tree travels as (tree, coefficient) and a sum of more as a dict:
    # the reference builds every value as an expression.
    got = _parse_outcome_text(parse_expr, text)
    assert got == _parse_outcome_text(reference_parse_expr, text)
    assert isinstance(got, str) or all(c for _, c in got)


@pytest.mark.parametrize("text, error", [
    # README's rule, pinned by value: an error names where the offending token
    # starts, a one-slot bracket at its "[", and the end of input as such.
    ("[a+b-b]", "position 0: a bracket needs at least two slots"),
    (" [a-a+b] ", "position 1: a bracket needs at least two slots"),
    ("[a-a,b]+", "position 8: unexpected end of input"),
    ("[a-a,b c]", "position 7: expected ']', got 'c'"),
])
def test_parse_expr_errors_next_to_a_cancelled_sum(text, error):
    with pytest.raises(ValueError, match=f"^parse error at {re.escape(error)}$"):
        parse_expr(text)


def test_product_limit_counts_a_cancelled_slot_as_one_tree():
    # A slot that cancels down to one tree counts 1 toward the limit, wherever it
    # stands, and the error still names the slot that crosses it.
    def text(slots):
        return "[" + ",".join(slots) + "]"

    for lone in ("a+b-b", "a-a+a", "2*a-a"):
        for at in (0, 5, 12):
            accepted = ["a+b"] * 12
            accepted.insert(at, lone)
            plain = [slot if slot != lone else "a" for slot in accepted]
            assert parse_expr(text(accepted)) == parse_expr(text(plain))
            assert len(parse_expr(text(accepted)).terms) == algebra.MAX_PRODUCT_TERMS
            refused = accepted + ["a+b"]
            position = len(text(refused)) - 1 - len("a+b")
            with pytest.raises(ValueError, match=f"^parse error at position {position}: bracket "
                                                 "multiplies out to 8192 trees, past the limit"):
                parse_expr(text(refused))


def _left_normed_string(tree) -> str:
    """A tree in left-normed sugar: its whole left spine in one bracket."""
    slots = []
    while isinstance(tree, Node):
        slots.append(tree.right)
        tree = tree.left
    if not slots:
        return tree.letter
    return "[" + ",".join(_left_normed_string(t) for t in [tree, *reversed(slots)]) + "]"


def test_parse_expr_matches_the_character_parser():
    # The token parser against the character-walking parser it replaced:
    # the same terms in the same order, or the same error text and position.
    rng = random.Random(5)
    texts = ["".join(rng.choice("ab[],+-*0123 ") for _ in range(rng.randint(0, 14)))
             for _ in range(20000)]
    for _ in range(500):
        k, l = random_bidegree(rng, 10)
        trees = [random_tree(rng, k, l) for _ in range(rng.randint(1, 3))]
        for render in (bracket_string, _left_normed_string):
            text = " - ".join(f"{rng.randint(1, 12)}*{render(t)}" for t in trees)
            texts += [text, text.replace(",", " , "), "-" + text]
    texts += [
        "[" * 2000 + "a" + ",b]" * 2000,
        "[a" + ",b" * 899 + "]",
        "[" * (MAX_DEPTH + 1) + "a" + ",b]" * (MAX_DEPTH + 1),
        "[a" + ",b" * (MAX_DEPTH + 1) + "]",
        "[" + ",".join(["a+b"] * 13) + "]",
        "[a," + "3" * 5000 + "]",
    ]
    accepted, errors = 0, []
    for text in texts:
        got = _parse_outcome_text(parse_expr, text)
        assert got == _parse_outcome_text(reference_parse_expr, text), text
        if isinstance(got, str):
            errors.append(got)
        else:
            accepted += 1
    assert accepted > 3000
    # Where the reference once named an error differently: the end of input, a
    # trailing token, a quoted integer of two or more digits, a one-slot bracket.
    for kind in ("unexpected end of input", "unexpected trailing input", r"'[0-9]{2,}'", "two slots"):
        assert any(re.search(kind, err) for err in errors), kind
