"""Brute-force oracles and random generators shared by the test suite.

The expanders here are written independently of the package internals so
that normalization is checked against a second implementation, not against
itself.  ``reference_bracket`` is the other way round: it is the package's
slow bracket path, kept to check the fast one.
"""

from __future__ import annotations

import random

from liering.algebra import BracketExpr, LieElement, _commutator, _element_poly, _reduce
from liering.words import Leaf, Node


def rotations(word: str) -> list[str]:
    return [word[i:] + word[:i] for i in range(1, len(word))]


def brute_lyndon(word: str) -> bool:
    """Direct definition: strictly smaller than every proper rotation."""
    return len(word) > 0 and all(word < r for r in rotations(word))


def brute_expand_tree(tree) -> dict[str, int]:
    """Independent expansion of a bracket tree in the associative ring."""
    if isinstance(tree, Leaf):
        return {tree.letter: 1}
    left = brute_expand_tree(tree.left)
    right = brute_expand_tree(tree.right)
    out: dict[str, int] = {}
    for u, cu in left.items():
        for v, cv in right.items():
            out[u + v] = out.get(u + v, 0) + cu * cv
            out[v + u] = out.get(v + u, 0) - cu * cv
    return {w: c for w, c in out.items() if c}


def brute_expand_expr(expr: BracketExpr) -> dict[str, int]:
    out: dict[str, int] = {}
    for tree, c in expr.terms.items():
        for w, e in brute_expand_tree(tree).items():
            out[w] = out.get(w, 0) + c * e
    return {w: c for w, c in out.items() if c}


def reference_bracket(x: LieElement, y: LieElement) -> LieElement:
    """[x, y] through the full-vocabulary expansion: xy - yx on every word of
    the bidegree, back-substituted with the residual check of ``normalize``."""
    if x.is_zero() or y.is_zero():
        if x.bidegree is not None and y.bidegree is not None:
            return LieElement.zero((x.bidegree[0] + y.bidegree[0], x.bidegree[1] + y.bidegree[1]))
        return LieElement.zero()
    bd = (x.bidegree[0] + y.bidegree[0], x.bidegree[1] + y.bidegree[1])
    return _reduce(_commutator(_element_poly(x), _element_poly(y)), bd)


def random_bidegree(rng: random.Random, max_weight: int, min_weight: int = 1) -> tuple[int, int]:
    weight = rng.randint(min_weight, max_weight)
    k = rng.randint(0, weight)
    return k, weight - k


def random_tree(rng: random.Random, k: int, l: int):
    """A uniform-ish random bracket tree with exactly k a's and l b's."""
    assert k >= 0 and l >= 0 and k + l >= 1
    if k + l == 1:
        return Leaf("a" if k else "b")
    while True:
        lk = rng.randint(0, k)
        ll = rng.randint(0, l)
        if 1 <= lk + ll <= k + l - 1:
            break
    return Node(random_tree(rng, lk, ll), random_tree(rng, k - lk, l - ll))


def _has_nonzero_trees(k: int, l: int) -> bool:
    """Whether some bracket tree of bidegree (k, l) expands to nonzero."""
    return k + l == 1 or (k > 0 and l > 0)


def random_nonzero_tree(rng: random.Random, k: int, l: int):
    """A random tree of bidegree (k, l) whose expansion is nonzero.

    A subtree that expands to zero would make the whole tree zero, so each
    split and each subtree is redrawn until it is nonzero, bottom up.
    """
    assert _has_nonzero_trees(k, l)
    if k + l == 1:
        return Leaf("a" if k else "b")
    while True:
        lk = rng.randint(0, k)
        ll = rng.randint(0, l)
        if not (1 <= lk + ll <= k + l - 1
                and _has_nonzero_trees(lk, ll) and _has_nonzero_trees(k - lk, l - ll)):
            continue
        tree = Node(random_nonzero_tree(rng, lk, ll), random_nonzero_tree(rng, k - lk, l - ll))
        if brute_expand_tree(tree):
            return tree


def random_expr(rng: random.Random, k: int, l: int, max_terms: int = 3) -> BracketExpr:
    """A random homogeneous expression of bidegree (k, l).

    Its trees expand to nonzero, except on (k, 0) and (0, l) past weight 1,
    where every tree expands to zero.
    """
    draw = random_nonzero_tree if _has_nonzero_trees(k, l) else random_tree
    expr = BracketExpr()
    for _ in range(rng.randint(1, max_terms)):
        coeff = rng.choice([-3, -2, -1, 1, 2, 3])
        expr = expr + coeff * BracketExpr.from_tree(draw(rng, k, l))
    return expr
