"""Free Lie ring arithmetic over the integers.

Two element representations are kept honest against each other:

* :class:`BracketExpr`, a formal integer combination of binary bracket
  trees, is the user-facing input shape;
* :class:`LieElement`, integer coordinates on the Lyndon-Shirshov basis of
  one bidegree, is the canonical output shape.

``bracket`` rewrites products of Lyndon words, as in the proof that they
form a Hall set (Reutenauer, *Free Lie Algebras*, Ch. 4-5).  For Lyndon
u < v, [[u], [v]] = [uv] when u is a letter or the right standard factor u2
of u = u1u2 has u2 >= v; otherwise [[u], [v]] = [[u1, v], u2] + [u1, [u2, v]]
and each product is rewritten again.  Nothing is expanded in the free
associative ring and no word list is enumerated, so the cost follows the
words reached, not the size of the bidegree.

``_prod(u, v)``, the rewritten product, is memoized for the life of the
process, and so is ``words.standard_factorization``, which it reads.  The
memo holds one dict per pair of Lyndon words reached, with at most dim
L_{k,l} entries: 4130 pairs for the pair matrix of (8, 8) and 13901 for
(9, 9), about 5 MB, in fresh processes.  The pairs recur: the 2000
expressions of the ``normalize`` benchmark workload (seed 1101) met 5003
new pairs against 66479 repeats, so clearing the memo per call or per
slice would redo most of the work.

``bracket`` and ``normalize`` share one product loop on plain
``{word: coefficient}`` dicts, ``_bracket_coeffs(x, y)``: for each pair of
words u != v it adds +-cu*cv * ``_prod(min, max)`` inline and drops the
zeros once, at the end; only ``_prod``'s Jacobi step adds its products
one at a time.  ``normalize`` maps the first representation onto
the second by folding each tree on such dicts, a leaf its letter and
[L, R] the product of the folded children, and counts the tree's a's and
b's in the same walk; it builds one :class:`LieElement` per call, not one
per node.  The fold of every subtree of weight at most
``FOLD_MEMO_WEIGHT`` = 6 is memoized in ``_FOLDS`` for the life of the
process, and looked up before its children are folded.  Only the weight
from the fold itself admits a tree, so the memo is bounded by the 3236
bracket trees of weight 2 to 6 whatever the input; it reached 748 of them
on the 2000 expressions of the ``normalize`` benchmark workload (seed 2600),
which hit it 10050 times: small shapes recur across unrelated
expressions.  ``_tree_poly``, the cached expansion [x, y] = xy - yx of a tree
in the free associative ring, serves only ``assoc_expand``, which applies
it to an arbitrary expression for checks against the associative ring,
and the certificate check in ``kernels``, which reads it only for the
left standard factors of the words it checks and for right factors alone
in their group, so no such word is expanded.

Other sums of word or tree dicts go through ``_accumulate(out, terms,
scale)``, which adds scale * terms into ``out`` in place; the caller owns
``out``: it is a fresh dict or a copy, never a dict cached by
``_tree_poly`` or ``_prod``.  Every product of word dicts in the
associative ring goes through ``_commutators(groups)``, which returns the
sum of scale * (xy - yx) over its (x, y, scale) triples as a new dict and
leaves x and y alone.

Coefficients are plain Python integers throughout; nothing here ever
rounds or overflows.  All public functions are pure, and the internal
caches hold immutable data only.
"""

from __future__ import annotations

import re
from functools import lru_cache, reduce
from typing import Mapping, Union

from .words import (
    LETTERS,
    BracketTree,
    InconsistencyError,  # defined in words; the modules above import it from here
    Leaf,
    Node,
    bracket_string,
    is_bidegree,
    is_lyndon,
    lyndon_bracket,
    standard_factorization,
    tree_bidegree,
)
from .words import bidegree as word_bidegree


class BidegreeError(ValueError):
    """An operation would mix distinct bidegrees."""


def _same_bidegree(found: tuple[int, int] | None, bd: tuple[int, int]) -> tuple[int, int]:
    """bd, the bidegree of the next tree of a sum; found is the first tree's, None before it."""
    if found not in (None, bd):
        raise BidegreeError(f"expression mixes bidegrees {found} and {bd}")
    return bd


# ---------------------------------------------------------------------------
# free associative ring


class AssocPoly:
    """An integer combination of plain words in the free associative ring."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[str, int] | None = None):
        self.coeffs = {word: c for word, c in (coeffs or {}).items() if c}

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AssocPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __repr__(self) -> str:
        if not self.coeffs:
            return "AssocPoly(0)"
        terms = " + ".join(f"{c}*{w}" for w, c in sorted(self.coeffs.items()))
        return f"AssocPoly({terms})"


def _accumulate(out: dict, terms: Mapping, scale: int = 1) -> dict:
    """Add scale * terms into ``out`` in place, dropping entries that reach 0."""
    for key, c in terms.items():
        r = out.get(key, 0) + scale * c
        if r:
            out[key] = r
        elif key in out:
            del out[key]
    return out


def _commutators(groups) -> dict:
    """sum scale * (pq - qp) over the (p, q, scale) triples of word dicts, as a new dict."""
    out: dict[str, int] = {}
    get = out.get
    for p, q, scale in groups:
        # Fix the words of the shorter dict and sweep the longer (qp - pq = -(pq - qp)).
        short, other, sign = (p, q, scale) if len(p) <= len(q) else (q, p, -scale)
        for w, cw in short.items():
            s = sign * cw
            for u, cu in other.items():
                t = s * cu
                key = w + u
                out[key] = get(key, 0) + t
                key = u + w
                out[key] = get(key, 0) - t
    # Terms cancel only in the sum, so the zeros are dropped once, here.
    return {w: c for w, c in out.items() if c}


# Hit by kernels._groups: 2310/212 hits/misses on balanced (bench items, seed 1900).
@lru_cache(maxsize=None)
def _tree_poly(tree: BracketTree) -> dict[str, int]:
    # Shared, never mutated: pass it to _accumulate as terms, never as out;
    # [L, R] expands as the one group (P_L, P_R, 1).
    if isinstance(tree, Leaf):
        return {tree.letter: 1}
    return _commutators(((_tree_poly(tree.left), _tree_poly(tree.right), 1),))


# ---------------------------------------------------------------------------
# bracket expressions


ExprLike = Union["BracketExpr", BracketTree, str]


class BracketExpr:
    """A formal integer combination of bracket trees over the letters a, b."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[BracketTree, int] | None = None):
        data: dict[BracketTree, int] = {}
        if terms:
            for tree, c in terms.items():
                if not isinstance(tree, (Leaf, Node)):
                    raise TypeError(f"expected a bracket tree, got {tree!r}")
                if c:
                    data[tree] = c
        self.terms = data

    @classmethod
    def _make(cls, terms: dict[BracketTree, int]) -> "BracketExpr":
        # Internal fast path: trusts the caller's dict of trees to nonzero ints.
        expr = object.__new__(cls)
        expr.terms = terms
        return expr

    @classmethod
    def letter(cls, letter: str) -> "BracketExpr":
        return cls._make({Leaf(letter): 1})

    @classmethod
    def from_tree(cls, tree: BracketTree) -> "BracketExpr":
        if not isinstance(tree, (Leaf, Node)):
            raise TypeError(f"expected a bracket tree, got {tree!r}")
        return cls._make({tree: 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BracketExpr):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "BracketExpr") -> "BracketExpr":
        if not isinstance(other, BracketExpr):
            return NotImplemented
        return BracketExpr._make(_accumulate(dict(self.terms), other.terms))

    def __neg__(self) -> "BracketExpr":
        return BracketExpr._make({t: -c for t, c in self.terms.items()})

    def __sub__(self, other: "BracketExpr") -> "BracketExpr":
        if not isinstance(other, BracketExpr):
            return NotImplemented
        return BracketExpr._make(_accumulate(dict(self.terms), other.terms, -1))

    def __rmul__(self, scalar: int) -> "BracketExpr":
        if not isinstance(scalar, int):
            return NotImplemented
        if scalar == 0:
            return BracketExpr._make({})
        return BracketExpr._make({t: scalar * c for t, c in self.terms.items()})

    __mul__ = __rmul__

    def bracket(self, other: ExprLike) -> "BracketExpr":
        """Bilinear bracket, term by term."""
        other = as_expr(other)
        # Distinct (s, t) pairs give distinct Node(s, t) keys: nothing to merge.
        return BracketExpr._make({Node(s, t): cs * ct for s, cs in self.terms.items()
                                  for t, ct in other.terms.items()})

    def bidegree(self) -> tuple[int, int] | None:
        """Common bidegree of all terms, None for the zero expression."""
        found: tuple[int, int] | None = None
        for tree in self.terms:
            found = _same_bidegree(found, tree_bidegree(tree))
        return found

    def __repr__(self) -> str:
        if not self.terms:
            return "BracketExpr(0)"
        parts = " + ".join(f"{c}*{bracket_string(t)}" for t, c in self.terms.items())
        return f"BracketExpr({parts})"


def as_expr(value: ExprLike) -> BracketExpr:
    """Coerce a letter or a bracket tree into a one-term expression."""
    if isinstance(value, BracketExpr):
        return value
    if isinstance(value, (Leaf, Node)):
        return BracketExpr.from_tree(value)
    if isinstance(value, str):
        return BracketExpr.letter(value)
    raise TypeError(f"cannot interpret {value!r} as a bracket expression")


def left_normed(*items: ExprLike) -> BracketExpr:
    """The left-normed nesting [x1, ..., xn] = [[x1, ..., x_{n-1}], xn]."""
    if not items:
        raise ValueError("left_normed needs at least one argument")
    exprs = [as_expr(item) for item in items]
    return reduce(lambda acc, x: acc.bracket(x), exprs)


def assoc_expand(expr: ExprLike) -> AssocPoly:
    """Expand every bracket as [x, y] = xy - yx in the free associative ring."""
    expr = as_expr(expr)
    out: dict[str, int] = {}
    for tree, c in expr.terms.items():
        _accumulate(out, _tree_poly(tree), c)
    return AssocPoly(out)


# ---------------------------------------------------------------------------
# Lyndon-basis coordinates


class LieElement:
    """Integer coordinates on the Lyndon basis of one bidegree.

    ``bidegree`` is None only for the distinguished untyped zero, which
    combines with elements of any bidegree.  Typed elements (including
    typed zeros) refuse to mix across bidegrees.  Instances are treated as
    immutable everywhere in the package.
    """

    __slots__ = ("bidegree", "coeffs")

    def __init__(self, bidegree: tuple[int, int] | None, coeffs: Mapping[str, int] | None = None):
        data: dict[str, int] = {}
        if coeffs:
            if bidegree is None:
                raise BidegreeError("an element with coefficients needs a bidegree")
            for word, c in coeffs.items():
                if word_bidegree(word) != tuple(bidegree):
                    raise BidegreeError(f"word {word!r} is not of bidegree {bidegree}")
                if not is_lyndon(word):
                    raise ValueError(f"{word!r} is not a Lyndon word")
                if c:
                    data[word] = c
        if bidegree is not None:
            k, l = bidegree
            if not is_bidegree(k, l):
                raise BidegreeError(f"invalid bidegree ({k}, {l})")
            bidegree = (k, l)
        self.bidegree = bidegree
        self.coeffs = data

    @classmethod
    def _make(cls, bidegree: tuple[int, int] | None, coeffs: dict[str, int]) -> "LieElement":
        # Internal fast path: trusts the caller's dict.
        elem = object.__new__(cls)
        elem.bidegree = bidegree
        elem.coeffs = coeffs
        return elem

    @classmethod
    def zero(cls, bidegree: tuple[int, int] | None = None) -> "LieElement":
        return cls(bidegree, None)

    def is_zero(self) -> bool:
        return not self.coeffs

    def weight(self) -> int | None:
        return None if self.bidegree is None else sum(self.bidegree)

    def terms(self) -> list[tuple[int, str]]:
        """(coefficient, word) pairs in canonical word order."""
        return [(self.coeffs[w], w) for w in sorted(self.coeffs)]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LieElement):
            return NotImplemented
        if self.is_zero() and other.is_zero():
            return True
        return self.bidegree == other.bidegree and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        if self.is_zero():
            return hash(())
        return hash((self.bidegree, frozenset(self.coeffs.items())))

    def _combined_bidegree(self, other: "LieElement") -> tuple[int, int] | None:
        if self.bidegree is None:
            return other.bidegree
        if other.bidegree is None:
            return self.bidegree
        if self.bidegree != other.bidegree:
            raise BidegreeError(f"cannot mix bidegrees {self.bidegree} and {other.bidegree}")
        return self.bidegree

    def __add__(self, other: "LieElement") -> "LieElement":
        if not isinstance(other, LieElement):
            return NotImplemented
        bd = self._combined_bidegree(other)
        return LieElement._make(bd, _accumulate(dict(self.coeffs), other.coeffs))

    def __neg__(self) -> "LieElement":
        return LieElement._make(self.bidegree, {w: -c for w, c in self.coeffs.items()})

    def __sub__(self, other: "LieElement") -> "LieElement":
        if not isinstance(other, LieElement):
            return NotImplemented
        bd = self._combined_bidegree(other)
        return LieElement._make(bd, _accumulate(dict(self.coeffs), other.coeffs, -1))

    def __rmul__(self, scalar: int) -> "LieElement":
        if not isinstance(scalar, int):
            return NotImplemented
        if scalar == 0:
            return LieElement._make(self.bidegree, {})
        return LieElement._make(self.bidegree, {w: scalar * c for w, c in self.coeffs.items()})

    __mul__ = __rmul__

    def __str__(self) -> str:
        """Terms in word order, e.g. ``2[aabbb] - [ababb]``; also the LaTeX form."""
        text = ""
        for c, w in self.terms():
            body = f"[{w}]" if abs(c) == 1 else f"{abs(c)}[{w}]"
            if text:
                text += f" - {body}" if c < 0 else f" + {body}"
            else:
                text = f"-{body}" if c < 0 else body
        return text or "0"

    def __repr__(self) -> str:
        return f"LieElement({self.bidegree}, {self})"


def basis_expansion(x: LieElement) -> BracketExpr:
    """The element as a combination of standard-bracketed Lyndon words."""
    return BracketExpr._make({lyndon_bracket(w): c for w, c in x.coeffs.items()})


# Hit by _bracket_coeffs and itself: 7563/3051 on balanced, 66113/5022 on normalize (hits/misses).
@lru_cache(maxsize=None)
def _prod(u: str, v: str) -> dict[str, int]:
    """Lyndon coordinates of [[u], [v]] for Lyndon words u < v.

    When u is a letter or its right standard factor u2 has u2 >= v, (u, v)
    is the standard factorization of uv and [[u], [v]] = [uv].  Otherwise
    [[u1, u2], v] = [[u1, v], u2] + [u1, [u2, v]] by the Jacobi identity,
    and each product is rewritten again; Lyndon words form a Hall set, so
    this ends (Reutenauer, *Free Lie Algebras*, Ch. 4-5).  The memo lives
    as long as the process: a slice meets the same products from many
    columns and trees, and the products of smaller weight recur in every
    larger slice, so keeping it saves most of the work; its entries are
    pairs of Lyndon words actually reached (see the module docstring).
    Shared: read it, never write to it.
    """
    if len(u) > 1:
        u1, u2 = standard_factorization(u)
        if u2 < v:
            # One product per term, each of a word and a single word: two
            # _bracket_coeffs calls, their one-word dicts and a second sum cost
            # more on these mostly one- to six-word sides (from a cold memo, the
            # products of the pair maps of (6, 6) to (7, 8), (3, 20) and (3, 25)
            # took 20 ms that way against 16 ms, interleaved in-process minima).
            out: dict[str, int] = {}
            for w, c in _prod(u1, v).items():  # [[u1, v], u2]
                if w != u2:
                    _accumulate(out, _prod(w, u2) if w < u2 else _prod(u2, w), c if w < u2 else -c)
            for w, c in _prod(u2, v).items():  # [u1, [u2, v]]
                if w != u1:
                    _accumulate(out, _prod(u1, w) if u1 < w else _prod(w, u1), c if u1 < w else -c)
            return out
    return {u + v: 1}


def _bracket_coeffs(x: Mapping[str, int], y: Mapping[str, int]) -> dict[str, int]:
    """Lyndon coordinates of [x, y] for coordinate dicts x and y, as a new dict.

    Bilinear in ``_prod``: [[v], [u]] = -[[u], [v]] and [[u], [u]] = 0.
    """
    out: dict[str, int] = {}
    get = out.get
    for u, cu in x.items():
        for v, cv in y.items():
            if u != v:
                c, terms = (cu * cv, _prod(u, v)) if u < v else (-cu * cv, _prod(v, u))
                for w, e in terms.items():
                    out[w] = get(w, 0) + c * e
    # Terms cancel only in the sum, so the zeros are dropped once, here, if any.
    return {w: c for w, c in out.items() if c} if 0 in out.values() else out


# (coordinates, a's, b's) of each letter, only ever read.
_LEAF_FOLDS = {"a": ({"a": 1}, 1, 0), "b": ({"b": 1}, 0, 1)}


def bracket(x: LieElement, y: LieElement) -> LieElement:
    """Normalized bracket of two basis-coordinate elements.

    Its coordinates are ``_bracket_coeffs`` of theirs, the product loop
    that ``normalize`` folds with.  The bracket of typed elements, zeros
    included, has the sum of their bidegrees; with the untyped zero it is
    the untyped zero.
    """
    if x.bidegree is None or y.bidegree is None:
        return LieElement.zero()
    bd = (x.bidegree[0] + y.bidegree[0], x.bidegree[1] + y.bidegree[1])
    return LieElement._make(bd, _bracket_coeffs(x.coeffs, y.coeffs))


def bracket_with_letter(x: LieElement, letter: str) -> LieElement:
    """Normalized [x, letter]; the building block of the pair map."""
    if letter not in LETTERS:
        raise ValueError(f"letter must be one of {LETTERS}, got {letter!r}")
    coeffs, k, l = _LEAF_FOLDS[letter]
    return bracket(x, LieElement._make((k, l), coeffs))


# ---------------------------------------------------------------------------
# normalization


# Heaviest subtree whose fold _FOLDS keeps.  There are Catalan(n - 1) * 2^n trees
# of weight n, so it holds at most 4 + 16 + 80 + 448 + 2688 = 3236; a cap of 5 or 8
# was no faster on the normalize workload, and 8 took 1.7 MB more (ROADMAP, aim 2).
FOLD_MEMO_WEIGHT = 6

# Hit by _fold: 10050/748 hits/misses on normalize (bench items, seed 2600); its
# 15183 lookups of heavier trees miss and store nothing.  (coordinates, a's, b's)
# of each tree of weight <= FOLD_MEMO_WEIGHT folded so far; shared and only ever
# read, like _LEAF_FOLDS and _prod's dicts.
_FOLDS: dict[Node, tuple[dict[str, int], int, int]] = {}


def _fold(tree: BracketTree) -> tuple[dict[str, int], int, int]:
    """(Lyndon coordinates, a's, b's) of one tree, bracketed and counted in one walk."""
    if isinstance(tree, Leaf):
        return _LEAF_FOLDS[tree.letter]
    folded = _FOLDS.get(tree)
    if folded is None:
        x, xk, xl = _fold(tree.left)
        y, yk, yl = _fold(tree.right)
        folded = _bracket_coeffs(x, y), xk + yk, xl + yl
        if xk + yk + xl + yl <= FOLD_MEMO_WEIGHT:
            _FOLDS[tree] = folded
    return folded


def normalize(expr: ExprLike) -> LieElement:
    """The unique Lyndon-basis representation of a homogeneous expression.

    Each tree is folded from the leaves up on plain coordinate dicts by
    ``_bracket_coeffs``, so the Lyndon rewriting is the only path, and its
    a's and b's are counted in the same walk.  A subtree of weight at most
    ``FOLD_MEMO_WEIGHT`` is folded once per process and then read from
    ``_FOLDS`` (at most 3236 trees; see the module docstring).  c times
    each tree's coordinates are summed into one fresh dict, and one
    :class:`LieElement` is built.  A tree that folds to zero still fixes
    the bidegree; the empty expression gives the untyped zero.  Raises
    :class:`BidegreeError`, with the message of :meth:`BracketExpr.bidegree`,
    at the first tree whose bidegree differs from the first tree's.
    """
    out: dict[str, int] = {}
    bd = None
    for tree, c in as_expr(expr).terms.items():
        coeffs, k, l = _fold(tree)
        bd = _same_bidegree(bd, (k, l))
        _accumulate(out, coeffs, c)
    return LieElement._make(bd, out)


def engel_expr(n: int) -> BracketExpr:
    """The left-normed tree [a, b, b, ..., b] with n trailing b's."""
    if n < 0:
        raise ValueError(f"engel index must be nonnegative, got {n}")
    return BracketExpr.from_tree(lyndon_bracket("a" + "b" * n))


def engel(n: int) -> LieElement:
    """The engel bracket C_n = [a, b, ..., b] in basis coordinates: 1*[ab^n]."""
    if n < 0:
        raise ValueError(f"engel index must be nonnegative, got {n}")
    return LieElement._make((1, n), {"a" + "b" * n: 1})


# ---------------------------------------------------------------------------
# expression grammar

# expr := ["+"|"-"] term { ("+"|"-") term }
# term := ["-"] [INT "*"] atom
# atom := "a" | "b" | "[" expr { "," expr }+ "]"
# INT is ASCII digits.  Left-normed sugar [x1, ..., xn] is folded into
# [[x1, ..., x_{n-1}], xn] slot by slot during the parse.
# A lone tree travels as (tree, coefficient), a sum of 0 or 2+ trees as a dict.

# Deepest bracket tree parse_expr accepts: parsing and normalization take stack
# frames per level, and much deeper input exhausts the default recursion limit.
MAX_DEPTH = 256

# Most trees one bracket of sums may multiply out to, checked before each slot is
# folded in: [a+b, ..., a+b] with 20 slots would build 2^20 trees (6.3 s, 316 MB),
# while no test, golden command or benchmark input folds more than 4.
MAX_PRODUCT_TERMS = 4096

# A token is an integer or one non-space character; whitespace separates only.
_TOKEN = re.compile(r"[0-9]+|\S")
# Each letter as a lone tree, (tree, coefficient); a pair is immutable, so it is shared.
_LETTER_PAIRS = {letter: (Leaf(letter), 1) for letter in LETTERS}


def check_weight(k: int, l: int) -> None:
    """Refuse a weight past MAX_DEPTH: Lyndon brackets recurse once per letter."""
    if k + l > MAX_DEPTH:
        raise ValueError(f"weight {k + l} exceeds the limit of {MAX_DEPTH}")


def parse_expr(text: str) -> BracketExpr:
    """Parse the bracket-expression grammar, e.g. ``3*[a,b] + -1*[b,a]``.

    Brackets with more than two slots are left-normed sugar:
    ``[x,y,z]`` means ``[[x,y],z]``.  A parse error names the position
    where the offending token starts.
    """
    tokens = _TOKEN.findall(text) + [""]  # "" marks the end of input
    value, _, i = _parse_sum(text, tokens, 0, 0)
    if tokens[i]:
        _refuse(text, i, f"unexpected trailing input {tokens[i]!r}")
    return BracketExpr._make(_terms(value))


def _refuse(text: str, i: int, message: str):
    # Token i starts where the i-th match does; one past the last is the end.
    starts = [m.start() for m in _TOKEN.finditer(text)] + [len(text)]
    message = message if i < len(starts) - 1 else "unexpected end of input"
    raise ValueError(f"parse error at position {starts[i]}: {message}")


def _terms(value: tuple | dict) -> dict:
    """A parsed value as a {tree: coefficient} dict: a lone tree's is new, a sum's is itself."""
    return {value[0]: value[1]} if type(value) is tuple else value


def _parse_sum(text: str, tokens: list[str], i: int, nesting: int) -> tuple[tuple | dict, int, int]:
    """The sum at token i, ``nesting`` brackets deep: (value, depth of its deepest tree, next i).

    The value is a lone tree as (tree, coefficient), and any other sum a
    ``{tree: coefficient}`` dict of 0 or 2+ trees; no coefficient is 0.
    """
    out = None  # no term yet
    depth, op = 0, tokens[i]
    if op == "+" or op == "-":
        i += 1
    while True:
        coeff = -1 if op == "-" else 1
        if tokens[i] == "-":
            coeff, i = -coeff, i + 1
        tok = tokens[i]
        if "0" <= tok < ":":  # an INT: no other token sorts between "0" and ":"
            try:
                coeff *= int(tok)
            except ValueError:  # past the interpreter's limit on integer digits
                _refuse(text, i, f"integer of {len(tok)} digits is too long")
            if tokens[i + 1] != "*":
                _refuse(text, i + 1, f"expected '*', got {tokens[i + 1]!r}")
            i += 2
            tok = tokens[i]
        if tok == "a" or tok == "b":
            atom, atom_depth, i = _LETTER_PAIRS[tok], 0, i + 1
        elif tok == "[":
            if nesting == MAX_DEPTH:
                _refuse(text, i, f"brackets nest deeper than {MAX_DEPTH} levels")
            opened, slots = i, 0
            while slots == 0 or tokens[i] == ",":
                # A letter followed by "," or "]" (or the end, refused below all the
                # same) is the whole slot; any other slot is a sum one level deeper.
                start, tok = i + 1, tokens[i + 1]
                if (tok == "a" or tok == "b") and tokens[i + 2] in ",]":
                    slot, slot_depth, i = _LETTER_PAIRS[tok], 0, i + 2
                else:
                    slot, slot_depth, i = _parse_sum(text, tokens, i + 1, nesting + 1)
                slots += 1
                if slots == 1:
                    atom, atom_depth = slot, slot_depth
                # [x1, ..., xn] puts x1 n-1 levels deep and xi (i >= 2) n-i+1.  Past
                # MAX_DEPTH the bracket is refused, and folding on could only blow up.
                elif (atom_depth := max(atom_depth, slot_depth) + 1) <= MAX_DEPTH:
                    if type(atom) is tuple and type(slot) is tuple:
                        (s, cs), (t, ct) = atom, slot
                        atom = (Node(s, t), cs * ct)
                    else:  # a real sum on one side: a product of 0 or 2+ trees
                        left, right = _terms(atom), _terms(slot)
                        if len(left) * len(right) > MAX_PRODUCT_TERMS:
                            _refuse(text, start, f"bracket multiplies out to {len(left) * len(right)}"
                                    f" trees, past the limit of {MAX_PRODUCT_TERMS}")
                        # Distinct (s, t) pairs give distinct Node(s, t) keys: nothing to merge.
                        atom = {Node(s, t): cs * ct for s, cs in left.items()
                                for t, ct in right.items()}
            if tokens[i] != "]":
                _refuse(text, i, f"expected ']', got {tokens[i]!r}")
            i += 1
            if slots < 2:
                _refuse(text, opened, "a bracket needs at least two slots")
            if atom_depth > MAX_DEPTH:
                _refuse(text, opened, f"brackets nest deeper than {MAX_DEPTH} levels")
        else:
            _refuse(text, i, f"expected a letter or '[', got {tok!r}")
        if out is None and coeff == 1:  # the first term, reused as it is
            out = atom
        else:  # the sum as a dict, until it returns
            out = _accumulate({} if out is None else _terms(out), _terms(atom), coeff)
        depth, op = max(depth, atom_depth), tokens[i]
        if op != "+" and op != "-":
            if type(out) is dict and len(out) == 1:  # one tree left: back to (tree, coefficient)
                (out,) = out.items()
            return out, depth, i
        i += 1
