"""Free Lie ring arithmetic over the integers.

Two element representations are kept honest against each other:

* :class:`BracketExpr`, a formal integer combination of binary bracket
  trees, is the user-facing input shape;
* :class:`LieElement`, integer coordinates on the Lyndon-Shirshov basis of
  one bidegree, is the canonical output shape.

``bracket`` is the one solve.  [x, y] is a Lie polynomial, and a Lie
polynomial is fixed by its coefficients on the Lyndon words alone (Reutenauer,
*Free Lie Algebras*, Ch. 4-5): the Lyndon x Lyndon block of the basis
expansion is unit triangular, since the expansion of [w] has coefficient 1
on w and is otherwise supported on lexicographically larger rearrangements
of w.  So ``bracket`` computes xy - yx on the Lyndon words of its bidegree
only and back-substitutes on that block, which ``_lyndon_block`` reads off
the standard factorizations and caches per bidegree (dim L_{k,l} rows, 429
at (7, 8) against 6435 words).  A block row that does not lead with 1
raises instead of truncating.

``normalize`` maps the first representation onto the second by folding
``bracket`` over each tree: a leaf is its letter and [L, R] is the bracket
of the folded children.  So neither ``normalize`` nor ``bracket`` asks
``_tree_poly``, the cached expansion [x, y] = xy - yx of a tree in the free
associative ring, for anything but Lyndon brackets, and its cache is
bounded by the Lyndon words reached.  ``assoc_expand`` applies the same
expansion to an arbitrary expression, and caches its trees, for checks
against the associative ring.

Every sum of word or tree dicts goes through ``_accumulate(out, terms,
scale)``, which adds scale * terms into ``out`` in place, and every xy - yx
on word dicts through ``_commutator``.  The caller owns ``out``: it is a
fresh dict or a copy, never a dict cached by ``_tree_poly``.

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
    Leaf,
    Node,
    bracket_string,
    is_lyndon,
    lyndon_bracket,
    lyndon_words,
    standard_factorization,
    tree_bidegree,
)
from .words import bidegree as word_bidegree


class BidegreeError(ValueError):
    """An operation would mix distinct bidegrees."""


class InconsistencyError(RuntimeError):
    """An internal exactness invariant broke; results cannot be trusted."""


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


def _commutator(p: Mapping[str, int], q: Mapping[str, int]) -> dict[str, int]:
    """pq - qp on word dicts, as a new dict."""
    out: dict[str, int] = {}
    # One _accumulate call per word of the shorter dict (qp - pq = -(pq - qp)):
    # for a fixed w, u -> w + u and u -> u + w are injective, so no
    # comprehension merges two terms.
    short, other, sign = (p, q, 1) if len(p) <= len(q) else (q, p, -1)
    for w, cw in short.items():
        _accumulate(out, {w + u: cu for u, cu in other.items()}, sign * cw)
        _accumulate(out, {u + w: cu for u, cu in other.items()}, -sign * cw)
    return out


@lru_cache(maxsize=None)
def _tree_poly(tree: BracketTree) -> dict[str, int]:
    # Shared, never mutated: pass it to _accumulate as terms, never as out.
    if isinstance(tree, Leaf):
        return {tree.letter: 1}
    return _commutator(_tree_poly(tree.left), _tree_poly(tree.right))


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
    def letter(cls, letter: str) -> "BracketExpr":
        if letter not in LETTERS:
            raise ValueError(f"letter must be one of {LETTERS}, got {letter!r}")
        return cls({Leaf(letter): 1})

    @classmethod
    def from_tree(cls, tree: BracketTree) -> "BracketExpr":
        return cls({tree: 1})

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
        return BracketExpr(_accumulate(dict(self.terms), other.terms))

    def __neg__(self) -> "BracketExpr":
        return BracketExpr({t: -c for t, c in self.terms.items()})

    def __sub__(self, other: "BracketExpr") -> "BracketExpr":
        if not isinstance(other, BracketExpr):
            return NotImplemented
        return BracketExpr(_accumulate(dict(self.terms), other.terms, -1))

    def __rmul__(self, scalar: int) -> "BracketExpr":
        if not isinstance(scalar, int):
            return NotImplemented
        return BracketExpr({t: scalar * c for t, c in self.terms.items()})

    __mul__ = __rmul__

    def bracket(self, other: ExprLike) -> "BracketExpr":
        """Bilinear bracket, term by term."""
        other = as_expr(other)
        # Distinct (s, t) pairs give distinct Node(s, t) keys: nothing to merge.
        return BracketExpr({Node(s, t): cs * ct for s, cs in self.terms.items()
                            for t, ct in other.terms.items()})

    def bidegree(self) -> tuple[int, int] | None:
        """Common bidegree of all terms, None for the zero expression."""
        found: tuple[int, int] | None = None
        for tree in self.terms:
            bd = tree_bidegree(tree)
            if found is None:
                found = bd
            elif bd != found:
                raise BidegreeError(f"expression mixes bidegrees {found} and {bd}")
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
            if k < 0 or l < 0 or (k, l) == (0, 0):
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


def _element_poly(x: LieElement) -> dict[str, int]:
    out: dict[str, int] = {}
    for word, c in x.coeffs.items():
        _accumulate(out, _tree_poly(lyndon_bracket(word)), c)
    return out


def basis_expansion(x: LieElement) -> BracketExpr:
    """The element as a combination of standard-bracketed Lyndon words."""
    return BracketExpr({lyndon_bracket(w): c for w, c in x.coeffs.items()})


def _expansion(x: LieElement) -> tuple[Mapping[str, int], int]:
    """(word dict, scale) with scale * dict the associative expansion of x.

    A one-term element hands out its shared ``_tree_poly`` dict unscaled,
    so nothing is copied; read it, never write to it.
    """
    if len(x.coeffs) == 1:
        ((word, c),) = x.coeffs.items()
        return _tree_poly(lyndon_bracket(word)), c
    return _element_poly(x), 1


def _prefix_groups(words: tuple[str, ...]) -> dict[tuple[int, int], tuple]:
    """(prefix length, a's in the prefix) -> the (index, word) pairs it fits."""
    groups: dict[tuple[int, int], list[tuple[int, str]]] = {}
    for j, z in enumerate(words):
        a_count = 0
        for n in range(1, len(z)):
            a_count += z[n - 1] == "a"
            groups.setdefault((n, a_count), []).append((j, z))
    return {key: tuple(pairs) for key, pairs in groups.items()}


def _commutator_on(p: Mapping[str, int], p_bd: tuple[int, int], q: Mapping[str, int],
                   q_bd: tuple[int, int], groups) -> dict[int, int]:
    """Coefficients of pq - qp on the words of ``groups``, by word index.

    p and q are homogeneous of bidegrees p_bd and q_bd, so a word z can meet
    xy (x, y one of p, q) only if its prefix of length |x| has x's bidegree:
    the coefficient is x(z[:|x|]) * y(z[|x|:]), and other words are skipped.
    """
    out: dict[int, int] = {}
    for x, x_bd, y, sign in ((p, p_bd, q, 1), (q, q_bd, p, -1)):
        n = x_bd[0] + x_bd[1]
        xg, yg = x.get, y.get
        for j, z in groups.get((n, x_bd[0]), ()):
            c = xg(z[:n])
            if c:
                c *= yg(z[n:], 0)
                if c:
                    out[j] = out.get(j, 0) + sign * c
    return out


@lru_cache(maxsize=None)
def _lyndon_block(k: int, l: int):
    """The Lyndon x Lyndon block of the basis expansion, for weight >= 2.

    Returns (Lyndon words, their prefix groups, rows): row i lists the pairs
    (j, <[w_i], w_j>) with j > i and a nonzero entry.  Each row is read off
    the standard factorization [w] = [[u], [v]] and the cached expansions of
    u and v, never from an expansion at (k, l) itself.  The row must lead
    with 1 at w_i; anything else means the triangular structure is broken.
    """
    words = lyndon_words(k, l)
    groups = _prefix_groups(words)
    rows = []
    for i, w in enumerate(words):
        u, v = standard_factorization(w)
        row = _commutator_on(_tree_poly(lyndon_bracket(u)), word_bidegree(u),
                             _tree_poly(lyndon_bracket(v)), word_bidegree(v), groups)
        entries = sorted((j, e) for j, e in row.items() if e)
        if not entries or entries[0] != (i, 1):
            raise InconsistencyError(f"Lyndon block is not unit triangular at {w!r}")
        rows.append(tuple(entries[1:]))
    return words, groups, tuple(rows)


def bracket(x: LieElement, y: LieElement) -> LieElement:
    """Normalized bracket of two basis-coordinate elements.

    [x, y] is a Lie polynomial, so its coefficients on the Lyndon words of
    its bidegree determine it: they are back-substituted on the Lyndon block.
    """
    if x.is_zero() or y.is_zero():
        if x.bidegree is not None and y.bidegree is not None:
            return LieElement.zero((x.bidegree[0] + y.bidegree[0], x.bidegree[1] + y.bidegree[1]))
        return LieElement.zero()
    bd = (x.bidegree[0] + y.bidegree[0], x.bidegree[1] + y.bidegree[1])
    (px, cx), (py, cy) = _expansion(x), _expansion(y)
    words, groups, rows = _lyndon_block(*bd)
    residual = [0] * len(words)
    for j, c in _commutator_on(px, x.bidegree, py, y.bidegree, groups).items():
        residual[j] = c
    scale = cx * cy
    out: dict[str, int] = {}
    for i, row in enumerate(rows):
        c = residual[i]
        if c:
            out[words[i]] = scale * c
            for j, e in row:
                residual[j] -= c * e
    return LieElement._make(bd, out)


def _letter(letter: str) -> LieElement:
    return LieElement._make((1, 0) if letter == "a" else (0, 1), {letter: 1})


def bracket_with_letter(x: LieElement, letter: str) -> LieElement:
    """Normalized [x, letter]; the building block of the pair map."""
    if letter not in LETTERS:
        raise ValueError(f"letter must be one of {LETTERS}, got {letter!r}")
    return bracket(x, _letter(letter))


# ---------------------------------------------------------------------------
# normalization


def _fold(tree: BracketTree) -> LieElement:
    """Lyndon coordinates of one tree: a leaf is its letter, [L, R] a bracket."""
    if isinstance(tree, Leaf):
        return _letter(tree.letter)
    return bracket(_fold(tree.left), _fold(tree.right))


def normalize(expr: ExprLike) -> LieElement:
    """The unique Lyndon-basis representation of a homogeneous expression.

    Each tree is folded through :func:`bracket` from the leaves up, so the
    Lyndon-block solve is the only one.  Raises :class:`BidegreeError` when
    the expression mixes bidegrees.
    """
    expr = as_expr(expr)
    bd = expr.bidegree()
    if bd is None:
        return LieElement.zero()
    return sum((c * _fold(tree) for tree, c in expr.terms.items()), LieElement.zero(bd))


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

# Deepest bracket tree parse_expr accepts: parsing and normalization take stack
# frames per level, and much deeper input exhausts the default recursion limit.
MAX_DEPTH = 256

# A token is an integer or one non-space character; whitespace separates only.
_TOKEN = re.compile(r"\d+|\S")


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
    parser = _Parser(text)
    expr, _ = parser.parse_sum()
    tok = parser.tokens[parser.i]
    if tok is not None:
        parser.error(f"unexpected trailing input {tok!r}")
    return expr


class _Parser:
    """Recursive descent over the token list of ``text``, ended by None."""

    def __init__(self, text: str):
        self.text = text
        self.tokens: list[str | None] = _TOKEN.findall(text) + [None]
        self.i = 0
        self.nesting = 0

    def error(self, message: str, at: int | None = None):
        # Token i starts where the i-th match does, or at the end for None.
        starts = [m.start() for m in _TOKEN.finditer(self.text)] + [len(self.text)]
        raise ValueError(f"parse error at position {starts[self.i if at is None else at]}: {message}")

    def accept(self, *wanted: str) -> str | None:
        """Consume and return the current token if it is one of ``wanted``."""
        tok = self.tokens[self.i]
        if tok in wanted:
            self.i += 1
            return tok
        return None

    def require(self, wanted: str) -> None:
        if self.accept(wanted) is None:
            tok = self.tokens[self.i]
            self.error("unexpected end of input" if tok is None else f"expected {wanted!r}, got {tok!r}")

    # The parse methods return (expression, depth of its deepest tree).
    def parse_sum(self) -> tuple[BracketExpr, int]:
        sign = self.accept("+", "-")
        expr, depth = self.parse_term()
        if sign == "-":
            expr = -expr
        while (op := self.accept("+", "-")) is not None:
            term, term_depth = self.parse_term()
            expr = expr + term if op == "+" else expr - term
            depth = max(depth, term_depth)
        return expr, depth

    def parse_term(self) -> tuple[BracketExpr, int]:
        coeff = -1 if self.accept("-") else 1
        tok = self.tokens[self.i]
        if tok is not None and tok.isdecimal():
            self.i += 1
            coeff *= int(tok)
            self.require("*")
        atom, depth = self.parse_atom()
        # Scaling by 1 would only copy the terms and hash every tree again.
        return (atom if coeff == 1 else coeff * atom), depth

    def parse_atom(self) -> tuple[BracketExpr, int]:
        tok = self.tokens[self.i]
        if tok in LETTERS:
            self.i += 1
            return BracketExpr.letter(tok), 0
        if tok != "[":
            self.error(f"expected a letter or '[', got {tok!r}")
        opened = self.i
        self.nesting += 1
        if self.nesting > MAX_DEPTH:
            self.error(f"brackets nest deeper than {MAX_DEPTH} levels")
        self.i += 1
        slots = [self.parse_sum()]
        while self.accept(","):
            slots.append(self.parse_sum())
        self.require("]")
        self.nesting -= 1
        if len(slots) < 2:
            self.error("a bracket needs at least two slots", at=opened)
        # [x1, ..., xn] puts x1 n-1 levels deep and xi (i >= 2) n-i+1.
        depth = max(d + len(slots) - max(i, 1) for i, (_, d) in enumerate(slots))
        if depth > MAX_DEPTH:
            self.error(f"brackets nest deeper than {MAX_DEPTH} levels", at=opened)
        return left_normed(*(x for x, _ in slots)), depth
