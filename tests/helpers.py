"""Brute-force oracles and random generators shared by the test suite.

The expanders here are written independently of the package internals so
that normalization is checked against a second implementation, not against
itself.  ``reference_normalize`` and ``reference_bracket`` solve over every
word of the bidegree, with a residual check, where the package rewrites
products of Lyndon words; they share nothing with it but the Lyndon
brackets.  ``block_bracket`` is the package's former bracket, the solve on
the unit triangular Lyndon x Lyndon block of each bidegree (``_lyndon_block``
and its helpers, moved here unchanged), the reference for ``algebra._prod``.
``reference_smith_invariants`` is a direct Smith pivot search, the witness
for saturated kernels and trivial cokernels now that the package reads
surjectivity off its echelon pivots, and ``reference_parse_expr`` a
character-walking parser of the grammar ``algebra.parse_expr`` reads from one
token list, building every expression through ``left_normed`` and naming
every error where README says: at the start of the offending token.
``reference_echelon`` is ``zlinalg.echelon`` by the dense HNF of the whole
[M^T | I], where the package reduces only the core its unit-pivot pass
leaves, and ``reference_verify_certificate`` the check of a
certificate on the full associative expansion of [A,a] + [B,b], which the
package replaced by a check on the Lyndon coefficients.
``element_fold_normalize`` is the package's former ``normalize``, a fold
of ``LieElement`` brackets that adds each c * [[u], [v]] through
``_accumulate`` after a separate bidegree walk, the reference for the fold
on plain coordinate dicts.
``reference_letter_column`` reads those coefficients off the full expansion
of the word, where the package walks the pairs of left standard factors
and their groups of right factors.
``reference_evaluate_expr``, ``reference_evaluate_element``,
``reference_evaluate_certificate`` and ``reference_oracle_check`` are the
matrix oracle's former evaluation, moved here unchanged: a recursive walk
over each tree with a value cache, two dense products a commutator and a
reduction mod the modulus after every step, where the package runs a
compiled plan on row-packed integers and reduces once.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Mapping

from liering import zlinalg
from liering.algebra import (
    MAX_DEPTH,
    MAX_PRODUCT_TERMS,
    BracketExpr,
    InconsistencyError,
    LieElement,
    _accumulate,
    _commutators,
    _prod,
    _tree_poly,
    as_expr,
    basis_expansion,
    left_normed,
)
from liering.kernels import IdentityCertificate, _check_certificate_shape
from liering.oracle import MatrixAssignment, OracleReport, random_assignment
from liering.words import (
    LETTERS,
    Leaf,
    Node,
    all_words,
    is_lyndon,
    lyndon_bracket,
    lyndon_words,
    standard_factorization,
)
from liering.words import bidegree as word_bidegree
from liering.zlinalg import Echelon, IntMatrix, _hnf_pass, canonical_lattice


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


@lru_cache(maxsize=None)
def reference_context(k: int, l: int):
    """(vocabulary, word index, rows) for the full-vocabulary solve of (k, l).

    Each row is (Lyndon word, its index, expansion pairs sorted by word
    index).  The leading pair of every row must be (own index, 1).
    """
    vocab = all_words(k, l)
    index = {w: i for i, w in enumerate(vocab)}
    rows = []
    for w in lyndon_words(k, l):
        pairs = sorted((index[u], c) for u, c in brute_expand_tree(lyndon_bracket(w)).items())
        widx = index[w]
        if pairs[0] != (widx, 1):
            raise InconsistencyError(f"basis expansion is not unit triangular at {w!r}")
        rows.append((w, widx, tuple(pairs)))
    return vocab, index, tuple(rows)


def reference_reduce(poly_coeffs, bd: tuple[int, int]) -> LieElement:
    """Back-substitute a homogeneous word polynomial onto the Lyndon basis."""
    vocab, index, rows = reference_context(*bd)
    residual = [0] * len(vocab)
    for word, c in poly_coeffs.items():
        residual[index[word]] = c
    out: dict[str, int] = {}
    for word, widx, pairs in rows:
        c = residual[widx]
        if c:
            out[word] = c
            for i, e in pairs:
                residual[i] -= c * e
    if any(residual):
        raise InconsistencyError(
            f"nonzero residual after back-substitution in bidegree {bd}; "
            "the input polynomial does not lie in the free Lie ring"
        )
    return LieElement(bd, out)


def reference_normalize(expr: BracketExpr) -> LieElement:
    """Lyndon coordinates of the associative expansion, over every word."""
    bd = expr.bidegree()
    if bd is None:
        return LieElement.zero()
    return reference_reduce(brute_expand_expr(expr), bd)


def reference_bracket(x: LieElement, y: LieElement) -> LieElement:
    """[x, y] through ``reference_normalize`` of the bracketed basis expansions."""
    if x.is_zero() or y.is_zero():
        if x.bidegree is not None and y.bidegree is not None:
            return LieElement.zero((x.bidegree[0] + y.bidegree[0], x.bidegree[1] + y.bidegree[1]))
        return LieElement.zero()
    return reference_normalize(basis_expansion(x).bracket(basis_expansion(y)))


# ---------------------------------------------------------------------------
# the Lyndon-block solve


def _element_poly(x: LieElement) -> dict[str, int]:
    out: dict[str, int] = {}
    for word, c in x.coeffs.items():
        _accumulate(out, _tree_poly(lyndon_bracket(word)), c)
    return out


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


def block_bracket(x: LieElement, y: LieElement) -> LieElement:
    """Normalized bracket of two basis-coordinate elements.

    [x, y] is a Lie polynomial, so its coefficients on the Lyndon words of
    its bidegree determine it: they are back-substituted on the Lyndon block.
    This was ``algebra.bracket`` before the Lyndon rewriting replaced it.
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


# ---------------------------------------------------------------------------
# the fold on LieElement brackets


def _element_bracket(x: LieElement, y: LieElement) -> LieElement:
    """[x, y] of typed elements, c * [[u], [v]] added per pair of words."""
    bd = (x.bidegree[0] + y.bidegree[0], x.bidegree[1] + y.bidegree[1])
    out: dict[str, int] = {}
    for u, cu in x.coeffs.items():
        for v, cv in y.coeffs.items():
            if u < v:
                _accumulate(out, _prod(u, v), cu * cv)
            elif v < u:
                _accumulate(out, _prod(v, u), -cu * cv)
    return LieElement._make(bd, out)


def _element_fold(tree) -> LieElement:
    if isinstance(tree, Leaf):
        return LieElement._make(word_bidegree(tree.letter), {tree.letter: 1})
    return _element_bracket(_element_fold(tree.left), _element_fold(tree.right))


def element_fold_normalize(expr) -> LieElement:
    """``algebra.normalize`` before it folded on plain dicts: one element per node."""
    expr = as_expr(expr)
    bd = expr.bidegree()
    if bd is None:
        return LieElement.zero()
    return sum((c * _element_fold(tree) for tree, c in expr.terms.items()), LieElement.zero(bd))


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


def reference_smith_invariants(m: IntMatrix) -> tuple[int, ...]:
    """Positive invariant factors d1 | d2 | ... by a direct pivot search.

    Each step moves the smallest nonzero entry of the trailing block to the
    corner, clears its row and column, and folds in a row the pivot does
    not divide.  It shares no code with ``zlinalg``.
    """
    a = [row[:] for row in m.entries]
    rows, cols = m.rows, m.cols
    invariants: list[int] = []
    t = 0
    while t < rows and t < cols:
        # Pick the smallest nonzero entry of the trailing block as pivot.
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                v = a[i][j]
                if v and (best is None or abs(v) < abs(best[2])):
                    best = (i, j, v)
                    if abs(v) == 1:
                        break
            if best is not None and abs(best[2]) == 1:
                break
        if best is None:
            break
        bi, bj, _ = best
        if bi != t:
            a[bi], a[t] = a[t], a[bi]
        if bj != t:
            for row in a:
                row[bj], row[t] = row[t], row[bj]
        pivot = a[t][t]
        dirty = False
        for i in range(t + 1, rows):
            q = a[i][t] // pivot
            if q:
                row_i, row_t = a[i], a[t]
                for j in range(t, cols):
                    row_i[j] -= q * row_t[j]
            if a[i][t]:
                dirty = True
        for j in range(t + 1, cols):
            q = a[t][j] // pivot
            if q:
                for row in a:
                    row[j] -= q * row[t]
            if a[t][j]:
                dirty = True
        if dirty:
            continue
        # Pivot must divide the rest of the block; fold a bad row in if not.
        bad = next(
            (i for i in range(t + 1, rows) if any(a[i][j] % pivot for j in range(t + 1, cols))),
            None,
        )
        if bad is not None:
            row_t, row_b = a[t], a[bad]
            for j in range(t, cols):
                row_t[j] += row_b[j]
            continue
        invariants.append(abs(pivot))
        t += 1
    return tuple(invariants)


def reference_echelon(m: IntMatrix) -> Echelon:
    """Rank, pivots and canonical kernel from the HNF of the whole [M^T | I].

    Its pivots are the diagonal of HNF(M^T), which ``zlinalg.echelon``'s
    need not be: theirs are the unit pivots of its elimination, then the
    core's.  Both count the rank, both are all 1 exactly when M is onto
    Z^rows, and at full rank both multiply to the index of the image.
    """
    pivots, generators = _hnf_pass(m.entries, m.cols)
    return Echelon(pivots, canonical_lattice(m.cols, generators))


def core_shapes(monkeypatch) -> list[tuple[int, int]]:
    """Record the shape of every core ``zlinalg.echelon`` hands to the HNF pass."""
    calls: list[tuple[int, int]] = []
    real = zlinalg._hnf_pass

    def counted(rows, cols):
        calls.append((len(rows), cols))
        return real(rows, cols)

    monkeypatch.setattr(zlinalg, "_hnf_pass", counted)
    return calls


def reference_letter_column(word: str, letter: str) -> dict[str, int]:
    """Lyndon coefficients of [[word], letter] off the full expansion P of [word].

    The package's former ``kernels._letter_column``: P(u) at ub for the
    letter b and -P(u) at au for a, kept where the extended word is Lyndon.
    """
    poly = _tree_poly(lyndon_bracket(word))
    if letter == "b":
        terms = ((u + "b", c) for u, c in poly.items() if u[0] == "a")
    else:
        terms = (("a" + u, -c) for u, c in poly.items() if u[-1] == "b")
    return {z: c for z, c in terms if is_lyndon(z)}


def reference_verify_certificate(cert: IdentityCertificate) -> bool:
    """Whether the associative expansion of [A,a] + [B,b] vanishes on every word.

    The package's former check, except that the verdict is returned
    without being recorded on the certificate and that one sum of
    commutators takes both sides.
    """
    _check_certificate_shape(cert)
    image = _commutators([(_element_poly(cert.A), {"a": 1}, 1),
                          (_element_poly(cert.B), {"b": 1}, 1)])
    return not image


def reference_parse_expr(text: str) -> BracketExpr:
    """The grammar of ``algebra.parse_expr``, read character by character."""
    parser = _Parser(text)
    expr, _ = parser.parse_sum()
    if parser.peek() is not None:
        parser.error(f"unexpected trailing input {parser.token()!r}")
    return expr


class _Parser:
    # README's rule: a token is an integer or one non-space character, and an
    # error names the position where the offending token starts, by default the
    # next one; at the end of input it says only that.
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.nesting = 0

    def error(self, message: str, at: int | None = None):
        self.skip_ws()
        at = self.pos if at is None else at
        if at == len(self.text):
            message = "unexpected end of input"
        raise ValueError(f"parse error at position {at}: {message}")

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str | None:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else None

    def token(self) -> str | None:
        """The whole next token, without taking it; None at the end of input."""
        if self.peek() is None:
            return None
        end = self.pos
        while end < len(self.text) and "0" <= self.text[end] <= "9":
            end += 1
        return self.text[self.pos : max(end, self.pos + 1)]

    def take(self) -> str:
        ch = self.peek()  # every caller has peeked a character here
        self.pos += 1
        return ch

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            self.error(f"expected {ch!r}, got {self.token()!r}")
        self.take()

    def parse_int(self) -> int:
        digits = self.token()
        try:
            value = int(digits)
        except ValueError:  # past the interpreter's limit on integer digits
            self.error(f"integer of {len(digits)} digits is too long")
        self.pos += len(digits)
        return value

    # The parse methods return (expression, depth of its deepest tree).
    def parse_sum(self) -> tuple[BracketExpr, int]:
        ch = self.peek()
        if ch in ("+", "-"):
            self.take()
        expr, depth = self.parse_term()
        if ch == "-":
            expr = -expr
        while self.peek() in ("+", "-"):
            op = self.take()
            term, term_depth = self.parse_term()
            expr = expr + term if op == "+" else expr - term
            depth = max(depth, term_depth)
        return expr, depth

    def parse_term(self) -> tuple[BracketExpr, int]:
        coeff = 1
        if self.peek() == "-":
            self.take()
            coeff = -1
        ch = self.peek()
        if ch is not None and "0" <= ch <= "9":
            coeff *= self.parse_int()
            self.expect("*")
        atom, depth = self.parse_atom()
        # Scaling by 1 would only copy the terms and hash every tree again.
        return (atom if coeff == 1 else coeff * atom), depth

    def parse_atom(self) -> tuple[BracketExpr, int]:
        ch = self.peek()
        if ch in LETTERS:
            self.take()
            return BracketExpr.letter(ch), 0
        if ch != "[":
            self.error(f"expected a letter or '[', got {self.token()!r}")
        opened = self.pos
        if self.nesting == MAX_DEPTH:
            self.error(f"brackets nest deeper than {MAX_DEPTH} levels")
        self.take()
        self.nesting += 1
        expr, depth = self.parse_sum()
        slots = 1
        while self.peek() == ",":
            self.take()
            self.skip_ws()
            start = self.pos
            slot, slot_depth = self.parse_sum()
            slots += 1
            # [x1, ..., xn] puts x1 n-1 levels deep and xi (i >= 2) n-i+1; each
            # slot is multiplied in as it closes, and none past MAX_DEPTH.
            depth = max(depth, slot_depth) + 1
            if depth <= MAX_DEPTH:
                product = len(expr.terms) * len(slot.terms)
                if product > MAX_PRODUCT_TERMS:
                    self.error(f"bracket multiplies out to {product} trees, past the limit"
                               f" of {MAX_PRODUCT_TERMS}", start)
                expr = left_normed(expr, slot)
        self.expect("]")
        self.nesting -= 1
        if slots < 2:
            self.error("a bracket needs at least two slots", opened)
        if depth > MAX_DEPTH:
            self.error(f"brackets nest deeper than {MAX_DEPTH} levels", opened)
        return expr, depth


# ---------------------------------------------------------------------------
# the matrix oracle's former evaluation


def _zero(dim: int) -> list[list[int]]:
    return [[0] * dim for _ in range(dim)]


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


def _matrix_commutator(x, y, dim: int, modulus: int | None):
    xy = _mul(x, y, dim)
    yx = _mul(y, x, dim)
    return _reduced([[xy[i][j] - yx[i][j] for j in range(dim)] for i in range(dim)], modulus)


def _add_scaled(acc, mat, c: int, dim: int) -> None:
    for i in range(dim):
        ai = acc[i]
        mi = mat[i]
        for j in range(dim):
            ai[j] += c * mi[j]


def _eval_tree(tree, assignment: MatrixAssignment, modulus, cache):
    cached = cache.get(tree)
    if cached is not None:
        return cached
    if isinstance(tree, Leaf):
        value = _reduced(assignment.a_matrix if tree.letter == "a" else assignment.b_matrix, modulus)
    else:
        left = _eval_tree(tree.left, assignment, modulus, cache)
        right = _eval_tree(tree.right, assignment, modulus, cache)
        value = _matrix_commutator(left, right, assignment.dim, modulus)
    cache[tree] = value
    return value


def _sum_trees(terms, assignment: MatrixAssignment, modulus: int | None, cache: dict):
    """The sum of c * value(tree) over (tree, c) pairs, reduced once at the end."""
    dim = assignment.dim
    acc = _zero(dim)
    for tree, c in terms:
        _add_scaled(acc, _eval_tree(tree, assignment, modulus, cache), c, dim)
    return tuple(tuple(row) for row in _reduced(acc, modulus))


def _element_terms(x: LieElement):
    return ((lyndon_bracket(word), c) for word, c in x.coeffs.items())


def reference_evaluate_expr(expr, assignment: MatrixAssignment, modulus: int | None = None):
    return _sum_trees(as_expr(expr).terms.items(), assignment, modulus, {})


def reference_evaluate_element(x: LieElement, assignment: MatrixAssignment,
                               modulus: int | None = None):
    return _sum_trees(_element_terms(x), assignment, modulus, {})


def reference_evaluate_certificate(cert: IdentityCertificate, assignment: MatrixAssignment,
                                   modulus: int | None = None):
    dim = assignment.dim
    cache: dict = {}
    value_a = _sum_trees(_element_terms(cert.A), assignment, modulus, cache)
    value_b = _sum_trees(_element_terms(cert.B), assignment, modulus, cache)
    out = _matrix_commutator(value_a, assignment.a_matrix, dim, modulus)
    _add_scaled(out, _matrix_commutator(value_b, assignment.b_matrix, dim, modulus), 1, dim)
    return tuple(tuple(row) for row in _reduced(out, modulus))


def reference_oracle_check(cert: IdentityCertificate, trials: int = 50, dim: int = 4,
                           seed: int = 0, modulus: int | None = None) -> OracleReport:
    """The report of ``oracle.oracle_check``, its trials run on the reference evaluation."""
    note = "passing trials are evidence, not proof"
    if modulus:
        note += f"; evaluated modulo {modulus}, which can mask nonzero integer values"
    failed_trial = counterexample = None
    for trial in range(trials):
        assignment = random_assignment(dim, (seed << 20) ^ trial)
        value = reference_evaluate_certificate(cert, assignment, modulus)
        if any(v for row in value for v in row):
            failed_trial, counterexample = trial, assignment
            break
    return OracleReport(
        certificate=f"({cert.k},{cert.l}):{cert.source}", dim=dim, trials=trials, seed=seed,
        modulus=modulus, verdict="pass" if failed_trial is None else "fail",
        failed_trial=failed_trial, counterexample=counterexample, note=note,
    )
