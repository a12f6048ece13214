"""Kernel lattices of the pair map and machine-checkable identity certificates.

The pair map sends (A, B) in L_{k-1,l} (+) L_{k,l-1} to [A,a] + [B,b] in
L_{k,l}.  A kernel vector is exactly a bracket identity [A,a] = [-B,b]
valid in every Lie ring, so kernels are computed as honest integer
lattices and shipped as certificates that can be re-verified from scratch.

Basis conventions: the domain lists the Lyndon basis of L_{k-1,l} first
(each bracketed with the letter a), then L_{k,l-1} (bracketed with b),
both in lexicographic word order; the codomain is the Lyndon basis of
L_{k,l}.  A summand with a negative index is the zero module, which makes
boundary bidegrees like (2, 0) come out right rather than erroring.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable

from .algebra import (
    InconsistencyError,
    LieElement,
    _accumulate,
    _tree_poly,
    bracket_with_letter,
    check_weight,
)
from .words import is_lyndon, lyndon_bracket, lyndon_words
from .zlinalg import (
    Echelon,
    IntMatrix,
    KernelLattice,
    echelon,
    lattice_coordinates,
)


@dataclass(frozen=True)
class PairMatrix:
    """The pair map on one bidegree, in canonical bases."""

    k: int
    l: int
    domain: tuple[tuple[str, str], ...]  # (basis word, letter it gets bracketed with)
    codomain: tuple[str, ...]
    matrix: IntMatrix


@dataclass(frozen=True)
class IdentityCertificate:
    """A pair (A, B) claimed to satisfy [A,a] + [B,b] = 0.

    ``source`` records provenance ("computed", "family:<name>" or "user");
    ``verified`` is only set by :func:`verify_certificates`.  The verdict
    depends only on the frozen fields, and ``dataclasses.replace`` starts
    the copy unverified.
    """

    k: int
    l: int
    A: LieElement
    B: LieElement
    source: str = "user"
    verified: bool = field(default=False, init=False)


@dataclass(frozen=True)
class SurjectivityReport:
    """Rank and cokernel data for the pair map on one bidegree."""

    k: int
    l: int
    codomain_dim: int
    rank: int
    invariant_factors: tuple[int, ...]

    @property
    def surjective(self) -> bool:
        # Full rank with unit invariant factors means the cokernel is
        # trivial over the integers, not merely over the rationals.
        return self.rank == self.codomain_dim and all(f == 1 for f in self.invariant_factors)

    def __bool__(self) -> bool:
        return self.surjective


@dataclass(frozen=True)
class MembershipReport:
    """Where a certificate vector sits inside the computed kernel lattice."""

    member: bool
    kernel_rank: int
    index: int | None = None
    generator: bool | None = None


def _slice_basis(k: int, l: int) -> tuple[str, ...]:
    if k < 0 or l < 0 or (k, l) == (0, 0):
        return ()
    return lyndon_words(k, l)


def _check_bidegree(k: int, l: int) -> None:
    if k < 0 or l < 0:
        raise ValueError(f"bidegree components must be nonnegative, got ({k}, {l})")
    if (k, l) == (0, 0):
        raise ValueError("bidegree (0, 0) is empty")


@lru_cache(maxsize=None)
def pair_matrix(k: int, l: int) -> PairMatrix:
    """Matrix of (A, B) -> [A,a] + [B,b] on the bidegree-(k, l) slice."""
    _check_bidegree(k, l)
    dom_a = _slice_basis(k - 1, l)
    dom_b = _slice_basis(k, l - 1)
    codomain = _slice_basis(k, l)
    position = {w: i for i, w in enumerate(codomain)}
    columns = []
    for words, letter, bd in ((dom_a, "a", (k - 1, l)), (dom_b, "b", (k, l - 1))):
        for w in words:
            image = bracket_with_letter(LieElement._make(bd, {w: 1}), letter)
            column = [0] * len(codomain)
            for word, c in image.coeffs.items():
                column[position[word]] = c
            columns.append(column)
    entries = [[col[i] for col in columns] for i in range(len(codomain))]
    matrix = IntMatrix(entries, cols=len(columns))
    domain = tuple((w, "a") for w in dom_a) + tuple((w, "b") for w in dom_b)
    return PairMatrix(k, l, domain, codomain, matrix)


@lru_cache(maxsize=None)
def _pair_echelon(k: int, l: int) -> Echelon:
    return echelon(pair_matrix(k, l).matrix)


def pair_rank(k: int, l: int) -> int:
    return _pair_echelon(k, l).rank


def kernel_lattice(k: int, l: int) -> KernelLattice:
    """Canonical integer kernel of the pair map on one bidegree."""
    return _pair_echelon(k, l).kernel


def pair_image(a_part: LieElement, b_part: LieElement) -> LieElement:
    """[A, a] + [B, b], normalized."""
    return bracket_with_letter(a_part, "a") + bracket_with_letter(b_part, "b")


def _check_certificate_shape(cert: IdentityCertificate) -> None:
    _check_bidegree(cert.k, cert.l)
    expected_a = (cert.k - 1, cert.l)
    expected_b = (cert.k, cert.l - 1)
    if cert.A.bidegree is not None and cert.A.bidegree != expected_a:
        raise ValueError(f"A has bidegree {cert.A.bidegree}, expected {expected_a}")
    if cert.B.bidegree is not None and cert.B.bidegree != expected_b:
        raise ValueError(f"B has bidegree {cert.B.bidegree}, expected {expected_b}")


@lru_cache(maxsize=None)
def _lyndon_key(word: str) -> str | None:
    """The first copy of ``word`` seen if it is Lyndon, else None.

    Memoized for the letter columns.  The words they test are w+u+b and
    a+w+u, for w, u a pair of terms of the ``_tree_poly`` dicts of a
    word's standard factors: words of the bidegree of [[word], letter] that
    start with a and end with b, so the cache holds at most C(k+l-2, k-1)
    words per bidegree (k, l) checked, and only those some walk reached.
    A word is met from many columns and pairs of a slice, which then share
    one string for it as a key.
    """
    return word if is_lyndon(word) else None


def _letter_column(word: str, letter: str) -> dict[str, int]:
    """Coefficients of [[word], letter] on the Lyndon words of its bidegree.

    With P the associative expansion of [word], [[word], x] = Px - xP.  A
    Lyndon word of weight >= 2 starts with a and ends with b, so one term
    of Px - xP alone reaches the Lyndon words: P(v) at z = vb when x is b,
    and -P(v) at z = av when x is a.  P is never built: [word] = [[u], [v]]
    for (u, v) the standard factorization, so P = P_u P_v - P_v P_u, and as
    P_u and P_v are homogeneous, each term of P_u P_v is the one product
    c_w c_t at the word wt.  The column walks the pairs of the cached
    ``_tree_poly`` dicts of the two factors, only the left words that start
    with a when x is b and only the right words that end with b when x is
    a, and tests each extended word with ``_lyndon_key``.  Its work is
    bounded by 2|P_u||P_v|, whatever the size of the bidegree, and no word
    list is enumerated.  It is not cached: a batch builds each of its
    columns once.
    """
    if len(word) == 1:
        return {} if word == letter else {"ab": 1 if letter == "b" else -1}
    tree = lyndon_bracket(word)
    left_poly, right_poly = _tree_poly(tree.left), _tree_poly(tree.right)
    column: dict[str, int] = {}
    for left, right, sign in ((left_poly, right_poly, 1), (right_poly, left_poly, -1)):
        if letter == "b":
            left = {w: c for w, c in left.items() if w[0] == "a"}
            head, tail = "", "b"
        else:
            right = {t: c for t, c in right.items() if t[-1] == "b"}
            head, tail, sign = "a", "", -sign
        for w, cw in left.items():
            # For a fixed w, t -> wt is injective, so no comprehension merges two terms.
            prefix = head + w
            hits = {key: ct for t, ct in right.items()
                    if (key := _lyndon_key(prefix + t + tail)) is not None}
            _accumulate(column, hits, sign * cw)
    return column


def _vanishes(certs: tuple[IdentityCertificate, ...], columns: dict) -> bool:
    """Whether [A,a] + [B,b] is 0 for every certificate, by one packed sum.

    Certificate t enters the column of (word, letter) as slot t of the
    packed coefficient sum_t c_t 2^(W t), c_t its coefficient at that word
    (a Kronecker substitution), so one ``_accumulate`` per column adds the
    column into every image at once.  At a Lyndon word, slot t of the
    packed image is certificate t's coefficient s_t, and |s_t| is at most
    ||(A_t, B_t)||_1 times the largest column entry, which is below
    2^(W-1) for W the bit length of the largest such product plus one.  A
    sum sum_t s_t 2^(W t) with every |s_t| < 2^W is 0 only when every s_t
    is: it is s_0 modulo 2^W, so s_0 = 0, and the rest is 2^W times a
    shorter such sum.  So the packed image is empty exactly when every
    image is.
    """
    entry = max((abs(c) for column in columns.values() for c in column.values()), default=0)
    norm = max(sum(map(abs, cert.A.coeffs.values())) + sum(map(abs, cert.B.coeffs.values()))
               for cert in certs)
    width = (norm * entry).bit_length() + 1
    parts = {"a": [cert.A.coeffs for cert in reversed(certs)],
             "b": [cert.B.coeffs for cert in reversed(certs)]}
    image: dict[str, int] = {}
    for (word, letter), column in columns.items():
        packed = 0
        for coeffs in parts[letter]:
            packed = (packed << width) + coeffs.get(word, 0)
        if packed:
            _accumulate(image, column, packed)
    return not image


def verify_certificates(certs: Iterable[IdentityCertificate]) -> tuple[bool, ...]:
    """Re-check [A,a] + [B,b] = 0 for certificates of one bidegree; record each verdict.

    Returns the verdicts in the order given; the empty batch returns ().
    [A,a] + [B,b] is a Lie polynomial, and a Lie polynomial is 0 exactly
    when its coefficients on the Lyndon words of its bidegree are 0,
    because the Lyndon x Lyndon block of the basis expansion is unit
    triangular (Reutenauer, *Free Lie Algebras*, Ch. 4-5).  Those
    coefficients are summed from ``_letter_column``, which reads the
    associative expansions of the standard factors of the basis words,
    tests words with ``is_lyndon`` and solves nothing.  So the check
    shares no code with the Lyndon rewriting (``algebra._prod``) that
    computed the kernel vectors, which expands nothing, and does not depend
    on ``lyndon_words`` listing a bidegree in full.

    Each (word, letter) column of the batch is built once, and ``_vanishes``
    adds it into the images of all the certificates in one packed pass.
    When some image is not 0, each certificate is checked alone on the
    same columns, so each gets its own verdict.
    """
    certs = tuple(certs)
    for cert in certs:
        _check_certificate_shape(cert)
    if len({(cert.k, cert.l) for cert in certs}) > 1:
        raise ValueError("a batch of certificates must share one bidegree")
    keys = dict.fromkeys((word, letter) for cert in certs
                         for part, letter in ((cert.A, "a"), (cert.B, "b")) for word in part.coeffs)
    columns = {key: _letter_column(*key) for key in keys}
    if not certs or _vanishes(certs, columns):
        verdicts = (True,) * len(certs)
    else:
        verdicts = tuple(_vanishes((cert,), columns) for cert in certs)
    for cert, verdict in zip(certs, verdicts):
        object.__setattr__(cert, "verified", verdict)
    return verdicts


def verify_certificate(cert: IdentityCertificate) -> bool:
    """Re-check [A,a] + [B,b] = 0; record the verdict and return it.

    The batch of one of :func:`verify_certificates`.
    """
    return verify_certificates((cert,))[0]


def certificate_vector(cert: IdentityCertificate) -> tuple[int, ...]:
    """Coordinates of (A, B) in the canonical domain basis of the bidegree."""
    _check_certificate_shape(cert)
    dom_a = _slice_basis(cert.k - 1, cert.l)
    dom_b = _slice_basis(cert.k, cert.l - 1)
    return tuple(cert.A.coeffs.get(w, 0) for w in dom_a) + tuple(
        cert.B.coeffs.get(w, 0) for w in dom_b
    )


def _element_from_slice(bd: tuple[int, int], words: tuple[str, ...], coords) -> LieElement:
    if not words:
        return LieElement.zero()
    return LieElement._make(bd, {w: c for w, c in zip(words, coords) if c})


@lru_cache(maxsize=None)
def kernel_certificates(k: int, l: int) -> tuple[IdentityCertificate, ...]:
    """One verified certificate per canonical kernel basis vector, checked as one batch."""
    lattice = kernel_lattice(k, l)
    dom_a = _slice_basis(k - 1, l)
    dom_b = _slice_basis(k, l - 1)
    split = len(dom_a)
    certificates = tuple(
        IdentityCertificate(
            k,
            l,
            _element_from_slice((k - 1, l), dom_a, vector[:split]),
            _element_from_slice((k, l - 1), dom_b, vector[split:]),
            source="computed",
        )
        for vector in lattice.basis
    )
    if not all(verify_certificates(certificates)):
        raise InconsistencyError(f"kernel vector of bidegree ({k}, {l}) failed re-verification")
    return certificates


def check_surjective(k: int, l: int) -> SurjectivityReport:
    """Rank and integral cokernel check for the pair map (weight >= 2 only).

    The pivots are those of the slice's cached ``echelon``.  When the rank
    equals the number of rows, the nonzero rows of HNF(M^T) are a
    triangular basis of the image lattice, of index the product of the
    pivots, so the cokernel is trivial exactly when every pivot is 1; the
    invariant factors are then all 1.  The unit-pivot pass reports that
    case directly, having shown M unimodularly onto Z^rows.  Any other
    echelon contradicts the surjectivity of the pair map in weight >= 2,
    so it means the pair matrix is wrong, and raises InconsistencyError.
    """
    if k + l < 2:
        raise ValueError(f"surjectivity check needs weight >= 2, got ({k}, {l})")
    rows = pair_matrix(k, l).matrix.rows
    ech = _pair_echelon(k, l)
    if ech.rank != rows or any(p != 1 for p in ech.pivots):
        raise InconsistencyError(
            f"the pair map of bidegree ({k}, {l}) is not onto Z^{rows}: "
            f"rank {ech.rank}, largest pivot {max(ech.pivots, default=0)}"
        )
    return SurjectivityReport(k, l, codomain_dim=rows, rank=rows, invariant_factors=(1,) * rows)


def lattice_membership(cert: IdentityCertificate) -> MembershipReport:
    """Locate a verified certificate inside the computed kernel lattice.

    For rank-1 kernels the index of the vector against the generator is
    reported, so "generates" claims become exact index-1 statements.
    """
    if not cert.verified:
        raise ValueError("certificate must be verified before membership checks")
    lattice = kernel_lattice(cert.k, cert.l)
    coords = lattice_coordinates(lattice, certificate_vector(cert))
    member = coords is not None
    index = generator = None
    if member and lattice.rank == 1:
        index = abs(coords[0])
        generator = index == 1
    return MembershipReport(member, lattice.rank, index, generator)


# ---------------------------------------------------------------------------
# serialization


def element_pairs(x: LieElement) -> list[list[str]]:
    """JSON shape of an element: [[decimal coefficient, word], ...]."""
    return [[str(c), w] for c, w in x.terms()]


def _integer(value, what: str) -> int:
    """A JSON integer or a decimal string; floats and booleans are refused."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str) and re.fullmatch(r"-?[0-9]+", value):
        return int(value)
    raise ValueError(f"{what} must be an integer or a decimal string, got {value!r}")


def _element_from_pairs(pairs, bd: tuple[int, int]) -> LieElement:
    """The element [[coefficient, word], ...] lists; LieElement checks the words.

    No word has a negative bidegree, so a zero-module component passes only empty.
    """
    if not isinstance(pairs, (list, tuple)):
        raise ValueError(f"expected a list of [coefficient, word] pairs, got {pairs!r}")
    coeffs: dict[str, int] = {}
    for item in pairs:
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            raise ValueError(f"expected [coefficient, word] pairs, got {item!r}")
        raw_c, word = item
        if not isinstance(word, str):
            raise ValueError(f"word must be a string, got {word!r}")
        if word in coeffs:
            raise ValueError(f"duplicate word {word!r}")
        coeffs[word] = _integer(raw_c, "coefficient")
    return LieElement(bd, coeffs) if coeffs else LieElement.zero()


def certificate_to_dict(cert: IdentityCertificate) -> dict:
    return {
        "k": cert.k,
        "l": cert.l,
        "A": element_pairs(cert.A),
        "B": element_pairs(cert.B),
        "source": cert.source,
        "verified": cert.verified,
    }


def certificate_from_dict(data: dict) -> IdentityCertificate:
    """Load a certificate record, unverified whatever its "verified" field says.

    Every check runs once, cheapest first: the fields, then k and l with
    the bidegree and the weight limit, then for each of A and B the pair
    shapes before the words themselves.
    """
    if not isinstance(data, dict) or not {"k", "l", "A", "B"} <= data.keys():
        raise ValueError("malformed certificate record: need an object with k, l, A and B")
    k, l = _integer(data["k"], "k"), _integer(data["l"], "l")
    _check_bidegree(k, l)
    check_weight(k, l)
    return IdentityCertificate(k, l, _element_from_pairs(data["A"], (k - 1, l)),
                               _element_from_pairs(data["B"], (k, l - 1)),
                               source=str(data.get("source", "user")))


def certificate_latex(cert: IdentityCertificate) -> str:
    """Render the certificate as the identity [A, a] = [-B, b]."""
    return rf"\left[{cert.A},\, a\right] = \left[{-cert.B},\, b\right]"
