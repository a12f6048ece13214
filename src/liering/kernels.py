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
from dataclasses import dataclass, field, fields
from functools import lru_cache, reduce
from operator import or_
from typing import Iterable, Iterator

from .algebra import (
    InconsistencyError,
    LieElement,
    _accumulate,
    _commutators,
    _tree_poly,
    bracket_with_letter,
    check_weight,
)
from .words import (BracketTree, _is_lyndon_ab, check_bidegree, is_bidegree, lyndon_bracket,
                    lyndon_words)
from .zlinalg import Echelon, IntMatrix, KernelLattice, canonical_lattice, echelon


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
    """Rank and cokernel data for the pair map on one bidegree.

    ``check_surjective`` returns a report only when every pivot is 1, so
    the invariant factors are all 1 and full rank means the cokernel is
    trivial over the integers, not merely over the rationals.
    """

    k: int
    l: int
    codomain_dim: int
    rank: int

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        return (1,) * self.rank

    @property
    def surjective(self) -> bool:
        return self.rank == self.codomain_dim

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
    return lyndon_words(k, l) if is_bidegree(k, l) else ()


def _sides(k: int, l: int) -> tuple[tuple[str, tuple[int, int]], ...]:
    """The pair map's two summands, in domain order: (letter, bidegree) of A, then of B."""
    return (("a", (k - 1, l)), ("b", (k, l - 1)))


# Hit by _pair_echelon and check_surjective: 4/4 hits/misses on balanced, 60/30 on thin.
@lru_cache(maxsize=None)
def pair_matrix(k: int, l: int) -> PairMatrix:
    """Matrix of (A, B) -> [A,a] + [B,b] on the bidegree-(k, l) slice."""
    check_bidegree(k, l)
    codomain = _slice_basis(k, l)
    position = {w: i for i, w in enumerate(codomain)}
    domain: list[tuple[str, str]] = []
    rows: list[dict[int, int]] = [{} for _ in codomain]
    for letter, bd in _sides(k, l):
        for w in _slice_basis(*bd):
            for word, c in bracket_with_letter(LieElement._make(bd, {w: 1}), letter).coeffs.items():
                rows[position[word]][len(domain)] = c
            domain.append((w, letter))
    matrix = IntMatrix.from_sparse(rows, len(domain))
    return PairMatrix(k, l, tuple(domain), codomain, matrix)


# Hit by kernel_lattice and check_surjective: 8/4 hits/misses on balanced, 40/30 on thin.
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
    check_bidegree(cert.k, cert.l)
    for name, (_, expected) in zip("AB", _sides(cert.k, cert.l)):
        found = getattr(cert, name).bidegree
        if found is not None and found != expected:
            raise ValueError(f"{name} has bidegree {found}, expected {expected}")


def _groups(terms: dict[BracketTree, int]) -> Iterator[tuple[dict, dict, int]]:
    """(P_u, Q_u, scale) per left factor u: sum_w c_w P_w = sum scale (P_u Q_u - Q_u P_u).

    P_[u,v] = P_u P_v - P_v P_u is linear in P_v, so Q_u = sum_v c_uv P_v.
    P_u is the cached ``_tree_poly`` dict, and so is Q_u for a group of one
    tree, its coefficient the scale; a group of several, whose right factors
    share a bidegree of weight >= 2, is expanded by the same grouping, uncached.
    The triples are the groups ``algebra._commutators`` sums.
    """
    groups: dict[BracketTree, dict[BracketTree, int]] = {}
    for tree, c in terms.items():
        groups.setdefault(tree.left, {})[tree.right] = c
    for left, rights in groups.items():
        if len(rights) == 1:
            ((right, c),) = rights.items()
            yield _tree_poly(left), _tree_poly(right), c
        else:
            yield _tree_poly(left), _expansion(rights), 1


def _expansion(terms: dict[BracketTree, int]) -> dict[str, int]:
    """sum_w c_w P_w for bracket trees w of weight >= 2: one ``_commutators`` sum of its groups."""
    return _commutators(_groups(terms))


# Duval's scan, memoized for ``_letter_image``: its words of a bidegree (k, l)
# start with a and end with b, so it holds at most C(k+l-2, k-1) per bidegree.
# Hit by _letter_image: 89486/3344 hits/misses on balanced (bench items, seed 1900).
_is_lyndon = lru_cache(maxsize=None)(_is_lyndon_ab)

# Per letter x, what [P, x] = Px - xP puts on the Lyndon words: (head, tail, sign).
_LETTER_ENDS = {"b": ("", "b", 1), "a": ("a", "", -1)}


def _letter_image(out: dict, coeffs: dict[str, int], letter: str) -> dict:
    """Add the coefficients of [sum_w c_w [w], letter] on Lyndon words into ``out``.

    With P the associative expansion of X = sum_w c_w [w], [X, x] = Px - xP.
    A Lyndon word of weight >= 2 starts with a and ends with b, so only
    P(v) at z = vb (x = b) and -P(v) at z = av (x = a) reach them: the
    letter is a tail b or a head a, with its sign.  P is never built: each
    side of each of the ``_groups`` is listed once, with the head or tail
    on, keeping the left words that start with a and the right words that
    end with b.  One nested loop takes the pairs of P_u and Q_u both ways
    round and adds each product whose word passes Duval's scan into
    ``out``; terms cancel only in the sum, so the zeros are dropped once,
    at the end.  The coefficients may be packed.
    """
    head, tail, sign = _LETTER_ENDS[letter]
    get = out.get
    trees = {}
    for word, c in coeffs.items():
        if len(word) > 1:
            trees[lyndon_bracket(word)] = c
        elif word != letter:  # [a, b] = [ab], [b, a] = -[ab]
            out["ab"] = get("ab", 0) + sign * c
    for p, q, scale in _groups(trees):
        lefts = [[(v, c) for w, c in x.items() if (v := head + w)[0] == "a"] for x in (p, q)]
        rights = [[(v, c) for t, c in x.items() if (v := t + tail)[-1] == "b"] for x in (p, q)]
        for left, right, s in ((lefts[0], rights[1], sign * scale),
                               (lefts[1], rights[0], -sign * scale)):
            for w, cw in left:
                sw = s * cw
                for t, ct in right:
                    if _is_lyndon(key := w + t):
                        out[key] = get(key, 0) + sw * ct
    for word in [word for word, c in out.items() if not c]:
        del out[word]
    return out


def verify_certificates(certs: Iterable[IdentityCertificate]) -> tuple[bool, ...]:
    """Re-check [A,a] + [B,b] = 0 for certificates of one bidegree; record each verdict.

    Returns the verdicts in the order given; the empty batch returns ().
    A Lie polynomial such as [A,a] + [B,b] is 0 exactly when its
    coefficients on the Lyndon words of its bidegree are, the Lyndon x
    Lyndon block of the basis expansion being unit triangular (Reutenauer,
    *Free Lie Algebras*, Ch. 4-5).  ``_letter_image`` reads them off the
    associative expansions of left standard factors and lone right factors,
    testing words with Duval's scan (``is_lyndon`` less the alphabet check,
    as its words are made of a and b): it shares no code with the rewriting
    (``algebra._prod``) that computed the kernel vectors, nor lists a bidegree.

    The batch is one image: each word of A or B carries the packed
    coefficient sum_t c_t 2^(W t), so slot t of the image at a Lyndon word
    is certificate t's coefficient s_t there.  The expansion of a Lyndon
    bracket of weight m has coefficients of at most 2^(m-1) (induction on
    P_[u,v] = P_u P_v - P_v P_u), so |s_t| < 2^(W-1) for W the bit length
    of max_t ||(A_t, B_t)||_1 plus k+l-1.  With 2^(W-1) added, each slot is
    a digit in [1, 2^W), 2^(W-1) exactly when s_t is 0; certificate t is
    verified exactly when its slot is 0 at every Lyndon word.
    """
    certs = tuple(certs)
    for cert in certs:
        _check_certificate_shape(cert)
    if len({(cert.k, cert.l) for cert in certs}) > 1:
        raise ValueError("a batch of certificates must share one bidegree")
    if not certs:
        return ()
    k, l = certs[0].k, certs[0].l
    norm = max(sum(map(abs, (*cert.A.coeffs.values(), *cert.B.coeffs.values()))) for cert in certs)
    # At least 1: the zero certificates of (1, 0) and (0, 1) give 0.
    width = max(norm.bit_length() + k + l - 1, 1)
    image: dict[str, int] = {}
    for letter in "ab":
        packed: dict[str, int] = {}
        for t, cert in enumerate(certs):
            _accumulate(packed, (cert.A if letter == "a" else cert.B).coeffs, 1 << (width * t))
        _letter_image(image, packed, letter)
    shifts = range(0, width * len(certs), width)
    offset = sum(1 << (s + width - 1) for s in shifts)
    # Slot t of (v + offset) ^ offset is 0 exactly when s_t is.
    nonzero = reduce(or_, ((v + offset) ^ offset for v in image.values()), 0)
    verdicts = tuple(not nonzero >> s & ((1 << width) - 1) for s in shifts)
    for cert, verdict in zip(certs, verdicts):
        object.__setattr__(cert, "verified", verdict)
    return verdicts


def verify_certificate(cert: IdentityCertificate) -> bool:
    """Re-check [A,a] + [B,b] = 0, record the verdict and return it: a batch of one."""
    return verify_certificates((cert,))[0]


def certificate_vector(cert: IdentityCertificate) -> tuple[int, ...]:
    """Coordinates of (A, B) in the canonical domain basis of the bidegree."""
    _check_certificate_shape(cert)
    return tuple(x.coeffs.get(w, 0) for x, (_, bd) in zip((cert.A, cert.B), _sides(cert.k, cert.l))
                 for w in _slice_basis(*bd))


def _element_from_slice(bd: tuple[int, int], words: tuple[str, ...], coords) -> LieElement:
    if not words:
        return LieElement.zero()
    return LieElement._make(bd, {w: c for w, c in zip(words, coords) if c})


def kernel_certificates(k: int, l: int) -> tuple[IdentityCertificate, ...]:
    """One verified certificate per canonical kernel basis vector, checked as one batch."""
    lattice = kernel_lattice(k, l)
    (_, bd_a), (_, bd_b) = _sides(k, l)
    dom_a, dom_b = _slice_basis(*bd_a), _slice_basis(*bd_b)
    split = len(dom_a)
    certificates = tuple(
        IdentityCertificate(
            k,
            l,
            _element_from_slice(bd_a, dom_a, vector[:split]),
            _element_from_slice(bd_b, dom_b, vector[split:]),
            source="computed",
        )
        for vector in lattice.basis
    )
    if not all(verify_certificates(certificates)):
        raise InconsistencyError(f"kernel vector of bidegree ({k}, {l}) failed re-verification")
    return certificates


def check_surjective(k: int, l: int) -> SurjectivityReport:
    """Rank and integral cokernel check for the pair map (weight >= 2 only).

    The pivots are those of the slice's cached ``echelon``: the unit
    pivots of its elimination, then the HNF pivots of its core, those of
    an echelon basis of the image lattice.  When the rank equals the
    number of rows, the index of the image is the product of the pivots,
    so the cokernel is trivial exactly when every pivot is 1; the
    report is returned only then.  Any other echelon contradicts the
    surjectivity of the pair map in weight >= 2, so it means the pair
    matrix is wrong, and raises InconsistencyError.
    """
    if k + l < 2:
        raise ValueError(f"surjectivity check needs weight >= 2, got ({k}, {l})")
    rows = len(pair_matrix(k, l).codomain)
    ech = _pair_echelon(k, l)
    if ech.rank != rows or any(p != 1 for p in ech.pivots):
        raise InconsistencyError(
            f"the pair map of bidegree ({k}, {l}) is not onto Z^{rows}: "
            f"rank {ech.rank}, largest pivot {max(ech.pivots, default=0)}"
        )
    return SurjectivityReport(k, l, codomain_dim=rows, rank=rows)


def lattice_membership(cert: IdentityCertificate) -> MembershipReport:
    """Locate a verified certificate inside the computed kernel lattice.

    The certificate vector v is a member exactly when the canonical form of
    the kernel basis with v appended is the kernel lattice itself.  That
    lattice can be compared as it is, since ``echelon`` returns it already
    canonical.  For rank-1 kernels v = c*g for the canonical generator g,
    and the index |c| = |v_j // g_j| at the first j with g_j != 0 is
    reported, so "generates" claims become exact index-1 statements.
    """
    if not cert.verified:
        raise ValueError("certificate must be verified before membership checks")
    lattice = kernel_lattice(cert.k, cert.l)
    vector = certificate_vector(cert)
    member = canonical_lattice(lattice.ambient, (*lattice.basis, vector)) == lattice
    index = generator = None
    if member and lattice.rank == 1:
        index = next(abs(v // g) for v, g in zip(vector, lattice.basis[0]) if g)
        generator = index == 1
    return MembershipReport(member, lattice.rank, index, generator)


# ---------------------------------------------------------------------------
# serialization


def element_pairs(x: LieElement) -> list[list[str]]:
    """JSON shape of an element: [[decimal coefficient, word], ...]."""
    return [[str(c), w] for c, w in x.terms()]


def _integer(value, what: str) -> int:
    """A JSON integer or a decimal string; floats, booleans and too many digits are refused."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str) and re.fullmatch(r"-?[0-9]+", value):
        try:
            return int(value)
        except ValueError:  # past the interpreter's limit on integer digits
            raise ValueError(f"integer of {len(value.lstrip('-'))} digits is too long") from None
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
    """Every field in declaration order, A and B as [[coefficient, word], ...]."""
    data = {f.name: getattr(cert, f.name) for f in fields(cert)}
    data["A"], data["B"] = element_pairs(cert.A), element_pairs(cert.B)
    return data


def certificate_from_dict(data: dict) -> IdentityCertificate:
    """Load a certificate record, unverified whatever its "verified" field says.

    Every check runs once, cheapest first: the fields, then k and l with
    the bidegree and the weight limit, then for each of A and B the pair
    shapes before the words themselves.
    """
    if not isinstance(data, dict) or not {"k", "l", "A", "B"} <= data.keys():
        raise ValueError("malformed certificate record: need an object with k, l, A and B")
    k, l = _integer(data["k"], "k"), _integer(data["l"], "l")
    check_bidegree(k, l)
    check_weight(k, l)
    source = data.get("source", "user")
    if not isinstance(source, str):
        raise ValueError(f"source must be a string, got {source!r}")
    (_, bd_a), (_, bd_b) = _sides(k, l)
    return IdentityCertificate(k, l, _element_from_pairs(data["A"], bd_a),
                               _element_from_pairs(data["B"], bd_b), source=source)


def certificate_latex(cert: IdentityCertificate) -> str:
    """Render the certificate as the identity [A, a] = [-B, b]."""
    return rf"\left[{cert.A},\, a\right] = \left[{-cert.B},\, b\right]"
