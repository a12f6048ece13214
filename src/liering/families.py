"""Closed-form families of bracket identities and their coefficients.

Family ids (also used by the CLI):

* ``i2``   -- the generator of the rank-1 kernel in bidegree (2, m) for
  even m: (C_m, sum_{i=1}^{m/2} (-1)^i [C_{m-i}, C_{i-1}]), with
  C_n = [a, b, ..., b] the engel bracket.
* ``qbad`` -- the same family indexed by half the b-degree; its identity
  reads [[a,_{2n} b], a] = [sum_{i=0}^{n-1} (-1)^i [C_{2n-1-i}, C_i], b].
* ``i33``  -- a family in bidegree (3, 3n) built from the coefficients
  alpha(i, j) below; stage-k partial sums of its construction are exposed
  for testing because the whole family stands on them.

Certificates are stored with B already negated, so [A,a] + [B,b] = 0 holds
literally; the LaTeX rendering re-negates B to display [A,a] = [-B,b].
Every constructor re-verifies its certificate (the coefficients of
[A,a] + [B,b] on the Lyndon words vanish) and refuses to return an
unverified one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .algebra import (
    InconsistencyError,
    LieElement,
    bracket,
    bracket_with_letter,
    check_weight,
    engel,
)
from .dims import binom
from .kernels import IdentityCertificate, verify_certificate


def family_coefficient(i: int, j: int) -> int:
    """alpha(i, j) = 2 C(i+j-1, j) + C(i+j-2, j-1) - C(i+j-2, j-2) - 2 C(i+j-1, j-2).

    alpha(0, 0) = 1 by definition; binomials vanish outside 0 <= k <= n.
    The recurrences alpha(i-1, j) + alpha(i, j-1) = alpha(i, j) (i != j),
    alpha(i, i-1) = alpha(i, i) (i >= 2) and alpha(i, 0) = 2 (i >= 1) are
    what make the i33 construction collapse stage by stage.
    """
    if i < 0 or j < 0:
        raise ValueError(f"indices must be nonnegative, got ({i}, {j})")
    if (i, j) == (0, 0):
        return 1
    return (
        2 * binom(i + j - 1, j)
        + binom(i + j - 2, j - 1)
        - binom(i + j - 2, j - 2)
        - 2 * binom(i + j - 1, j - 2)
    )


# Hit by engel_triple: 484/117 hits/misses on thin (bench items, seed 1900).
@lru_cache(maxsize=None)
def engel_pair(p: int, q: int) -> LieElement:
    """[C_p, C_q], normalized."""
    return bracket(engel(p), engel(q))


# Hit by the i33 sums and append_b_rewrite: 1025/561 hits/misses on thin (seed 1900).
@lru_cache(maxsize=None)
def engel_triple(p: int, q: int, r: int) -> LieElement:
    """[C_p, C_q, C_r] (left-normed), normalized."""
    return bracket(engel_pair(p, q), engel(r))


# The bidegree of each family member, by its size: m for i2, n otherwise.
FAMILY_BIDEGREES = {
    "i2": lambda m: (2, m),
    "qbad": lambda n: (2, 2 * n),
    "i33": lambda n: (3, 3 * n),
}


def check_family_size(name: str, size: int) -> None:
    """Refuse a member past the weight limit before any bracket; each builder calls it first."""
    check_weight(*FAMILY_BIDEGREES[name](size))


def _certified(cert: IdentityCertificate) -> IdentityCertificate:
    if not verify_certificate(cert):
        raise InconsistencyError(f"family certificate {cert.source} failed verification")
    return cert


def i2_certificate(m: int) -> IdentityCertificate:
    """Generator of the kernel in bidegree (2, m), for even m >= 2."""
    check_family_size("i2", m)
    if m < 2 or m % 2:
        raise ValueError(f"the i2 family needs an even m >= 2, got {m}")
    b_part = sum(
        ((-1) ** i * engel_pair(m - i, i - 1) for i in range(1, m // 2 + 1)), LieElement.zero()
    )
    return _certified(IdentityCertificate(2, m, engel(m), b_part, source="family:i2"))


def qbad_certificate(n: int) -> IdentityCertificate:
    """The (2, 2n) family, n >= 1; coincides with i2_certificate(2n)."""
    check_family_size("qbad", n)
    if n < 1:
        raise ValueError(f"the qbad family needs n >= 1, got {n}")
    rhs = sum(((-1) ** i * engel_pair(2 * n - 1 - i, i) for i in range(n)), LieElement.zero())
    return _certified(IdentityCertificate(2, 2 * n, engel(2 * n), -rhs, source="family:qbad"))


def _i33_double_sum(n: int, k: int) -> LieElement:
    """The double sum of the i33 construction truncated at i = k:

    sum_{i=0}^{k} sum_{j=0}^{floor(i/2)} (-1)^{i+1} alpha(i-j, j) [C_{n+i-j}, C_{n+j-1}, C_{n-i}]

    At k = n it is -B of the family member; at k <= n, bracketed with b,
    it is the left side of the stage-k partial-sum identity.
    """
    return sum(
        (
            (-1) ** (i + 1) * family_coefficient(i - j, j) * engel_triple(n + i - j, n + j - 1, n - i)
            for i in range(k + 1)
            for j in range(i // 2 + 1)
        ),
        LieElement.zero(),
    )


def i33_certificate(n: int) -> IdentityCertificate:
    """The (3, 3n) family member, n >= 1.

    A = sum_{k=0}^{floor((n+1)/2)} (-1)^{n+1} alpha(n+1-k, k) [C_{2n+1-k}, C_{n+k-1}]
    B = -sum_{i=0}^{n} sum_{j=0}^{floor(i/2)} (-1)^{i+1} alpha(i-j, j)
            [C_{n+i-j}, C_{n+j-1}, C_{n-i}]
    """
    check_family_size("i33", n)
    if n < 1:
        raise ValueError(f"the i33 family needs n >= 1, got {n}")
    sign = (-1) ** (n + 1)
    a_part = sum(
        (
            sign * family_coefficient(n + 1 - k, k) * engel_pair(2 * n + 1 - k, n + k - 1)
            for k in range((n + 1) // 2 + 1)
        ),
        LieElement.zero(),
    )
    b_part = -_i33_double_sum(n, n)
    return _certified(IdentityCertificate(3, 3 * n, a_part, b_part, source="family:i33"))


@dataclass(frozen=True)
class PartialSumIdentity:
    """Stage-k identity inside the i33 construction.

    ``left`` is the truncated double sum bracketed with b, ``right`` the
    collapsed single sum; the construction is correct iff they agree for
    every 1 <= k <= n.
    """

    n: int
    k: int
    left: LieElement
    right: LieElement

    @property
    def holds(self) -> bool:
        return self.left == self.right


def partial_sums(n: int, k: int) -> PartialSumIdentity:
    """Both sides of the stage-k identity, normalized."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    left = bracket_with_letter(_i33_double_sum(n, k), "b")
    right = sum(
        (
            (-1) ** (k + 1) * family_coefficient(k + 1 - t, t)
            * engel_triple(n + k + 1 - t, n - 1 + t, n - k)
            for t in range((k + 1) // 2 + 1)
        ),
        LieElement.zero(),
    )
    return PartialSumIdentity(n, k, left, right)


def append_b_rewrite(k: int, l: int, m: int) -> LieElement:
    """[C_k, C_l, C_m, b] rewritten on engel triples, for k > l and k >= m.

    Four cases, split on whether k = l + 1 and whether k = m:

    * k > l+1, k > m:  [C_{k+1},C_l,C_m] + [C_k,C_{l+1},C_m] + [C_k,C_l,C_{m+1}]
    * k = l+1, k > m:  [C_{k+1},C_l,C_m] + [C_k,C_l,C_{m+1}]
    * k = l+1, k = m:  2[C_{k+1},C_l,C_m] - [C_{k+1},C_{l+1},C_{m-1}]
    * k > l+1, k = m:  2[C_{k+1},C_l,C_m] + [C_k,C_{l+1},C_m] - [C_{k+1},C_k,C_l]

    The result is normalized and equals normalize([C_k, C_l, C_m, b]).
    """
    if l < 0 or m < 0:
        raise ValueError(f"indices must be nonnegative, got ({k}, {l}, {m})")
    if not (k > l and k >= m):
        raise ValueError(f"the rewrite needs k > l and k >= m, got ({k}, {l}, {m})")
    if k > l + 1 and k >= m + 1:
        return engel_triple(k + 1, l, m) + engel_triple(k, l + 1, m) + engel_triple(k, l, m + 1)
    if k == l + 1 and k >= m + 1:
        return engel_triple(k + 1, l, m) + engel_triple(k, l, m + 1)
    if k == l + 1 and k == m:
        return 2 * engel_triple(k + 1, l, m) - engel_triple(k + 1, l + 1, m - 1)
    return 2 * engel_triple(k + 1, l, m) + engel_triple(k, l + 1, m) - engel_triple(k + 1, k, l)


FAMILY_BUILDERS = {
    "i2": i2_certificate,
    "qbad": qbad_certificate,
    "i33": i33_certificate,
}
