"""Rank formulas for the graded pieces of the free Lie ring on two letters.

``lie_dim`` and ``lie_dim_bigraded`` are the necklace-polynomial counts of
the Lyndon basis, by total weight and by bidegree.  The ``kernel_dim*``
functions give the closed forms for the kernels of the map
(A, B) -> [A,a] + [B,b] studied in :mod:`liering.kernels`; they are pure
formulas, deliberately independent of the matrix computations that the test
suite checks them against.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .words import check_bidegree


def mobius(n: int) -> int:
    """Moebius function by trial division (inputs here stay tiny)."""
    if n < 1:
        raise ValueError(f"mobius needs a positive integer, got {n}")
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    if n > 1:
        result = -result
    return result


def binom(n: int, k: int) -> int:
    """Binomial coefficient, 0 whenever k < 0, n < 0 or k > n."""
    if k < 0 or n < 0 or k > n:
        return 0
    return math.comb(n, k)


# Hit by kernel_dim: `dims --max-weight 256 --bigraded` took 0.45-0.58 s, 0.71-0.77 s uncached.
@lru_cache(maxsize=None)
def lie_dim(n: int) -> int:
    """Rank of the weight-n piece: (1/n) * sum_{d|n} mobius(n/d) 2^d."""
    if n < 1:
        raise ValueError(f"weight must be positive, got {n}")
    total = sum(mobius(n // d) * 2**d for d in range(1, n + 1) if n % d == 0)
    return total // n


# Hit by _lie_dim_or_zero, three reads per slice of bigraded_records; timing as for lie_dim.
@lru_cache(maxsize=None)
def lie_dim_bigraded(k: int, l: int) -> int:
    """Rank of the bidegree-(k, l) piece.

    Witt's bigraded count (1/(k+l)) * sum_{d | gcd(k,l)} mobius(d) C((k+l)/d, k/d),
    with gcd(k, 0) = k so that the one-letter edges come out as
    lie_dim_bigraded(1, 0) = lie_dim_bigraded(0, 1) = 1 and 0 beyond.
    """
    check_bidegree(k, l)
    n = k + l
    g = math.gcd(k, l)
    total = sum(mobius(d) * binom(n // d, k // d) for d in range(1, g + 1) if g % d == 0)
    return total // n


def _lie_dim_or_zero(k: int, l: int) -> int:
    # Degenerate convention used by the kernel bookkeeping.
    if k < 0 or l < 0 or (k, l) == (0, 0):
        return 0
    return lie_dim_bigraded(k, l)


def kernel_dim(n: int) -> int:
    """Rank of the full weight-n kernel: 2 * lie_dim(n-1) - lie_dim(n)."""
    if n < 2:
        raise ValueError(f"kernel_dim needs weight >= 2, got {n}")
    return 2 * lie_dim(n - 1) - lie_dim(n)


def kernel_dim_bigraded(k: int, l: int) -> int:
    """Bookkeeping form of the bidegree-(k, l) kernel rank.

    dim L_{k-1,l} + dim L_{k,l-1} - dim L_{k,l}, with out-of-range
    bidegrees contributing 0.  Equals the computed kernel rank because the
    map is surjective on every slice of weight >= 2.
    """
    check_bidegree(k, l)
    return _lie_dim_or_zero(k - 1, l) + _lie_dim_or_zero(k, l - 1) - _lie_dim_or_zero(k, l)


def kernel_dim_a2(m: int) -> int:
    """Closed form for the (2, m) kernel rank: 0 for odd m, 1 for even m.

    Defined for m >= 1 only; m = 0 raises ``ValueError``.  The degenerate
    (2, 0) cell is ``kernel_dim_bigraded(2, 0) == 1``, spanned by (a, 0).
    """
    if m < 1:
        raise ValueError(f"kernel_dim_a2 needs m >= 1, got {m}")
    return 0 if m % 2 else 1


def kernel_dim_a3(m: int) -> int:
    """Closed form for the (3, m) kernel rank: ceil(m/2) - floor((m-1)/3) - 1."""
    if m < 1:
        raise ValueError(f"kernel_dim_a3 needs m >= 1, got {m}")
    return (m + 1) // 2 - (m - 1) // 3 - 1


def total_records(max_weight: int) -> list[tuple[int, int, int | None]]:
    """Rows (n, lie_dim(n), kernel_dim(n) or None for n < 2)."""
    if max_weight < 1:
        raise ValueError(f"max_weight must be positive, got {max_weight}")
    return [(n, lie_dim(n), kernel_dim(n) if n >= 2 else None) for n in range(1, max_weight + 1)]


def bigraded_records(max_weight: int) -> list[tuple[int, int, int, int, int]]:
    """Flat rows (weight, k, l, lie rank, kernel rank) for all bidegrees."""
    if max_weight < 1:
        raise ValueError(f"max_weight must be positive, got {max_weight}")
    rows = []
    for n in range(1, max_weight + 1):
        for k in range(n + 1):
            # The bookkeeping form assumes surjectivity, which needs weight
            # >= 2; at weight 1 the map has an empty domain, so kernel 0.
            kdim = kernel_dim_bigraded(k, n - k) if n >= 2 else 0
            rows.append((n, k, n - k, lie_dim_bigraded(k, n - k), kdim))
    return rows


def _aligned(rows: list[list[str]]) -> str:
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = []
    for row in rows:
        cells = [row[0].ljust(widths[0])] + [
            cell.rjust(w) for cell, w in zip(row[1:], widths[1:])
        ]
        lines.append("  ".join(cells).rstrip())
    return "\n".join(lines)


def format_tables(max_weight: int, bigraded: bool = False) -> str:
    """Aligned-text tables of ranks by weight, optionally per bidegree."""
    if max_weight < 1:
        raise ValueError(f"max_weight must be positive, got {max_weight}")
    weights = list(range(1, max_weight + 1))
    top = [
        ["n"] + [str(n) for n in weights],
        ["dim L_n"] + [str(lie_dim(n)) for n in weights],
    ]
    parts = [_aligned(top)]

    def row_cell(k: int, n: int) -> str:
        # Degenerate cells fall back to the bookkeeping form, so the (2, 0)
        # corner prints its true rank 1 ([a, a] = 0 gives a kernel vector).
        return str(kernel_dim_bigraded(k, n - k)) if n - k >= 0 else "0"

    kernel_weights = [n for n in weights if n >= 2]
    if kernel_weights:
        bottom = [
            ["n"] + [str(n) for n in kernel_weights],
            ["dim K_{2,n-2}"] + [row_cell(2, n) for n in kernel_weights],
            ["dim K_{3,n-3}"] + [row_cell(3, n) for n in kernel_weights],
            ["dim K_n"] + [str(kernel_dim(n)) for n in kernel_weights],
        ]
        parts.append(_aligned(bottom))
    if bigraded:
        rows = [["n", "k", "l", "dim L_{k,l}", "dim K_{k,l}"]]
        rows += [[str(x) for x in rec] for rec in bigraded_records(max_weight)]
        parts.append(_aligned(rows))
    return "\n\n".join(parts)
