"""Exact integer linear algebra for the pair map: one echelon pass per
matrix, and canonical bases of integer kernel lattices.

Everything works on arbitrary-precision Python integers; there is no
floating point anywhere.  There are two elimination loops.
``_row_echelon`` is a dense row Hermite normal form: positive pivots,
entries above each pivot reduced into [0, pivot), nonzero rows first.
Pivots of minimal absolute value keep intermediate entries small in
practice (with exact arithmetic this is a performance choice only).  Since
HNF is unique per row lattice, canonicalizing a basis makes lattice
equality a plain comparison.  ``_unit_pivot_pass`` is a sparse
elimination that takes only pivots of +1 or -1, so it never divides and
needs no Hermite form; it gives up, and returns None, on any row that has
no such pivot.

``echelon`` is the one pass per matrix the rest of the package needs: the
rank of M, the pivots that decide whether M maps onto Z^rows, and the
kernel of M.  It tries the unit-pivot pass first and falls back to
reducing [M^T | I] with ``_row_echelon`` (``_hnf_pass``).  Either way the
kernel is canonicalized with ``_row_echelon`` and re-checked against M.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Sequence


class IntMatrix:
    """A dense matrix of Python integers."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence[int]], cols: int | None = None):
        data = [list(row) for row in entries]
        rows = len(data)
        if rows:
            width = len(data[0])
            if any(len(row) != width for row in data):
                raise ValueError("all rows must have the same length")
            if cols is not None and cols != width:
                raise ValueError(f"cols={cols} disagrees with row length {width}")
            cols = width
        elif cols is None:
            raise ValueError("an empty matrix needs an explicit column count")
        for row in data:
            for value in row:
                if not isinstance(value, int):
                    raise TypeError(f"matrix entries must be int, got {value!r}")
        self.rows = rows
        self.cols = cols
        self.entries = data

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self.rows == other.rows and self.cols == other.cols and self.entries == other.entries

    def __repr__(self) -> str:
        return f"IntMatrix({self.rows}x{self.cols}, {self.entries})"

    def to_record(self) -> dict:
        """Portable record: shape plus row-major decimal entry strings."""
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [str(v) for row in self.entries for v in row],
        }


def _row_echelon(mat: list[list[int]], cols: int) -> int:
    """Bring ``mat`` to row Hermite normal form in place and return its rank.

    Pivots are taken in the first ``cols`` columns only, but every row
    operation spans the whole row.  So an identity block appended past
    ``cols`` ends up holding the unimodular U with U*M = H.
    """
    rows = len(mat)
    rank = 0
    for col in range(cols):
        if rank == rows:
            break
        # Knock the column at/below `rank` down to a single nonzero entry.
        while True:
            nonzero = [i for i in range(rank, rows) if mat[i][col]]
            if not nonzero:
                pivot = None
                break
            pivot = min(nonzero, key=lambda i: abs(mat[i][col]))
            if len(nonzero) == 1:
                break
            row_p = mat[pivot]
            for i in nonzero:
                if i == pivot:
                    continue
                row_i = mat[i]
                q = row_i[col] // row_p[col]
                if q:
                    for j in range(col, len(row_i)):
                        row_i[j] -= q * row_p[j]
        if pivot is None:
            continue
        if pivot != rank:
            mat[pivot], mat[rank] = mat[rank], mat[pivot]
        if mat[rank][col] < 0:
            mat[rank] = [-v for v in mat[rank]]
        row_p = mat[rank]
        for row_i in mat[:rank]:
            q = row_i[col] // row_p[col]
            if q:
                for j in range(col, len(row_i)):
                    row_i[j] -= q * row_p[j]
        rank += 1
    return rank


@dataclass(frozen=True)
class KernelLattice:
    """An integer lattice presented by basis row vectors.

    With ``canonical`` set, the basis rows are the nonzero rows of their
    Hermite normal form, so two canonical lattices are equal as sets of
    vectors iff their bases compare equal.
    """

    ambient: int
    basis: tuple[tuple[int, ...], ...]
    canonical: bool = False

    @property
    def rank(self) -> int:
        return len(self.basis)


def canonical_lattice(ambient: int, vectors: Iterable[Sequence[int]]) -> KernelLattice:
    """Canonicalize spanning vectors into an HNF-basis lattice."""
    work = [list(v) for v in vectors]
    for v in work:
        if len(v) != ambient:
            raise ValueError(f"vector length {len(v)} != ambient {ambient}")
    r = _row_echelon(work, ambient)
    return KernelLattice(ambient, tuple(tuple(row) for row in work[:r]), canonical=True)


@dataclass(frozen=True)
class Echelon:
    """Rank of M, leading entries of the nonzero rows of HNF(M^T), kernel of M."""

    rank: int
    pivots: tuple[int, ...]
    kernel: KernelLattice


def _hnf_pass(m: IntMatrix) -> tuple[tuple[int, ...], list[list[int]]]:
    """Image pivots and kernel generators of M from one HNF of [M^T | I].

    The rows of [M^T | I] are reduced on their first M.rows columns into
    [H | U] with U*M^T = H.  The first ``rank`` rows carry the pivots; the
    U parts of the rows after them, where H is zero, lie in the kernel of
    M, and since U is unimodular they span the full integer kernel, a pure
    sublattice (a direct summand), not just a finite-index one.
    """
    n = m.cols
    work = [[row[j] for row in m.entries] + [int(i == j) for i in range(n)] for j in range(n)]
    r = _row_echelon(work, m.rows)
    pivots = tuple(next(v for v in row if v) for row in work[:r])
    return pivots, [row[m.rows :] for row in work[r:]]


def _unit_pivot_pass(m: IntMatrix) -> tuple[tuple[int, ...], list[list[int]]] | None:
    """Image pivots and kernel generators of M by unit-pivot elimination, or None.

    The rows are kept as sparse dicts.  The shortest live row is taken
    next, and in it the +1 or -1 entry whose column has the fewest live
    rows (Markowitz pivoting), ties going to the lower row and column, so
    the order is fixed.  That column is then cleared from the other live
    rows.  A row that is empty or has no unit entry when its turn comes
    ends the pass with None.

    Each step adds integer multiples of a pivot row to other rows, a
    unimodular operation, and every row ends with a unit pivot in its own
    column that no row pivoted after it has.  So M maps onto Z^rows, which
    is exactly when the nonzero rows of HNF(M^T) are the identity: the
    rank is M.rows and every pivot is 1.  Each column that takes no pivot
    gives one kernel vector, 1 there and 0 on the other free columns, with
    the pivot coordinates back-substituted in reverse pivot order; since
    the pivots are units, these vectors span the full integer kernel.
    """
    rows = [{j: c for j, c in enumerate(row) if c} for row in m.entries]
    holders: dict[int, set[int]] = {}  # column -> live rows with an entry in it
    for i, row in enumerate(rows):
        for j in row:
            holders.setdefault(j, set()).add(i)
    heap = [(len(row), i) for i, row in enumerate(rows)]
    heapq.heapify(heap)
    live = [True] * len(rows)
    order = []
    while heap:
        size, i = heapq.heappop(heap)
        row = rows[i]
        if not live[i] or size != len(row):
            continue  # a stale entry: the row was pivoted or has changed length
        units = [j for j, c in row.items() if c == 1 or c == -1]
        if not units:
            return None
        p = min(units, key=lambda j: (len(holders[j]), j))
        live[i] = False
        for j in row:
            holders[j].discard(i)
        for t in holders.pop(p):
            target = rows[t]
            q = target.pop(p) * row[p]  # row[p] is its own inverse
            for j, c in row.items():
                if j == p:
                    continue
                v = target.get(j, 0) - q * c
                if v:
                    if j not in target:
                        holders[j].add(t)
                    target[j] = v
                else:
                    del target[j]
                    holders[j].discard(t)
            heapq.heappush(heap, (len(target), t))
        order.append((p, row))
    # x[j] holds coordinate j of every generator at once, keyed by free column.
    pivot_cols = {p for p, _ in order}
    free = [j for j in range(m.cols) if j not in pivot_cols]
    x: dict[int, dict[int, int]] = {f: {f: 1} for f in free}
    for p, row in reversed(order):
        value: dict[int, int] = {}
        for j, c in row.items():
            if j != p:
                for f, e in x[j].items():
                    value[f] = value.get(f, 0) - row[p] * c * e
        x[p] = {f: e for f, e in value.items() if e}
    generators = {f: [0] * m.cols for f in free}
    for j, coeffs in x.items():
        for f, e in coeffs.items():
            generators[f][j] = e
    return (1,) * m.rows, [generators[f] for f in free]


def echelon(m: IntMatrix) -> Echelon:
    """Rank, image pivots and canonical kernel of M.

    The unit-pivot pass runs first, and ``_hnf_pass`` only when some row of
    M has no unit pivot.  Both give the pivots of HNF(M^T) and generators
    of the full integer kernel, which are canonicalized, so the result
    does not depend on the path.  Every returned kernel vector is
    re-checked against M exactly.
    """
    found = _unit_pivot_pass(m)
    pivots, generators = found if found is not None else _hnf_pass(m)
    lattice = canonical_lattice(m.cols, generators)
    if lattice.rank != len(generators):
        raise AssertionError("kernel generators were not independent")
    # M is sparse, so each row is checked on its nonzero entries only.
    sparse_rows = [[(j, c) for j, c in enumerate(row) if c] for row in m.entries]
    for vector in lattice.basis:
        if any(sum(c * vector[j] for j, c in row) for row in sparse_rows):
            raise AssertionError("computed kernel vector does not annihilate the matrix")
    return Echelon(len(pivots), pivots, lattice)


def _canonicalize(lat: KernelLattice) -> KernelLattice:
    return lat if lat.canonical else canonical_lattice(lat.ambient, lat.basis)


def lattice_equal(x: KernelLattice, y: KernelLattice) -> bool:
    """Whether two lattices coincide as subgroups of Z^ambient."""
    if x.ambient != y.ambient:
        raise ValueError(f"ambient dimensions differ: {x.ambient} != {y.ambient}")
    return _canonicalize(x).basis == _canonicalize(y).basis


def lattice_coordinates(lat: KernelLattice, vector: Sequence[int]) -> tuple[int, ...] | None:
    """Integer coordinates of a vector on the lattice basis, or None."""
    if len(vector) != lat.ambient:
        raise ValueError(f"vector length {len(vector)} != ambient {lat.ambient}")
    lat = _canonicalize(lat)
    residual = list(vector)
    coords = []
    for row in lat.basis:
        pcol = next(j for j, v in enumerate(row) if v)
        q, r = divmod(residual[pcol], row[pcol])
        if r:
            return None
        if q:
            for j in range(pcol, lat.ambient):
                residual[j] -= q * row[j]
        coords.append(q)
    if any(residual):
        return None
    return tuple(coords)
