"""Exact integer linear algebra for the pair map: one echelon pass per
matrix, and canonical bases of integer kernel lattices.

Everything works on arbitrary-precision Python integers; there is no
floating point anywhere.  ``IntMatrix`` keeps the nonzero entries of each
row and builds its dense rows only when they are read.  There are two
elimination loops, one dense and one sparse.

``_row_echelon`` is a dense row Hermite normal form: positive pivots,
entries above each pivot reduced into [0, pivot), nonzero rows first.  Its
one row operation, ``_reduce``, subtracts a floor multiple of the pivot
row.  Pivots of minimal absolute value keep intermediate entries small in
practice (with exact arithmetic this is a performance choice only).  HNF
is unique per row lattice, so ``canonical_lattice``, the HNF of spanning
vectors, decides everything else about lattices: two lattices are equal
when their canonical bases compare equal (``lattice_equal``), and a vector
lies in a canonical lattice exactly when appending it to the basis leaves
the canonical form as it is (``kernels.lattice_membership``).

``_unit_pivot_pass`` is a sparse elimination that takes only pivots of +1
or -1, so it never divides; the rows it cannot pivot that way are left, on
the columns that took no pivot, as a small core that ``_hnf_pass`` reduces
with ``_row_echelon``.

``echelon`` is the one pass per matrix the rest of the package needs: the
rank of M, the pivots that decide whether M maps onto Z^rows, and the
kernel of M, all from ``_unit_pivot_pass``.  The kernel is canonicalized
with ``_row_echelon`` and re-checked against the sparse rows of M; only
the core is ever dense.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Sequence

from .words import InconsistencyError


def _check_entries(pairs: Iterable[tuple[int, int]], cols: int) -> None:
    """Refuse a column outside [0, cols) (ValueError) or an entry that is not an int (TypeError)."""
    for j, v in pairs:
        if not (isinstance(j, int) and 0 <= j < cols):
            raise ValueError(f"column {j!r} is outside [0, {cols})")
        if not isinstance(v, int):
            raise TypeError(f"matrix entries must be int, got {v!r}")


class IntMatrix:
    """A matrix of Python integers, stored as the nonzero entries of each row.

    ``sparse_rows`` holds, for each row, its nonzero (column, entry) pairs
    in ascending column order, as tuples.  ``entries``, the dense rows, is
    built on first read and kept; callers must not edit it.
    """

    __slots__ = ("rows", "cols", "sparse_rows", "_entries")

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
        _check_entries((p for row in data for p in enumerate(row)), cols)
        self.rows, self.cols, self._entries = rows, cols, data
        self.sparse_rows = tuple(tuple((j, v) for j, v in enumerate(row) if v) for row in data)

    @classmethod
    def from_sparse(cls, rows: Sequence[dict[int, int]], cols: int) -> IntMatrix:
        """The rows x cols matrix whose row i has the entries {column: entry} of rows[i]."""
        _check_entries((p for row in rows for p in row.items()), cols)
        m = cls.__new__(cls)
        m.rows, m.cols, m._entries = len(rows), cols, None
        m.sparse_rows = tuple(tuple(sorted((j, v) for j, v in row.items() if v)) for row in rows)
        return m

    @property
    def entries(self) -> list[list[int]]:
        if self._entries is None:
            self._entries = self._dense()
        return self._entries

    def _dense(self) -> list[list[int]]:
        return [[r.get(j, 0) for j in range(self.cols)] for r in map(dict, self.sparse_rows)]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return (self.rows, self.cols, self.sparse_rows) == (other.rows, other.cols, other.sparse_rows)

    def __repr__(self) -> str:  # from the sparse rows: printing builds no dense copy
        return f"IntMatrix({self.rows}x{self.cols}, nnz={sum(map(len, self.sparse_rows))})"

    def to_record(self) -> dict:
        """Portable record: shape plus row-major decimal entry strings."""
        return {"rows": self.rows, "cols": self.cols,
                "entries": [str(v) for row in self.entries for v in row]}


def _reduce(row_i: list[int], row_p: list[int], col: int) -> None:
    """Subtract q * row_p from row_i in place, q = row_i[col] // row_p[col].

    row_p is zero before ``col``, so only the entries from ``col`` on change.
    """
    q = row_i[col] // row_p[col]
    if q:
        for j in range(col, len(row_i)):
            row_i[j] -= q * row_p[j]


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
            for i in nonzero:
                if i != pivot:
                    _reduce(mat[i], mat[pivot], col)
        if pivot is None:
            continue
        if pivot != rank:
            mat[pivot], mat[rank] = mat[rank], mat[pivot]
        if mat[rank][col] < 0:
            mat[rank] = [-v for v in mat[rank]]
        for row_i in mat[:rank]:
            _reduce(row_i, mat[rank], col)
        rank += 1
    return rank


@dataclass(frozen=True)
class KernelLattice:
    """An integer lattice presented by basis row vectors.

    ``canonical_lattice`` gives the basis as the nonzero rows of its
    Hermite normal form, so two lattices built by it are equal as sets of
    vectors iff their bases compare equal.
    """

    ambient: int
    basis: tuple[tuple[int, ...], ...]

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
    return KernelLattice(ambient, tuple(tuple(row) for row in work[:r]))


@dataclass(frozen=True)
class Echelon:
    """Rank of M, pivots of an echelon basis of its image, kernel of M.

    The pivots are the unit pivots of the elimination, then the HNF pivots
    of its core; the rank is their number.  M maps onto Z^rows exactly
    when there are M.rows pivots and all are 1, and at full rank their
    product is the index of the image.
    """

    pivots: tuple[int, ...]
    kernel: KernelLattice

    @property
    def rank(self) -> int:
        return len(self.pivots)


def _hnf_pass(rows: Sequence[Sequence[int]], cols: int) -> tuple[tuple[int, ...], list[list[int]]]:
    """Image pivots and kernel generators of M from one HNF of [M^T | I].

    M is given as its dense ``rows``, each ``cols`` entries long.  The rows
    of [M^T | I] are reduced on their first len(rows) columns into
    [H | U] with U*M^T = H.  The first ``rank`` rows carry the pivots; the
    U parts of the rows after them, where H is zero, lie in the kernel of
    M, and since U is unimodular they span the full integer kernel, a pure
    sublattice (a direct summand), not just a finite-index one.
    """
    height = len(rows)
    work = [[row[j] for row in rows] + [int(i == j) for i in range(cols)] for j in range(cols)]
    r = _row_echelon(work, height)
    pivots = tuple(next(v for v in row if v) for row in work[:r])
    return pivots, [row[height:] for row in work[r:]]


def _unit_pivot_pass(m: IntMatrix) -> tuple[tuple[int, ...], list[list[int]]]:
    """Image pivots and kernel generators of M: unit pivots, then an HNF core.

    It works on dicts copied from M's sparse rows, which stay as they are.
    The shortest live row is taken next, and in it the +1 or -1 entry whose
    column has the fewest live rows (Markowitz pivoting), ties going to the
    lower row and column, so the order is fixed.  That column is then
    cleared from the other live rows, which go back on the heap.  A row
    that is empty or has no unit entry when its turn comes stays live,
    unpivoted, until a pivot changes it.

    Each step adds integer multiples of a pivot row to other rows, a
    unimodular operation, and each pivot row has a unit in its own column
    that no row pivoted after it has.  The rows still live at the end touch
    only the free columns, those that took no pivot, and there form the
    core S, which ``_hnf_pass`` reduces.  So the image of M is, up to a
    unimodular change of basis, Z^(unit pivots) + image(S), and its
    pivots are the unit ones followed by those of S.  Each kernel generator
    of S, on the free columns, is completed by back-substituting the pivot
    coordinates in reverse pivot order; since the pivots are units, this
    maps ker S one to one onto ker M, so the results span the full kernel.
    """
    rows = [dict(row) for row in m.sparse_rows]
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
            continue  # stuck: it stays live, and comes back only if a pivot changes it
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
    pivot_cols = {p for p, _ in order}
    free = [j for j in range(m.cols) if j not in pivot_cols]
    core = [[row.get(j, 0) for j in free] for row, alive in zip(rows, live) if alive]
    core_pivots, core_kernel = _hnf_pass(core, len(free))
    # x[j] holds coordinate j of every generator at once, keyed by generator.
    x: dict[int, dict[int, int]] = {
        f: {g: v[t] for g, v in enumerate(core_kernel) if v[t]} for t, f in enumerate(free)
    }
    for p, row in reversed(order):
        value: dict[int, int] = {}
        for j, c in row.items():
            if j != p:
                for f, e in x[j].items():
                    value[f] = value.get(f, 0) - row[p] * c * e
        x[p] = {f: e for f, e in value.items() if e}
    generators = [[0] * m.cols for _ in core_kernel]
    for j, coeffs in x.items():
        for g, e in coeffs.items():
            generators[g][j] = e
    return (1,) * len(order) + core_pivots, generators


def echelon(m: IntMatrix) -> Echelon:
    """Rank, image pivots and canonical kernel of M.

    The generators of the full integer kernel from ``_unit_pivot_pass``
    are canonicalized, and every returned kernel vector is re-checked
    against M exactly, all at once: one packed product per sparse row.
    A failed re-check is an internal fault: InconsistencyError.
    """
    pivots, generators = _unit_pivot_pass(m)
    lattice = canonical_lattice(m.cols, generators)
    if lattice.rank != len(generators):
        raise InconsistencyError("kernel generators were not independent")
    # Column j packs entry j of vector t into slot t, W bits wide, so slot t
    # of a row's product is d_t = row . v_t, with |d_t| <= max|v| *
    # ||row||_1 < 2^(W-2).  If the product were 0 with some d_t nonzero, the
    # lowest such t would make d_t divisible by 2^W, which |d_t| < 2^W
    # forbids; so the product is 0 exactly when every slot is.
    top = max((max(map(abs, vector)) for vector in lattice.basis), default=0)
    norm = max((sum(abs(c) for _, c in row) for row in m.sparse_rows), default=0)
    width = (top * norm).bit_length() + 2
    columns = [0] * m.cols
    for vector in reversed(lattice.basis):  # Horner: vector t lands in slot t
        columns = [(c << width) + v for c, v in zip(columns, vector)]
    if any(sum(c * columns[j] for j, c in row) for row in m.sparse_rows):
        raise InconsistencyError("computed kernel vector does not annihilate the matrix")
    return Echelon(pivots, lattice)


def lattice_equal(x: KernelLattice, y: KernelLattice) -> bool:
    """Whether two lattices coincide as subgroups of Z^ambient.

    Both are canonicalized; HNF is idempotent, so a canonical basis stays as it is.
    """
    if x.ambient != y.ambient:
        raise ValueError(f"ambient dimensions differ: {x.ambient} != {y.ambient}")
    return canonical_lattice(x.ambient, x.basis).basis == canonical_lattice(y.ambient, y.basis).basis
