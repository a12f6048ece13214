"""Exact integer linear algebra for the pair map: one echelon pass per
matrix, and canonical bases of integer kernel lattices.

Everything works on arbitrary-precision Python integers; there is no
floating point anywhere.  ``IntMatrix`` keeps the nonzero entries of each
row and builds its dense rows only when they are read.  There are two
elimination loops, one dense and one sparse.

The dense elimination is ``_knock_down``, a row echelon form with
positive pivots, nonzero rows first.  Its one row operation subtracts a
floor multiple of the pivot row.  Pivots of minimal absolute
value keep intermediate entries small in practice (with exact arithmetic
this is a performance choice only).  ``canonical_lattice`` follows it with
``_back_reduce``, which reduces the entries above each pivot into
[0, pivot) on packed rows, giving the row Hermite normal form.  HNF is
unique per row lattice, so the HNF of spanning vectors decides everything
else about lattices: two lattices are equal when their canonical bases
compare equal (``lattice_equal``), and a vector lies in a canonical lattice
exactly when appending it to the basis leaves the canonical form as it is
(``kernels.lattice_membership``).

``_unit_pivot_pass`` is a sparse elimination that takes only pivots of +1
or -1, so it never divides; the rows it cannot pivot that way are left, on
the columns that took no pivot, as a small core that ``_hnf_pass`` reduces
with ``_knock_down``.

``echelon`` is the one pass per matrix the rest of the package needs: the
rank of M, the pivots that decide whether M maps onto Z^rows, and the
kernel of M, all from ``_unit_pivot_pass``.  The kernel is canonicalized
by ``canonical_lattice`` and re-checked against the sparse rows of M; only
the core is ever dense.

Batches of vectors are packed into single integers in one format,
``_slots``: balanced slots of whole bytes, as many as ``_width`` gives for
a bound on the entries.  The back-reduction packs rows; the unit pass's
back-substitution and ``echelon``'s re-check pack columns, one slot per
vector.  Each argues its bound where it packs.
"""

from __future__ import annotations

import heapq
import struct
from dataclasses import dataclass
from itertools import chain, repeat
from operator import mul, sub
from typing import Iterable, Sequence

from .words import InconsistencyError


def _check_entries(pairs: Iterable[tuple[int, int]], cols: int) -> None:
    """Refuse a column outside [0, cols) (ValueError) or an entry that is not an int (TypeError).

    An entry must be an int itself: a bool, a float or any other type is refused.
    """
    for j, v in pairs:
        if not (isinstance(j, int) and 0 <= j < cols):
            raise ValueError(f"column {j!r} is outside [0, {cols})")
        if type(v) is not int:
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


def _knock_down(mat: list[list[int]], cols: int) -> list[int]:
    """Bring ``mat`` to row echelon form in place and return its pivot columns.

    Pivots are taken in the first ``cols`` columns only, but every row
    operation spans the whole row, so an identity block appended past
    ``cols`` records the unimodular U with U*M = the result.  Each pivot is
    made positive; nothing above a pivot is reduced.  The nonzero rows come
    first, one per pivot column.
    """
    rows = len(mat)
    pivot_cols: list[int] = []
    for col in range(cols):
        rank = len(pivot_cols)
        if rank == rows:
            break
        # Knock the column at/below `rank` down to a single nonzero entry.
        while True:
            nonzero = [i for i in range(rank, rows) if mat[i][col]]
            if len(nonzero) < 2:
                break
            pivot = min(nonzero, key=lambda i: abs(mat[i][col]))
            row_p = mat[pivot]
            for row_i in map(mat.__getitem__, nonzero):
                if row_i is not row_p:  # row_p is zero before col: start there
                    q = row_i[col] // row_p[col]
                    for j in range(col, len(row_i)):
                        row_i[j] -= q * row_p[j]
        if not nonzero:
            continue
        (pivot,) = nonzero
        mat[pivot], mat[rank] = mat[rank], mat[pivot]
        if mat[rank][col] < 0:
            mat[rank] = [-v for v in mat[rank]]
        pivot_cols.append(col)
    return pivot_cols


def _width(bound: int) -> int:
    """Bytes per slot for entries of absolute value at most ``bound``.

    The slots are W = 8 * width bits wide with bound < 2^(W-1), so such
    entries fit ``_slots``; never under 8 bytes, the ``struct`` path.
    """
    return max(8, (bound.bit_length() + 8) // 8)


def _slots(width: int, n: int):
    """(pack, unpack) between rows of n ints and balanced slots of ``width`` bytes.

    pack(v) = sum of v[t] * 2^(W t), W = 8 * width.  It is Z-linear, and
    adding the offset O = sum of 2^(W-1) * 2^(W t) turns each slot into the
    digit v[t] + 2^(W-1), so a row with every |v[t]| < 2^(W-1) is read back
    from the base-2^W digits of pack(v) + O.  XOR with O flips each slot's top
    bit, which maps that digit to v[t]'s W-bit two's complement and back, so
    8-byte slots go through one ``struct`` call each way; wider slots, for
    entries past 2^63, take one ``to_bytes``/``from_bytes`` per entry.
    """
    half = 1 << (8 * width - 1)
    offset = int.from_bytes(half.to_bytes(width, "little") * n, "little")
    if width == 8:
        words = struct.Struct(f"<{n}q")

        def pack(row):
            return (int.from_bytes(words.pack(*row), "little") ^ offset) - offset

        def unpack(p):
            return words.unpack(((p + offset) ^ offset).to_bytes(8 * n, "little"))
    else:
        def pack(row):
            digits = map(int.to_bytes, map(half.__add__, row), repeat(width), repeat("little"))
            return int.from_bytes(b"".join(digits), "little") - offset

        def unpack(p):
            data = iter((p + offset).to_bytes(width * n, "little"))
            return tuple(map(half.__rsub__, map(int.from_bytes, zip(*[data] * width), repeat("little"))))
    return pack, unpack


def _back_reduce(rows: list[list[int]], pivot_cols: Sequence[int]) -> None:
    """Reduce the echelon ``rows`` of ``_knock_down`` to Hermite normal form in place.

    Row i becomes H_i = K_i - sum of q_ij * H_j over j > i, bottom up, with
    the q_ij that bring its entry at each later pivot column into
    [0, pivot).  HNF is unique per row lattice, so this is the form that
    reducing above each pivot as it is found gives.  The quotients are
    taken from the r x r block of pivot columns alone: H_i there is K_i
    there less the q_ij multiples of H_j there.  Then each row that takes a
    quotient is formed once, as K_i less the sum of its q_ij * H_j, a sum
    taken on packed integers (``_slots``) and read back once; each H_j is
    packed once for all the rows that use it.  A row that takes no
    quotient stays as it is.
    """
    # Row i is K_i - D_i, D_i = sum of q_ij * H_j, and D_i is formed on
    # packed rows.  Its entries are at most d_i = sum of |q_ij| * max|H_j| in
    # absolute value, and so are those of each partial sum of its terms and
    # of each H_j it packs, with max|H_j| read off the finished row j; a bound
    # so found does not compound.  Slots of W bits with d_i < 2^(W-1)
    # therefore read D_i back exactly, and pack's linearity makes the packed
    # sum pack(D_i) whatever carries pass between slots.  The slots are
    # widened only when some d_i needs it, and the rows packed so far are
    # then dropped, to be packed again as they are used.
    r = len(pivot_cols)
    block = [[row[c] for c in pivot_cols] for row in rows]
    top: dict[int, int] = {}
    packed: dict[int, int] = {}
    width = 0
    for i in range(r - 2, -1, -1):
        x = block[i]
        taken = []
        for j in range(i + 1, r):
            h = block[j]
            q = x[j] // h[j]
            if q:
                for t in range(j, r):
                    x[t] -= q * h[t]
                taken.append((j, q))
        if not taken:
            continue
        bound = 0
        for j, q in taken:
            if j not in top:
                top[j] = max(max(rows[j]), -min(rows[j]))
            bound += abs(q) * top[j]
        if _width(bound) > width:
            width = _width(bound)
            pack, unpack = _slots(width, len(rows[i]))
            packed = {}
        acc = 0
        for j, q in taken:
            if j not in packed:
                packed[j] = pack(rows[j])
            acc += q * packed[j]
        rows[i] = list(map(sub, rows[i], unpack(acc)))


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
    """Canonicalize spanning vectors into an HNF-basis lattice.

    Each vector must have ``ambient`` entries (ValueError), each an int
    itself, as in ``IntMatrix`` (TypeError); the entries' types are read
    in one C-level pass, with no Python loop over the entries.
    """
    work = [list(v) for v in vectors]
    for v in work:
        if len(v) != ambient:
            raise ValueError(f"vector length {len(v)} != ambient {ambient}")
    if not {int}.issuperset(map(type, chain.from_iterable(work))):
        raise TypeError("lattice vector entries must be int")
    pivot_cols = _knock_down(work, ambient)
    del work[len(pivot_cols):]
    _back_reduce(work, pivot_cols)
    return KernelLattice(ambient, tuple(map(tuple, work)))


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
    """Image pivots and kernel generators of M from one echelon form of [M^T | I].

    M is given as its dense ``rows``, each ``cols`` entries long.  The rows
    of [M^T | I] are knocked down on their first len(rows) columns into
    [E | U] with U*M^T = E.  The first ``rank`` rows carry the pivots,
    which are those of the HNF of M^T, since the pivots of a row echelon
    basis with positive pivots are fixed by its lattice; the U parts of the
    rows after them, where E is zero, lie in the kernel of M, and since U is
    unimodular they span the full integer kernel, a pure sublattice (a
    direct summand), not just a finite-index one.  Reducing above the
    pivots would change neither, so it is not done.
    """
    height = len(rows)
    work = [[row[j] for row in rows] + [int(i == j) for i in range(cols)] for j in range(cols)]
    pivot_cols = _knock_down(work, height)
    pivots = tuple(work[i][c] for i, c in enumerate(pivot_cols))
    return pivots, [row[height:] for row in work[len(pivots):]]


def _unit_pivot_pass(m: IntMatrix) -> tuple[tuple[int, ...], list[tuple[int, ...]]]:
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
        unit = row.pop(p)
        for t in holders.pop(p):
            target = rows[t]
            q = target.pop(p) * unit  # the unit is its own inverse
            for j, c in row.items():
                v = target.get(j, 0) - q * c
                if v:
                    if j not in target:
                        holders[j].add(t)
                    target[j] = v
                else:
                    del target[j]
                    holders[j].discard(t)
            heapq.heappush(heap, (len(target), t))
        order.append((p, unit, row))
    pivot_cols = {p for p, _, _ in order}
    free = [j for j in range(m.cols) if j not in pivot_cols]
    core = [[row.get(j, 0) for j in free] for row, alive in zip(rows, live) if alive]
    core_pivots, core_kernel = _hnf_pass(core, len(free))
    pivots = (1,) * len(order) + core_pivots
    if not core_kernel:
        return pivots, []
    # x[j] packs coordinate j of every generator (``_slots``, one slot per
    # generator).  Pivot p's row, less its unit entry, is {j: c}, so
    # coordinate p is -unit * sum of c * (coordinate j), and pack is
    # Z-linear, so x[p] = -unit * sum of c * x[j] packs it, whatever carries
    # pass between slots.  By induction |coordinate j| <= bound[j]: on a
    # free column bound is the core kernel's column maximum, and on a pivot
    # column bound[p] = sum of |c| * bound[j].  Slots with every bound below
    # 2^(W-1) therefore read each x[j] back exactly, once.
    bound = dict(zip(free, map(max, zip(*[map(abs, v) for v in core_kernel]))))
    for p, _, row in reversed(order):
        bound[p] = sum(map(mul, map(abs, row.values()), map(bound.__getitem__, row)))
    pack, unpack = _slots(_width(max(bound.values())), len(core_kernel))
    x = dict(zip(free, map(pack, zip(*core_kernel))))
    for p, unit, row in reversed(order):
        x[p] = -unit * sum(map(mul, row.values(), map(x.__getitem__, row)))
    return pivots, list(zip(*map(unpack, map(x.__getitem__, range(m.cols)))))


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
    # Column j packs entry j of vector t into slot t (``_slots``, W bits), so
    # a row's product is the sum of d_t * 2^(W t), d_t = row . v_t, with
    # |d_t| <= max|v| * ||row||_1 < 2^(W-1); the same bound, with the norm
    # taken as at least 1, holds every entry packed.  If the product were 0
    # with some d_t nonzero, the lowest such t would make d_t divisible by
    # 2^W, which |d_t| < 2^W forbids; so the product is 0 exactly when every
    # slot is.
    if lattice.basis:
        top = max(map(abs, chain.from_iterable(lattice.basis)))
        norm = max((sum(abs(c) for _, c in row) for row in m.sparse_rows), default=0)
        pack, _ = _slots(_width(top * max(norm, 1)), lattice.rank)
        columns = list(map(pack, zip(*lattice.basis)))
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
