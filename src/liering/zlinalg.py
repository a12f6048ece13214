"""Exact integer linear algebra: Hermite and Smith normal forms, ranks,
and canonical bases of integer kernel lattices.

Everything works on arbitrary-precision Python integers; there is no
floating point anywhere.  Row reduction picks pivots of minimal absolute
value, which keeps intermediate entries small in practice (with exact
arithmetic this is a performance choice only).

Conventions: ``hnf`` returns a row-style Hermite normal form with positive
pivots, entries above each pivot reduced into [0, pivot), nonzero rows
first, together with a unimodular transform U satisfying U*M = H.  Since
HNF is unique per row lattice, canonicalizing a basis makes lattice
equality a plain comparison.  Tests verify the U*M = H reconstruction and
unimodularity on every exercised call; production calls skip the repeated
multiplication.

``echelon`` is the one pass per matrix the rest of the package needs: the
transform HNF of M^T gives the rank of M, the pivots that decide whether M
maps onto Z^rows, and, from the zero rows of H, the kernel of M.
"""

from __future__ import annotations

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

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)], cols=n)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls([[0] * cols for _ in range(rows)], cols=cols)

    def copy(self) -> "IntMatrix":
        return IntMatrix(self.entries, cols=self.cols)

    def transpose(self) -> "IntMatrix":
        flipped = [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)]
        return IntMatrix(flipped, cols=self.rows)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        out = [[0] * other.cols for _ in range(self.rows)]
        for i, row in enumerate(self.entries):
            target = out[i]
            for k, c in enumerate(row):
                if c:
                    other_row = other.entries[k]
                    for j, v in enumerate(other_row):
                        if v:
                            target[j] += c * v
        return IntMatrix(out, cols=other.cols)

    def apply(self, vector: Sequence[int]) -> tuple[int, ...]:
        if len(vector) != self.cols:
            raise ValueError(f"vector length {len(vector)} != cols {self.cols}")
        return tuple(sum(c * v for c, v in zip(row, vector)) for row in self.entries)

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

    @classmethod
    def from_record(cls, record: dict) -> "IntMatrix":
        rows, cols = int(record["rows"]), int(record["cols"])
        flat = [int(s) for s in record["entries"]]
        if len(flat) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(flat)}")
        return cls([flat[i * cols : (i + 1) * cols] for i in range(rows)], cols=cols)


def _row_echelon(mat: list[list[int]], cols: int, transform: bool):
    """In-place row HNF.  Returns (rank, U entries or None)."""
    rows = len(mat)
    u = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)] if transform else None
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
                if i == pivot:
                    continue
                q = mat[i][col] // mat[pivot][col]
                if q:
                    row_i, row_p = mat[i], mat[pivot]
                    for j in range(col, cols):
                        row_i[j] -= q * row_p[j]
                    if transform:
                        u_i, u_p = u[i], u[pivot]
                        for j in range(rows):
                            u_i[j] -= q * u_p[j]
        if pivot is None:
            continue
        if pivot != rank:
            mat[pivot], mat[rank] = mat[rank], mat[pivot]
            if transform:
                u[pivot], u[rank] = u[rank], u[pivot]
        if mat[rank][col] < 0:
            mat[rank] = [-v for v in mat[rank]]
            if transform:
                u[rank] = [-v for v in u[rank]]
        p = mat[rank][col]
        for i in range(rank):
            q = mat[i][col] // p
            if q:
                row_i, row_p = mat[i], mat[rank]
                for j in range(col, cols):
                    row_i[j] -= q * row_p[j]
                if transform:
                    u_i, u_p = u[i], u[rank]
                    for j in range(rows):
                        u_i[j] -= q * u_p[j]
        rank += 1
    return rank, u


def hnf(m: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Row Hermite normal form (H, U) with U unimodular and U @ M = H."""
    work = [row[:] for row in m.entries]
    _, u = _row_echelon(work, m.cols, transform=True)
    return IntMatrix(work, cols=m.cols), IntMatrix(u, cols=m.rows)


def rank(m: IntMatrix) -> int:
    """Rank over the rationals (equivalently, number of HNF pivots)."""
    work = [row[:] for row in m.entries]
    r, _ = _row_echelon(work, m.cols, transform=False)
    return r


def smith_invariants(m: IntMatrix) -> tuple[int, ...]:
    """Positive invariant factors d1 | d2 | ... of the matrix."""
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
    r, _ = _row_echelon(work, ambient, transform=False)
    return KernelLattice(ambient, tuple(tuple(row) for row in work[:r]), canonical=True)


@dataclass(frozen=True)
class Echelon:
    """Rank of M, leading entries of the nonzero rows of HNF(M^T), kernel of M."""

    rank: int
    pivots: tuple[int, ...]
    kernel: KernelLattice


def echelon(m: IntMatrix) -> Echelon:
    """Rank, image pivots and canonical kernel of M from one HNF of M^T.

    The rows of U (U*M^T = H) that meet the zero rows of H lie in the
    kernel of M, and since U is unimodular they span the full integer
    kernel, a pure sublattice (a direct summand), not just a finite-index
    one.  Every returned kernel vector is re-checked against M exactly.
    """
    h, u = hnf(m.transpose())
    pivots = tuple(next(v for v in row if v) for row in h.entries if any(row))
    generators = u.entries[len(pivots):]
    lattice = canonical_lattice(m.cols, generators)
    if lattice.rank != len(generators):
        raise AssertionError("kernel generators were not independent")
    # M is sparse, so each row is checked on its nonzero entries only.
    sparse_rows = [[(j, c) for j, c in enumerate(row) if c] for row in m.entries]
    for vector in lattice.basis:
        if any(sum(c * vector[j] for j, c in row) for row in sparse_rows):
            raise AssertionError("computed kernel vector does not annihilate the matrix")
    return Echelon(len(pivots), pivots, lattice)


def kernel(m: IntMatrix) -> KernelLattice:
    """Canonical basis of the full integer kernel {x : M x = 0}."""
    return echelon(m).kernel


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
