"""The echelon pass, the Hermite form of its core and lattice comparisons over the integers.

The Smith normal form and the ranks used as witnesses here are the
test-only references in ``helpers``.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    core_shapes,
    reference_canonical_basis,
    reference_echelon,
    reference_hnf_pass,
    reference_row_echelon,
    reference_smith_invariants,
)
from liering import InconsistencyError, zlinalg
from liering.zlinalg import (
    IntMatrix,
    KernelLattice,
    _hnf_pass,
    canonical_lattice,
    echelon,
    lattice_equal,
)


def apply(m: IntMatrix, vector) -> tuple[int, ...]:
    """M times a column vector."""
    return tuple(sum(c * v for c, v in zip(row, vector)) for row in m.entries)


def hnf(m: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """(H, U) from the dense reference HNF of [M | I], the reduction ``_hnf_pass`` runs on M^T."""
    work = [row + [int(i == j) for j in range(m.rows)] for i, row in enumerate(m.entries)]
    reference_row_echelon(work, m.cols)
    return (IntMatrix([row[: m.cols] for row in work], cols=m.cols),
            IntMatrix([row[m.cols :] for row in work], cols=m.rows))


def assert_reconstructs(m: IntMatrix, h: IntMatrix, u: IntMatrix) -> None:
    """U M = H, column by column, with U unimodular."""
    for j in range(m.cols):
        column = [row[j] for row in m.entries]
        assert apply(u, column) == tuple(row[j] for row in h.entries)
    assert reference_smith_invariants(u) == (1,) * u.rows


def assert_hnf_shape(h: IntMatrix) -> None:
    """Row-style HNF: positive pivots, entries above reduced into [0, pivot)."""
    last_pivot_col = -1
    seen_zero_row = False
    for i, row in enumerate(h.entries):
        pivots = [j for j, v in enumerate(row) if v]
        if not pivots:
            seen_zero_row = True
            continue
        assert not seen_zero_row, "nonzero row below a zero row"
        j = pivots[0]
        assert j > last_pivot_col, "pivot columns must increase"
        last_pivot_col = j
        assert row[j] > 0
        for above in range(i):
            assert 0 <= h.entries[above][j] < row[j]


def test_hnf_examples():
    ident = IntMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    h, u = hnf(ident)
    assert h == ident and u == ident

    m = IntMatrix([[2], [4]])
    h, u = hnf(m)
    assert h.entries == [[2], [0]]
    assert_reconstructs(m, h, u)

    h, u = hnf(IntMatrix([[-1, 1]]))
    assert h.entries == [[1, -1]]


def test_hnf_reconstruction_and_unimodularity():
    m = IntMatrix([[6, 4, 2], [2, 8, 0], [1, 1, 1]])
    h, u = hnf(m)
    assert_reconstructs(m, h, u)
    assert_hnf_shape(h)


def test_rank_examples():
    assert reference_echelon(IntMatrix([[1, 0], [0, 1]])).rank == 2
    assert reference_echelon(IntMatrix([[2, 4], [1, 2]])).rank == 1
    assert reference_echelon(IntMatrix([[0] * 5] * 3)).rank == 0
    assert reference_echelon(IntMatrix([], cols=4)).rank == 0


def test_kernel_examples():
    assert echelon(IntMatrix([[-1, 1]])).kernel.basis == ((1, 1),)
    assert echelon(IntMatrix([[0, 0], [0, 0]])).kernel.rank == 2
    assert echelon(IntMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])).kernel.rank == 0
    assert echelon(IntMatrix([], cols=3)).kernel.rank == 3


def test_echelon_examples():
    ech = echelon(IntMatrix([[2, 3]]))  # onto Z: gcd(2, 3) = 1
    assert (ech.rank, ech.pivots) == (1, (1,))
    assert ech.kernel.basis == ((3, -2),)

    ech = echelon(IntMatrix([[2, 0], [0, 3]]))  # full rank, image of index 6
    assert (ech.rank, ech.pivots) == (2, (2, 3))
    assert ech.kernel.rank == 0

    ech = echelon(IntMatrix([], cols=2))  # no rows: everything is kernel
    assert (ech.rank, ech.pivots) == (0, ())
    assert ech.kernel.basis == ((1, 0), (0, 1))


@pytest.mark.parametrize(
    "wrong, slot",
    [pytest.param(w, 0, id=f"wrong{i}")
     for i, w in enumerate([(1, 0, 0, 0, 0), (0, 0, 0, 1, 1), (0, 1, 0, 0, -1), (0, 0, 1, 0, 0)])]
    + [pytest.param((0, 1, 0, 0, -1), 2, id="wrong4")],
)
def test_echelon_refuses_a_vector_off_the_kernel(monkeypatch, wrong, slot):
    # The annihilation check reads only the nonzero entries of each row, so
    # a wrong vector must still be caught whichever entry it spoils, also
    # one that only the row with a single entry sees.  The check packs the
    # kernel vectors into slots of one integer, so a wrong vector in a
    # middle slot must be caught too: two zero columns give the kernel the
    # unit vectors on them, four vectors in all.
    m = IntMatrix([[0, 2, 0, 0, 1], [1, 0, 0, 3, 0], [0, 0, 0, 0, 0], [0, 0, 1, 0, 0]])
    if slot:
        m = IntMatrix([row + [0, 0] for row in m.entries])
        wrong += (0, 0)
    basis = echelon(m).kernel.basis
    assert len(basis) > slot + 1 and not any(any(apply(m, v)) for v in basis)
    assert any(apply(m, wrong))
    real = zlinalg.canonical_lattice

    def spoiled(ambient, vectors):
        lat = real(ambient, vectors)
        return KernelLattice(ambient, lat.basis[:slot] + (wrong,) + lat.basis[slot + 1 :])

    monkeypatch.setattr(zlinalg, "canonical_lattice", spoiled)
    with pytest.raises(InconsistencyError, match="does not annihilate"):
        echelon(m)


def test_echelon_refuses_slots_that_cancel_across_the_packing(monkeypatch):
    # Row . v_0 = 2^64 and row . v_1 = -1: with 8-byte slots, wide enough
    # for the entries (2^61) but not for the row's l1-norm 8 times them, the
    # packed product 2^64 - 1 * 2^64 would be 0.  The slot width counts the
    # norm, so it is not.
    m = IntMatrix([[1] * 8])
    real = zlinalg.canonical_lattice

    def spoiled(ambient, vectors):
        lat = real(ambient, vectors)
        return KernelLattice(ambient, ((1 << 61,) * 8, (-1,) + (0,) * 7) + lat.basis[2:])

    monkeypatch.setattr(zlinalg, "canonical_lattice", spoiled)
    with pytest.raises(InconsistencyError, match="does not annihilate"):
        echelon(m)


@pytest.mark.parametrize(
    "entries, core",
    [
        ([[1, 0, 2, 0], [0, 1, -1, 3], [0, 0, 1, 1]], (0, 1)),  # unit pivots throughout
        ([[2, -2, 0, 2], [0, 2, 2, -2]], (2, 4)),  # no unit entry at all
        ([[1, 0, 1, 2], [0, 0, 0, 0]], (1, 3)),  # a zero row
        ([[1, -1, 0, 2], [1, -1, 0, 2]], (1, 3)),  # two equal rows: one empties
        ([[2, 3]], (1, 2)),  # onto Z, but not by a unit pivot
        ([[2, 3], [1, 1]], (0, 0)),  # row 0 has a unit once row 1 clears column 0
    ],
    ids=["units", "all-even", "zero-row", "equal-rows", "no-unit-onto", "unit-after-a-pivot"],
)
def test_echelon_falls_back_to_the_hnf_without_unit_pivots(monkeypatch, entries, core):
    # Only the rows left without a unit pivot reach the HNF pass, as a core
    # on the columns that took no pivot; the pass sees no other matrix.  A
    # row with no unit entry when its turn comes is taken up again once a
    # pivot changes it.
    calls = core_shapes(monkeypatch)
    m = IntMatrix(entries)
    assert echelon(m) == reference_echelon(m)
    assert calls == [core]


def test_echelon_pivots_are_the_unit_pivots_then_the_core_pivots(monkeypatch):
    # Row 1 takes column 0, and row 0, with no unit entry, is the core on
    # column 1.  HNF(M^T) has the same pivots in the other order: both count
    # the rank and multiply to the index of the image.
    calls = core_shapes(monkeypatch)
    m = IntMatrix([[0, 2], [1, 1]])
    ech = echelon(m)
    assert (ech.rank, ech.pivots) == (2, (1, 2))
    assert reference_echelon(m).pivots == (2, 1)
    assert calls == [(1, 1)]


SPARSE_ENTRIES = (0,) * 8 + (-3, -2, -1, 1, 2, 3)
sparse_matrices = st.integers(min_value=0, max_value=12).flatmap(
    lambda r: st.integers(min_value=1, max_value=14).flatmap(
        lambda c: st.lists(
            st.lists(st.sampled_from(SPARSE_ENTRIES), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        ).map(lambda rows: IntMatrix(rows, cols=c))
    )
)


@settings(max_examples=300, deadline=None)
@given(sparse_matrices)
def test_echelon_matches_the_hnf_reference_on_sparse_matrices(m):
    ech, ref = echelon(m), reference_echelon(m)
    assert (ech.rank, ech.kernel) == (ref.rank, ref.kernel)
    # The pivots of an echelon basis of the image: as many as the rank, all
    # 1 exactly when M is onto, and at full rank the index of the image.
    assert len(ech.pivots) == ech.rank
    onto = ech.rank == m.rows and all(p == 1 for p in ech.pivots)
    assert onto == (reference_smith_invariants(m) == (1,) * m.rows)
    if ech.rank == m.rows:
        assert math.prod(ech.pivots) == math.prod(ref.pivots)


WIDE_ENTRIES = st.one_of(
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=-2**70, max_value=2**70),
    st.sampled_from([2**63 - 1, 2**63, -2**63, 2**64 + 1]),
)


@st.composite
def spanning_sets(draw):
    """(cols, rows): random rows with some repeated, and some zero rows, in random order."""
    cols = draw(st.integers(min_value=1, max_value=9))
    rows = draw(st.lists(st.lists(WIDE_ENTRIES, min_size=cols, max_size=cols), max_size=7))
    if rows:
        rows += [list(rows[i]) for i in draw(st.lists(st.integers(0, len(rows) - 1), max_size=3))]
    rows += [[0] * cols for _ in range(draw(st.integers(min_value=0, max_value=2)))]
    return cols, draw(st.permutations(rows))


@settings(max_examples=300, deadline=None)
@given(spanning_sets())
def test_canonical_lattice_and_hnf_pass_match_the_dense_reference(case):
    cols, rows = case
    assert canonical_lattice(cols, rows).basis == reference_canonical_basis(cols, rows)
    assert _hnf_pass(rows, cols) == reference_hnf_pass(rows, cols)


def recorded_widths(monkeypatch) -> list[int]:
    """Record the slot width of every packer ``_slots`` hands out."""
    widths: list[int] = []
    real = zlinalg._slots

    def recorded(width, n):
        widths.append(width)
        return real(width, n)

    monkeypatch.setattr(zlinalg, "_slots", recorded)
    return widths


def test_back_reduction_widens_its_slots_when_a_row_needs_it(monkeypatch):
    widths = recorded_widths(monkeypatch)
    # Row 1 takes q = 2 of row 2, a sum that fits 8-byte slots.  Row 0 takes
    # q = 2 of row 1, whose last entry is 2^80 - 2, and q = -1 of row 2: that
    # sum needs 11-byte slots.
    rows = [[1, 5, 0, 0], [0, 2, 7, 2**80], [0, 0, 3, 1]]
    assert canonical_lattice(4, rows).basis == reference_canonical_basis(4, rows)
    assert canonical_lattice(4, rows).basis == (
        (1, 1, 1, 5 - 2**81), (0, 2, 1, 2**80 - 2), (0, 0, 3, 1))
    assert widths == [8, 11] * 2


@pytest.mark.parametrize(
    "entries, widths",
    [
        # The unit pivot on column 0 back-substitutes 2^70 from the core's
        # identity kernel on column 1: the generator is (2^70, 1).
        ([[1, -(1 << 70)]], [9, 18]),
        # Row 0 has no unit entry, so it is the core on columns 0 and 1,
        # whose kernel (2^70 + 1, -2) passes 2^63 before any back-substitution.
        ([[2, (1 << 70) + 1, 0], [0, 3, 1]], [9, 18]),
    ],
    ids=["back-substitution", "core"],
)
def test_every_packer_of_the_echelon_pass_widens_past_8_byte_slots(monkeypatch, entries, widths):
    # The back-substitution takes 9-byte slots for entries up to 2^70 + 1,
    # and the re-check 18-byte ones for about 2^140, the largest entry times
    # the largest row l1-norm; the back-reduction has no quotient to take.
    recorded = recorded_widths(monkeypatch)
    m = IntMatrix(entries)
    ech = echelon(m)
    assert recorded == widths
    assert ech.kernel == reference_echelon(m).kernel and ech.rank == reference_echelon(m).rank
    assert max(map(abs, ech.kernel.basis[0])) > 1 << 63


@pytest.mark.parametrize(
    "entries, core",
    [([[1, 0, 0], [0, -1, 0], [0, 0, 1]], (0, 0)), ([[2, 0], [1, 1]], (1, 1)), ([[3, 0], [0, 2]], (2, 2))],
    ids=["units-only", "unit-then-core", "core-only"],
)
def test_a_kernel_of_rank_0_packs_nothing(monkeypatch, entries, core):
    # An empty core kernel ends the pass before the back-substitution, and
    # an empty basis skips the re-check: no packer is made.
    shapes, widths = core_shapes(monkeypatch), recorded_widths(monkeypatch)
    m = IntMatrix(entries)
    ech = echelon(m)
    assert (ech.rank, ech.kernel) == (m.rows, reference_echelon(m).kernel) and ech.kernel.rank == 0
    assert (shapes, widths) == ([core], [])


@pytest.mark.parametrize("width", [8, 9, 16])
def test_slots_read_back_rows_below_half_a_slot(width):
    top = (1 << (8 * width - 1)) - 1
    row = [top, -top, 0, 1, -1, top - 1, 1 - top]
    pack, unpack = zlinalg._slots(width, len(row))
    assert list(unpack(pack(row))) == row
    ones = [1, -1, 0, 0, 1, 1, -1]
    assert list(unpack(pack(row) - 2 * pack(ones))) == [v - 2 * e for v, e in zip(row, ones)]


def test_kernel_is_pure():
    lat = echelon(IntMatrix([[2, 4, 6], [1, 1, 1]])).kernel
    assert lat.rank == 1
    assert reference_smith_invariants(IntMatrix([list(v) for v in lat.basis])) == (1,)


def test_lattice_equal_examples():
    x = KernelLattice(2, ((1, 1),))
    assert lattice_equal(x, x)
    assert lattice_equal(x, KernelLattice(2, ((-1, -1),)))
    assert not lattice_equal(x, KernelLattice(2, ((2, 2),)))
    with pytest.raises(ValueError):
        lattice_equal(x, KernelLattice(3, ((1, 1, 0),)))


def test_matrix_keeps_the_nonzeros_of_each_row():
    dense = [[0, -2, 0, 5], [0, 0, 0, 0], [-1, 0, 3, 0]]
    m = IntMatrix(dense)
    assert m.sparse_rows == (((1, -2), (3, 5)), (), ((0, -1), (2, 3)))
    assert m.entries == dense
    # Keys in any order and explicit zeros give the same rows; the dense
    # rows are built on first read, once.
    sparse = IntMatrix.from_sparse([{3: 5, 1: -2}, {2: 0}, {2: 3, 0: -1}], cols=4)
    assert sparse == m and sparse.sparse_rows == m.sparse_rows
    assert (sparse.rows, sparse.cols, sparse.entries) == (3, 4, dense)
    assert sparse.entries is sparse.entries
    empty = IntMatrix([], cols=3)
    assert (empty.rows, empty.cols, empty.sparse_rows, empty.entries) == (0, 3, (), [])
    assert IntMatrix.from_sparse([], cols=3) == empty
    assert IntMatrix.from_sparse([{}], cols=0) == IntMatrix([[]])


@settings(max_examples=100, deadline=None)
@given(sparse_matrices)
def test_matrix_from_sparse_rows_equals_the_dense_one(m):
    copy = IntMatrix.from_sparse([dict(row) for row in m.sparse_rows], m.cols)
    assert copy == m and copy.entries == m.entries


def test_matrix_validation():
    with pytest.raises(ValueError):
        IntMatrix([[1, 2], [3]])
    with pytest.raises(TypeError):
        IntMatrix([[1.5]])
    with pytest.raises(ValueError):
        IntMatrix([], cols=None)
    with pytest.raises(ValueError):
        IntMatrix([[1, 2]], cols=3)
    # Column 5 used to stay in sparse_rows, and echelon then raised IndexError;
    # a float entry made it raise AttributeError.
    with pytest.raises(ValueError, match=r"column 5 is outside \[0, 3\)"):
        IntMatrix.from_sparse([{5: 1, 0: 2}], cols=3)
    with pytest.raises(TypeError, match="matrix entries must be int"):
        IntMatrix.from_sparse([{0: 1, 2: 0.5}], cols=3)
    # A bool entry used to be kept, and to_record wrote it as "True".
    with pytest.raises(TypeError, match="matrix entries must be int, got True"):
        IntMatrix([[True, 2]])
    with pytest.raises(TypeError, match="matrix entries must be int, got False"):
        IntMatrix.from_sparse([{1: False}], cols=2)


@pytest.mark.parametrize(
    "ambient, vectors",
    [
        (2, [[1, 3.0], [0, 2]]),  # raised AttributeError in the back-reduction
        (3, [[2, 1, 7], [0, 2, 3.0]]),  # returned (0, 2, 3.0) in the canonical basis
        (2, [[1, True]]),
        (1, [(1,), (2.0,)]),  # the knock-down would clear the float row
    ],
)
def test_canonical_lattice_refuses_entries_that_are_not_ints(ambient, vectors):
    with pytest.raises(TypeError, match="lattice vector entries must be int"):
        canonical_lattice(ambient, vectors)
    ints = KernelLattice(ambient, ((1,) * ambient,))
    with pytest.raises(TypeError, match="lattice vector entries must be int"):
        lattice_equal(KernelLattice(ambient, tuple(map(tuple, vectors))), ints)
    with pytest.raises(TypeError, match="lattice vector entries must be int"):
        lattice_equal(ints, KernelLattice(ambient, tuple(map(tuple, vectors))))


matrices = st.integers(min_value=1, max_value=8).flatmap(
    lambda r: st.integers(min_value=1, max_value=8).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(min_value=-5, max_value=5), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


@settings(max_examples=120, deadline=None)
@given(matrices)
def test_fuzz_hnf_and_kernel(entries):
    # The whole-matrix HNF reference on its own, with the Smith pivot search as witness.
    m = IntMatrix(entries)
    ech = reference_echelon(m)
    lat = ech.kernel
    assert lat.rank == m.cols - ech.rank
    onto = ech.rank == m.rows and all(p == 1 for p in ech.pivots)
    assert onto == (reference_smith_invariants(m) == (1,) * m.rows)
    for vector in lat.basis:
        assert not any(apply(m, vector))
        assert canonical_lattice(lat.ambient, (*lat.basis, vector)) == lat
    if lat.rank:
        # Unit invariant factors: the basis spans the full integer kernel.
        basis_matrix = IntMatrix([list(v) for v in lat.basis])
        assert reference_smith_invariants(basis_matrix) == (1,) * lat.rank
    h, u = hnf(m)
    assert_reconstructs(m, h, u)
    assert_hnf_shape(h)
