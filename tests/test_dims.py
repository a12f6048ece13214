"""Closed-form rank formulas and their cross-checks."""

import pytest

from liering import dims
from liering.words import lyndon_words

LIE_DIMS = (2, 1, 2, 3, 6, 9, 18, 30, 56, 99, 186, 335, 630)
KERNEL_DIMS = (3, 0, 1, 0, 3, 0, 6, 4, 13, 12, 37, 40)


def test_mobius_values():
    assert [dims.mobius(n) for n in range(1, 13)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]
    with pytest.raises(ValueError):
        dims.mobius(0)


def test_binom_conventions():
    assert dims.binom(5, 2) == 10
    assert dims.binom(5, -1) == 0
    assert dims.binom(3, 7) == 0
    assert dims.binom(-1, 0) == 0
    assert dims.binom(0, 0) == 1


def test_lie_dim_table():
    assert tuple(dims.lie_dim(n) for n in range(1, 14)) == LIE_DIMS
    assert dims.lie_dim(6) == 9
    assert dims.lie_dim(12) == 335
    with pytest.raises(ValueError):
        dims.lie_dim(0)


def test_lie_dim_bigraded_examples():
    for n in range(1, 11):
        assert dims.lie_dim_bigraded(2, n) == (n + 1) // 2
    assert dims.lie_dim_bigraded(2, 2) == 1
    assert dims.lie_dim_bigraded(1, 0) == 1
    assert dims.lie_dim_bigraded(0, 1) == 1
    assert dims.lie_dim_bigraded(5, 0) == 0
    for n in range(1, 12):
        diff = dims.lie_dim_bigraded(3, n) - dims.lie_dim_bigraded(3, n - 1)
        assert diff == (n - 1) // 3 + 1
    for entry in (dims.lie_dim_bigraded, dims.kernel_dim_bigraded):
        with pytest.raises(ValueError, match=r"^bidegree \(0, 0\) is empty$"):
            entry(0, 0)
        for k, l in ((-1, 3), (3, -1)):
            with pytest.raises(ValueError, match=rf"^bidegree components must be nonnegative, got \({k}, {l}\)$"):
                entry(k, l)


def test_bigraded_sums_and_counts():
    for n in range(1, 17):
        assert sum(dims.lie_dim_bigraded(k, n - k) for k in range(n + 1)) == dims.lie_dim(n)
    for n in range(1, 15):
        for k in range(n + 1):
            assert dims.lie_dim_bigraded(k, n - k) == len(lyndon_words(k, n - k))


def test_kernel_dim_table():
    assert tuple(dims.kernel_dim(n) for n in range(2, 14)) == KERNEL_DIMS
    assert dims.kernel_dim(8) == 6
    assert dims.kernel_dim(10) == 13
    assert dims.kernel_dim(3) == 0
    with pytest.raises(ValueError):
        dims.kernel_dim(1)


def test_kernel_dim_bookkeeping_matches_closed_form():
    for n in range(2, 14):
        total = sum(dims.kernel_dim_bigraded(k, n - k) for k in range(n + 1))
        assert total == dims.kernel_dim(n)


def test_kernel_dim_a2():
    assert dims.kernel_dim_a2(5) == 0
    assert dims.kernel_dim_a2(6) == 1
    assert dims.kernel_dim_a2(1) == 0
    assert [dims.kernel_dim_a2(m) for m in range(1, 12)] == [0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0]
    with pytest.raises(ValueError):
        dims.kernel_dim_a2(0)


def test_kernel_dim_a3():
    assert dims.kernel_dim_a3(3) == 1
    assert dims.kernel_dim_a3(9) == 2
    assert dims.kernel_dim_a3(6) == 1
    # ceil(m/2) and floor((m+1)/2) agree, so either reading gives this row.
    assert [dims.kernel_dim_a3(m) for m in range(1, 11)] == [0, 0, 1, 0, 1, 1, 1, 1, 2, 1]
    with pytest.raises(ValueError):
        dims.kernel_dim_a3(0)


def test_closed_forms_match_bookkeeping_rows():
    for m in range(1, 11):
        assert dims.kernel_dim_a2(m) == dims.kernel_dim_bigraded(2, m)
        assert dims.kernel_dim_a3(m) == dims.kernel_dim_bigraded(3, m)


def test_degenerate_conventions():
    # Bookkeeping at the weight-2 corner: 1 + 1 + 1 = 3.
    assert dims.kernel_dim_bigraded(2, 0) == 1
    assert dims.kernel_dim_bigraded(1, 1) == 1
    assert dims.kernel_dim_bigraded(0, 2) == 1
    assert dims.kernel_dim(2) == 3


def test_records_and_tables():
    totals = dims.total_records(4)
    assert totals[0] == (1, 2, None)
    assert totals[3] == (4, 3, 1)
    rows = dims.bigraded_records(3)
    assert (2, 1, 1, 1, 1) in rows
    assert (1, 1, 0, 1, 0) in rows
    text = dims.format_tables(13)
    assert "dim L_n" in text and "dim K_n" in text
    first, *_ = [line for line in text.splitlines() if line.startswith("dim L_n")]
    assert first.split()[2:] == [str(v) for v in LIE_DIMS]
    kernel_line = [line for line in text.splitlines() if line.startswith("dim K_n")][0]
    assert kernel_line.split()[2:] == [str(v) for v in KERNEL_DIMS]
    with pytest.raises(ValueError):
        dims.format_tables(0)
