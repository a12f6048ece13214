"""Closed-form identity families, their coefficients and partial sums."""

import pytest

from liering import families
from liering.algebra import MAX_DEPTH, bracket_with_letter, engel, left_normed, normalize
from liering.families import (
    FAMILY_BIDEGREES,
    FAMILY_BUILDERS,
    append_b_rewrite,
    engel_pair,
    engel_triple,
    family_coefficient,
    i2_certificate,
    i33_certificate,
    partial_sums,
    qbad_certificate,
)
from liering.kernels import certificate_vector, kernel_lattice, lattice_membership
from liering.zlinalg import canonical_lattice, lattice_equal


def test_family_coefficient_values():
    assert family_coefficient(0, 0) == 1
    assert family_coefficient(1, 1) == 3
    assert family_coefficient(2, 0) == 2
    assert family_coefficient(1, 0) == 2
    assert family_coefficient(3, 0) == 2
    assert family_coefficient(2, 1) == 5
    for i in range(1, 41):
        assert family_coefficient(i, 0) == 2
    with pytest.raises(ValueError):
        family_coefficient(-1, 0)


def test_family_coefficient_recurrences():
    for i in range(1, 51):
        for j in range(1, 51):
            if i != j:
                assert (
                    family_coefficient(i - 1, j) + family_coefficient(i, j - 1)
                    == family_coefficient(i, j)
                ), (i, j)
    for i in range(2, 51):
        assert family_coefficient(i, i - 1) == family_coefficient(i, i)


def test_i2_certificate_small():
    cert = i2_certificate(2)
    assert cert.verified
    assert cert.A == engel(2)
    assert cert.B == -engel_pair(1, 0)

    cert = i2_certificate(4)
    assert cert.A == engel(4)
    assert cert.B == -engel_pair(3, 0) + engel_pair(2, 1)

    report = lattice_membership(i2_certificate(6))
    assert report.kernel_rank == 1 and report.generator


def test_i2_certificate_errors():
    for bad in (0, 1, 3, 7, -2):
        with pytest.raises(ValueError):
            i2_certificate(bad)


def test_qbad_certificate_matches_i2():
    for n in range(1, 5):
        qb = qbad_certificate(n)
        assert qb.verified
        base = i2_certificate(2 * n)
        # The two presentations agree term by term after normalization.
        assert qb.A == base.A and qb.B == base.B
    with pytest.raises(ValueError):
        qbad_certificate(0)


def test_qbad_n1_is_the_weight_4_identity():
    # [a,b,b,a] = [a,b,a,b] rearranged into certificate shape.
    from liering.kernels import pair_image

    cert = qbad_certificate(1)
    assert cert.A == normalize(left_normed("a", "b", "b"))
    assert cert.B == -normalize(left_normed("a", "b", "a"))
    assert pair_image(cert.A, cert.B).is_zero()


def test_i33_certificate_n1_matches_rank1_kernel_element():
    cert = i33_certificate(1)
    assert cert.verified
    assert cert.A == 3 * engel_pair(2, 1) + 2 * engel_pair(3, 0)
    assert cert.B == engel_triple(1, 0, 1) - 2 * engel_triple(2, 0, 0)
    report = lattice_membership(cert)
    assert report.kernel_rank == 1 and report.generator


def test_i33_certificate_n2_matches_rank1_kernel_element():
    cert = i33_certificate(2)
    assert cert.A == -2 * engel_pair(5, 1) - 5 * engel_pair(4, 2)
    assert cert.B == (
        2 * engel_triple(4, 1, 0)
        + 3 * engel_triple(3, 2, 0)
        - 2 * engel_triple(3, 1, 1)
        + engel_triple(2, 1, 2)
    )
    report = lattice_membership(cert)
    assert report.kernel_rank == 1 and report.generator


def test_i33_certificate_verifies_up_to_n4():
    for n in range(1, 5):
        cert = i33_certificate(n)
        assert cert.verified
        assert not cert.A.is_zero()
    with pytest.raises(ValueError):
        i33_certificate(0)


@pytest.mark.parametrize("name, size", [("i2", 6), ("qbad", 3), ("i33", 2)])
def test_family_bidegrees_match_the_builders(name, size):
    cert = FAMILY_BUILDERS[name](size)
    assert (cert.k, cert.l) == FAMILY_BIDEGREES[name](size)


def test_partial_sums_stage_one_closed_form():
    # omega_1 collapses to 2[C_{n+2}, C_{n-1}, C_{n-1}] + 3[C_{n+1}, C_n, C_{n-1}],
    # the only reading of the stage-1 identity whose bidegrees are consistent.
    for n in range(1, 6):
        ps = partial_sums(n, 1)
        assert ps.holds
        expected = 2 * engel_triple(n + 2, n - 1, n - 1) + 3 * engel_triple(n + 1, n, n - 1)
        assert ps.left == expected
        assert ps.right == expected


def test_partial_sums_hold_up_to_n5():
    for n in range(1, 6):
        for k in range(1, n + 1):
            assert partial_sums(n, k).holds, (n, k)


def test_partial_sums_final_stage_is_the_a_side():
    for n in range(1, 5):
        ps = partial_sums(n, n)
        cert = i33_certificate(n)
        assert ps.right == bracket_with_letter(cert.A, "a")


def test_partial_sums_errors():
    with pytest.raises(ValueError):
        partial_sums(3, 0)
    with pytest.raises(ValueError):
        partial_sums(3, 4)


def test_append_b_rewrite_cases():
    assert append_b_rewrite(3, 1, 2) == (
        engel_triple(4, 1, 2) + engel_triple(3, 2, 2) + engel_triple(3, 1, 3)
    )
    assert append_b_rewrite(2, 1, 1) == engel_triple(3, 1, 1) + engel_triple(2, 1, 2)
    assert append_b_rewrite(2, 1, 2) == 2 * engel_triple(3, 1, 2) - engel_triple(3, 2, 1)


def test_append_b_rewrite_agrees_with_normalization():
    from liering.algebra import engel_expr

    for k in range(1, 9):
        for l in range(0, k):
            for m in range(0, k + 1):
                if k + l + m > 9:
                    continue
                direct = normalize(
                    left_normed(engel_expr(k), engel_expr(l), engel_expr(m), "b")
                )
                assert append_b_rewrite(k, l, m) == direct, (k, l, m)


def test_append_b_rewrite_errors():
    with pytest.raises(ValueError):
        append_b_rewrite(2, 2, 1)  # needs k > l
    with pytest.raises(ValueError):
        append_b_rewrite(3, 1, 4)  # needs k >= m
    with pytest.raises(ValueError):
        append_b_rewrite(2, -1, 1)


def test_derivation_expansion_identity():
    # [C_k, C_l, C_m, b] = [C_{k+1},C_l,C_m] + [C_k,C_{l+1},C_m] + [C_k,C_l,C_{m+1}]
    # holds unconditionally: bracketing with b acts as a derivation.
    for k in range(0, 7):
        for l in range(0, 7):
            for m in range(0, 7):
                lhs = bracket_with_letter(engel_triple(k, l, m), "b")
                rhs = (
                    engel_triple(k + 1, l, m)
                    + engel_triple(k, l + 1, m)
                    + engel_triple(k, l, m + 1)
                )
                assert lhs == rhs, (k, l, m)


def test_family_lattice_equality_in_even_bidegrees():
    for m in (2, 4, 6, 8):
        lattice = kernel_lattice(2, m)
        family = canonical_lattice(lattice.ambient, [certificate_vector(i2_certificate(m))])
        assert lattice_equal(lattice, family)


@pytest.mark.parametrize("name, size", [("i2", 300), ("i2", 1200), ("qbad", 128), ("qbad", 600),
                                        ("i33", 85), ("i33", 100)])
def test_family_builders_refuse_a_member_past_the_weight_limit(monkeypatch, name, size):
    # The builders check the weight themselves, before any bracket, not only the CLI.
    def no_bracket(x, y):
        raise AssertionError("a bracket was computed")

    monkeypatch.setattr(families, "bracket", no_bracket)
    with pytest.raises(ValueError, match=f"limit of {MAX_DEPTH}"):
        FAMILY_BUILDERS[name](size)
