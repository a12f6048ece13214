"""The pair map (A,B) -> [A,a]+[B,b]: matrices, kernels, certificates."""

import dataclasses
import random

import pytest

from helpers import (
    block_bracket,
    core_shapes,
    reference_bracket,
    reference_echelon,
    reference_letter_column,
    reference_smith_invariants,
    reference_verify_certificate,
)
from liering import algebra, kernels, words, zlinalg
from liering.algebra import InconsistencyError, LieElement, _accumulate, bracket, engel
from liering.families import i2_certificate, i33_certificate, qbad_certificate
from liering.dims import kernel_dim, kernel_dim_a3, kernel_dim_bigraded
from liering.kernels import (
    IdentityCertificate,
    certificate_from_dict,
    certificate_latex,
    certificate_to_dict,
    certificate_vector,
    check_surjective,
    kernel_certificates,
    kernel_lattice,
    lattice_membership,
    pair_image,
    pair_matrix,
    pair_rank,
    verify_certificate,
    verify_certificates,
)
from liering.zlinalg import Echelon, canonical_lattice, echelon, lattice_equal


def test_pair_matrix_small_examples():
    pm = pair_matrix(2, 2)
    assert pm.domain == (("abb", "a"), ("aab", "b"))
    assert pm.codomain == ("aabb",)
    assert pm.matrix.entries == [[-1, 1]]

    pm = pair_matrix(1, 1)
    assert pm.domain == (("b", "a"), ("a", "b"))
    assert pm.matrix.entries == [[-1, 1]]

    pm = pair_matrix(2, 0)
    assert pm.matrix.rows == 0 and pm.matrix.cols == 1
    assert pm.domain == (("a", "a"),)


def test_pair_matrix_matches_the_reference_bracket_up_to_weight_12():
    # Each column of the pair map against the full-vocabulary bracket with
    # its residual check, entry for entry.
    letters = {"a": LieElement((1, 0), {"a": 1}), "b": LieElement((0, 1), {"b": 1})}
    for n in range(1, 13):
        for k in range(n + 1):
            l = n - k
            pm = pair_matrix(k, l)
            for col, (word, letter) in enumerate(pm.domain):
                bd = (k - 1, l) if letter == "a" else (k, l - 1)
                image = reference_bracket(LieElement(bd, {word: 1}), letters[letter])
                expected = [image.coeffs.get(w, 0) for w in pm.codomain]
                assert [row[col] for row in pm.matrix.entries] == expected, (k, l, word, letter)


def test_pair_matrix_matches_the_block_solve_up_to_weight_14():
    # Each column of the rewritten pair map against the back-substitution
    # on the Lyndon block that computed it before, on every slice.
    letters = {"a": LieElement((1, 0), {"a": 1}), "b": LieElement((0, 1), {"b": 1})}
    columns = 0
    for n in range(1, 15):
        for k in range(n + 1):
            l = n - k
            pm = pair_matrix(k, l)
            for col, (word, letter) in enumerate(pm.domain):
                bd = (k - 1, l) if letter == "a" else (k, l - 1)
                image = block_bracket(LieElement(bd, {word: 1}), letters[letter])
                expected = [image.coeffs.get(w, 0) for w in pm.codomain]
                assert [row[col] for row in pm.matrix.entries] == expected, (k, l, word, letter)
                columns += 1
    assert columns == 2754


def test_pair_echelon_leaves_the_cached_pair_matrix_as_it_was():
    for k, l in ((4, 4), (3, 53)):
        matrix = pair_matrix(k, l).matrix
        rows = [dict(row) for row in matrix.sparse_rows]
        kernels._pair_echelon.cache_clear()
        kernels._pair_echelon(k, l)
        assert pair_matrix(k, l).matrix is matrix
        assert [dict(row) for row in matrix.sparse_rows] == rows, (k, l)


def test_pair_matrix_errors():
    # words.check_bidegree's messages, from every entry point of this module.
    entries = (pair_matrix, kernel_lattice, kernel_certificates,
               lambda k, l: certificate_from_dict({"k": k, "l": l, "A": [], "B": []}),
               lambda k, l: verify_certificate(
                   IdentityCertificate(k, l, LieElement.zero(), LieElement.zero())))
    for entry in entries:
        with pytest.raises(ValueError, match=r"^bidegree \(0, 0\) is empty$"):
            entry(0, 0)
        with pytest.raises(ValueError, match=r"^bidegree components must be nonnegative, got \(-1, 3\)$"):
            entry(-1, 3)


def test_pair_matrix_rank_at_3_3():
    assert check_surjective(3, 3).rank == 3  # = dim L_{3,3}


def test_pair_image():
    c2 = engel(2)
    b_part = -bracket(engel(1), engel(0))
    assert pair_image(c2, b_part).is_zero()
    assert not pair_image(c2, -b_part).is_zero()
    assert pair_image(LieElement.zero(), LieElement.zero()).is_zero()


def test_kernel_certificates_small():
    certs = kernel_certificates(2, 2)
    assert len(certs) == 1
    assert certs[0].verified and certs[0].source == "computed"
    expected = IdentityCertificate(2, 2, engel(2), -bracket(engel(1), engel(0)))
    assert verify_certificate(expected)
    assert lattice_equal(
        canonical_lattice(2, [certificate_vector(certs[0])]),
        canonical_lattice(2, [certificate_vector(expected)]),
    )

    assert kernel_certificates(2, 3) == ()
    assert len(kernel_certificates(3, 3)) == 1


def _moved(cert: IdentityCertificate, word: str, letter: str) -> IdentityCertificate:
    """The certificate with the domain basis vector (word, letter) added."""
    part, bd = ("A", (cert.k - 1, cert.l)) if letter == "a" else ("B", (cert.k, cert.l - 1))
    return dataclasses.replace(cert, **{part: getattr(cert, part) + LieElement(bd, {word: 1})})


def _corrupted(cert: IdentityCertificate) -> IdentityCertificate | None:
    """The certificate with one domain basis vector added, off the kernel."""
    for word, letter in pair_matrix(cert.k, cert.l).domain:
        bad = _moved(cert, word, letter)
        if not pair_image(bad.A, bad.B).is_zero():
            return bad
    return None


def test_verify_certificate_agrees_with_pair_image_up_to_weight_10():
    # verify_certificate reads the Lyndon coefficients off the associative
    # expansions and pair_image solves on the Lyndon block: two routes to
    # the same verdict.
    certified = corrupted = 0
    for n in range(1, 11):
        for k in range(n + 1):
            for cert in kernel_certificates(k, n - k):
                assert verify_certificate(cert) is pair_image(cert.A, cert.B).is_zero() is True
                certified += 1
                bad = _corrupted(cert)
                if bad is not None:
                    assert verify_certificate(bad) is pair_image(bad.A, bad.B).is_zero() is False
                    assert not bad.verified
                    corrupted += 1
    # Only (2, 0) and (0, 2) have no copy off the kernel: their pair map is 0.
    assert (certified, corrupted) == (30, 28)


def test_verify_certificate_agrees_with_the_full_expansion():
    # Every kernel certificate of weight <= 12 and the family members up to
    # weight 15, each with a seeded copy moved by +-1 on one coefficient of
    # A or B whose pair-map column is nonzero, so the copy is off the kernel.
    rng = random.Random(909)
    certs = [cert for n in range(1, 13) for k in range(n + 1)
             for cert in kernel_certificates(k, n - k)]
    certs += [i2_certificate(m) for m in range(2, 13, 2)]
    certs += [qbad_certificate(n) for n in range(1, 7)] + [i33_certificate(n) for n in range(1, 5)]
    rejected = 0
    for cert in certs:
        assert verify_certificate(cert) is reference_verify_certificate(cert) is True
        pm = pair_matrix(cert.k, cert.l)
        movable = [j for j in range(pm.matrix.cols) if any(row[j] for row in pm.matrix.entries)]
        if not movable:
            continue
        word, letter = pm.domain[rng.choice(movable)]
        part, bd = ("A", (cert.k - 1, cert.l)) if letter == "a" else ("B", (cert.k, cert.l - 1))
        step = LieElement(bd, {word: rng.choice((1, -1))})
        bad = dataclasses.replace(cert, **{part: getattr(cert, part) + step})
        assert verify_certificate(bad) is reference_verify_certificate(bad) is False
        rejected += 1
    # 79 kernel certificates, 16 family members; only the (2, 0) and (0, 2)
    # certificates have no copy off the kernel: their pair map is 0.
    assert (len(certs), rejected) == (95, 93)


def test_verify_certificate_enumerates_no_bidegree(monkeypatch):
    # A thin certificate of weight 100 has C(100, 4) = 3921225 words in its
    # bidegree; the check walks the expansions of A and B alone.
    good = dataclasses.replace(i2_certificate(96))
    thin = IdentityCertificate(4, 96, LieElement((3, 96), {"aaa" + "b" * 96: 1}),
                               LieElement((4, 95), {"aaaa" + "b" * 95: 1}))

    def no_enumeration(k, l):
        raise AssertionError(f"enumerated the words of ({k}, {l})")

    monkeypatch.setattr(words, "all_words", no_enumeration)
    monkeypatch.setattr(kernels, "lyndon_words", no_enumeration)
    assert verify_certificate(good) is True
    assert verify_certificate(thin) is reference_verify_certificate(thin) is False


def test_letter_column_matches_the_full_expansion_up_to_weight_13(monkeypatch):
    # The grouped walk over the standard factors' expansions against the
    # column read off the expansion of each word itself, letters included:
    # every one-word element, then random elements with packed coefficients
    # against the sum of their words' columns.
    depth, depths = [0], []
    real_expansion = kernels._expansion

    def expansion(terms):
        depths.append(depth[0])
        depth[0] += 1
        try:
            return real_expansion(terms)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(kernels, "_expansion", expansion)
    columns = 0
    for n in range(1, 14):
        for k in range(n + 1):
            for word in words.lyndon_words(k, n - k):
                for letter in "ab":
                    expected = reference_letter_column(word, letter)
                    assert kernels._letter_image({}, {word: 1}, letter) == expected, (word, letter)
                    columns += 1
    assert columns == 2 * sum(len(words.lyndon_words(k, n - k))
                              for n in range(1, 14) for k in range(n + 1)) == 2754
    assert not depths
    rng = random.Random(1513)
    for n in range(1, 12):
        for k in range(n + 1):
            basis = words.lyndon_words(k, n - k)
            for _ in range(3):
                coeffs = {w: sum(rng.randint(-9, 9) << (70 * t) for t in range(4)) or -1
                          for w in rng.sample(basis, rng.randint(min(1, len(basis)), len(basis)))}
                for letter in "ab":
                    expected: dict[str, int] = {}
                    for w, c in coeffs.items():
                        _accumulate(expected, reference_letter_column(w, letter), c)
                    assert kernels._letter_image({}, coeffs, letter) == expected, (coeffs, letter)
    # Groups of several words were expanded, some of them inside another group.
    assert depths.count(0) > 100 and max(depths) >= 1


def _scaled(cert: IdentityCertificate, factor: int) -> IdentityCertificate:
    return IdentityCertificate(cert.k, cert.l, factor * cert.A, factor * cert.B)


def _assert_batch_matches_the_reference(batch: list[IdentityCertificate]) -> tuple[bool, ...]:
    # Each flag starts at the opposite of the reference verdict, so the
    # batch must record every verdict itself.
    expected = tuple(reference_verify_certificate(cert) for cert in batch)
    for cert, verdict in zip(batch, expected):
        object.__setattr__(cert, "verified", not verdict)
    assert verify_certificates(batch) == expected
    assert tuple(cert.verified for cert in batch) == expected
    return expected


def test_verify_certificates_gives_each_certificate_its_reference_verdict():
    # Copies, so that resetting their flags leaves the cached certificates alone.
    valid = [dataclasses.replace(cert) for cert in kernel_certificates(6, 6)]
    bad = _corrupted(valid[0])
    # A corruption whose image has coefficients of both signs.
    moved = (_moved(valid[1], word, letter) for word, letter in pair_matrix(6, 6).domain)
    mixed = next(cert for cert in moved
                 if {c > 0 for c in pair_image(cert.A, cert.B).coeffs.values()} == {True, False})
    big = 2**200
    batches = {
        "all valid": valid,
        "corrupted first": [bad] + valid,
        "corrupted in the middle": valid[:4] + [bad] + valid[4:],
        "corrupted last": valid + [bad],
        "both signs": valid[:2] + [mixed] + valid[2:],
        "scaled": [_scaled(cert, big if i % 2 else -big) for i, cert in enumerate(valid)],
        "scaled, corrupted in the middle": [_scaled(cert, big if i % 2 else -big)
                                           for i, cert in enumerate(valid[:4] + [bad] + valid[4:])],
        "scaled neighbours of a corruption": [_scaled(valid[0], big), bad,
                                              _scaled(valid[1], -big), mixed],
        "one valid": valid[:1],
        "one corrupted": [bad],
    }
    # One-word certificates have image coefficients far above their norm of
    # 1, so the slots must be wider than the norm: beside zero certificates
    # (norm 0, verified) they spill into their neighbours' slots otherwise.
    zero = IdentityCertificate(6, 6, LieElement.zero(), LieElement.zero())
    domain = pair_matrix(6, 6).domain[::7]
    batches["one-word and zero"] = [cert for word, letter in domain
                                    for cert in (_moved(zero, word, letter), zero)]
    verdicts = {name: _assert_batch_matches_the_reference(batch) for name, batch in batches.items()}
    assert verdicts["one-word and zero"] == (False, True) * len(domain)
    assert verdicts["all valid"] == verdicts["scaled"] == (True,) * 9
    assert verdicts["corrupted in the middle"] == (True,) * 4 + (False,) + (True,) * 5
    assert verdicts["scaled neighbours of a corruption"] == (True, False, True, False)
    assert verdicts["one corrupted"] == (False,)
    # -2^j bad + 2^W bad packs to 0 when the slot width W is j: a width
    # that does not grow with the coefficients passes this batch.
    for j in range(1, 65):
        assert _assert_batch_matches_the_reference([_scaled(bad, -2**j), bad]) == (False, False), j
    # The empty batch has no verdict to give.
    assert verify_certificates([]) == ()


def test_verify_certificates_refuses_a_batch_of_two_bidegrees():
    first, second = kernel_certificates(5, 5)[0], kernel_certificates(6, 6)[0]
    with pytest.raises(ValueError, match="one bidegree"):
        verify_certificates([first, second])


def test_verification_shares_no_code_with_the_rewriting(monkeypatch):
    # The check reads Lyndon coefficients off associative expansions; the
    # rewriting that computed the kernel vectors, the bracket, normalization
    # and the pair map's columns must never run.  Batches are built first.
    batches = [[dataclasses.replace(c) for c in kernel_certificates(k, l)]
               for k, l in ((2, 2), (3, 3), (2, 6), (4, 4), (3, 6), (5, 5), (4, 6), (6, 6))]
    batches += [[i2_certificate(6)], [i2_certificate(10)], [i33_certificate(1)],
                [i33_certificate(2)]]
    corrupted = [batch[:-1] + [_corrupted(batch[-1])] for batch in batches]

    def rewriting(*args):
        raise AssertionError("the check ran the rewriting")

    for module, name in ((algebra, "_prod"), (algebra, "_bracket_coeffs"), (algebra, "bracket"),
                         (algebra, "normalize"), (kernels, "bracket_with_letter")):
        monkeypatch.setattr(module, name, rewriting)
    with pytest.raises(AssertionError, match="ran the rewriting"):
        pair_image(batches[0][0].A, batches[0][0].B)
    for batch, bad in zip(batches, corrupted):
        assert verify_certificates(batch) == (True,) * len(batch)
        assert verify_certificates(bad) == (True,) * (len(bad) - 1) + (False,)


def test_a_corrupted_pair_matrix_is_caught_by_verification(monkeypatch):
    # One entry added to the first column of the (3, 3) pair map moves its
    # kernel, and the certificates of the moved kernel must fail, since the
    # check never reads the pair matrix or bracket_with_letter.
    k, l = 3, 3
    true_kernel = kernel_lattice(k, l)
    (word, letter), target = pair_matrix(k, l).domain[0], pair_matrix(k, l).codomain[0]
    real = kernels.bracket_with_letter

    def corrupted(x, with_letter):
        image = real(x, with_letter)
        if (x.coeffs, with_letter) == ({word: 1}, letter):
            image = image + LieElement((k, l), {target: 1})
        return image

    caches = (kernels.pair_matrix, kernels._pair_echelon)
    for cache in caches:
        cache.cache_clear()
    try:
        with monkeypatch.context() as patch:
            patch.setattr(kernels, "bracket_with_letter", corrupted)
            assert kernel_lattice(k, l) != true_kernel
            with pytest.raises(InconsistencyError, match="failed re-verification"):
                kernel_certificates(k, l)
    finally:
        for cache in caches:
            cache.cache_clear()
    assert kernel_lattice(k, l) == true_kernel


def test_echelon_matches_the_hnf_reference_on_pair_maps_up_to_weight_14(monkeypatch):
    shapes = core_shapes(monkeypatch)
    for n in range(1, 15):
        for k in range(n + 1):
            matrix = pair_matrix(k, n - k).matrix
            assert echelon(matrix) == reference_echelon(matrix), (k, n - k)
            # Past weight 1 every row takes a unit pivot, so the core has no
            # rows; the weight-1 slices have one row and an empty domain.
            core = (1, 0) if n == 1 else (0, matrix.cols - matrix.rows)
            assert shapes == [core], (k, n - k)
            shapes.clear()
    # Two slices where some rows take no unit pivot and form the core.
    for (k, l), core in (((3, 53), (4, 13)), ((5, 15), (1, 42))):
        matrix = pair_matrix(k, l).matrix
        assert echelon(matrix) == reference_echelon(matrix), (k, l)
        assert shapes == [core], (k, l)
        shapes.clear()


def test_kernel_certificate_counts_match_bookkeeping():
    for n in range(2, 14):
        per_weight = 0
        for k in range(n + 1):
            count = len(kernel_certificates(k, n - k))
            assert count == kernel_dim_bigraded(k, n - k), (k, n - k)
            per_weight += count
        assert per_weight == kernel_dim(n)


def test_three_a_kernel_ranks_match_the_closed_form_up_to_m_30():
    for m in range(1, 31):
        assert kernel_lattice(3, m).rank == kernel_dim_a3(m), m


def test_verify_certificate_cases():
    good = IdentityCertificate(2, 2, engel(2), -bracket(engel(1), engel(0)))
    assert verify_certificate(good) and good.verified

    bad = IdentityCertificate(2, 2, engel(2), bracket(engel(1), engel(0)))
    assert not verify_certificate(bad) and not bad.verified
    # Wrong-sign pair: [C_2,a] = -[aabb] and [[C_1,C_0],b] = -[aabb] add up.
    assert pair_image(bad.A, bad.B).coeffs == {"aabb": -2}

    trivial = IdentityCertificate(2, 2, LieElement.zero(), LieElement.zero())
    assert verify_certificate(trivial)

    mismatched = IdentityCertificate(2, 2, engel(3), LieElement.zero())
    with pytest.raises(ValueError):
        verify_certificate(mismatched)
    mismatched_b = IdentityCertificate(2, 2, engel(2), engel(1))
    with pytest.raises(ValueError, match=r"B has bidegree \(1, 1\), expected \(2, 1\)"):
        verify_certificate(mismatched_b)
    # L_{-1,2} is the zero module: any nonzero A has another bidegree.
    with pytest.raises(ValueError):
        verify_certificate(IdentityCertificate(0, 2, LieElement((0, 1), {"b": 1}), LieElement.zero()))


def test_check_surjective_examples():
    assert check_surjective(2, 2).surjective
    report = check_surjective(3, 0)  # zero codomain is trivially hit
    assert report.surjective and report.codomain_dim == 0
    assert bool(check_surjective(1, 1))
    with pytest.raises(ValueError):
        check_surjective(1, 0)


def test_surjectivity_weight_2_to_8_with_trivial_cokernel():
    for n in range(2, 9):
        for k in range(n + 1):
            report = check_surjective(k, n - k)
            assert report.surjective, (k, n - k)
            assert all(f == 1 for f in report.invariant_factors)
            # The Smith pivot search and the HNF pass alone are the references.
            matrix = pair_matrix(k, n - k).matrix
            assert report.invariant_factors == reference_smith_invariants(matrix), (k, n - k)
            assert pair_rank(k, n - k) == reference_echelon(matrix).rank, (k, n - k)


def test_check_surjective_reuses_the_kernel_pass(monkeypatch):
    slices = [(k, n - k) for n in range(2, 9) for k in range(n + 1)]
    for k, l in slices:
        kernel_lattice(k, l)

    def no_reduction(*args, **kwargs):
        raise AssertionError("check_surjective reduced a matrix again")

    monkeypatch.setattr(zlinalg, "_row_echelon", no_reduction)
    for k, l in slices:
        assert check_surjective(k, l).surjective, (k, l)


@pytest.mark.parametrize("spoil", ["rank", "pivot"])
def test_check_surjective_refuses_an_echelon_that_is_not_onto(monkeypatch, spoil):
    # Weight >= 2 pair maps are onto, so either echelon means a wrong pair matrix.
    rows = pair_matrix(3, 4).matrix.rows
    true = kernels._pair_echelon(3, 4)
    assert true.pivots == (1,) * rows
    spoiled = {"rank": Echelon((1,) * (rows - 1), true.kernel),
               "pivot": Echelon((2,) + (1,) * (rows - 1), true.kernel)}[spoil]
    monkeypatch.setattr(kernels, "_pair_echelon", lambda k, l: spoiled)
    with pytest.raises(InconsistencyError, match=r"bidegree \(3, 4\) is not onto"):
        check_surjective(3, 4)


def test_lattice_membership():
    cert = kernel_certificates(2, 2)[0]
    report = lattice_membership(cert)
    assert report.member and report.kernel_rank == 1
    assert report.index == 1 and report.generator

    doubled = IdentityCertificate(2, 2, 2 * cert.A, 2 * cert.B)
    assert verify_certificate(doubled)
    report = lattice_membership(doubled)
    assert report.member and report.index == 2 and not report.generator
    for c in (-3, 5):
        multiple = IdentityCertificate(2, 2, c * cert.A, c * cert.B)
        assert verify_certificate(multiple)
        report = lattice_membership(multiple)
        assert report.member and report.kernel_rank == 1
        assert report.index == abs(c) and report.generator is False

    # A rank-2 slice: members, but no index or generator is reported.
    first, second = kernel_certificates(3, 9)
    total = IdentityCertificate(3, 9, first.A + second.A, first.B + second.B)
    assert verify_certificate(total)
    for member in (first, second, total):
        report = lattice_membership(member)
        assert report.member and report.kernel_rank == 2
        assert report.index is None and report.generator is None

    unverified = IdentityCertificate(2, 2, cert.A, cert.B)
    with pytest.raises(ValueError):
        lattice_membership(unverified)


def test_a_vector_outside_the_kernel_lattice_is_not_a_member(monkeypatch):
    # The lattice spanned by twice the (2, 2) generator does not hold the generator.
    cert = kernel_certificates(2, 2)[0]
    (generator,) = kernel_lattice(2, 2).basis
    doubled = canonical_lattice(2, [[2 * v for v in generator]])
    monkeypatch.setattr(kernels, "kernel_lattice", lambda k, l: doubled)
    report = lattice_membership(cert)
    assert not report.member and report.kernel_rank == 1
    assert report.index is None and report.generator is None


def test_cached_certificates_are_frozen():
    first = kernel_certificates(2, 2)[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        first.verified = False
    with pytest.raises(dataclasses.FrozenInstanceError):
        first.A = 2 * first.A
    assert kernel_certificates(2, 2)[0].verified


def test_an_edited_copy_starts_unverified():
    cert = kernel_certificates(2, 2)[0]
    edited = dataclasses.replace(cert, B=2 * cert.B)
    assert cert.verified and edited.verified is False
    with pytest.raises(ValueError):
        lattice_membership(edited)


def test_certificate_serialization_round_trip():
    cert = kernel_certificates(3, 3)[0]
    data = certificate_to_dict(cert)
    again = certificate_from_dict(data)
    assert again.k == cert.k and again.l == cert.l
    assert again.A == cert.A and again.B == cert.B
    assert not again.verified  # loaded records are untrusted
    assert verify_certificate(again)
    assert certificate_to_dict(again) == data


@pytest.mark.parametrize("flag", [True, "false", "yes", 1])
def test_certificate_from_dict_ignores_verified_field(flag):
    data = certificate_to_dict(kernel_certificates(2, 2)[0])
    data["verified"] = flag
    cert = certificate_from_dict(data)
    assert cert.verified is False
    with pytest.raises(ValueError):
        lattice_membership(cert)


def test_certificate_serialization_boundary():
    cert = kernel_certificates(2, 0)[0]  # B lives in the zero module
    data = certificate_to_dict(cert)
    assert data["B"] == []
    again = certificate_from_dict(data)
    assert again.B.is_zero()
    assert verify_certificate(again)


@pytest.mark.parametrize(
    "breakage",
    [
        {"k": 2},  # missing fields
        {"k": 2, "l": 2, "A": [["1", "ba"]], "B": []},  # not a Lyndon word
        {"k": 2, "l": 2, "A": [["1", "abb"], ["2", "abb"]], "B": []},  # duplicate
        {"k": 2, "l": 2, "A": [["1", "aab"]], "B": []},  # wrong bidegree
        {"k": 0, "l": 2, "A": [["1", "b"]], "B": []},  # zero-module side not empty
        {"k": 2, "l": 2, "A": [["x", "abb"]], "B": []},  # bad coefficient
        {"k": 2, "l": 2, "A": [[None, "abb"]], "B": []},  # null coefficient
        {"k": 2, "l": 2, "A": [[2.7, "abb"]], "B": []},  # float coefficient
        {"k": 2, "l": 2, "A": [[True, "abb"]], "B": []},  # boolean coefficient
        {"k": 2.9, "l": 2, "A": [["1", "abb"]], "B": []},  # float bidegree
        {"k": 2, "l": 2, "A": [["0", "abb"], ["1", "abb"]], "B": []},  # duplicate after a zero
        {"k": 2, "l": 0, "A": ["1a"], "B": []},  # a string, not a pair
        {"k": 2, "l": 2, "A": [], "B": [], "source": None},  # null source
        {"k": 2, "l": 2, "A": [], "B": [], "source": {"by": "me"}},  # object source
        {"k": 2, "l": 2, "A": [], "B": [], "source": 7},  # number source
    ],
)
def test_certificate_from_dict_rejects(breakage):
    with pytest.raises(ValueError):
        certificate_from_dict(breakage)


def test_certificate_latex():
    cert = kernel_certificates(2, 2)[0]
    text = certificate_latex(cert)
    assert text == r"\left[[abb],\, a\right] = \left[-[aab],\, b\right]"
