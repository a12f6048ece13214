"""Command-line interface: grammar, formats, exit codes, round trips."""

import dataclasses
import hashlib
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from liering import algebra, cli, dims, families, kernels, oracle, words, zlinalg
from liering.algebra import MAX_DEPTH
from liering.cli import main
from liering.families import i33_certificate
from liering.kernels import certificate_to_dict


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dims_text(capsys):
    code, out, err = run(capsys, "dims", "--max-weight", "13")
    assert code == 0 and not err
    lines = out.splitlines()
    lie_line = next(line for line in lines if line.startswith("dim L_n"))
    assert lie_line.split()[2:] == "2 1 2 3 6 9 18 30 56 99 186 335 630".split()
    kernel_line = next(line for line in lines if line.startswith("dim K_n"))
    assert kernel_line.split()[2:] == "3 0 1 0 3 0 6 4 13 12 37 40".split()


def test_dims_json_bigraded(capsys):
    code, out, _ = run(capsys, "dims", "--max-weight", "6", "--bigraded", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["total"][5] == {"n": 6, "dim_L": 9, "dim_kernel": 3}
    rows = {(r["k"], r["l"]): r for r in data["bigraded"]}
    assert rows[(2, 2)]["dim_L"] == 1
    assert rows[(2, 2)]["dim_kernel"] == 1


def test_basis_formats(capsys):
    code, out, _ = run(capsys, "basis", "2", "3")
    assert code == 0 and out.split() == ["aabbb", "ababb"]

    code, out, _ = run(capsys, "basis", "3", "3", "--format", "json")
    data = json.loads(out)
    assert data == {"k": 3, "l": 3, "dim": 3, "words": ["aaabbb", "aababb", "aabbab"]}

    code, out, _ = run(capsys, "basis", "1", "2", "--format", "latex")
    assert out.strip() == "[[a,b],b]"


def test_basis_usage_error(capsys):
    code, out, err = run(capsys, "basis", "0", "0")
    assert code == 2 and "error" in err


def test_theta_matrix_output(capsys, tmp_path):
    code, out, _ = run(capsys, "theta", "2", "2")
    data = json.loads(out)
    assert data["domain"] == [["abb", "a"], ["aab", "b"]]
    assert data["codomain"] == ["aabb"]
    assert data["matrix"] == {"rows": 1, "cols": 2, "entries": ["-1", "1"]}

    target = tmp_path / "theta.json"
    code, out, _ = run(capsys, "theta", "1", "1", "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["matrix"]["entries"] == ["-1", "1"]


def test_kernel_plain_and_certified(capsys):
    code, out, _ = run(capsys, "kernel", "2", "3")
    data = json.loads(out)
    assert data["rank"] == 0 and data["basis"] == []

    code, out, _ = run(capsys, "kernel", "3", "3", "--certify")
    data = json.loads(out)
    assert data["rank"] == 1
    assert len(data["certificates"]) == 1
    assert data["certificates"][0]["verified"] is True
    assert data["family_comparison"] == {"family": "i33", "lattice_equal": True}

    code, out, _ = run(capsys, "kernel", "2", "4", "--certify")
    data = json.loads(out)
    assert data["family_comparison"] == {"family": "i2", "lattice_equal": True}


def test_family_json_and_latex(capsys):
    code, out, _ = run(capsys, "family", "i2", "--m", "4")
    data = json.loads(out)
    assert (data["k"], data["l"]) == (2, 4) and data["verified"] is True

    code, out, _ = run(capsys, "family", "qbad", "--n", "2")
    assert json.loads(out)["source"] == "family:qbad"

    code, out, _ = run(capsys, "family", "i33", "--n", "1", "--format", "latex")
    assert code == 0 and out.startswith(r"\left[")

    code, _, err = run(capsys, "family", "i2", "--n", "4")
    assert code == 2 and "--m" in err

    code, _, err = run(capsys, "family", "i33", "--m", "3")
    assert code == 2 and "--n" in err


def test_verify_round_trip(capsys, tmp_path):
    code, out, _ = run(capsys, "family", "i33", "--n", "2")
    assert code == 0
    payload = tmp_path / "cert.json"
    payload.write_text(out)

    code, report_text, _ = run(capsys, "verify", str(payload))
    assert code == 0
    report = json.loads(report_text)
    assert report["verified"] is True
    # Byte-identical re-serialization of the certificate payload.
    assert json.dumps(report["certificate"], indent=2) + "\n" == out

    code, report_text, _ = run(
        capsys, "verify", str(payload), "--oracle", "--trials", "20", "--dim", "4", "--seed", "7"
    )
    assert code == 0
    oracle = json.loads(report_text)["oracle"]
    assert oracle["verdict"] == "pass" and oracle["seed"] == 7


def test_verify_rejects_bad_certificates(capsys, tmp_path):
    corrupted = certificate_to_dict(i33_certificate(1))
    corrupted["A"][0][0] = str(int(corrupted["A"][0][0]) + 1)
    payload = tmp_path / "bad.json"
    payload.write_text(json.dumps(corrupted))
    code, out, _ = run(capsys, "verify", str(payload))
    assert code == 1
    assert json.loads(out)["verified"] is False

    malformed = tmp_path / "malformed.json"
    malformed.write_text(json.dumps({"k": 2, "l": 2, "A": [["1", "ba"]], "B": []}))
    code, _, err = run(capsys, "verify", str(malformed))
    assert code == 2 and "error" in err

    code, _, err = run(capsys, "verify", str(tmp_path / "missing.json"))
    assert code == 2

    # JSON nested past the decoder's recursion limit is an input error, not a failed check.
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200000 + "]" * 200000)
    code, out, err = run(capsys, "verify", str(deep))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1

    code, _, err = run(capsys, "verify", str(payload), "--oracle", "--modulus", "1")
    assert code == 2 and err.startswith("error: modulus")


def test_verify_refuses_integers_past_the_digit_limit(capsys, tmp_path):
    # The interpreter itself refuses to read them; verify names their length instead.
    digits = "7" * (sys.get_int_max_str_digits() + 1)
    payload = tmp_path / "long.json"
    for record in (f'{{"k": 2, "l": 2, "A": [["{digits}", "abb"]], "B": []}}',
                   f'{{"k": 2, "l": 2, "A": [[-{digits}, "abb"]], "B": []}}',
                   f'{{"k": {digits}, "l": 2, "A": [], "B": []}}'):
        payload.write_text(record)
        code, out, err = run(capsys, "verify", str(payload))
        assert (code, out) == (2, "")
        assert err == f"error: integer of {len(digits)} digits is too long\n"


def test_normalize_command(capsys):
    code, out, _ = run(capsys, "normalize", "[[a,b],b]")
    assert json.loads(out) == {"bidegree": [1, 2], "terms": [["1", "abb"]]}

    code, out, _ = run(capsys, "normalize", "[a,a]")
    assert json.loads(out) == {"bidegree": [2, 0], "terms": []}

    code, _, err = run(capsys, "normalize", "[a,b] + a")
    assert code == 2 and "bidegree" in err.lower()

    code, _, err = run(capsys, "normalize", "[a")
    assert code == 2 and "parse error" in err


def test_normalize_takes_a_leading_sign_without_dashes(capsys):
    for expr in ("-[a,b]", "-2*[a,b,b] + [[a,b],b]", "--a", "-3*a"):
        code, out, err = run(capsys, "normalize", expr)
        assert (code, err) == (0, "")
        assert run(capsys, "normalize", "--", expr) == (0, out, "")
    code, _, err = run(capsys, "normalize", "-[a")
    assert code == 2 and err.startswith("error: parse error at position 3")
    for flag in ("--help", "-h"):
        with pytest.raises(SystemExit) as exit_info:
            main(["normalize", flag])
        assert exit_info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: liering normalize")


def test_python_dash_m_runs_the_cli_from_the_source_tree():
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-m", "liering", "normalize", "-[a,b]"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert json.loads(done.stdout) == {"bidegree": [1, 1], "terms": [["-1", "ab"]]}


@pytest.mark.parametrize(
    "expr",
    [
        pytest.param("[" * 2000 + "a" + ",b]" * 2000, id="nested-2000"),
        pytest.param("[a" + ",b" * 899 + "]", id="left-normed-900-slots"),
        pytest.param("[" * (MAX_DEPTH + 1) + "a" + ",b]" * (MAX_DEPTH + 1), id="nested-limit+1"),
        pytest.param("[a" + ",b" * (MAX_DEPTH + 1) + "]", id="left-normed-limit+1"),
    ],
)
def test_normalize_rejects_deep_input(capsys, expr):
    code, out, err = run(capsys, "normalize", expr)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"deeper than {MAX_DEPTH}" in err


def test_normalize_accepts_the_depth_limit(capsys):
    for expr in ("[" * MAX_DEPTH + "a" + ",b]" * MAX_DEPTH, "[a" + ",b" * MAX_DEPTH + "]"):
        code, out, _ = run(capsys, "normalize", expr)
        assert code == 0
        assert json.loads(out)["terms"] == [["1", "a" + "b" * MAX_DEPTH]]


@pytest.mark.parametrize(
    "expr, digest",
    [
        pytest.param("[" + ",".join("ab" * 9) + "]",
                     "4119db78651ebedcff0622991aaa6e626721b59b2ba5f283e65769b02821c258",
                     id="left-normed-abab-weight-18"),
        pytest.param("[a" + ",b" * MAX_DEPTH + "]",
                     "ada3e7ff99bb9b2eb3307f9ba42e60434193d4a2db785b84a085268cc4b24afe",
                     id="left-normed-abbb-depth-limit"),
    ],
)
def test_normalize_expands_nothing_and_enumerates_no_bidegree(capsys, monkeypatch, expr, digest):
    # The digests are of the stdout before the rewriting, when the first
    # input took about 10 s and 1 GB and the second about 0.5 s.  From cold
    # memos, normalize builds no associative expansion and lists no words.
    def no_enumeration(k, l):
        raise AssertionError(f"enumerated the words of ({k}, {l})")

    monkeypatch.setattr(words, "all_words", no_enumeration)
    for cache in (algebra._tree_poly, algebra._prod, words.standard_factorization, words.lyndon_words):
        cache.cache_clear()
    start = time.perf_counter()
    code, out, err = run(capsys, "normalize", expr)
    assert time.perf_counter() - start < 3
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
    assert algebra._tree_poly.cache_info().currsize == 0


def test_kernel_8_8_certify_expands_no_word_whose_column_it_takes(capsys, monkeypatch):
    # The digest is of the stdout before the certificate check walked the
    # standard factors of each word, when it expanded the word itself.  Now
    # every tree the check expands, a left factor or a lone right factor,
    # and every group of right factors it expands is lighter than the domain
    # words of the slice.
    domain_weight = {len(word) for word, _ in kernels.pair_matrix(8, 8).domain}
    assert domain_weight == {15}
    trees, groups = [], []
    real_tree_poly, real_expansion = kernels._tree_poly, kernels._expansion

    def tree_poly(tree):
        trees.append(sum(words.tree_bidegree(tree)))
        return real_tree_poly(tree)

    def expansion(terms):
        groups.extend(sum(words.tree_bidegree(tree)) for tree in terms)
        return real_expansion(terms)

    monkeypatch.setattr(kernels, "_tree_poly", tree_poly)
    monkeypatch.setattr(kernels, "_expansion", expansion)
    code, out, err = run(capsys, "kernel", "8", "8", "--certify")
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "3083ffb91bf39b9a9ead2c1cb4aa9fe7f1133e34f24a08a37de656c68ee7cf91")
    assert trees and groups and max(trees + groups) < 15


@pytest.mark.parametrize(
    "argv",
    [
        ("kernel", "1", "1200"),
        ("basis", "1", "1200", "--format", "latex"),
        ("theta", "1", "1200"),
        ("kernel", "1", str(MAX_DEPTH), "--certify"),
        ("theta", str(MAX_DEPTH), "1"),
        ("family", "i2", "--m", "1200"),
        ("family", "qbad", "--n", "600"),
        ("family", "i33", "--n", "300"),
        ("family", "i2", "--m", str(MAX_DEPTH - 1)),
        ("family", "qbad", "--n", str(MAX_DEPTH // 2)),
        ("family", "i33", "--n", str(MAX_DEPTH // 3)),
    ],
)
def test_weight_past_the_depth_limit_is_refused(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"limit of {MAX_DEPTH}" in err


def test_verify_refuses_a_weight_past_the_depth_limit(capsys, tmp_path):
    payload = tmp_path / "long.json"
    payload.write_text(json.dumps({"k": 2, "l": 1199, "A": [["1", "a" + "b" * 1199]], "B": []}))
    code, out, err = run(capsys, "verify", str(payload))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"limit of {MAX_DEPTH}" in err


def test_verify_refuses_the_weight_before_reading_a_word(capsys, tmp_path, monkeypatch):
    calls, is_lyndon = [], words.is_lyndon

    def counted_is_lyndon(word):
        calls.append(word)
        return is_lyndon(word)

    for module in (words, algebra, kernels):
        if hasattr(module, "is_lyndon"):
            monkeypatch.setattr(module, "is_lyndon", counted_is_lyndon)
    word = "b" * MAX_DEPTH + "a" * (MAX_DEPTH - 1)  # bidegree of A, not a Lyndon word
    payload = tmp_path / "heavy.json"
    payload.write_text(json.dumps({"k": MAX_DEPTH, "l": MAX_DEPTH, "A": [["1", word]], "B": []}))
    code, out, err = run(capsys, "verify", str(payload))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"limit of {MAX_DEPTH}" in err
    assert calls == []


@pytest.mark.parametrize(
    "module, argv",
    [
        (kernels, ("kernel", "2", "2", "--certify")),
        (families, ("family", "i2", "--m", "2")),
    ],
)
def test_a_failed_internal_verification_exits_1(capsys, monkeypatch, module, argv):
    # kernel_certificates checks its slice as one batch, a family its member alone.
    name, failing = {kernels: ("verify_certificates", lambda certs: (False,) * len(certs)),
                     families: ("verify_certificate", lambda cert: False)}[module]
    monkeypatch.setattr(module, name, failing)
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "spoil, message",
    [
        (lambda basis: ((basis[0][0] + 1,) + basis[0][1:],) + basis[1:], "does not annihilate"),
        (lambda basis: basis[1:], "were not independent"),
    ],
    ids=["off the kernel", "dependent"],
)
def test_a_failed_echelon_recheck_exits_1(capsys, monkeypatch, spoil, message):
    # The kernel re-check inside zlinalg.echelon is an internal fault like a
    # failed certificate: one error line and exit 1, never a traceback.
    kernels._pair_echelon.cache_clear()
    real = zlinalg.canonical_lattice

    def spoiled(ambient, vectors):
        return zlinalg.KernelLattice(ambient, spoil(real(ambient, vectors).basis))

    monkeypatch.setattr(zlinalg, "canonical_lattice", spoiled)
    code, out, err = run(capsys, "kernel", "4", "4")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == err.count("error:") == 1
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, limit",
    [
        (("kernel", "25", "25"), "entries"),
        (("theta", "25", "25"), "entries"),
        (("basis", "25", "25"), "words"),
        (("basis", "25", "25", "--format", "latex"), "words"),
        (("kernel", "10", "10", "--certify"), "entries"),
        (("theta", "10", "10"), "entries"),
    ],
)
def test_an_oversized_slice_is_refused_before_enumeration(capsys, monkeypatch, argv, limit):
    def no_enumeration(k, l):
        raise AssertionError(f"enumerated the words of ({k}, {l})")

    monkeypatch.setattr(words, "all_words", no_enumeration)
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"{limit}, more than the limit" in err


def test_slice_limits_admit_the_frontier():
    # (9, 9) has 48620 words and a 2700 x 2860 pair matrix.  basis 10 10
    # lists 184756 words, although its 9225 x 9724 pair matrix is refused.
    for k, l in ((9, 9), (10, 8), (1, 1200)):
        cli.check_pair_entries(k, l)
    cli.check_word_count(10, 10)
    with pytest.raises(ValueError, match="9225x9724 entries"):
        cli.check_pair_entries(10, 10)


def test_the_pair_entry_limit_bounds_the_words_enumerated():
    # kernel and theta check only the pair matrix: every slice below the
    # weight limit that it admits has at most MAX_WORDS words.
    most = max(
        (dims.binom(n, k), k, n - k)
        for n in range(1, MAX_DEPTH + 1)
        for k in range(n + 1)
        if dims.lie_dim_bigraded(k, n - k)
        * (dims.kernel_dim_bigraded(k, n - k) + dims.lie_dim_bigraded(k, n - k))
        <= cli.MAX_PAIR_ENTRIES
    )
    assert most == (437989, 136, 3) and most[0] <= cli.MAX_WORDS


@pytest.mark.parametrize("option", [("--dim", "1000"), ("--trials", "100000")])
def test_verify_refuses_oracle_work_past_the_limit(capsys, tmp_path, monkeypatch, option):
    def no_trial(dim, seed):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(oracle, "random_assignment", no_trial)
    payload = tmp_path / "cert.json"
    payload.write_text(json.dumps(certificate_to_dict(i33_certificate(1))))
    code, out, err = run(capsys, "verify", str(payload), "--oracle", *option)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"limit of {oracle.MAX_WORK}" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("dims", "--max-weight", str(MAX_DEPTH + 1)),
        ("dims", "--max-weight", "2000", "--bigraded"),
        ("dims", "--max-weight", "20000", "--format", "json"),
    ],
)
def test_dims_refuses_a_weight_past_the_depth_limit(capsys, monkeypatch, argv):
    def no_table(*args, **kwargs):
        raise AssertionError("a table was built")

    for name in ("total_records", "bigraded_records", "format_tables"):
        monkeypatch.setattr(dims, name, no_table)
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"limit of {MAX_DEPTH}" in err


@pytest.mark.parametrize("n", [MAX_DEPTH // 3])
def test_family_i33_past_its_limit_is_refused_before_any_bracket(capsys, monkeypatch, n):
    # n = 85 is bidegree (3, 255), weight 258: the weight limit caps i33 at n = 84.
    def no_bracket(x, y):
        raise AssertionError("a bracket was computed")

    monkeypatch.setattr(families, "bracket", no_bracket)
    start = time.perf_counter()
    code, out, err = run(capsys, "family", "i33", "--n", str(n))
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"limit of {MAX_DEPTH}" in err


def test_family_limits_admit_the_largest_members():
    # Building them takes seconds and gigabytes, so only the check runs.
    largest = (("i33", MAX_DEPTH // 3 - 1), ("i2", MAX_DEPTH - 2), ("qbad", MAX_DEPTH // 2 - 1))
    for name, size in largest:
        families.check_family_size(name, size)


def test_weight_at_the_depth_limit_is_accepted(capsys):
    for argv in (
        ("kernel", "1", str(MAX_DEPTH - 1), "--certify"),
        ("theta", str(MAX_DEPTH - 1), "1"),
        ("basis", "1", str(MAX_DEPTH - 1), "--format", "latex"),
        ("basis", "1", "1200"),
        ("dims", "--max-weight", str(MAX_DEPTH), "--bigraded"),
    ):
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out, argv


# SHA-256 of stdout for a fixed command list, each recorded before the change
# it guards: the first seven with the implementation that reduced each
# pair-map slice three times (rank, kernel HNF, Smith form), the next eight
# with the bracket that reduced over every word of its bidegree, the next
# four with the normalize that reduced over every word, and the last, a
# slice whose unit-pivot pass leaves rows over, with the echelon that then
# reduced the whole matrix again.  Any change to a printed number or to the
# formatting breaks the match.
GOLDEN_STDOUT = [
    (("kernel", "5", "5", "--certify"),
     "dd8be87e1b65d8ed6e2d62aed4fba6358d02b954fc8ac2d4020adca688572b52"),
    (("kernel", "3", "6", "--certify"),
     "e7d232451a7812822a1f1ca9882553a55679b60b0c8558f321d86d5f99583c49"),
    (("theta", "4", "4"),
     "60259b76fd12150d17e58211ce9fb01e10bfd89c1b09137400b4e471a02f20af"),
    (("family", "i33", "--n", "2", "--format", "latex"),
     "4b9ffad2f6656e8d4292525c58e0ccadd1c88c63f24ab7ed515700236d92c439"),
    (("family", "i2", "--m", "6", "--format", "latex"),
     "0c7b64ec61f1148bd88d1546ea4220fbdbf92b1d12f74106e34c56ea17c016d6"),
    (("dims", "--max-weight", "13", "--bigraded"),
     "7ff9535cc8d857b9886469a2eff3a336e90390ff4c69450d930f22bbf152812b"),
    (("normalize", "[[a,b,b],[a,b]] + 2*[a,b,a,b,b] - [[a,b],[a,b,b]]"),
     "1388df954f7432172b4b6204010b72d72f89e51e48737da7342b7f8d1a0e4694"),
    (("family", "qbad", "--n", "3"),
     "26fb5f70cb36632d264f387fd98a5441517c418e6511cbd845cb53765f848e5d"),
    (("kernel", "2", "6", "--certify"),
     "080b31db9ef6721fa3b1d0bdcc53ba2e9f06404bb5785fc1678bc4b2a5bb8346"),
    (("basis", "5", "4", "--format", "latex"),
     "dffc872907477e0262fb6aab9d1ea164e8a5123f4ab1ad25beaacd0f64a209c4"),
    (("normalize", "[a,b] - [a,b]"),
     "c624ad1ecd093e2cab7bd49e9870efc34834c588967bc27f6b25ac8961e53b6c"),
    (("kernel", "6", "6", "--certify"),
     "6dc40783bd851c06ed72ae39db3d894fba035de99ba4b740b5a311bb61cf12fa"),
    (("theta", "5", "5"),
     "dec3076f76a0ba4e72f5a787db95450a5bd1b6d50e9da5ce1437d4642beaa062"),
    (("family", "i33", "--n", "3"),
     "c8a6895cd3f045744385342a6f07241cac921c5d736b552db66993a0ed80350d"),
    (("family", "i2", "--m", "8"),
     "372baa635c4edcd1b13b4693e27ada67aa494d3c4fbab88c90cdad3d4017285c"),
    (("normalize", "b"),
     "0f2fd543576186a1ad866ca537000770057af33358d2c33725b90df8679fbbdd"),
    (("normalize", "[a,a]"),
     "4ab62e52efae377012f013158e61cc4656389407ed1747a41ed9fdfce63875aa"),
    (("normalize", "[[a,b,b,a],[a,b,b,b,a,b,a,b]] + 3*[a,[b,[a,b,b]],a,b,a,a,b,b,b]"
                   " - 2*[[a,b],[a,b,b],[a,a,b,b,b],[a,b]]"),
     "f46828e65782611d6913305ee80872b732244fd971032228407dd038906a5baf"),
    (("normalize", "[a" + ",b" * MAX_DEPTH + "]"),
     "ada3e7ff99bb9b2eb3307f9ba42e60434193d4a2db785b84a085268cc4b24afe"),
    (("kernel", "3", "53", "--certify"),
     "d459998ee881d3bfe8252b5e32d076e5237460c8d9ffa47410ec1271e5f50b75"),
]


def test_golden_stdout(capsys):
    for argv, digest in GOLDEN_STDOUT:
        code, out, _ = run(capsys, *argv)
        assert code == 0, argv
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, argv


# SHA-256 of the stdout of every command of a list, one after another,
# recorded before the pair map was stored as sparse rows: ``kernel K L
# --certify`` on each of the 117 slices of weight 2 to 14, and ``theta K L``
# on each slice of weight 1 to 10.
SWEEP_STDOUT = {
    "kernel": ([("kernel", str(k), str(n - k), "--certify")
                for n in range(2, 15) for k in range(n + 1)],
               "4d24336809024c83742b3e09773264a8c8fbcaa0f6ffab34d1ddcc48ca6b21b6"),
    "theta": ([("theta", str(k), str(n - k)) for n in range(1, 11) for k in range(n + 1)],
              "291bb348ffc65dd832b7116e1c49e9e51f12a7e96d6a4b057c49264792cfd97e"),
}


@pytest.mark.parametrize("name", SWEEP_STDOUT)
def test_sweep_stdout(capsys, name):
    commands, digest = SWEEP_STDOUT[name]
    sha = hashlib.sha256()
    for argv in commands:
        code, out, _ = run(capsys, *argv)
        assert code == 0, argv
        sha.update(out.encode("utf-8"))
    assert sha.hexdigest() == digest


def test_report_writer_matches_json_dumps_on_every_report(capsys, monkeypatch):
    # Every report of the golden list and of both sweeps, written without
    # ``json.dumps(..., indent=...)`` (its pure-Python encoder), must be the
    # text that call gives on the same data.
    reports = []
    real_text, real_dumps = cli._json_text, json.dumps

    def json_text(data, indent="\n"):
        text = real_text(data, indent)
        if indent == "\n":
            reports.append((data, text))
        return text

    def dumps(obj, **options):
        assert options.get("indent") is None, "the report went through the pure-Python encoder"
        return real_dumps(obj, **options)

    monkeypatch.setattr(cli, "_json_text", json_text)
    monkeypatch.setattr(json, "dumps", dumps)
    commands = [argv for argv, _ in GOLDEN_STDOUT]
    commands += [argv for sweep, _ in SWEEP_STDOUT.values() for argv in sweep]
    for argv in commands:
        code, out, _ = run(capsys, *argv)
        assert code == 0, argv
    monkeypatch.undo()
    assert len(reports) == len(commands) - 4  # four golden commands print LaTeX or a table
    for data, text in reports:
        assert text == json.dumps(data, indent=2)


def _random_string(rng):
    """Up to five characters, some needing escapes, some outside ASCII."""
    chars = ["a", "b", " ", '"', "\\", "\n", "\t", "\x00", "\x7f", "é", "中", "\U0001d11e"]
    return "".join(rng.choice(chars) for _ in range(rng.randrange(6)))


def _random_json(rng, depth=0):
    """A random JSON value of string keys, nested at most four deep."""
    pick = rng.randrange(8 if depth < 4 else 5)
    if pick == 0:
        return rng.choice([None, True, False])
    if pick == 1:
        return rng.choice([0, -1, 2**64, -(3**90), rng.randint(-10**6, 10**6)])
    if pick < 5:
        return _random_string(rng)
    size = rng.choice([0, 0, 1, 2, 3, 5])
    if pick == 5:
        return {_random_string(rng): _random_json(rng, depth + 1) for _ in range(size)}
    if pick == 6:
        return [_random_json(rng, 4) for _ in range(size)]  # scalars only, often all strings
    return [_random_json(rng, depth + 1) for _ in range(size)]


def test_report_writer_matches_json_dumps_on_random_values(capsys, tmp_path):
    rng = random.Random(1800)
    values = [[], {}, [[]], {"": {}}, [{}, [], ""], ["\u2028", "\ud800"], 2**64 + 1]
    # Lists of string lists, as certificate pairs and basis vectors, with an
    # empty inner list, a mixed one, and nested in a dict and in a list.
    values += [[["1", "ab"], ["-2", "abb"]], [["1", "ab"], []], [[], ["a"]], [["1", 2]],
               [["a"], "b"], [("x", "é"), ["\n"]],
               {"A": [["-3", "aab"], ["2", "abb"]], "basis": [["0", "1"], ["1", "0"]]},
               [[["1", "a"]], [["\"", "\\"], ["b"]], {"B": [["4", "b"]]}]]
    values += [_random_json(rng) for _ in range(3000)]
    for value in values:
        assert cli._json_text(value) == json.dumps(value, indent=2), value
    assert any(isinstance(v, list) and v and all(isinstance(x, str) for x in v) for v in values)
    # ``theta --out`` writes the text ``theta`` prints.
    target = tmp_path / "theta.json"
    assert run(capsys, "theta", "3", "3", "--out", str(target))[:2] == (0, "")
    code, out, _ = run(capsys, "theta", "3", "3")
    assert target.read_text(encoding="utf-8") == out == json.dumps(json.loads(out), indent=2) + "\n"


def test_kernel_never_builds_the_dense_pair_matrix(capsys, monkeypatch):
    # Only ``theta`` prints the dense record; the kernel, its certificates
    # and the surjectivity check read the sparse rows.
    for cache in (kernels.pair_matrix, kernels._pair_echelon):
        cache.cache_clear()

    def no_dense(self):
        raise AssertionError("the dense pair matrix was built")

    monkeypatch.setattr(zlinalg.IntMatrix, "_dense", no_dense)
    code, out, _ = run(capsys, "kernel", "8", "8", "--certify")
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "3083ffb91bf39b9a9ead2c1cb4aa9fe7f1133e34f24a08a37de656c68ee7cf91")
    assert kernels.check_surjective(8, 8).surjective
    assert "IntMatrix(800x858, nnz=4378)" in repr(kernels.pair_matrix(8, 8))
    with pytest.raises(AssertionError, match="dense pair matrix was built"):
        run(capsys, "theta", "8", "8")


# SHA-256 of the stdout of ``verify FILE --oracle``, recorded before the
# oracle evaluated trials on a compiled plan of row-packed matrices: a pass,
# a fail at trial 0 and one at trial 16 (each with its counterexample), a
# modulus, and a larger dimension.  The fail replays a corrupted i33 (3, 3).
ORACLE_STDOUT = [
    ("i33-2", ("--oracle",),
     "fb9fdde57d9a55a3950d17a7c89071b56870e80e54ea80c93641ccfda4a01517"),
    ("bad-i33-1", ("--oracle", "--seed", "3"),
     "b8ecec16761c56203a223d70cd93a205e7a9e6e5041de84f77f08bd60470c945"),
    ("bad-i33-1", ("--oracle", "--seed", "7", "--modulus", "2", "--dim", "2"),
     "16afe005b3532cac33375b1dcb587d223c27c903f31a6344e1ca860cbec2d442"),
    ("i33-2", ("--oracle", "--modulus", "7"),
     "3303af13f29d845150d22ba79021708e906fde08c7dbf6d0f5d824e7b92d4a38"),
    ("i2-6", ("--oracle", "--dim", "7", "--trials", "5"),
     "ee8dbdef4f1add6e6b49f5470d453708cea10869c324a1303310be5e83110eec"),
]


def test_verify_oracle_stdout(capsys, tmp_path):
    bad = certificate_to_dict(i33_certificate(1))
    bad["A"][0][0] = str(int(bad["A"][0][0]) + 1)
    payloads = {
        "i33-2": certificate_to_dict(i33_certificate(2)),
        "bad-i33-1": bad,
        "i2-6": certificate_to_dict(families.i2_certificate(6)),
    }
    for name, data in payloads.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(data))
    for name, options, digest in ORACLE_STDOUT:
        code, out, _ = run(capsys, "verify", str(tmp_path / f"{name}.json"), *options)
        assert code == (1 if name.startswith("bad") else 0), options
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, (name, options)


def test_verify_fails_a_verified_certificate_the_oracle_refutes(capsys, tmp_path, monkeypatch):
    # No certificate both verifies and is refuted, so the oracle's verdict is forced.
    def refuted(cert, **options):
        report = oracle.oracle_check(cert, **options)
        return dataclasses.replace(report, verdict="fail", failed_trial=0)

    monkeypatch.setattr(cli, "oracle_check", refuted)
    payload = tmp_path / "cert.json"
    payload.write_text(json.dumps(certificate_to_dict(i33_certificate(1))))
    code, out, _ = run(capsys, "verify", str(payload), "--oracle", "--trials", "2")
    assert code == 1
    report = json.loads(out)
    assert report["verified"] is True and report["oracle"]["verdict"] == "fail"


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2
