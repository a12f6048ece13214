"""Lyndon word recognition, enumeration, factorization and bracketing."""

import dataclasses
import itertools
import os
import pickle
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

from helpers import brute_lyndon
from liering import InconsistencyError, words
from liering.algebra import parse_expr
from liering.dims import lie_dim_bigraded
from liering.words import (
    Leaf,
    Node,
    all_words,
    bidegree,
    check_bidegree,
    bracket_string,
    is_bidegree,
    is_lyndon,
    lyndon_bracket,
    lyndon_words,
    standard_factorization,
    tree_bidegree,
)


def test_is_lyndon_examples():
    assert is_lyndon("ab")
    assert not is_lyndon("abab")  # periodic
    assert is_lyndon("aabab")
    assert is_lyndon("a") and is_lyndon("b")
    assert not is_lyndon("ba")


def test_is_lyndon_rejects_bad_input():
    with pytest.raises(ValueError):
        is_lyndon("")
    with pytest.raises(ValueError):
        is_lyndon("abc")


def test_is_lyndon_exhaustive_up_to_length_10():
    for n in range(1, 11):
        for letters in itertools.product("ab", repeat=n):
            word = "".join(letters)
            assert is_lyndon(word) == brute_lyndon(word)


def test_one_pass_is_lyndon_matches_the_rotations_up_to_length_14():
    # Every word of length <= 14 against the definition, then the input
    # errors, and long words, where the rotations would copy 10^8 letters.
    for n in range(1, 15):
        for letters in itertools.product("ab", repeat=n):
            word = "".join(letters)
            assert is_lyndon(word) == brute_lyndon(word), word
    with pytest.raises(ValueError, match="nonempty"):
        is_lyndon("")
    for bad in ("abc", "c", "aXb", "ab b", "ab\n"):
        with pytest.raises(ValueError, match="may only use letters 'a' and 'b'"):
            is_lyndon(bad)
    with pytest.raises(ValueError, match=r"got \['c', 'd'\]"):
        is_lyndon("adcb")
    assert is_lyndon("a" * 5000 + "b" * 5000) and is_lyndon("a" * 4999 + "bab" + "b" * 4998)
    assert not is_lyndon("ab" * 5000) and not is_lyndon("b" + "a" * 9999)


@given(st.text(alphabet="ab", min_size=1, max_size=14))
def test_is_lyndon_matches_brute_force(word):
    assert is_lyndon(word) == brute_lyndon(word)


def test_standard_factorization_examples():
    assert standard_factorization("ab") == ("a", "b")
    for n in range(1, 7):
        assert standard_factorization("a" + "b" * n) == ("a" + "b" * (n - 1), "b")
    assert standard_factorization("aabb") == ("a", "abb")


def test_standard_factorization_errors():
    with pytest.raises(ValueError):
        standard_factorization("a")
    with pytest.raises(ValueError):
        standard_factorization("ba")


def test_is_bidegree_is_the_rule_check_bidegree_enforces():
    for k in range(-2, 4):
        for l in range(-2, 4):
            try:
                check_bidegree(k, l)
            except ValueError:
                assert not is_bidegree(k, l), (k, l)
            else:
                assert is_bidegree(k, l), (k, l)
    assert [(k, l) for k in range(-1, 2) for l in range(-1, 2) if is_bidegree(k, l)] == [
        (0, 1), (1, 0), (1, 1)]


def test_a_broken_factorization_is_an_internal_fault(monkeypatch):
    # With the Lyndon test disabled, "baa" splits as "ba" . "a", and the
    # self-check refuses the part that is not Lyndon.
    monkeypatch.setattr(words, "is_lyndon", lambda word: True)
    with pytest.raises(InconsistencyError, match="standard factorization broke on 'baa'"):
        standard_factorization.__wrapped__("baa")


def test_standard_factorization_recomposes():
    for k in range(0, 7):
        for l in range(0, 7):
            if (k, l) == (0, 0):
                continue
            for word in lyndon_words(k, l):
                if len(word) < 2:
                    continue
                u, v = standard_factorization(word)
                assert u + v == word
                assert u < v
                assert is_lyndon(u) and is_lyndon(v)


def test_standard_factorization_takes_the_longest_lyndon_suffix():
    for n in range(2, 13):
        for word in map("".join, itertools.product("ab", repeat=n)):
            if brute_lyndon(word):
                longest = next(word[i:] for i in range(1, n) if brute_lyndon(word[i:]))
                assert standard_factorization(word) == (word[: n - len(longest)], longest)


def test_lyndon_bracket_examples():
    assert lyndon_bracket("a") == Leaf("a")
    assert lyndon_bracket("abb") == Node(Node(Leaf("a"), Leaf("b")), Leaf("b"))
    assert lyndon_bracket("aabb") == Node(Leaf("a"), Node(Node(Leaf("a"), Leaf("b")), Leaf("b")))


def test_lyndon_bracket_rejects_non_lyndon():
    with pytest.raises(ValueError):
        lyndon_bracket("abab")


def test_lyndon_words_examples():
    for m in range(0, 7):
        assert lyndon_words(1, m) == ("a" + "b" * m,)
    assert lyndon_words(2, 3) == ("aabbb", "ababb")
    assert lyndon_words(3, 3) == ("aaabbb", "aababb", "aabbab")


def test_lyndon_words_errors():
    # One check, one pair of messages, at every entry point of this module.
    for entry in (check_bidegree, all_words, lyndon_words):
        with pytest.raises(ValueError, match=r"^bidegree \(0, 0\) is empty$"):
            entry(0, 0)
        for k, l in ((-1, 2), (2, -1), (-1, -1)):
            with pytest.raises(ValueError, match=rf"^bidegree components must be nonnegative, got \({k}, {l}\)$"):
                entry(k, l)
    check_bidegree(1, 0)
    check_bidegree(0, 1)


def test_lyndon_words_are_sorted_and_lyndon():
    for k in range(0, 7):
        for l in range(0, 7):
            if (k, l) == (0, 0):
                continue
            words = lyndon_words(k, l)
            assert list(words) == sorted(words)
            assert all(is_lyndon(w) for w in words)
            assert all(bidegree(w) == (k, l) for w in words)


def test_lyndon_words_match_the_filter_of_all_words_up_to_weight_16():
    # lyndon_words tests only the words a...b; this filters every word.
    for n in range(1, 17):
        for k in range(n + 1):
            assert lyndon_words(k, n - k) == tuple(w for w in all_words(k, n - k) if is_lyndon(w))


def test_lyndon_counts_match_witt_up_to_weight_14():
    for n in range(1, 15):
        for k in range(n + 1):
            assert len(lyndon_words(k, n - k)) == lie_dim_bigraded(k, n - k)


def test_three_a_lyndon_criterion():
    # ab^i ab^j ab^t is Lyndon iff i <= j and i < t.
    for i in range(0, 13):
        for j in range(0, 13 - i):
            for t in range(0, 13 - i - j):
                word = "a" + "b" * i + "a" + "b" * j + "a" + "b" * t
                assert is_lyndon(word) == (i <= j and i < t), (i, j, t)


def test_all_words_basics():
    assert all_words(1, 1) == ("ab", "ba")
    assert len(all_words(3, 2)) == 10
    assert list(all_words(2, 2)) == sorted(all_words(2, 2))
    for n in range(1, 11):
        words = sorted(map("".join, itertools.product("ab", repeat=n)))
        for k in range(n + 1):
            assert all_words(k, n - k) == tuple(w for w in words if w.count("a") == k)


def _two_copies():
    # Built separately, so no subtree object is shared between the two.
    return [Node(Node(Leaf("a"), Node(Leaf("a"), Leaf("b"))), Leaf("b")) for _ in range(2)]


def test_node_hash_is_stored_once():
    x, y = _two_copies()
    assert x is not y and x == y and hash(x) == hash(y)
    assert hash(x) == hash((hash(x.left), hash(x.right)))
    assert {x: 1}[y] == 1
    assert x != Node(x.right, x.left)
    assert repr(x) == ("Node(left=Node(left=Leaf(letter='a'), right=Node(left=Leaf(letter='a'), "
                       "right=Leaf(letter='b'))), right=Leaf(letter='b'))")
    for name in ("left", "right", "_hash"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(x, name, Leaf("a"))


def test_node_init_takes_the_children_only():
    # Node writes its own __init__; the dataclass machinery must still see three
    # fields, of which only the children are passed in.
    x = _two_copies()[0]
    assert [f.name for f in dataclasses.fields(Node)] == ["left", "right", "_hash"]
    y = dataclasses.replace(x, left=Leaf("b"))
    assert y == Node(Leaf("b"), x.right) and hash(y) == hash((hash(Leaf("b")), hash(x.right)))
    z = dataclasses.replace(x, right=x.left)
    assert (z.left, z.right) == (x.left, x.left) and hash(z) == hash((hash(x.left), hash(x.left)))
    assert Node(left=x.right, right=x.left) == Node(x.right, x.left)
    with pytest.raises(TypeError):
        Node(x.left, x.right, hash(x))
    with pytest.raises(TypeError):
        Node(x.left, x.right, _hash=hash(x))
    with pytest.raises(TypeError):
        Node(x.left)


def test_leaf_refuses_a_letter_outside_the_alphabet():
    assert Leaf("a").letter == "a" and Leaf("b") == lyndon_bracket("b")
    for letter in ("c", "", "ab", "A", None, 0):
        with pytest.raises(ValueError, match="letter must be one of"):
            Leaf(letter)
    assert repr(Leaf("a")) == "Leaf(letter='a')"
    assert [f.name for f in dataclasses.fields(Leaf)] == ["letter", "_hash"]
    for name in ("letter", "_hash"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(Leaf("a"), name, "b")
    with pytest.raises(TypeError):
        Leaf("a", hash("a"))


def test_unpickled_node_rehashes_in_another_process():
    # String hashes depend on the process, so a stored hash must not travel.
    tree = _two_copies()[0]
    script = ("import pickle, sys; t = pickle.loads(sys.stdin.buffer.read()); "
              "print(hash(t) == hash((hash(t.left), hash(t.right)))"
              " and hash(t.left) == hash((hash(t.left.left), hash(t.left.right))))")
    env = dict(os.environ, PYTHONHASHSEED="12345")
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    out = subprocess.run([sys.executable, "-c", script], input=pickle.dumps(tree),
                         capture_output=True, env=env, check=True)
    assert out.stdout.strip() == b"True"


def test_unpickled_leaf_and_node_hash_as_fresh_trees_in_another_process():
    # A Leaf stores the hash of its letter too; it must be recomputed, never unpickled.
    trees = [Leaf("a"), Leaf("b"), Node(Leaf("a"), Leaf("b"))]
    script = ("import pickle, sys; from liering.words import Leaf, Node; "
              "a, b, ab = pickle.loads(sys.stdin.buffer.read()); "
              "print(hash('a'), hash(a) == hash(Leaf('a')), hash(b) == hash(Leaf('b')), "
              "hash(ab) == hash(Node(Leaf('a'), Leaf('b'))), a == Leaf('a') and ab.left is not a)")
    env = dict(os.environ, PYTHONHASHSEED="12345")
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    out = subprocess.run([sys.executable, "-c", script], input=pickle.dumps(trees),
                         capture_output=True, env=env, check=True)
    child_hash_a, *checks = out.stdout.decode().split()
    assert int(child_hash_a) != hash("a")  # the two processes really hash strings apart
    assert checks == ["True"] * 4


def _shapes(weight):
    """Every bracket shape of the weight, as nested pairs of letters."""
    if weight == 1:
        return ["a", "b"]
    return [(s, t) for i in range(1, weight) for s in _shapes(i) for t in _shapes(weight - i)]


def _by_hand(shape):
    return Leaf(shape) if isinstance(shape, str) else Node(_by_hand(shape[0]), _by_hand(shape[1]))


def _by_replace(tree, leaf=Leaf("b"), node=Node(Leaf("b"), Leaf("b"))):
    # Each part is a copy of an unrelated template with its fields replaced.
    if isinstance(tree, Leaf):
        return dataclasses.replace(leaf, letter=tree.letter)
    return dataclasses.replace(node, left=_by_replace(tree.left), right=_by_replace(tree.right))


def test_every_construction_path_gives_equal_trees_and_hashes_up_to_weight_5():
    count = 0
    for weight in range(1, 6):
        for shape in _shapes(weight):
            hand = _by_hand(shape)
            (parsed, coeff), = parse_expr(bracket_string(hand)).terms.items()
            assert coeff == 1
            built = [hand, parsed, _by_replace(hand), pickle.loads(pickle.dumps(hand))]
            for x in built:
                assert x == hand and hash(x) == hash(hand), (shape, x)
                assert {x: shape}[hand] == shape and {hand: shape}[x] == shape
            count += 1
    assert count == 2 + 4 + 16 + 80 + 448


def test_tree_helpers():
    tree = lyndon_bracket("aabb")
    assert tree_bidegree(tree) == (2, 2)
    assert bracket_string(tree) == "[a,[[a,b],b]]"
