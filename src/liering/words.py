"""Words over the two-letter alphabet and the Lyndon-Shirshov bracketing.

Words are plain strings over ``{"a", "b"}`` with the fixed order a < b.
Lyndon words (nonempty words strictly smaller than every proper rotation)
index the basis of the free Lie ring used throughout the package; the
bracketing of a Lyndon word follows its standard factorization.

All functions here are pure and cache only immutable values, so concurrent
read-only use is safe.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache

LETTERS = ("a", "b")


class InconsistencyError(RuntimeError):
    """An internal exactness invariant broke; results cannot be trusted."""


@dataclass(frozen=True, slots=True)
class Leaf:
    """A single letter, a or b; any other string is refused.

    The hash is stored when the leaf is built, so a ``Node`` over it reads an
    int instead of calling a Python-level ``__hash__``.
    """

    letter: str
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.letter not in LETTERS:
            raise ValueError(f"letter must be one of {LETTERS}, got {self.letter!r}")
        object.__setattr__(self, "_hash", hash(self.letter))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # As for Node: string hashes differ between processes, so rebuild.
        return Leaf, (self.letter,)


@dataclass(frozen=True, slots=True, init=False)
class Node:
    """The bracket [left, right] of two subtrees.

    The hash is computed once, from the two ints the children store, so
    building a Node calls no Python-level ``__hash__`` and hashing a tree
    costs O(1) instead of a walk over the whole subtree.
    """

    left: "BracketTree"
    right: "BracketTree"
    # init=False keeps it out of dataclasses.replace, which passes init fields only.
    _hash: int = field(init=False, repr=False, compare=False)

    def __init__(self, left: "BracketTree", right: "BracketTree") -> None:
        # One frame, where the generated __init__ and a __post_init__ took two: the
        # slots are written through their descriptors, which the frozen
        # __setattr__ does not guard, and the hash of two ints enters no Python
        # frame (0.47 against 0.70 us per Node(Leaf, Leaf), CPython 3.11 on a 2-core VM).
        _set_left(self, left)
        _set_right(self, right)
        _set_hash(self, hash((left._hash, right._hash)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuild through __init__: string hashes differ between processes,
        # so a stored _hash must never be unpickled.
        return Node, (self.left, self.right)


_set_left, _set_right, _set_hash = (Node.__dict__[f].__set__ for f in ("left", "right", "_hash"))

BracketTree = Leaf | Node


def _check_word(word: str) -> None:
    if not word:
        raise ValueError("word must be nonempty")
    if word.count("a") + word.count("b") != len(word):
        bad = set(word) - set(LETTERS)
        raise ValueError(f"word may only use letters 'a' and 'b', got {sorted(bad)!r}")


def bidegree(word: str) -> tuple[int, int]:
    """(number of a's, number of b's) in the word."""
    return word.count("a"), word.count("b")


def is_lyndon(word: str) -> bool:
    """True iff the word is strictly smaller than all of its proper rotations.

    The comparison is strict, so periodic words such as ``abab`` are
    rejected.  Single letters are Lyndon.  One pass of Duval's algorithm:
    while word[:j] is a power of a Lyndon word of length j - k followed by
    a prefix of it, ``k`` tracks the matching position; a smaller letter
    ends the scan, and the word is Lyndon exactly when the scan reaches the
    end with a period of the whole length (k = 0).
    """
    _check_word(word)
    return _is_lyndon_ab(word)


def _is_lyndon_ab(word: str) -> bool:
    """``is_lyndon`` without the alphabet check, for nonempty words built from a and b."""
    k = 0
    for j in range(1, len(word)):
        if word[k] < word[j]:
            k = 0
        elif word[k] == word[j]:
            k += 1
        else:
            return False
    return k == 0


def is_bidegree(k: int, l: int) -> bool:
    """Whether (k, l) has words: both components nonnegative, and not (0, 0)."""
    return not (k < 0 or l < 0 or (k, l) == (0, 0))


def check_bidegree(k: int, l: int) -> None:
    """Refuse a bidegree with a negative component, and (0, 0), which has no words."""
    if (k, l) == (0, 0):
        raise ValueError("bidegree (0, 0) is empty")
    if not is_bidegree(k, l):
        raise ValueError(f"bidegree components must be nonnegative, got ({k}, {l})")


def all_words(k: int, l: int) -> tuple[str, ...]:
    """Every word with exactly k a's and l b's, in lexicographic order.

    The positions of the a's come in lexicographic order, and since a < b
    that is the lexicographic order of the words.
    """
    check_bidegree(k, l)
    n = k + l
    words = []
    for positions in itertools.combinations(range(n), k):
        chars = ["b"] * n
        for i in positions:
            chars[i] = "a"
        words.append("".join(chars))
    return tuple(words)


# Hit by kernels._slice_basis: 11/9 hits/misses on balanced (bench items, seed 1900).
@lru_cache(maxsize=None)
def lyndon_words(k: int, l: int) -> tuple[str, ...]:
    """All Lyndon words of bidegree (k, l), in lexicographic order.

    This ordering is the canonical basis ordering used by every other
    module, so matrices and certificates are reproducible across runs.
    Past one letter a Lyndon word is a...b (b...b is periodic; any other word has
    a smaller rotation or suffix), so only the C(k+l-2, k-1) words a...b are tested.
    """
    if k < 1 or l < 1 or k + l == 2:  # ab, a power of one letter, or refused
        return tuple(w for w in all_words(k, l) if _is_lyndon_ab(w))
    return tuple(w for w in ("a" + v + "b" for v in all_words(k - 1, l - 1)) if _is_lyndon_ab(w))


# Hit by algebra._prod and lyndon_bracket: 2320/1269 hits/misses on balanced (seed 1900).
@lru_cache(maxsize=None)
def standard_factorization(word: str) -> tuple[str, str]:
    """Split a Lyndon word w = uv with v its longest proper Lyndon suffix.

    That suffix is also the lexicographically smallest proper suffix
    (Lothaire, *Combinatorics on Words*, Prop. 5.1.3), which is how it is
    found here.  Memoized for ``lyndon_bracket`` and the rewriting in
    ``algebra._prod``, which split the same words: it holds one pair per
    Lyndon word either of them reached.
    """
    if not is_lyndon(word):
        raise ValueError(f"{word!r} is not a Lyndon word")
    if len(word) < 2:
        raise ValueError("a single letter has no factorization")
    v = min(word[i:] for i in range(1, len(word)))
    u = word[: len(word) - len(v)]
    # Both parts of a standard factorization are Lyndon; the alphabet was checked above.
    if not (_is_lyndon_ab(u) and _is_lyndon_ab(v)):
        raise InconsistencyError(f"standard factorization broke on {word!r}")
    return u, v


# Hit by kernels._letter_image and itself: 2198/1266 hits/misses on balanced (seed 1900).
@lru_cache(maxsize=None)
def lyndon_bracket(word: str) -> BracketTree:
    """The recursive bracketing [w] = [[u], [v]]; the factorization refuses non-Lyndon w."""
    if word in LETTERS:
        return Leaf(word)
    u, v = standard_factorization(word)
    return Node(lyndon_bracket(u), lyndon_bracket(v))


def tree_bidegree(tree: BracketTree) -> tuple[int, int]:
    """Bidegree of a bracket tree, counted over its leaves."""
    if isinstance(tree, Leaf):
        return (1, 0) if tree.letter == "a" else (0, 1)
    lk, ll = tree_bidegree(tree.left)
    rk, rl = tree_bidegree(tree.right)
    return lk + rk, ll + rl


def bracket_string(tree: BracketTree) -> str:
    """Render a tree as nested brackets, e.g. ``[a,[[a,b],b]]``."""
    if isinstance(tree, Leaf):
        return tree.letter
    return f"[{bracket_string(tree.left)},{bracket_string(tree.right)}]"
