"""Reference arithmetic owned by the benchmark, independent of liering.

The correctness gate compares the program's outputs against these
functions, so none of them may import the package under test.
"""

from __future__ import annotations


def sparse_rows(entries: list[list[int]]) -> list[list[tuple[int, int]]]:
    """Nonzero (column, value) pairs of each row of a dense integer matrix."""
    return [[(j, v) for j, v in enumerate(row) if v] for row in entries]


def annihilates(rows: list[list[tuple[int, int]]], vector) -> bool:
    """Whether M v = 0 exactly, with M given by :func:`sparse_rows`."""
    return all(sum(v * vector[j] for j, v in row) == 0 for row in rows)


def max_bits(values) -> int:
    """Largest bit length among the absolute values of integers."""
    return max((abs(v).bit_length() for v in values), default=0)


def _is_lyndon(word: str) -> bool:
    return all(word < word[i:] + word[:i] for i in range(1, len(word)))


class Expander:
    """Expansion of bracket trees in the free associative ring.

    A tree is a letter ``"a"``/``"b"`` or a pair ``(left, right)``, and
    ``[x, y]`` expands as ``xy - yx``.  Expansions are memoized per tree, so
    one instance serves a whole run; results are shared and must not be
    edited by callers.
    """

    def __init__(self):
        self._memo: dict = {}
        self._lyndon: dict[str, object] = {}

    def tree(self, tree) -> dict[str, int]:
        if isinstance(tree, str):
            return {tree: 1}
        got = self._memo.get(tree)
        if got is not None:
            return got
        left, right = self.tree(tree[0]), self.tree(tree[1])
        out: dict[str, int] = {}
        for u, cu in left.items():
            for v, cv in right.items():
                c = cu * cv
                out[u + v] = out.get(u + v, 0) + c
                out[v + u] = out.get(v + u, 0) - c
        out = {w: c for w, c in out.items() if c}
        self._memo[tree] = out
        return out

    def lyndon_tree(self, word: str):
        """Standard bracketing: split off the longest proper Lyndon suffix."""
        if len(word) == 1:
            return word
        got = self._lyndon.get(word)
        if got is None:
            if not _is_lyndon(word):
                raise ValueError(f"{word!r} is not a Lyndon word")
            i = next(i for i in range(1, len(word)) if _is_lyndon(word[i:]))
            got = (self.lyndon_tree(word[:i]), self.lyndon_tree(word[i:]))
            self._lyndon[word] = got
        return got

    def combination(self, terms) -> dict[str, int]:
        """Expansion of sum c * tree over (coefficient, tree) pairs."""
        out: dict[str, int] = {}
        for c, tree in terms:
            for w, e in self.tree(tree).items():
                out[w] = out.get(w, 0) + c * e
        return {w: c for w, c in out.items() if c}

    def lyndon_combination(self, coeffs: dict[str, int]) -> dict[str, int]:
        """Expansion of sum c * [w] over Lyndon-basis coordinates {w: c}."""
        return self.combination((c, self.lyndon_tree(w)) for w, c in coeffs.items())
