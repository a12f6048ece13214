"""Span tracing of liering's public functions, from outside the package.

``from .zlinalg import kernel`` copies the binding into the importing
module, so a wrapper set only on the defining module would miss those
calls.  :class:`Tracer` therefore replaces every binding of a traced
function in every loaded ``liering`` module, and puts the originals back
on :meth:`Tracer.uninstall`.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# The public functions timed per layer, by defining module.  ``dims`` is
# only the closed-form reference of the correctness gate, so it is absent.
TRACED = {
    "words": ("all_words", "lyndon_words"),
    "algebra": ("parse_expr", "normalize", "bracket", "bracket_with_letter"),
    "zlinalg": ("rank", "kernel", "smith_invariants", "canonical_lattice",
                "lattice_coordinates"),
    "kernels": ("pair_matrix", "verify_certificate", "check_surjective",
                "lattice_membership"),
    "families": ("i33_certificate", "partial_sums", "append_b_rewrite"),
    "oracle": ("oracle_check",),
    "cli": ("main",),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)


def _package_modules():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "liering" or name.startswith("liering."))]


class Tracer:
    """In-memory spans ``(name, start, end, parent, workload, item)``.

    ``parent`` is the index of the enclosing span, or -1 at top level.
    Set :attr:`item` to label the spans of the item being run.
    """

    def __init__(self, workload: str):
        self.workload = workload
        self.item: str | None = None
        self.spans: list = []
        self._stack: list[int] = []
        self._restore: list = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.workload, self.item)

        return wrapper

    def install(self) -> None:
        modules = _package_modules()
        for mod_name, fns in TRACED.items():
            home = sys.modules.get(f"liering.{mod_name}")
            for fn_name in fns:
                # A function a later change removes is skipped and reads 0.
                original = getattr(home, fn_name, None)
                if original is None:
                    continue
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def _inside(self, index: int, name: str) -> bool:
        """Whether the span at ``index`` or one enclosing it is named ``name``."""
        while index >= 0:
            if self.spans[index][0] == name:
                return True
            index = self.spans[index][3]
        return False

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Self time and call count per traced function, plus unattributed time.

        A span's self time is its duration minus the durations of the spans
        it directly encloses.  Total time counts each outermost call of a
        function once, children included.  ``trace.unattributed_s`` is the
        part of the timed region that no top-level span covers.
        """
        self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        total_s = dict.fromkeys(SPAN_NAMES, 0.0)
        calls = dict.fromkeys(SPAN_NAMES, 0)
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        top_s = 0.0
        for (name, start, end, parent, _, _), inner in zip(self.spans, child_s):
            self_s[name] += end - start - inner
            calls[name] += 1
            if not self._inside(parent, name):
                total_s[name] += end - start
            if parent < 0:
                top_s += end - start
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            out[f"{name}.self_s"] = self_s[name]
            out[f"{name}.total_s"] = total_s[name]
            out[f"{name}.calls"] = calls[name]
        out["trace.unattributed_s"] = wall_s - top_s
        return out


def cache_entries() -> dict[str, int]:
    """Current size of every module-level ``lru_cache`` in the package.

    Caches are found through ``cache_info`` and only read, so a cache that a
    later change removes simply drops out of the result.  Call it with no
    tracer installed; bindings imported from another module are skipped.
    """
    out = {}
    for module in _package_modules():
        short = module.__name__.partition(".")[2]
        for attr, value in vars(module).items():
            if (short and callable(getattr(value, "cache_info", None))
                    and getattr(value, "__module__", None) == module.__name__):
                out[f"cache.{short}.{attr}.entries"] = value.cache_info().currsize
    return out
