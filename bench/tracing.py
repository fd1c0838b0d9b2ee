"""Per-layer tracing by wrapping ffc functions where their callers resolve them.

``graphs``, ``search`` and ``transforms`` import their helpers by name, so a
wrapper installed on ``ffc.matrix.char_poly`` alone would never run: each
target below names the module attribute the calling code actually looks up.
A wrapper records calls, inclusive busy seconds (outermost call of a name
only, so recursion is not counted twice) and self seconds (minus the time of
traced calls made inside it).  With FFC_THREADS=1 nothing waits on anything
else, so busy time and counts are all there is to record.

Nothing under ``src/ffc`` is modified; spans inside the library are a later
change.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass

# metric prefix -> (module, attribute) pairs resolving to the same layer function
TARGETS: dict[str, tuple[tuple[str, str], ...]] = {
    "matrix.char_poly": (("ffc.graphs", "char_poly"),),
    "matrix.charpoly_int_coeffs": (
        ("ffc.matrix", "charpoly_int_coeffs"),
        ("ffc.search", "charpoly_int_coeffs"),
    ),
    "poly.squarefree_decomposition": (("ffc.sturm", "squarefree_decomposition"),),
    "sturm.count_roots_in_mult": (("ffc.graphs", "count_roots_in_mult"),),
    "sturm.root_multiplicity_at": (("ffc.graphs", "root_multiplicity_at"),),
    "sturm.count_roots_in": (
        ("ffc.sturm", "count_roots_in"),
        ("ffc.transforms", "count_roots_in"),
    ),
    "sturm.max_root_bracket": (("ffc.transforms", "max_root_bracket"),),
    "sturm.is_real_rooted": (("ffc.transforms", "is_real_rooted"),),
    "sturm.compare_max_roots": (("ffc.search", "compare_max_roots"),),
    "convolution.m_fold": (
        ("ffc.transforms", "m_fold_sym"),
        ("ffc.transforms", "m_fold_asym"),
    ),
    "convolution.convolve": (
        ("ffc.transforms", "sym_convolve"),
        ("ffc.transforms", "asym_convolve"),
    ),
    "transforms.inverse_cauchy": (("ffc.transforms", "inverse_cauchy"),),
    "transforms.ramanujan_bound": (
        ("ffc.transforms", "ramanujan_bound"),
        ("ffc.graphs", "ramanujan_bound"),
        ("ffc.search", "ramanujan_bound"),
    ),
    "graphs.sample": (
        ("ffc.search", "sample_bipartite"),
        ("ffc.search", "sample_nonbipartite"),
    ),
    "graphs.adjacency": (("ffc.graphs", "MatchingUnion.adjacency"),),
    "graphs.deflate_trivial": (
        ("ffc.graphs", "deflate_trivial"),
        ("ffc.search", "deflate_trivial"),
    ),
    "graphs.float_filter": (("ffc.search", "float_filter"),),
    "graphs.certify": (("ffc.search", "certify"),),
    "search.rejection_search": (("ffc", "rejection_search"),),
    "search.interlacing_descent": (("ffc", "interlacing_descent"),),
    "perms.leaf_distribution": (("ffc.search", "leaf_distribution"),),
    "perms.relabel_grid": (
        ("ffc.search", "relabel_grid"),
        ("ffc.graphs", "relabel_grid"),
    ),
    "serial.document": (
        ("ffc.serial", "dumps"),
        ("ffc.serial", "search_report_to_obj"),
        ("ffc.serial", "table_to_obj"),
    ),
}


@dataclass
class LayerStats:
    calls: int = 0
    s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Installs timing wrappers on ``TARGETS`` for the life of ``installed()``.

    ``paused()`` stops recording, so output checks made with the same
    functions do not count as work of the operation under test.
    """

    def __init__(self) -> None:
        self.stats: dict[str, LayerStats] = {name: LayerStats() for name in TARGETS}
        self._child_time: list[float] = []  # one slot per open traced call
        self._depth: dict[str, int] = dict.fromkeys(TARGETS, 0)
        self._recording = True
        self.missing: list[str] = []

    def _wrap(self, name: str, fn):
        stats = self.stats[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._recording:
                return fn(*args, **kwargs)
            self._child_time.append(0.0)
            self._depth[name] += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._depth[name] -= 1
                children = self._child_time.pop()
                stats.calls += 1
                stats.self_s += dt - children
                if self._depth[name] == 0:
                    stats.s += dt
                if self._child_time:
                    self._child_time[-1] += dt

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every target that exists; the others are listed in
        ``missing`` and their metrics read 0."""
        saved = []
        try:
            for name, targets in TARGETS.items():
                for module_name, attr in targets:
                    *path, leaf = attr.split(".")
                    try:
                        owner = importlib.import_module(module_name)
                        for part in path:
                            owner = getattr(owner, part)
                        original = vars(owner)[leaf]
                    except (ImportError, AttributeError, KeyError):
                        self.missing.append(f"{module_name}.{attr}")
                        continue
                    saved.append((owner, leaf, original))
                    setattr(owner, leaf, self._wrap(name, original))
            yield self
        finally:
            for owner, leaf, original in reversed(saved):
                setattr(owner, leaf, original)

    @contextmanager
    def paused(self):
        previous, self._recording = self._recording, False
        try:
            yield
        finally:
            self._recording = previous
