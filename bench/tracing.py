"""Spans around the public functions of partite's six modules.

The benchmark installs wrappers in every partite module namespace that holds
a traced function, so calls between modules are caught as well as the CLI's
own calls; nothing inside partite changes.  A span's self time is its
duration minus the durations of the spans it directly encloses.  Counts
that need the arguments or the result (blocks validated, projection cells
examined, search nodes) are taken at the same boundary.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from itertools import combinations, product
from math import comb

# (module, attribute) pairs wrapped while tracing; BlockFamily is traced through
# its validating __post_init__.
SPANS = [
    ("cli", "main"),
    ("cli", "parse_blocks"),
    ("cli", "format_blocks"),
    ("cli", "parse_cubes"),
    ("cli", "format_cubes"),
    ("core", "BlockFamily"),
    ("construct", "construct"),
    ("construct", "vandermonde_blocks"),
    ("construct", "product_decomposition"),
    ("verify", "is_l_extendable"),
    ("verify", "is_covering"),
    ("verify", "is_latin"),
    ("verify", "are_mutually_orthogonal"),
    ("verify", "is_mutually_invertible"),
    ("cubes", "extract_cubes"),
    ("cubes", "lift_cubes"),
    ("cubes", "blocks_to_mols"),
    ("cubes", "mols_to_blocks"),
    ("cover", "build_covering"),
    ("cover", "fuse"),
    ("cover", "exact_cover_size"),
]

SCANS = ("verify.is_l_extendable", "verify.is_covering", "verify.is_latin",
         "verify.are_mutually_orthogonal")


def _rank(items, item) -> int:
    return list(items).index(tuple(item))


def _flat(values, n: int) -> int:
    flat = 0
    for v in values:
        flat = flat * n + v - 1
    return flat


def cells_examined(name: str, args, result) -> int:
    """Projection cells a check looked at before its verdict, from its inputs and witness."""
    if name in ("verify.is_l_extendable", "verify.is_covering"):
        k, n, ell = args[0].params.k, args[0].params.n, args[0].params.ell
        w = result.witness
        if w is None or (name == "verify.is_covering" and w.multiplicity != 0):
            return comb(k, ell) * n**ell
        sets = combinations(range(1, k + 1), ell)
        return _rank(sets, w.index_set) * n**ell + _flat(w.values, n) + 1
    if name == "verify.is_latin":
        d, n = args[0].d, args[0].n
        if result.ok:
            return d * n**d
        lines = _rank(product(range(1, n + 1), repeat=d - 1), result.fixed) + 1
        return ((result.axis - 1) * n ** (d - 1) + lines) * n
    cube_set = args[0]  # are_mutually_orthogonal
    d, n, m = cube_set.d, cube_set.n, len(cube_set.cubes)
    if result.ok:
        return comb(m, d) * n**d
    subset = tuple(i - 1 for i in result.cubes)
    return _rank(combinations(range(m), d), subset) * n**d + _flat(result.values, n) + 1


class Tracer:
    """Collects span self times and boundary counts for one pass at a time."""

    def __init__(self) -> None:
        self._stack: list[list] = []  # [name, child seconds]
        self._patched: list[tuple] = []
        self.reset()

    def reset(self) -> None:
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = defaultdict(int)

    def drain(self):
        """(self seconds, total seconds, counts) since the last drain."""
        taken = (self.self_s, self.total_s, self.counts)
        self.reset()
        return taken

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = time.perf_counter() - start
                self._stack.pop()
                self.self_s[name] += took - frame[1]
                self.total_s[name] += took
                parent = self._stack[-1] if self._stack else None
                if parent is not None:
                    parent[1] += took
            self._count(name, args, kwargs, result, took, frame[1], parent)
            return result

        return traced

    def _count(self, name, args, kwargs, result, took, children, parent) -> None:
        c = self.counts
        if name == "core.BlockFamily":
            c["blocks_validated"] += len(args[0].blocks)
        elif name == "construct.construct":
            c["constructed_blocks"] += len(result.blocks)
        elif name in SCANS:
            c["cells"] += cells_examined(name, args, result)
            if name == "verify.is_l_extendable" and parent and parent[0] == "cubes.extract_cubes":
                self.total_s["extract_cubes.nested_verify"] += took
        elif name == "cover.exact_cover_size" and result is None:
            c["search_nodes"] += kwargs.get("budget", args[3] if len(args) > 3 else 0) + 1
            self.total_s["search_exhausted"] += took - children

    def install(self) -> None:
        """Replace each traced function by its wrapper in every partite module namespace."""
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "partite" or key.startswith("partite."))]
        for short, attr in SPANS:
            original = getattr(sys.modules.get(f"partite.{short}"), attr, None)
            if original is None:  # moved or renamed: its metrics read 0
                continue
            name = f"{short}.{attr}"
            if isinstance(original, type):
                post_init = original.__post_init__
                wrapped = self._wrap(name, post_init)
                original.__post_init__ = wrapped
                self._patched.append((original, "__post_init__", post_init))
                continue
            wrapped = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
                        self._patched.append((module, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()
