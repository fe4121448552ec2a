"""One projection kernel behind all five checks, and one key rule behind it.

The kernel projects rows onto each subset of columns in turn and returns the
first value tuple (cell) whose hit count, capped at 2, is not allowed.
`_projection_keys` packs each column once into one int with an unsigned field
per row, so a subset's keys take a few whole-column int operations; the same
keys serve placement (`_placed`) and minsearch's pair ids.  A mark pass decides
each subset (every cell hit, and as many rows as cells or 2 allowed); only a
failing subset runs the capped counting loop, which locates the witness.  The
checks differ only in their columns: the block positions (exact, cover), or
`core.lift_columns`, the lift's layout (tables, then grid axes): the grid axes
then the value (Latin), the cube tables (orthogonal), or the whole lift
(invertible; by the main theorem, exactness of the lift).  Witness rule:
subsets in the order given, cells in row-major order, so a witness is the
lexicographically first offending (subset, value tuple) whatever the row order.
"""

from __future__ import annotations

import sys
from array import array
from collections import deque
from dataclasses import dataclass
from functools import cache, reduce
from itertools import repeat
from operator import setitem

from .core import BlockFamily, CubeSet, LatinCube, Verdict, VerifyReport, Witness
from .core import _index_sets, check_size, lift_columns, unflatten_index


def _projection_keys(column, n: int):
    """keys(subset): every row's key at subset, the Horner fold acc * n + packed(c).

    column(c) runs once, and only its packing, one int of array("I") fields, is
    kept.  Digits are 1-based, so the cell (x_1..x_w) has key offset plus its
    row-major rank, offset = (n^w - 1) // (n - 1), and keys lie in
    [offset, offset + n^w), below 2 * n^w.  The caller's check_size on n^w keeps
    that below 2 * core.SIZE_LIMIT < 2^32, so no field carries.
    """
    packed = cache(lambda c: (len(f := array("I", column(c))), int.from_bytes(f, sys.byteorder)))

    def keys(subset) -> memoryview:
        rows, acc = packed(subset[0])  # (rows, column as one int of row fields)
        acc = reduce(lambda acc, c: acc * n + packed(c)[1], subset[1:], acc)
        return memoryview(acc.to_bytes(rows * array("I").itemsize, sys.byteorder)).cast("I")

    return keys


def _placed(rows, keys, subset, n: int) -> list | None:
    """The n^w rows placed at their keys on the w-subset, in row-major cell order.

    None if a cell stays empty, which with n^w rows means the projection is not
    a bijection.  keys is _projection_keys over rows, and n^w passed check_size.
    """
    if n == 1:  # one cell and one row; the subset, maybe a long range, is not read
        return rows
    size = n ** len(subset)
    placed = [None] * ((size - 1) // (n - 1) + size)
    deque(map(setitem, repeat(placed), keys(subset), rows), 0)
    del placed[:-size]
    return None if None in placed else placed


def _first_offense(keys, subsets, n: int, width: int, allowed: set[int]) -> Witness | None:
    """First (subset, cell, count capped at 2) whose count is not in allowed, or None.

    keys is _projection_keys over the rows; callers share it to pack once.
    Every subset has `width` columns, and allowed always holds 1.  check_size
    raises ValueError above core.SIZE_LIMIT before any subset is taken.
    """
    size = check_size(f"n^{width} = {n}^{width}", n, width)
    if n == 1:  # each subset has one cell, hit by every row: the row count decides all
        if (hits := min(len(keys((1,))), 2)) in allowed:
            return None
        return Witness(next(iter(subsets)), (1,) * width, hits)  # only a witness takes a set
    allowed_bytes, repeats_allowed = bytes(allowed), 2 in allowed
    offset = (size - 1) // (n - 1)
    for subset in subsets:
        at = keys(subset)
        marks = bytearray(offset + size)
        deque(map(setitem, repeat(marks), at, repeat(1)), 0)
        # every cell hit by exactly size rows means hit once each (pigeonhole)
        if marks.find(0, offset) < 0 and (len(at) == size or repeats_allowed):
            continue
        counts = bytearray(offset + size)
        for key in at:
            if counts[key] < 2:
                counts[key] += 1
        rest = counts[offset:].lstrip(allowed_bytes)
        if rest:
            return Witness(subset, unflatten_index(size - len(rest), n, width), rest[0])
    return None


def _block_keys(family: BlockFamily):
    """The key function over a family's block positions."""
    return _projection_keys(family._column, family.params.n)


def _report(witness: Witness | None, verdict: Verdict = Verdict.FAIL) -> VerifyReport:
    return VerifyReport(Verdict.EXACT if witness is None else verdict, witness)


def is_l_extendable(family: BlockFamily) -> VerifyReport:
    """Exact iff every value tuple at every index set is hit by exactly one block."""
    p = family.params
    return _report(_first_offense(_block_keys(family), _index_sets(p.k, p.ell), p.n, p.ell, {1}))


def is_decomposition(family: BlockFamily) -> VerifyReport:
    """Alias of is_l_extendable: a family decomposes the graph iff it is extendable."""
    return is_l_extendable(family)


def is_covering(family: BlockFamily) -> VerifyReport:
    """CoverOnly (or Exact) iff every value tuple at every index set is hit at least once.

    A Fail witness is the first uncovered pair; a CoverOnly report carries the
    first multiply-covered pair as an explanatory witness.
    """
    p, keys = family.params, _block_keys(family)  # both calls share each column's packing
    first = _first_offense(keys, _index_sets(p.k, p.ell), p.n, p.ell, {1})
    if first is None or first.multiplicity == 0:  # Exact, or the first MISS
        return _report(first)
    # the first DUP; by pigeonhole no index set before its own has a MISS
    miss = _first_offense(keys, _index_sets(p.k, p.ell), p.n, p.ell, {1, 2})
    return _report(miss) if miss is not None else _report(first, Verdict.COVER_ONLY)


@dataclass(frozen=True)
class LatinCheck:
    """Result of the Latin-property check; the witness is the first violating line."""

    ok: bool
    axis: int | None = None
    fixed: tuple[int, ...] | None = None


def is_latin(cube: LatinCube) -> LatinCheck:
    """True iff every axis-parallel line of the table is a permutation of {1..n}."""
    d = cube.d  # column 1 holds the values, column a + 1 the grid axis a
    lines = (tuple(c for c in range(2, d + 2) if c != a + 1) + (1,) for a in range(1, d + 1))
    keys = _projection_keys(lift_columns([cube._table()], d, cube.n), cube.n)
    witness = _first_offense(keys, lines, cube.n, d, {1})
    if witness is None:
        return LatinCheck(True)
    # line a skips grid column a + 1, so position a is the first not holding a + 1
    axis = next(a for a, c in enumerate(witness.index_set, start=1) if c != a + 1)
    return LatinCheck(False, axis, witness.values[:-1])


@dataclass(frozen=True)
class OrthogonalityCheck:
    """Result of the superposition check over d-subsets of a cube set.

    On failure, `cubes` names the offending subset (1-based, in index order)
    and `values` the first image tuple hit zero times or more than once.
    """

    ok: bool
    cubes: tuple[int, ...] | None = None
    values: tuple[int, ...] | None = None
    multiplicity: int | None = None


def are_mutually_orthogonal(cube_set: CubeSet) -> OrthogonalityCheck:
    """True iff every d-subset of the cubes superimposes to a bijection onto {1..n}^d."""
    d, n = cube_set.d, cube_set.n
    m = len(cube_set.cubes)
    if m < d:
        raise ValueError(f"orthogonality needs at least d={d} cubes, got {m}")
    keys = _projection_keys(lift_columns([c._table() for c in cube_set.cubes], d, n), n)
    w = _first_offense(keys, _index_sets(m, d), n, d, {1})
    if w is None:
        return OrthogonalityCheck(True)
    return OrthogonalityCheck(False, w.index_set, w.values, w.multiplicity)


def is_mutually_invertible(cube_set: CubeSet) -> VerifyReport:
    """Exact iff the lifted family (cube values, then coordinates) is extendable."""
    d, n = cube_set.d, cube_set.n
    keys = _projection_keys(lift_columns([c._table() for c in cube_set.cubes], d, n), n)
    subsets = _index_sets(len(cube_set.cubes) + d, d)
    return _report(_first_offense(keys, subsets, n, d, {1}))
