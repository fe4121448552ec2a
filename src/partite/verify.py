"""One projection kernel behind all five checks, and one key rule behind it.

The kernel projects rows onto each subset of columns in turn and returns the
first value tuple (cell) whose hit count, capped at 2, is not allowed.
`_projection_keys` packs each column once into one int with an unsigned field
per row, so a subset's keys take a few whole-column int operations; the same
keys serve minsearch's pair ids and the column scatter that puts the rows of
`construct`, the lift and extraction in order (`_sorted_rows`).  A mark pass
decides each subset (every cell hit, and as many rows as cells or 2 allowed;
a subset allowing only 1 over any other row count fails without one); only a
failing subset runs the capped counting loop, which locates the witness.  The
checks differ only in their columns: the block positions (exact, cover), or
`core.lift_columns`, the lift's layout (tables, then grid axes): the grid axes
then the value (Latin), the cube tables (orthogonal), or the whole lift
(invertible; by the main theorem, exactness of the lift).  `verify --mode
cover` prints OK or the first MISS, so it runs one pass, `_first_miss`; only
`is_covering` looks for a DUP, and only in an over-covered family.
Witness rule: subsets in the order given, cells in row-major order, so a
witness is the lexicographically first offending (subset, value tuple)
whatever the row order.
A large check (_SPLIT_CELLS) splits the subsets after the first into one
contiguous run per CPU and forks a child for each run but the first (POSIX);
the earliest failing run names the witness, so it does not depend on the split.
"""

from __future__ import annotations

import sys
from array import array
from collections import deque
from dataclasses import dataclass
from functools import cache, reduce
from itertools import islice, repeat
from math import comb
from operator import setitem

from ._runs import in_runs
from .core import BlockFamily, CubeSet, LatinCube, Verdict, VerifyReport, Witness
from .core import _index_sets, _sorted_symbols, check_size, lift_columns, unflatten_index

# rows x subsets below which one process scans them all: under it a fork and
# the children's own column packing cost about what the split saves (measured
# on a 2-CPU host; (7, 49, 3) checks 117,649 rows x 35 subsets)
_SPLIT_CELLS = 1 << 19


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


def _every_cell(at, offset: int, size: int) -> bool:
    """Whether the keys at hit every cell, each key marked in a zeroed bytearray."""
    marks = bytearray(offset + size)
    deque(map(setitem, repeat(marks), at, repeat(1)), 0)
    return marks.find(0, offset) < 0


def _sorted_rows(column, k: int, w: int, n: int) -> array:
    """The rows of column(1..k), sorted, as one row-major array("I") of k symbols a row.

    Rows whose first w columns are a bijection onto the n^w cells (n^w passed
    check_size) sort by them alone: those become the grid axes, and each later
    column is scattered by its keys there, so every column is read once.
    Otherwise, and for n = 1 or fewer rows than columns, the columns are read
    again and go to the one row sort, `core._sorted_symbols`, which keeps every
    row (a lift with colliding first columns has no repeated row): a column
    costs the scatter about a microsecond however short it is.
    """
    size = n**w
    at = _projection_keys(column, n)(range(1, w + 1)) if 1 < n and k <= size else ()
    offset = (size - 1) // max(n - 1, 1)  # where the keys start, as in _scan
    if len(at) != size or not _every_cell(at, offset, size):
        return _sorted_symbols(map(column, range(1, k + 1)), k)
    grid, symbols = lift_columns([], w, n), array("I", (0,)) * (k * size)
    placed = array("I", (0,)) * (offset + size)  # each column fills all of placed[offset:]
    for c in range(1, k + 1):
        if c > w:
            deque(map(setitem, repeat(placed), at, column(c)), 0)
        symbols[c - 1 :: k] = grid(c) if c <= w else placed[offset:]
    return symbols


def _scan(keys, subsets, n: int, width: int, allowed: set[int]) -> Witness | None:
    """The first offense in subsets, one subset after another (see _first_offense)."""
    size = n**width
    allowed_bytes, repeats_allowed = bytes(allowed), 2 in allowed
    offset = (size - 1) // (n - 1)
    for subset in subsets:
        at = keys(subset)
        # every cell hit by exactly size rows means hit once each (pigeonhole); with
        # only 1 allowed, any other row count fails without a mark pass
        if (len(at) == size or repeats_allowed) and _every_cell(at, offset, size):
            continue
        counts = bytearray(offset + size)
        for key in at:
            if counts[key] < 2:
                counts[key] += 1
        rest = counts[offset:].lstrip(allowed_bytes)
        if rest:
            return Witness(subset, unflatten_index(size - len(rest), n, width), rest[0])
    return None


def _first_offense(keys, pool: int, n: int, width: int, allowed: set[int], lines=None):
    """First Witness (subset, cell, count capped at 2) whose count is not in allowed, or None.

    The subsets are the width-subsets of 1..pool in lexicographic order, or the
    pool subsets `lines` in the order given.  keys is _projection_keys over the
    rows; callers share it to pack once.  allowed always holds 1.  check_size
    raises ValueError above core.SIZE_LIMIT before any subset is taken.
    Past the first subset, once rows x subsets reaches _SPLIT_CELLS, the rest
    are split into one contiguous run per CPU (see _runs.in_runs).
    """
    check_size(f"n^{width} = {n}^{width}", n, width)
    subsets = iter(_index_sets(pool, width) if lines is None else lines)
    rows = len(keys((1,)))  # every column holds one field per row
    if n == 1:  # each subset has one cell, hit by every row: the row count decides all
        if (hits := min(rows, 2)) in allowed:
            return None
        return Witness(next(subsets), (1,) * width, hits)  # only a witness takes a set
    witness = _scan(keys, islice(subsets, 1), n, width, allowed)
    if witness is not None:  # most damaged inputs fail here, before any fork
        return witness
    rest, done = (comb(pool, width) if lines is None else pool) - 1, 0

    def run(i: int, w: int) -> tuple:
        """Run i of w's first offense as (multiplicity, *index set, *values), or ()."""
        nonlocal done  # the subsets this process has taken past the first; runs come in order
        start, stop = rest * i // w, rest * (i + 1) // w
        taken = islice(subsets, start - done, None if stop == rest else stop - done)
        done, found = stop, _scan(keys, taken, n, width, allowed)
        return () if found is None else (found.multiplicity, *found.index_set, *found.values)

    # rest > sys.maxsize is islice's bound; no run gets near it
    most = 1 if rows * (rest + 1) < _SPLIT_CELLS or rest > sys.maxsize else rest
    fields = in_runs(most, run, bool)[-1]  # the earliest failing run names the witness
    if not fields:
        return None
    return Witness(tuple(fields[1 : width + 1]), tuple(fields[width + 1 :]), fields[0])


def _block_keys(family: BlockFamily):
    """The key function over a family's block positions."""
    return _projection_keys(family._column, family.params.n)


def _report(witness: Witness | None, verdict: Verdict = Verdict.FAIL) -> VerifyReport:
    return VerifyReport(Verdict.EXACT if witness is None else verdict, witness)


def is_l_extendable(family: BlockFamily) -> VerifyReport:
    """Exact iff every value tuple at every index set is hit by exactly one block."""
    p = family.params
    return _report(_first_offense(_block_keys(family), p.k, p.n, p.ell, {1}))


def is_decomposition(family: BlockFamily) -> VerifyReport:
    """Alias of is_l_extendable: a family decomposes the graph iff it is extendable."""
    return is_l_extendable(family)


def _first_miss(family: BlockFamily, keys=None) -> Witness | None:
    """The first uncovered cell of family's projections, or None: one kernel pass over keys.

    keys is _block_keys(family) unless given.  `verify --mode cover` prints this
    witness, or OK for an exact and an over-covered family alike.
    """
    p = family.params
    return _first_offense(keys or _block_keys(family), p.k, p.n, p.ell, {1, 2})


def is_covering(family: BlockFamily) -> VerifyReport:
    """CoverOnly (or Exact) iff every value tuple at every index set is hit at least once.

    A Fail witness is the first uncovered pair; a CoverOnly report carries the
    first multiply-covered pair as an explanatory witness.  One pass allowing
    counts 1 and 2 finds the first uncovered pair.  Without one, n^ell rows hit
    every cell once (pigeonhole): Exact.  More rows put a DUP in the first index
    set, where a pass allowing only 1 stops.
    """
    p, keys = family.params, _block_keys(family)  # both calls share each column's packing
    miss = _first_miss(family, keys)  # the first pass decides n^ell against SIZE_LIMIT
    if miss is not None or len(family._symbols) == p.k * p.n**p.ell:
        return _report(miss)
    return _report(_first_offense(keys, p.k, p.n, p.ell, {1}), Verdict.COVER_ONLY)


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
    keys = _projection_keys(lift_columns([cube._symbols], d, cube.n), cube.n)
    witness = _first_offense(keys, d, cube.n, d, {1}, lines)
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
    keys = _projection_keys(lift_columns([c._symbols for c in cube_set.cubes], d, n), n)
    w = _first_offense(keys, m, n, d, {1})
    if w is None:
        return OrthogonalityCheck(True)
    return OrthogonalityCheck(False, w.index_set, w.values, w.multiplicity)


def is_mutually_invertible(cube_set: CubeSet) -> VerifyReport:
    """Exact iff the lifted family (cube values, then coordinates) is extendable."""
    d, n = cube_set.d, cube_set.n
    keys = _projection_keys(lift_columns([c._symbols for c in cube_set.cubes], d, n), n)
    return _report(_first_offense(keys, len(cube_set.cubes) + d, n, d, {1}))
