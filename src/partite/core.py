"""Shared domain types and indexing conventions.

Symbols and colour classes are 1-based everywhere at the API surface: a block
over parameters (k, n) is a k-tuple with entries in {1..n}, and a cube of
dimension d and order n is a dense table over {1..n}^d.  Modular arithmetic
inside the constructions works on residues {0..n-1} and shifts by +1 at the
boundary.  `lift_columns` is the lift's one layout: the cube checks count it,
`lift_cubes` scatters it into rows, `extract_cubes` inverts it; with no tables
it is minsearch's candidate grid and the sorted rows' first columns.
`_within` is the one test of the symbol range 1..n, and `_first_refused`, which
decides chunks in bulk and searches only the first that fails, names offenders.
`_sorted_symbols` is the one row sort: it sorts rows as big-endian byte lines,
for the covers, canonical form, the product and the lift's colliding rows.
A `BlockFamily` or `LatinCube` stores its symbols one way, as one array("I"),
however it was made; `.blocks` and `.table` are built from it on each read.
"""

from __future__ import annotations

import enum
import sys
from array import array
from dataclasses import dataclass, replace
from itertools import chain, combinations, compress, islice, pairwise
from struct import Struct
from typing import Iterable, Sequence

Block = tuple[int, ...]
IndexSet = tuple[int, ...]

# Largest count table, coordinate column, cube volume or output symbol count
# any command allocates; (7, 49, 3) needs 7 * 49^3 = 823,543 output symbols.
SIZE_LIMIT = 1 << 20
# Largest symbol a family or a file may hold: the top of an array("I").
_SYMBOL_CAP = 2**32 - 1


def capped_power(base: int, exponent: int, factor: int = 1, limit: int = SIZE_LIMIT) -> int:
    """factor * base**exponent when that is at most limit, else some value above limit.

    Multiplies one base at a time and stops once a partial product is 0 or over
    the limit, so an over-large request never forms the huge power.  All
    arguments >= 0.
    """
    size = factor
    for _ in range(exponent if base != 1 else 0):
        if not 0 < size <= limit:
            break
        size *= base
    return size


def check_size(name: str, base: int, exponent: int, factor: int = 1) -> int:
    """factor * base**exponent, or ValueError naming `name` and SIZE_LIMIT above it."""
    size = capped_power(base, exponent, factor)
    if size > SIZE_LIMIT:
        raise ValueError(f"{name} exceeds the size limit {SIZE_LIMIT}")
    return size


@dataclass(frozen=True)
class Params:
    """Problem parameters: k colour classes, n symbols per class, strength ell.

    Requires k >= ell >= 1 and n >= 1.
    """

    k: int
    n: int
    ell: int

    def __post_init__(self) -> None:
        if self.ell < 1:
            raise ValueError(f"ell >= 1 violated (ell={self.ell})")
        if self.k < self.ell:
            raise ValueError(f"k >= ell violated (k={self.k}, ell={self.ell})")
        if self.n < 1:
            raise ValueError(f"n >= 1 violated (n={self.n})")


def validate_params(k: int, n: int, ell: int) -> Params:
    """Build Params, rejecting any violated inequality by name."""
    return Params(k, n, ell)


def _index_sets(pool: int, width: int):
    """Every width-subset of 1..pool in lexicographic order, the first before any pool is held."""
    yield tuple(range(1, width + 1))
    yield from islice(combinations(range(1, pool + 1), width), 1, None)


def enumerate_index_sets(params: Params) -> list[IndexSet]:
    """All C(k, ell) strictly increasing position tuples, in lexicographic order."""
    return list(_index_sets(params.k, params.ell))


def flatten_coords(coords: Iterable[int], n: int) -> int:
    """Row-major flat offset of 1-based coordinates; last coordinate varies fastest."""
    index = 0
    for x in coords:
        index = index * n + (x - 1)
    return index


def unflatten_index(index: int, n: int, d: int) -> tuple[int, ...]:
    """Inverse of flatten_coords for a d-dimensional table of order n."""
    coords = [0] * d
    for i in range(d - 1, -1, -1):
        index, rem = divmod(index, n)
        coords[i] = rem + 1
    return tuple(coords)


def lift_columns(tables: Sequence[Sequence[int]], d: int, n: int):
    """Lift column c: table c for c <= m, else grid axis c - m, last axis fastest.

    A grid axis is an array("I") built by repetition: a run of each of 1..n,
    n^(d + m - c) long, and the n runs repeated n^(c - m - 1) times.
    """
    m = len(tables)
    return lambda c: tables[c - 1] if c <= m else array("I", b"".join(
        array("I", (x,)).tobytes() * n ** (d + m - c) for x in range(1, n + 1))) * n ** (c - m - 1)


def _sorted_symbols(columns, k: int, unique: bool = False) -> array:
    """The rows of k equal-length columns, sorted, repeats dropped if unique, as one array.

    Each row is packed into one bytes line of k big-endian 4-byte fields, which
    compare as its tuple does for every symbol up to 2^32 - 1, and the lines
    are sorted.  They are joined back into one row-major array("I") at most
    4,096 at a time: one join over them all would hold a buffer view per line.
    """
    lines = sorted(map(Struct(">%dI" % k).pack, *columns))
    kept = iter(lines)
    if unique:  # a sorted line equal to the one before it is a repeat
        kept = compress(lines, map(bytes.__ne__, lines, chain((b"",), lines)))
    symbols = array("I")
    for joined in iter(lambda: b"".join(islice(kept, 4096)), b""):
        symbols.frombytes(joined)
    if sys.byteorder == "little":
        symbols.byteswap()
    return symbols


def _bounds(values) -> tuple[int, int]:
    """The least and greatest of values, read twice, or (1, 1), which every range 1..n holds."""
    return min(values, default=1), max(values, default=1)


def _within(values, top: int) -> bool:
    """Whether every one of values, read twice, lies in 1..top: the one range test."""
    least, most = _bounds(values)
    return 1 <= least and most <= top


def _rows_fit(rows, k: int, top: int) -> bool:
    """Whether every one of rows, read twice, is k long with every symbol in 1..top."""
    return set(map(len, rows)) <= {k} and _within(set().union(*rows), top)


def _first_refused(chunks, fits) -> tuple[int, object, int | None]:
    """The count of the items in chunks, the first that fits refuses and its index, or None, None.

    fits decides a chunk, a list, in bulk; only the first chunk it refuses is
    searched, each item as a chunk of one, and an empty chunk is skipped.  A
    parse's generator converts each chunk as it is read, so int() raises on the
    first bad token in file order, and only the count and one item are kept.
    """
    seen, first, at = 0, None, None
    for held in chunks:
        if at is None and held and not fits(held):
            at, first = next((seen + i, item) for i, item in enumerate(held) if not fits([item]))
        seen += len(held)
    return seen, first, at


def _first_outside(symbols, n: int, start: int = 0) -> int:
    """Index of the first of symbols outside 1..n, which must hold one from start on.

    The search reads 4,096 symbols a chunk from start, a symbol the caller knows
    is preceded by none outside 1..n.
    """
    chunks = (symbols[at : at + 4096] for at in range(start, len(symbols), 4096))
    return start + _first_refused(chunks, lambda held: _within(held, n))[2]


def _check_symbols(symbols, n: int, distinct) -> None:
    """Refuse the first of symbols outside 1..n; distinct holds each value symbols do."""
    if not _within(distinct, n):
        raise ValueError(f"symbol {symbols[_first_outside(symbols, n)]} outside 1..{n}")


def _check_block(block: Block, params: Params) -> None:
    if len(block) != params.k:
        raise ValueError(
            f"block length {len(block)} does not match k={params.k}: {block}"
        )
    for v in block:
        if not 1 <= v <= params.n:
            raise ValueError(f"symbol {v} outside 1..{params.n} in block {block}")


@dataclass(frozen=True)
class BlockFamily:
    """An ordered multiset of blocks under common parameters.

    Canonical form is lexicographically sorted with exact duplicates removed;
    duplicates are representable (they arise transiently during symbol fusion
    and in deliberately broken test inputs) but `canonical()` strips them.
    Every family holds its rows as one row-major array("I"), k symbols a row,
    so the constructor refuses a symbol above 2^32 - 1 as a parse does; the
    family never changes once built, and `blocks` builds the row tuples on
    each read.
    """

    params: Params
    blocks: tuple[Block, ...]

    @classmethod
    def _from_symbols(cls, params: Params, symbols, distinct, start: int = 0) -> "BlockFamily":
        """The family whose rows are symbols, k at a time; distinct holds each value symbols do.

        No symbol before start, a row's first, may lie outside 1..n: a refusal
        searches from there.
        """
        family = object.__new__(cls)
        family.__dict__.update(params=params, _symbols=symbols)
        if not _within(distinct, params.n):
            i = _first_outside(symbols, params.n, start) // params.k
            _check_block(tuple(symbols[i * params.k : (i + 1) * params.k]), params)
        return family

    @classmethod
    def _sorted(cls, params: Params, columns, unique: bool = False) -> "BlockFamily":
        """The family of the rows of columns, sorted by _sorted_symbols; unique drops repeats.

        The symbols must lie in 1..n; that is still decided once, on the sorted
        array's distinct symbols.
        """
        symbols = _sorted_symbols(columns, params.k, unique)
        return cls._from_symbols(params, symbols, set(symbols))

    def __getattr__(self, name: str):
        if name != "blocks":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        symbols = self._symbols  # k symbols a row; an empty array forms no k-long list
        return tuple(zip(*[iter(symbols)] * self.params.k)) if symbols else ()

    def _column(self, c: int):
        """Column c (1-based): a strided slice of the array."""
        return self._symbols[c - 1 :: self.params.k]

    def __post_init__(self) -> None:
        # decide in bulk; only a family that fails is scanned for its first bad block,
        # and only a family that passes is packed, the array's range capping 1..n
        capped = replace(self.params, n=min(self.params.n, _SYMBOL_CAP))
        if not _rows_fit(self.blocks, capped.k, capped.n):
            for block in self.blocks:
                _check_block(block, capped)
        self.__dict__["_symbols"] = array("I", chain.from_iterable(self.__dict__.pop("blocks")))

    def canonical(self) -> "BlockFamily":
        return self._sorted(self.params, map(self._column, range(1, self.params.k + 1)), True)

    @property
    def is_canonical(self) -> bool:
        return all(a < b for a, b in pairwise(self.blocks))


@dataclass(frozen=True)
class LatinCube:
    """A dense function {1..n}^d -> {1..n}, stored last-coordinate-fastest.

    Construction validates shape and symbol range only; the Latin property
    itself is a verification verdict, so non-Latin tables are representable.
    Every cube holds its table as one array("I"), which the checks, the lift
    and the writer read; the cube never changes once built, and `table`
    builds the tuple on each read.
    """

    d: int
    n: int
    table: tuple[int, ...]

    @classmethod
    def _from_symbols(cls, d: int, n: int, symbols: array) -> "LatinCube":
        """The cube whose table is symbols, which the caller checked: n^d values in 1..n."""
        cube = object.__new__(cls)
        cube.__dict__.update(d=d, n=n, _symbols=symbols)
        return cube

    def __getattr__(self, name: str):
        if name != "table":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        return tuple(self._symbols)

    def __post_init__(self) -> None:
        if self.d < 1 or self.n < 1:
            raise ValueError(f"cube dimensions must be positive (d={self.d}, n={self.n})")
        entries = len(self.table)
        limit = max(entries, SIZE_LIMIT)  # n^d up to the limit comes back exact
        volume = capped_power(self.n, self.d, limit=limit)
        if volume != entries:
            expected = volume if volume <= limit else f"{self.n}^{self.d}"
            raise ValueError(f"table has {entries} entries, expected n^d = {expected}")
        _check_symbols(self.table, self.n, set(self.table))  # n <= n^d entries fit the array
        self.__dict__["_symbols"] = array("I", self.__dict__.pop("table"))

    def value(self, coords: Sequence[int]) -> int:
        return self._symbols[flatten_coords(coords, self.n)]


@dataclass(frozen=True)
class CubeSet:
    """An ordered list of cubes sharing dimension and order.

    May be empty (extraction with no free positions yields zero cubes), in
    which case d and n still carry the intended geometry.
    """

    d: int
    n: int
    cubes: tuple[LatinCube, ...]

    def __post_init__(self) -> None:
        if self.d < 1 or self.n < 1:
            raise ValueError(f"cube dimensions must be positive (d={self.d}, n={self.n})")
        for i, cube in enumerate(self.cubes, start=1):
            if (cube.d, cube.n) != (self.d, self.n):
                raise ValueError(
                    f"cube {i} has (d={cube.d}, n={cube.n}), "
                    f"set declares (d={self.d}, n={self.n})"
                )


class Verdict(enum.Enum):
    EXACT = "Exact"
    COVER_ONLY = "CoverOnly"
    FAIL = "Fail"


@dataclass(frozen=True)
class Witness:
    """One offending projection cell: which positions, which values, how often hit.

    Multiplicity is capped at 2; 0 means uncovered, 2 means covered more than once.
    """

    index_set: IndexSet
    values: tuple[int, ...]
    multiplicity: int


@dataclass(frozen=True)
class VerifyReport:
    verdict: Verdict
    witness: Witness | None = None
