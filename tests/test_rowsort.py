"""The one row sort, `core._sorted_symbols`, against the tuple sorts it replaced.

It sorts rows as lines of big-endian 4-byte fields.  Below 256 a field in
either byte order compares as its symbol does, so every case here holds
symbols past one byte: the rows are drawn from 1..2^32 - 1, weighted to the
edges 255/256, 65,535/65,536 and 2^24 - 1/2^24, where a field's byte order
decides; `fuse` is drawn past those edges too, and the cover and the lift
with colliding first columns are taken at n = 300.  The (5, 48, 3) cover's
`tracemalloc` peak is held below the 11.80 MiB it reached when its rows
were sorted as tuples; one join over all its lines would hold a buffer view
per line and go past it.
"""

import tracemalloc
from array import array
from itertools import chain

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import fuse_reference, lifted_family
from partite import BlockFamily, CubeSet, LatinCube, Params, build_covering, construct, fuse
from partite import lift_cubes
from partite.core import _sorted_symbols

EXAMPLES = settings(derandomize=True, deadline=None, max_examples=200)
EDGES = [1, 2, 254, 255, 256, 257, 65535, 65536, 2**24 - 1, 2**24, 2**32 - 2, 2**32 - 1]


def symbols(top: int = 2**32 - 1):
    """Symbols in 1..top, about half of them drawn from the byte edges at or below top."""
    return st.one_of(st.sampled_from([e for e in EDGES if e <= top]), st.integers(1, top))


@st.composite
def repeated_rows(draw, top: int = 2**32 - 1, widest: int = 5):
    """k and up to 40 rows of k symbols in 1..top, in any order, some of them repeated."""
    k = draw(st.integers(1, widest))
    rows = draw(st.lists(st.tuples(*[symbols(top)] * k), max_size=30))
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=10))
    return k, draw(st.permutations(rows))


@EXAMPLES
@given(repeated_rows())
def test_row_sort_matches_the_tuple_sort(drawn):
    k, rows = drawn
    columns = [[row[c] for row in rows] for c in range(k)]
    assert _sorted_symbols(columns, k) == array("I", chain.from_iterable(sorted(rows)))
    unique = _sorted_symbols(iter(columns), k, unique=True)
    assert unique == array("I", chain.from_iterable(sorted(set(rows))))


@settings(EXAMPLES, max_examples=100)  # each fuse builds a fold table of n entries
@given(repeated_rows(top=70_000, widest=4), st.data())
def test_fuse_past_one_byte_matches_set_then_sort_fold(drawn, data):
    k, rows = drawn
    n = max(chain((1,), *rows))
    family = BlockFamily(Params(k, n, 1), tuple(rows))
    n_target = data.draw(symbols(n))
    assert fuse(family, n_target) == fuse_reference(family, n_target)


def test_cover_past_one_byte_matches_fuse_of_the_lifted_family():
    # 301 = 7 * 43: the fold comes in the last product's runs, onto symbols up to 300
    assert build_covering(3, 300, 2) == fuse_reference(construct(3, 301, 2), 300)


def test_lift_past_one_byte_with_colliding_first_columns_matches_point_by_point_lift():
    # a repeated value in the first table makes two rows share their first symbol
    first = (*range(1, 300), 299)
    cube_set = CubeSet(1, 300, (LatinCube(1, 300, first), LatinCube(1, 300, tuple(range(300, 0, -1)))))
    expected = lifted_family(cube_set)
    assert lift_cubes(cube_set) == BlockFamily(expected.params, tuple(sorted(expected.blocks)))


def test_cover_build_peak_stays_below_the_tuple_sort():
    tracemalloc.start()
    try:
        build_covering(5, 48, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 11.80 * 2**20, f"peak {peak / 2**20:.2f} MiB"
