import re
import time
from array import array
from itertools import combinations, product

import pytest

from partite import (
    BlockFamily,
    CubeSet,
    LatinCube,
    Params,
    construct,
    enumerate_index_sets,
    extract_cubes,
    flatten_coords,
    unflatten_index,
    validate_params,
)
from partite.core import SIZE_LIMIT, _index_sets, capped_power, check_size
from partite.formats import parse_blocks


def test_validate_params_accepts_valid_triple():
    assert validate_params(3, 2, 2) == Params(3, 2, 2)


def test_validate_params_rejects_k_below_ell():
    with pytest.raises(ValueError, match="k >= ell"):
        validate_params(2, 5, 3)


def test_validate_params_rejects_nonpositive_n():
    with pytest.raises(ValueError, match="n >= 1"):
        validate_params(4, 0, 2)


def test_validate_params_rejects_nonpositive_ell():
    with pytest.raises(ValueError, match="ell >= 1"):
        validate_params(4, 4, 0)


def test_index_sets_pairs_of_three():
    assert enumerate_index_sets(Params(3, 2, 2)) == [(1, 2), (1, 3), (2, 3)]


def test_index_sets_single_full_set():
    assert enumerate_index_sets(Params(4, 2, 4)) == [(1, 2, 3, 4)]


def test_index_sets_count_and_order():
    sets = enumerate_index_sets(Params(6, 2, 3))
    assert len(sets) == 20  # C(6,3)
    assert len(set(sets)) == 20
    assert sets == sorted(sets)


def test_index_sets_are_combinations_in_order():
    # a repeated first set would change no witness, file or golden hash
    for pool in range(1, 10):
        for width in range(1, pool + 1):
            assert list(_index_sets(pool, width)) == list(combinations(range(1, pool + 1), width))


@pytest.mark.parametrize("n,d", [(1, 1), (2, 3), (3, 2), (4, 3), (5, 1)])
def test_flat_offset_round_trip(n, d):
    for coords in product(range(1, n + 1), repeat=d):
        flat = flatten_coords(coords, n)
        assert 0 <= flat < n**d
        assert unflatten_index(flat, n, d) == coords


def test_flat_offset_last_coordinate_fastest():
    assert flatten_coords((1, 1, 2), 3) == 1
    assert flatten_coords((1, 2, 1), 3) == 3
    assert flatten_coords((2, 1, 1), 3) == 9


def test_canonicalization_sorts_and_dedups():
    family = BlockFamily(Params(2, 3, 2), ((3, 1), (1, 2), (3, 1)))
    canon = family.canonical()
    assert canon.blocks == ((1, 2), (3, 1))
    assert canon.is_canonical
    assert not family.is_canonical


def test_canonicalization_idempotent():
    family = BlockFamily(Params(2, 2, 1), ((2, 2), (1, 1), (2, 2), (1, 2)))
    once = family.canonical()
    assert once.canonical() == once


def test_block_family_rejects_wrong_length():
    with pytest.raises(ValueError, match="length"):
        BlockFamily(Params(3, 2, 2), ((1, 2),))


def test_block_family_rejects_out_of_range_symbol():
    with pytest.raises(ValueError, match="outside"):
        BlockFamily(Params(2, 2, 2), ((1, 3),))


def test_a_family_holds_only_its_array():
    family = construct(5, 7, 3)
    columns = [list(family._column(c)) for c in range(1, 6)]
    assert family.blocks == tuple(zip(*columns))
    assert "blocks" not in vars(family)  # rows are built on each read, never kept
    assert [list(family._column(c)) for c in range(1, 6)] == columns
    copy = BlockFamily(family.params, family.blocks)
    assert set(vars(copy)) == {"params", "_symbols"}
    assert copy._symbols == family._symbols


def test_a_cube_holds_only_its_array():
    table = (1, 2, 3, 2, 3, 1, 3, 1, 2)
    cube = LatinCube(2, 3, table)
    assert set(vars(cube)) == {"d", "n", "_symbols"}
    assert cube._symbols == array("I", table)
    assert cube.table == table and cube.value((2, 3)) == 1
    assert set(vars(cube)) == {"d", "n", "_symbols"}  # the tuple is built on each read
    extracted = extract_cubes(construct(4, 5, 2)).cubes[0]
    copy = LatinCube(extracted.d, extracted.n, extracted.table)
    assert copy == extracted and copy._symbols == extracted._symbols
    assert "table" not in vars(extracted)


def test_block_family_refuses_a_symbol_past_32_bits_as_a_parse_does():
    message = "symbol 4294967296 outside 1..4294967295 in block (1, 4294967296)"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        BlockFamily(Params(2, 2**32 + 1, 1), ((1, 2**32),))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        parse_blocks(f"blocks 2 {2**32 + 1} 1 1\n1 {2**32}\n")


def test_latin_cube_value_accessor():
    cube = LatinCube(2, 2, (1, 2, 2, 1))
    assert cube.value((1, 1)) == 1
    assert cube.value((1, 2)) == 2
    assert cube.value((2, 1)) == 2
    assert cube.value((2, 2)) == 1


def test_latin_cube_rejects_bad_table_size():
    with pytest.raises(ValueError, match="expected n\\^d"):
        LatinCube(2, 2, (1, 2, 2))


def test_latin_cube_names_the_volume_without_forming_a_huge_power():
    with pytest.raises(ValueError, match=r"^table has 3 entries, expected n\^d = 4$"):
        LatinCube(2, 2, (1, 2, 2))
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"^table has 0 entries, expected n\^d = 3\^100000000$"):
        LatinCube(10**8, 3, ())
    assert time.perf_counter() - start < 0.1


def test_latin_cube_rejects_out_of_range_symbol():
    with pytest.raises(ValueError, match="outside"):
        LatinCube(1, 2, (1, 3))


def test_cube_set_rejects_mismatched_members():
    sq = LatinCube(2, 2, (1, 2, 2, 1))
    line = LatinCube(1, 2, (1, 2))
    with pytest.raises(ValueError, match="declares"):
        CubeSet(2, 2, (sq, line))


def test_cube_set_allows_empty():
    empty = CubeSet(2, 3, ())
    assert empty.cubes == ()


def test_cube_set_rejects_empty_geometry():
    with pytest.raises(ValueError, match="positive"):
        CubeSet(0, 3, ())
    with pytest.raises(ValueError, match="positive"):
        CubeSet(2, 0, ())


def test_size_limit_admits_the_largest_workload():
    assert check_size("k*n^l", 49, 3, factor=7) == 7 * 49**3 <= SIZE_LIMIT


def test_capped_power_stops_past_the_limit():
    assert capped_power(3, 4, factor=2) == 162
    assert SIZE_LIMIT < capped_power(3, 10**8) <= 3 * SIZE_LIMIT
    assert capped_power(1, 10**12, factor=5) == 5
    assert capped_power(2, 13, limit=4096) > 4096
    assert capped_power(2, 12, limit=4096) == 4096


def test_capped_power_returns_at_once_on_a_zero_product():
    start = time.perf_counter()
    assert capped_power(3, 2 * 10**7, factor=0) == 0
    assert capped_power(0, 2 * 10**7, factor=5) == 0
    assert capped_power(0, 0, factor=5) == 5
    assert time.perf_counter() - start < 0.1


def test_check_size_names_the_power_and_the_limit():
    with pytest.raises(ValueError, match=r"n\^l = 10\^7 exceeds the size limit 1048576"):
        check_size("n^l = 10^7", 10, 7)
