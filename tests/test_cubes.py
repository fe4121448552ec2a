import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

from helpers import first_projection_offense, square

import partite
from partite import (
    BlockFamily,
    CubeSet,
    LatinCube,
    Params,
    Verdict,
    are_mutually_orthogonal,
    blocks_to_mols,
    construct,
    extract_cubes,
    is_decomposition,
    is_latin,
    lift_cubes,
    mols_to_blocks,
    orthogonal_not_invertible_cubes,
)


def test_extract_single_square_from_order3():
    cube_set = extract_cubes(construct(3, 3, 2), (2, 3))
    assert len(cube_set.cubes) == 1
    # L(x, y) = first symbol of the unique block with middle x and last y
    assert cube_set.cubes[0] == square([[1, 3, 2], [3, 2, 1], [2, 1, 3]])


def test_extract_with_no_free_positions_is_empty():
    cube_set = extract_cubes(construct(2, 2, 2), (1, 2))
    assert cube_set == CubeSet(2, 2, ())


def test_extract_rejects_bad_positions():
    family = construct(3, 3, 2)
    with pytest.raises(ValueError, match="positions"):
        extract_cubes(family, (3, 2))
    with pytest.raises(ValueError, match="positions"):
        extract_cubes(family, (1, 2, 3))
    with pytest.raises(ValueError, match="positions"):
        extract_cubes(family, (0, 2))


def test_extract_rejects_non_exact_family():
    lifted = lift_cubes(orthogonal_not_invertible_cubes())
    with pytest.raises(ValueError, match="not an exact decomposition"):
        extract_cubes(lifted, (4, 5, 6))


@pytest.mark.parametrize("k,n,ell", [(4, 5, 2), (5, 5, 3), (6, 7, 3)])
def test_lift_of_extract_restores_family(k, n, ell):
    family = construct(k, n, ell)
    positions = tuple(range(k - ell + 1, k + 1))
    assert lift_cubes(extract_cubes(family, positions)) == family


def test_extract_of_lift_restores_cubes():
    family = construct(6, 7, 3)
    cube_set = extract_cubes(family, (4, 5, 6))
    assert extract_cubes(lift_cubes(cube_set), (4, 5, 6)) == cube_set


def test_extracted_cubes_are_latin_at_any_positions():
    family = construct(5, 5, 3)
    for positions in [(1, 2, 3), (1, 3, 5), (2, 4, 5), (3, 4, 5)]:
        for cube in extract_cubes(family, positions).cubes:
            assert is_latin(cube).ok


def test_extracted_cubes_are_mutually_orthogonal():
    family = construct(6, 7, 3)
    for positions in [(4, 5, 6), (1, 2, 3), (2, 4, 6)]:
        assert are_mutually_orthogonal(extract_cubes(family, positions)).ok


def test_lift_without_cubes_gives_identity_family():
    family = lift_cubes(CubeSet(2, 3, ()))
    assert family.params == Params(2, 3, 2)
    assert family.blocks == tuple(product(range(1, 4), repeat=2))
    assert is_decomposition(family).verdict is Verdict.EXACT


def test_counterexample_lift_shape():
    family = lift_cubes(orthogonal_not_invertible_cubes())
    assert family.params == Params(6, 4, 3)
    assert len(family.blocks) == 64
    assert is_decomposition(family).verdict is Verdict.FAIL


def test_mols_to_blocks_single_square_frozen():
    family = mols_to_blocks(CubeSet(2, 2, (square([[1, 2], [2, 1]]),)))
    assert family.blocks == ((1, 1, 1), (1, 2, 2), (2, 1, 2), (2, 2, 1))
    assert first_projection_offense(family) is None


def test_mols_to_blocks_without_squares():
    family = mols_to_blocks(CubeSet(2, 3, ()))
    assert family.params.k == 2
    assert is_decomposition(family).verdict is Verdict.EXACT


def test_mols_to_blocks_rejects_equal_squares():
    sq = square([[1, 2, 3], [2, 3, 1], [3, 1, 2]])
    with pytest.raises(ValueError, match="not orthogonal"):
        mols_to_blocks(CubeSet(2, 3, (sq, sq)))


def test_mols_to_blocks_rejects_non_latin_input():
    flat = LatinCube(2, 2, (1, 1, 2, 2))
    with pytest.raises(ValueError, match="not Latin"):
        mols_to_blocks(CubeSet(2, 2, (flat,)))


def test_mols_to_blocks_rejects_cubes():
    cube = orthogonal_not_invertible_cubes().cubes[0]
    with pytest.raises(ValueError, match="dimension 2"):
        mols_to_blocks(CubeSet(3, 4, (cube,)))


def test_mols_to_blocks_agrees_with_lift():
    squares = blocks_to_mols(construct(4, 5, 2))
    assert mols_to_blocks(squares) == lift_cubes(squares)


def test_blocks_to_mols_counts():
    squares = blocks_to_mols(construct(4, 5, 2))
    assert len(squares.cubes) == 2
    assert are_mutually_orthogonal(squares).ok

    single = blocks_to_mols(construct(3, 3, 2))
    assert len(single.cubes) == 1
    assert is_latin(single.cubes[0]).ok

    none = blocks_to_mols(construct(2, 3, 2))
    assert none.cubes == ()


def test_blocks_to_mols_round_trip():
    family = construct(4, 5, 2)
    assert mols_to_blocks(blocks_to_mols(family)) == family


def test_blocks_to_mols_requires_strength_two():
    with pytest.raises(ValueError, match="2-decomposition"):
        blocks_to_mols(construct(4, 5, 3))


def test_blocks_to_mols_requires_exact_family():
    family = BlockFamily(Params(3, 2, 2), ((1, 1, 1), (2, 2, 2)))
    with pytest.raises(ValueError, match="not an exact decomposition"):
        blocks_to_mols(family)


def test_counterexample_fixture_dimensions():
    cube_set = orthogonal_not_invertible_cubes()
    assert (cube_set.d, cube_set.n, len(cube_set.cubes)) == (3, 4, 3)


def test_fixture_loads_without_the_cli():
    # the cube format lives in partite.formats, so cubes never imports the front end
    src = str(Path(partite.__file__).parents[1])
    code = (
        "import sys, partite; partite.orthogonal_not_invertible_cubes(); "
        "print('partite.cli' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout == "False\n"
