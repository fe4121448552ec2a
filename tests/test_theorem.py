"""The paper's main theorem as property tests, judged by an oracle that does not count.

`helpers.exact_by_distance` decides exactness from pairwise agreement alone:
n^ell blocks, no two sharing ell positions.  It cross-checks the verdicts
(not the witnesses) of `is_l_extendable`, `is_covering`,
`is_mutually_invertible` and `mols_to_blocks` on constructed, damaged and
covering families and on cube systems.  On random admissible (k, n, ell)
with n^ell <= 343, and at (5,25,3), extracting at the last ell positions
(extraction's default) and lifting back is the identity, the extracted cubes
are mutually invertible, and one changed cube entry breaks invertibility and
the exactness of the lift.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import exact_by_distance, lifted_family
from test_differential import cube_sets, families, unchecked_cube_sets

from partite import (
    BlockFamily,
    CubeSet,
    LatinCube,
    Verdict,
    are_mutually_orthogonal,
    build_covering,
    construct,
    extract_cubes,
    is_covering,
    is_l_extendable,
    is_mutually_invertible,
    lift_cubes,
    mols_to_blocks,
    orthogonal_not_invertible_cubes,
)

EXAMPLES = settings(derandomize=True, deadline=None, max_examples=80)


def _admissible(k: int, n: int, ell: int) -> bool:
    """construct's rule: ell = 1, n = 1, or n >= k with no divisor of n below k."""
    return ell == 1 or n == 1 or (n >= k and all(n % p for p in range(2, k)))


# (k, n, ell) that construct accepts, with at most 343 blocks; the trivial
# ell = 1 and n = 1 families only at k <= 3 and n <= 4
ADMISSIBLE = [
    (k, n, ell)
    for ell in (1, 2, 3)
    for n in range(1, 8)
    for k in range(ell, 7)
    if n**ell <= 343 and _admissible(k, n, ell) and (min(n, ell) > 1 or k <= 3 and n <= 4)
]


@st.composite
def damaged_constructions(draw):
    """An admissible construction with one symbol or one whole position overwritten, or intact.

    A copied position offends only at the index sets holding both copies,
    which need not share a prefix with any other offending set.
    """
    k, n, ell = draw(st.sampled_from(ADMISSIBLE))
    family = construct(k, n, ell)
    blocks = list(family.blocks)
    src, pos = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
    damage = draw(st.sampled_from(["none", "symbol", "position"]))
    if damage == "symbol":
        i = draw(st.integers(0, len(blocks) - 1))
        blocks[i] = blocks[i][:pos] + (draw(st.integers(1, n)),) + blocks[i][pos + 1 :]
    elif damage == "position":
        blocks = [b[:pos] + (b[src],) + b[pos + 1 :] for b in blocks]
    return BlockFamily(family.params, tuple(blocks))


@settings(EXAMPLES, max_examples=200)
@given(st.one_of(families, damaged_constructions()))
def test_exactness_verdicts_match_distance_oracle(family):
    exact = exact_by_distance(family)
    assert (is_l_extendable(family).verdict is Verdict.EXACT) is exact
    assert (is_covering(family).verdict is Verdict.EXACT) is exact


@pytest.mark.parametrize("k,n,ell", [(4, 2, 2), (3, 4, 2), (4, 3, 2), (3, 2, 3), (5, 5, 2)])
def test_covering_verdicts_match_distance_oracle(k, n, ell):
    family = build_covering(k, n, ell)
    report = is_covering(family)
    assert report.verdict is not Verdict.FAIL
    assert (report.verdict is Verdict.EXACT) is exact_by_distance(family)
    assert (is_l_extendable(family).verdict is Verdict.EXACT) is exact_by_distance(family)


@EXAMPLES
@given(st.one_of(cube_sets(), unchecked_cube_sets()))
def test_invertibility_verdict_matches_distance_oracle_on_the_lift(cube_set):
    exact = exact_by_distance(lifted_family(cube_set))
    assert (is_mutually_invertible(cube_set).verdict is Verdict.EXACT) is exact


@EXAMPLES
@given(unchecked_cube_sets().filter(lambda cube_set: cube_set.d == 2))
def test_mols_to_blocks_accepts_exactly_the_exact_lifts(squares):
    try:
        family = mols_to_blocks(squares)
    except ValueError:
        assert not exact_by_distance(lifted_family(squares))
    else:
        assert exact_by_distance(family)


def test_counterexample_is_orthogonal_but_its_lift_is_not_exact():
    # PAPER.md holds only the abstract, so this fixture is not checked against
    # the paper's own table; the oracles here are the only judges
    cube_set = orthogonal_not_invertible_cubes()
    assert are_mutually_orthogonal(cube_set).ok
    assert not exact_by_distance(lifted_family(cube_set))
    assert is_mutually_invertible(cube_set).verdict is Verdict.FAIL


@EXAMPLES
@given(st.sampled_from(ADMISSIBLE))
@example((3, 3, 2))
@example((4, 5, 2))
@example((2, 2, 2))
@example((3, 1, 2))
@example((6, 7, 3))
@example((5, 25, 3))
def test_extract_then_lift_is_the_identity_at_the_last_positions(params):
    k, n, ell = params
    family = construct(k, n, ell)
    cube_set = extract_cubes(family)  # by default at the last ell positions
    assert cube_set == extract_cubes(family, tuple(range(k - ell + 1, k + 1)))
    assert lift_cubes(cube_set) == family
    assert is_mutually_invertible(cube_set).verdict is Verdict.EXACT
    if n**ell <= 343:  # the distance oracle is quadratic in the blocks
        assert exact_by_distance(lifted_family(cube_set))


@EXAMPLES
@given(st.sampled_from([t for t in ADMISSIBLE if t[0] > t[2] and t[1] >= 2]), st.data())
def test_one_changed_cube_entry_breaks_invertibility(params, data):
    k, n, ell = params
    cube_set = extract_cubes(construct(k, n, ell), tuple(range(k - ell + 1, k + 1)))
    cubes = list(cube_set.cubes)
    j = data.draw(st.integers(0, len(cubes) - 1))
    i = data.draw(st.integers(0, n**ell - 1))
    table = list(cubes[j].table)
    table[i] = data.draw(st.sampled_from([v for v in range(1, n + 1) if v != table[i]]))
    cubes[j] = LatinCube(ell, n, tuple(table))
    changed = CubeSet(ell, n, tuple(cubes))
    assert is_mutually_invertible(changed).verdict is Verdict.FAIL
    assert is_l_extendable(lift_cubes(changed)).verdict is Verdict.FAIL
    assert not exact_by_distance(lifted_family(changed))
    if ell == 2:
        with pytest.raises(ValueError):
            mols_to_blocks(changed)
