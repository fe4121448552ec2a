import os
import random
import re
import signal
import threading
import time
from collections import Counter
from itertools import combinations, product

import pytest

from helpers import first_projection_offense, square

from partite import (
    BlockFamily,
    CubeSet,
    LatinCube,
    Params,
    Verdict,
    are_mutually_orthogonal,
    blocks_to_mols,
    build_covering,
    construct,
    extract_cubes,
    is_covering,
    is_decomposition,
    is_l_extendable,
    is_latin,
    is_mutually_invertible,
    lift_cubes,
    orthogonal_not_invertible_cubes,
    vandermonde_blocks,
    verify,
)
from partite import _runs


def identity_family(k, n):
    """All n^k tuples: the trivial exact decomposition when k = ell."""
    return BlockFamily(
        Params(k, n, k), tuple(product(range(1, n + 1), repeat=k))
    )


def test_identity_family_is_exact():
    report = is_l_extendable(identity_family(3, 2))
    assert report.verdict is Verdict.EXACT
    assert report.witness is None


def test_polynomial_family_is_exact():
    family = vandermonde_blocks(3, 3, 2)
    assert is_l_extendable(family).verdict is Verdict.EXACT
    assert first_projection_offense(family) is None


def test_counterexample_lift_fails_extendability():
    family = lift_cubes(orthogonal_not_invertible_cubes())
    report = is_l_extendable(family)
    assert report.verdict is Verdict.FAIL
    # Slices of the superimposed pair force a permutation pattern, so the
    # first lexicographic offense is the quadruply covered (1,1) pair in the
    # first slice; the uncovered cells of the same index set come later.
    assert report.witness.index_set == (1, 2, 6)
    assert report.witness.values == (1, 1, 1)
    assert report.witness.multiplicity == 2
    assert first_projection_offense(family) == ((1, 2, 6), (1, 1, 1), 2)


def test_counterexample_lift_misses_the_documented_cell():
    family = lift_cubes(orthogonal_not_invertible_cubes())
    hits = [
        b for b in family.blocks if (b[0], b[1], b[5]) == (1, 2, 2)
    ]
    assert hits == []


def test_empty_family_fails_with_first_uncovered_cell():
    report = is_decomposition(BlockFamily(Params(3, 2, 2), ()))
    assert report.verdict is Verdict.FAIL
    assert report.witness.index_set == (1, 2)
    assert report.witness.values == (1, 1)
    assert report.witness.multiplicity == 0


def test_duplicate_plus_missing_block_reports_duplicate():
    family = construct(3, 3, 2)
    broken = BlockFamily(
        family.params, (family.blocks[0],) + family.blocks[:-1]
    )
    report = is_decomposition(broken)
    assert report.verdict is Verdict.FAIL
    assert report.witness.multiplicity == 2
    assert report.witness.index_set == (1, 2)
    assert report.witness.values == (1, 1)


def test_construct_output_is_decomposition():
    assert is_decomposition(construct(5, 5, 2)).verdict is Verdict.EXACT


def test_exact_family_is_also_covering():
    family = construct(4, 5, 2)
    assert is_covering(family).verdict is Verdict.EXACT


def test_covering_detects_repeated_blocks():
    family = construct(3, 3, 2)
    doubled = BlockFamily(family.params, family.blocks + family.blocks[:1])
    report = is_covering(doubled)
    assert report.verdict is Verdict.COVER_ONLY
    assert report.witness.multiplicity == 2


def test_identical_blocks_do_not_cover():
    family = BlockFamily(Params(3, 2, 2), ((1, 1, 1),) * 4)
    report = is_covering(family)
    assert report.verdict is Verdict.FAIL
    assert report.witness.values == (1, 2)


def test_one_dimensional_permutation_is_latin():
    assert is_latin(LatinCube(1, 4, (3, 1, 4, 2))).ok


def test_counterexample_cubes_are_latin():
    for cube in orthogonal_not_invertible_cubes().cubes:
        assert is_latin(cube).ok


def test_constant_cube_is_not_latin():
    check = is_latin(LatinCube(2, 2, (1, 1, 1, 1)))
    assert not check.ok
    assert check.axis == 1
    assert check.fixed == (1,)


def test_counterexample_cubes_are_mutually_orthogonal():
    assert are_mutually_orthogonal(orthogonal_not_invertible_cubes()).ok


def test_equal_squares_are_not_orthogonal():
    sq = square([[1, 2], [2, 1]])
    check = are_mutually_orthogonal(CubeSet(2, 2, (sq, sq)))
    assert not check.ok
    assert check.cubes == (1, 2)
    assert check.values == (1, 1)  # diagonal image, hit once per cell of L = 1
    assert check.multiplicity == 2


def test_extracted_mols_are_orthogonal():
    squares = blocks_to_mols(construct(4, 5, 2))
    assert len(squares.cubes) == 2
    assert are_mutually_orthogonal(squares).ok


def test_orthogonality_needs_at_least_d_cubes():
    sq = square([[1, 2], [2, 1]])
    with pytest.raises(ValueError, match="at least"):
        are_mutually_orthogonal(CubeSet(2, 2, (sq,)))


def test_counterexample_is_not_invertible():
    report = is_mutually_invertible(orthogonal_not_invertible_cubes())
    assert report.verdict is Verdict.FAIL
    assert report.witness.index_set == (1, 2, 6)


def test_single_square_lift_is_exact():
    cube_set = CubeSet(2, 3, (square([[1, 3, 2], [3, 2, 1], [2, 1, 3]]),))
    assert is_mutually_invertible(cube_set).verdict is Verdict.EXACT
    assert first_projection_offense(lift_cubes(cube_set)) is None


def test_extracted_cubes_from_admissible_order_are_invertible():
    family = construct(6, 7, 3)
    cube_set = extract_cubes(family, (4, 5, 6))
    assert is_mutually_invertible(cube_set).verdict is Verdict.EXACT


def test_invertible_implies_orthogonal():
    # extracted systems that verify as invertible must superimpose bijectively
    # (needs at least ell cubes, i.e. k >= 2*ell, for orthogonality to be defined)
    for k, n, ell in [(4, 5, 2), (5, 5, 2), (6, 7, 3), (7, 7, 3)]:
        cube_set = extract_cubes(
            construct(k, n, ell), tuple(range(k - ell + 1, k + 1))
        )
        assert is_mutually_invertible(cube_set).verdict is Verdict.EXACT
        assert are_mutually_orthogonal(cube_set).ok


def test_orthogonal_squares_are_invertible():
    # for squares (d = 2) orthogonality is already enough to lift exactly
    squares = blocks_to_mols(construct(4, 5, 2))
    assert are_mutually_orthogonal(squares).ok
    assert is_mutually_invertible(squares).verdict is Verdict.EXACT


def test_witness_agrees_with_brute_force_oracle_on_damaged_families():
    rng = random.Random(28114)
    pool = [construct(3, 3, 2), construct(2, 3, 2), construct(4, 5, 2)]
    for _ in range(15):
        family = rng.choice(pool)
        blocks = list(family.blocks)
        if rng.random() < 0.5:
            blocks.remove(rng.choice(blocks))
        else:
            blocks.append(rng.choice(blocks))
        damaged = BlockFamily(family.params, tuple(blocks))
        report = is_l_extendable(damaged)
        assert report.verdict is Verdict.FAIL
        offense = first_projection_offense(damaged)
        assert (
            report.witness.index_set,
            report.witness.values,
            report.witness.multiplicity,
        ) == offense


def test_verdicts_ignore_block_order():
    rng = random.Random(4173)
    family = construct(4, 5, 2)
    for _ in range(5):
        shuffled = list(family.blocks)
        rng.shuffle(shuffled)
        report = is_decomposition(BlockFamily(family.params, tuple(shuffled)))
        assert report.verdict is Verdict.EXACT

    broken = list(lift_cubes(orthogonal_not_invertible_cubes()).blocks)
    expected = is_l_extendable(
        BlockFamily(Params(6, 4, 3), tuple(broken))
    ).witness
    for _ in range(5):
        rng.shuffle(broken)
        report = is_l_extendable(BlockFamily(Params(6, 4, 3), tuple(broken)))
        assert report.witness == expected


EXACT_332 = construct(3, 3, 2).blocks


# Families on each side of the mark pass's decision: every cell hit with more
# rows than cells, a cell missed with as many rows as cells, and order 1.
@pytest.mark.parametrize(
    "family, cover_verdict",
    [
        (BlockFamily(Params(3, 3, 2), EXACT_332 + EXACT_332[4:5]), Verdict.COVER_ONLY),
        (BlockFamily(Params(3, 3, 2), EXACT_332[:-1] + EXACT_332[4:5]), Verdict.FAIL),
        (build_covering(3, 4, 2), Verdict.COVER_ONLY),
        (BlockFamily(Params(3, 1, 2), ((1, 1, 1),) * 2), Verdict.COVER_ONLY),
    ],
    ids=["exact-plus-duplicate", "block-replaced-by-copy", "cover-extra-rows", "order-one-pair"],
)
def test_mark_pass_decisions_agree_with_brute_force_oracle(family, cover_verdict):
    dup = first_projection_offense(family)
    report = is_l_extendable(family)
    assert report.verdict is Verdict.FAIL
    assert dup[2] == 2  # every case repeats a cell before any cell is missed
    assert (report.witness.index_set, report.witness.values, report.witness.multiplicity) == dup

    cover = is_covering(family)
    miss = first_projection_offense(family, allowed=(1, 2))
    assert (miss is None) == (cover_verdict is Verdict.COVER_ONLY)
    assert cover.verdict is cover_verdict
    expected = dup if miss is None else miss
    assert (cover.witness.index_set, cover.witness.values, cover.witness.multiplicity) == expected


def first_offense_by_counter(family, allowed):
    """First (positions, values, capped count) not in allowed, one Counter per index set."""
    k, n, ell = family.params.k, family.params.n, family.params.ell
    for positions in combinations(range(1, k + 1), ell):
        hits = Counter(tuple(block[s - 1] for s in positions) for block in family.blocks)
        for values in product(range(1, n + 1), repeat=ell):
            if min(hits[values], 2) not in allowed:
                return positions, values, min(hits[values], 2)
    return None


# 257^2 = 66,049 blocks whose keys run from 258 to 66,306: past a 16-bit key
# field, so a narrower field or a carry between fields changes the answer
@pytest.fixture(scope="module")
def wide_family():
    return construct(3, 257, 2)


def test_keys_above_16_bits_verify_exact(wide_family):
    assert is_l_extendable(wide_family).verdict is Verdict.EXACT
    assert is_covering(wide_family).verdict is Verdict.EXACT


def test_witness_at_a_key_above_16_bits_matches_a_counter_oracle(wide_family):
    *rest, last = wide_family.blocks  # the lexicographically last block, (257, 257, 257)
    assert last[0] == 257
    damaged = BlockFamily(wide_family.params, (*rest, last[:-1] + (1,)))
    exact = is_l_extendable(damaged)
    dup = first_offense_by_counter(damaged, {1})
    assert dup == ((1, 3), (257, 1), 2)
    assert (exact.witness.index_set, exact.witness.values, exact.witness.multiplicity) == dup

    cover = is_covering(damaged)
    miss = first_offense_by_counter(damaged, {1, 2})
    assert miss == ((1, 3), (257, 257), 0)
    assert cover.verdict is Verdict.FAIL
    assert (cover.witness.index_set, cover.witness.values, cover.witness.multiplicity) == miss


# The split kernel: past its first index set a check over rows x sets cells at
# or above verify._SPLIT_CELLS forks one child per CPU but the first.  With the
# threshold at 0 and three CPUs, C(5, 2) = 10 sets run as (1, 2) first, then
# (1, 3) to (1, 5) here, (2, 3) to (2, 5) in the first child and (3, 4) to
# (4, 5) in the second.
@pytest.fixture
def split(monkeypatch):
    monkeypatch.setattr(verify, "_SPLIT_CELLS", 0)
    monkeypatch.setattr(_runs, "_cpus", lambda: 3)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def picked_columns(*picks):
    """construct(4, 5, 2) with its columns picked (0-based), so equal picks share a column.

    The 25 rows stay exact at every pair of distinct columns; a pair that picks
    one column twice has only the 5 cells (x, x) hit, 5 times each.
    """
    blocks = tuple(tuple(block[c] for c in picks) for block in construct(4, 5, 2).blocks)
    return BlockFamily(Params(len(picks), 5, 2), blocks)


def serial_witness(family):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verify, "_SPLIT_CELLS", float("inf"))
        return is_l_extendable(family).witness


@pytest.mark.parametrize("picks, index_set", [
    ((0, 1, 2, 3, 3), (4, 5)),  # only the second child's run fails
    ((0, 1, 1, 2, 2), (2, 3)),  # both children's runs fail: the first child's names it
    ((0, 1, 0, 2, 2), (1, 3)),  # this process's run fails, and the second child's
    ((0, 1, 1, 1, 0), (1, 5)),  # all three runs fail
])
def test_split_witness_is_the_earliest_runs(split, capfd, picks, index_set):
    family = picked_columns(*picks)
    witness = is_l_extendable(family).witness
    assert_no_child_left()
    assert witness == serial_witness(family)
    assert (witness.index_set, witness.values, witness.multiplicity) == (index_set, (1, 1), 2)
    assert capfd.readouterr() == ("", "")  # children leave by os._exit, never flushing stdio


def test_split_exact_family_is_exact(split, capfd):
    assert is_l_extendable(construct(5, 5, 2)).verdict is Verdict.EXACT
    assert_no_child_left()
    assert capfd.readouterr() == ("", "")


def raising_keys(family, bad):
    keys = verify._block_keys(family)

    def checked(subset):
        if subset == bad:
            raise RuntimeError(f"no keys at {subset}")
        return keys(subset)

    return checked


# an exception in this process's run, or in a child's run, which the child
# abandons silently and this process then scans itself, raising the same error
@pytest.mark.parametrize("bad", [(1, 3), (3, 5)])
def test_split_exception_reaps_every_child(split, capfd, bad):
    keys = raising_keys(construct(5, 5, 2), bad)
    with pytest.raises(RuntimeError, match=re.escape(f"no keys at {bad}")):
        verify._first_offense(keys, 5, 5, 2, {1})
    assert_no_child_left()
    assert capfd.readouterr() == ("", "")


def test_split_scans_a_dead_childs_run_itself(split):
    family, parent = picked_columns(0, 1, 1, 2, 2), os.getpid()
    keys = verify._block_keys(family)

    def dying(subset):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return keys(subset)

    witness = verify._first_offense(dying, 5, 5, 2, {1})
    assert_no_child_left()
    assert witness == serial_witness(family)


def test_split_kills_later_children_once_a_run_fails(split):
    family, parent = picked_columns(0, 1, 0, 2, 2), os.getpid()  # fails in this process's run
    keys = verify._block_keys(family)

    def slow_in_children(subset):
        if os.getpid() != parent:
            time.sleep(10)
        return keys(subset)

    start = time.perf_counter()
    witness = verify._first_offense(slow_in_children, 5, 5, 2, {1})
    assert time.perf_counter() - start < 5
    assert witness == serial_witness(family)
    assert_no_child_left()


def refuse_fork(monkeypatch):
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))


def test_one_cpu_stays_serial(monkeypatch):
    monkeypatch.setattr(verify, "_SPLIT_CELLS", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    refuse_fork(monkeypatch)
    family = picked_columns(0, 1, 1, 2, 2)
    assert is_l_extendable(family).witness.index_set == (2, 3)


def test_a_second_thread_keeps_the_check_serial(split, monkeypatch):
    refuse_fork(monkeypatch)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert is_l_extendable(construct(5, 5, 2)).verdict is Verdict.EXACT
    finally:
        release.set()
        thread.join()


def test_small_checks_stay_serial(monkeypatch):
    # 25 rows x 10 sets is far below the threshold, whatever the host
    refuse_fork(monkeypatch)
    assert is_l_extendable(picked_columns(0, 1, 2, 3, 3)).witness.index_set == (4, 5)


def test_first_index_set_fails_before_any_fork(split, monkeypatch):
    refuse_fork(monkeypatch)
    assert is_l_extendable(picked_columns(0, 0, 1, 2, 3)).witness.index_set == (1, 2)


def test_failed_fork_leaves_its_run_to_this_process(split, monkeypatch):
    forks, real_fork = [], os.fork

    def second_fork_fails():
        forks.append(None)
        if len(forks) == 2:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        return real_fork()

    monkeypatch.setattr(os, "fork", second_fork_fails)
    family = picked_columns(0, 1, 2, 3, 3)  # fails only in the second child's run, never forked
    assert is_l_extendable(family).witness == serial_witness(family)
    assert len(forks) == 2
    assert_no_child_left()


@pytest.mark.parametrize("damage", ["dropped", "doubled"])
def test_exact_check_off_the_row_count_skips_the_mark_pass(monkeypatch, damage):
    # allowing only count 1, a subset over other than n^ell rows fails whatever
    # the marks say, so it goes to the counting loop without a mark pass
    rows = construct(5, 7, 2).blocks
    damaged = rows[:20] + rows[21:] if damage == "dropped" else rows[:21] + rows[20:]
    family = BlockFamily(Params(5, 7, 2), damaged)
    calls = []
    every_cell = verify._every_cell
    monkeypatch.setattr(verify, "_every_cell", lambda *args: calls.append(args) or every_cell(*args))
    w = is_l_extendable(family).witness
    assert calls == []
    assert (w.index_set, w.values, w.multiplicity) == first_projection_offense(family)
