import time
import tracemalloc
from itertools import combinations, product

import pytest

from helpers import covers_every_pair, min_cover_binary_pairs, validated_families

from partite import (
    BlockFamily,
    Params,
    Verdict,
    build_covering,
    construct,
    exact_cover_size,
    fuse,
    is_covering,
    is_decomposition,
    lifting_order,
    next_admissible_order,
)
from partite.construct import smallest_blocking_prime
from partite.core import check_size


def has_small_prime_factor(value, k):
    return any(value % p == 0 for p in range(2, k) if all(p % q for q in range(2, p)))


@pytest.mark.parametrize(
    "n,k,expected", [(10, 6, 11), (7, 5, 7), (2, 3, 3), (1, 4, 5), (12, 4, 13)]
)
def test_next_admissible_order_examples(n, k, expected):
    assert next_admissible_order(n, k) == expected


def test_next_admissible_order_is_minimal():
    for n in range(1, 40):
        for k in range(2, 8):
            result = next_admissible_order(n, k)
            assert result >= max(n, k)
            assert not has_small_prime_factor(result, k)
            for candidate in range(max(n, k), result):
                assert has_small_prime_factor(candidate, k)


def test_next_admissible_order_rejects_bad_arguments():
    with pytest.raises(ValueError, match="n >= 1"):
        next_admissible_order(0, 4)
    with pytest.raises(ValueError, match="k >= 2"):
        next_admissible_order(3, 1)


def test_fuse_to_same_order_is_identity():
    family = construct(4, 5, 2)
    assert fuse(family, 5) == family


def test_fuse_down_to_two_symbols_covers():
    family = construct(4, 5, 2)
    fused = fuse(family, 2)
    assert fused.params.n == 2
    assert len(fused.blocks) <= 25
    assert fused.is_canonical
    assert is_covering(fused).verdict is not Verdict.FAIL
    assert covers_every_pair(fused.blocks, 4, 2, 2)


def test_fuse_order7_down_to_four_covers():
    fused = fuse(construct(6, 7, 3), 4)
    assert len(fused.blocks) <= 343
    assert is_covering(fused).verdict is not Verdict.FAIL


def test_fuse_rejects_larger_target():
    with pytest.raises(ValueError, match="cannot fuse"):
        fuse(construct(4, 5, 2), 6)
    with pytest.raises(ValueError, match=r"n_target >= 1 required \(n_target=0\)"):
        fuse(construct(4, 5, 2), 0)


def test_lifting_order_detects_direct_cases():
    assert lifting_order(5, 7, 2) == 7
    assert lifting_order(4, 2, 2) == 5
    assert lifting_order(6, 4, 3) == 7
    assert lifting_order(9, 4, 1) == 4
    # no prime divides 1, so order 1 is built directly
    assert lifting_order(3, 1, 2) == 1
    assert lifting_order(8, 1, 5) == 1


def _outcome(call, *args):
    try:
        return call(*args)
    except ValueError as exc:
        return str(exc)


def lifting_order_by_blocking_prime(k, n, ell):
    """lifting_order as it tested admissibility before handing n to the scan."""
    Params(k, n, ell)
    check_size(f"k*n^l = {k}*{n}^{ell}", n, ell, factor=k)
    return n if ell == 1 or smallest_blocking_prime(n, k) is None else next_admissible_order(n, k)


def test_lifting_order_matches_the_blocking_prime_rule():
    # 9,154 triples, the size guard's refusals among them
    for ell in range(1, 5):
        for k in range(ell, 14):
            for n in range(1, 200):
                expected = _outcome(lifting_order_by_blocking_prime, k, n, ell)
                assert _outcome(lifting_order, k, n, ell) == expected, (k, n, ell)


def test_build_covering_uses_direct_construction_when_admissible():
    family = build_covering(5, 7, 2)
    assert len(family.blocks) == 49
    assert is_decomposition(family).verdict is Verdict.EXACT


def test_build_covering_lifts_and_fuses():
    family = build_covering(4, 2, 2)
    assert family.params.n == 2
    assert len(family.blocks) <= 25
    assert is_covering(family).verdict is not Verdict.FAIL


# the lifted columns are fused before the one sort: no family is validated at 49
def test_build_covering_validates_only_the_fused_family(monkeypatch):
    sizes = validated_families(monkeypatch)
    family = build_covering(5, 48, 3)
    assert sizes == [len(family.blocks)]
    assert len(family.blocks) < 49**3


def test_build_covering_strength_one_is_constant_blocks():
    family = build_covering(4, 9, 1)
    assert family.blocks == tuple((a,) * 4 for a in range(1, 10))
    assert is_decomposition(family).verdict is Verdict.EXACT


def test_build_covering_order_one():
    family = build_covering(3, 1, 2)
    assert family.blocks == ((1, 1, 1),)
    assert is_covering(family).verdict is not Verdict.FAIL


def test_build_covering_size_bound_sweep():
    for k, n, ell in [(3, 2, 2), (4, 3, 2), (5, 4, 2), (4, 2, 3), (5, 6, 2)]:
        family = build_covering(k, n, ell)
        assert is_covering(family).verdict is not Verdict.FAIL
        assert len(family.blocks) <= lifting_order(k, n, ell) ** ell


def test_lift_gap_is_bounded_by_the_primorial():
    # the scan never has to travel farther than the product of primes below k
    for k in (4, 5, 6):
        primorial = 1
        for p in range(2, k):
            if all(p % q for q in range(2, p)):
                primorial *= p
        for n in range(1, 31):
            lifted = lifting_order(k, n, 2)
            assert lifted - n <= primorial
            family = build_covering(k, n, 2)
            assert len(family.blocks) <= lifted**2


def brute_force_minimum_cover(k, n, ell, upper):
    """Smallest covering size found by exhausting all block subsets up to `upper`."""
    blocks = list(product(range(1, n + 1), repeat=k))
    for size in range(1, upper + 1):
        for subset in combinations(blocks, size):
            if covers_every_pair(subset, k, n, ell):
                return size
    return None


def test_exact_cover_size_three_classes():
    assert exact_cover_size(3, 2, 2) == 4
    assert brute_force_minimum_cover(3, 2, 2, 4) == 4


def test_exact_cover_size_four_classes():
    assert exact_cover_size(4, 2, 2) == 5
    assert brute_force_minimum_cover(4, 2, 2, 5) == 5


def test_exact_cover_size_five_classes():
    # a known 6-block covering: columns are distinct 3-subsets of the blocks,
    # all sharing block 1, written as symbol-2 positions
    subsets = [{1, 2, 3}, {1, 2, 4}, {1, 3, 5}, {1, 4, 6}, {1, 5, 6}]
    known = [
        tuple(2 if row in s else 1 for s in subsets) for row in range(1, 7)
    ]
    assert covers_every_pair(known, 5, 2, 2)
    # and nothing smaller works
    blocks = list(product((1, 2), repeat=5))
    assert not any(covers_every_pair(s, 5, 2, 2) for s in combinations(blocks, 5))
    assert exact_cover_size(5, 2, 2) == 6


def test_exact_cover_size_matches_lower_bound_when_exact_exists():
    assert exact_cover_size(2, 2, 2) == 4
    assert exact_cover_size(3, 3, 2) == 9


def test_exact_cover_size_order_one():
    assert exact_cover_size(5, 1, 2) == 1


def test_exact_cover_size_meets_lower_bound_exactly_when_decomposable():
    # an exact decomposition of G(3,2) exists, so the bound n^ell is met
    assert exact_cover_size(3, 2, 2) == 2**2
    # no pair of orthogonal order-2 squares exists, so G(4,2) needs strictly more
    assert exact_cover_size(4, 2, 2) > 2**2


def test_exact_cover_size_respects_guard():
    with pytest.raises(ValueError, match="guard"):
        exact_cover_size(13, 2, 2)


# n^k = 4096 is searched, not refused; at n = 8 and 64 the keys' offset
# (n^l - 1) // (n - 1) is furthest from a 0-based cell number.  (2, 64, 2)
# builds an exact family of n^l blocks, so it settles at the root.
@pytest.mark.parametrize(
    "k,n,ell,budget,expected",
    [(12, 2, 2, 1, None), (12, 2, 3, 1, None), (6, 4, 2, 1, None), (4, 8, 3, 1, None),
     (2, 64, 2, 1, 4096)],
)
def test_exact_cover_size_runs_at_the_volume_guard(k, n, ell, budget, expected):
    assert n**k == 4096
    assert exact_cover_size(k, n, ell, budget=budget) == expected


def test_exact_cover_size_budget_exhaustion_is_unknown():
    assert exact_cover_size(4, 2, 2, budget=1) is None
    # minsearch --k 5 --n 3 --l 2 --budget 200000 prints unknown (budget)
    assert exact_cover_size(5, 3, 2, budget=200_000) is None


def test_exact_cover_size_rejects_budget_below_one():
    for budget in (0, -5):
        with pytest.raises(ValueError, match=f"budget >= 1 required \\(budget={budget}\\)"):
            exact_cover_size(4, 2, 2, budget=budget)


def test_min_cover_binary_pairs_closed_form():
    assert [min_cover_binary_pairs(k) for k in range(2, 16)] == [4, 4, 5] + [6] * 6 + [7] * 5


@pytest.mark.parametrize("k", range(2, 8))
def test_exact_cover_size_matches_binary_closed_form(k):
    assert exact_cover_size(k, 2, 2) == min_cover_binary_pairs(k)


@pytest.mark.parametrize(
    "k,n,ell,minimum",
    [(7, 2, 2, 6), (5, 2, 3, 10), (4, 3, 2, 9), (5, 4, 2, 16), (5, 4, 3, 64)],
)
def test_exact_cover_size_pinned_minimums(k, n, ell, minimum):
    assert exact_cover_size(k, n, ell) == minimum


# The search tree, pinned by the node count N at which each instance settles:
# at budget N - 1 the search runs out, at budget N it returns the minimum.  A
# change to the visit order, the prunes or the node accounting moves N.
@pytest.mark.parametrize(
    "k,n,ell,nodes,minimum",
    [
        (4, 2, 2, 25, 5),
        (5, 2, 2, 823, 6),
        (6, 2, 2, 4_655, 6),
        (7, 2, 2, 24_841, 6),
        (4, 3, 2, 74, 9),
        (5, 2, 3, 1_056, 10),
        (4, 3, 3, 692, 27),
        (5, 4, 2, 962, 16),
    ],
)
def test_exact_cover_size_settles_at_pinned_node_count(k, n, ell, nodes, minimum):
    assert exact_cover_size(k, n, ell, budget=nodes - 1) is None
    assert exact_cover_size(k, n, ell, budget=nodes) == minimum


@pytest.mark.parametrize("n", [2_000_000, 2**32 - 1])
def test_fuse_table_is_bounded_by_the_symbols_held(n):
    # the fold table reaches the largest symbol the family holds, not its
    # declared order: a table up to n took 2.1 s under tracemalloc (2-CPU
    # host) at n = 2,000,000, and at 2^32 - 1 would hold 4.3 billion entries
    family = BlockFamily(Params(2, n, 1), ((1, 2),))
    tracemalloc.start()
    try:
        start = time.perf_counter()
        fused = fuse(family, 3)
        seconds = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fused.blocks == ((1, 2),)
    assert seconds < 0.1
    assert peak < 2**20
