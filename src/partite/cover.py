"""Covering families for orders where an exact decomposition is out of reach.

The pipeline lifts n to the next admissible order, builds exactly there, and
fuses symbols back down; the result covers every projection at least once and
overshoots the n^ell lower bound by at most the lift.

For tiny instances (n^k <= SEARCH_VOLUME_GUARD) a branch-and-bound search
gives the exact minimum covering size: the covering-array number.  It keeps
coverage as int bitmasks over (index set, tuple) pairs, fixes the first block
to (1, ..., 1) because symbols can be relabelled within each colour class,
and never revisits a cover through a later sibling.  Neither cut loses a
minimum, so a settled search is exact.
"""

from __future__ import annotations

from itertools import product

from .construct import construct, smallest_blocking_prime
from .core import BlockFamily, Params, capped_power, check_size, enumerate_index_sets

SEARCH_VOLUME_GUARD = 4096
DEFAULT_BUDGET = 1_000_000


def next_admissible_order(n: int, k: int) -> int:
    """Minimum n' >= max(n, k) with no prime factor below k.

    A linear scan suffices: within any window of length primorial(k) there is
    a candidate congruent to 1 modulo every prime below k.
    """
    if n < 1:
        raise ValueError(f"n >= 1 required (n={n})")
    if k < 2:
        raise ValueError(f"k >= 2 required (k={k})")
    candidate = max(n, k)
    while smallest_blocking_prime(candidate, k) is not None:
        candidate += 1
    return candidate


def fuse(family: BlockFamily, n_target: int) -> BlockFamily:
    """Fold symbols of an exact family onto {1..n_target} and deduplicate.

    The fusion map v -> ((v-1) mod n_target) + 1 is surjective and balanced
    and fixes symbols already in range, so every projection tuple over the
    target order stays covered by the image of its exact preimage block.
    """
    p = family.params
    if n_target < 1:
        raise ValueError(f"n_target >= 1 required (n_target={n_target})")
    if n_target > p.n:
        raise ValueError(f"cannot fuse order {p.n} up to {n_target}")
    fused = {
        tuple((v - 1) % n_target + 1 for v in block) for block in family.blocks
    }
    return BlockFamily(Params(p.k, n_target, p.ell), tuple(sorted(fused)))


def lifting_order(k: int, n: int, ell: int) -> int:
    """The order the exact construction actually runs at for these parameters."""
    Params(k, n, ell)
    # n' >= n, so this bounds k and n before factoring n or sieving below k
    check_size(f"k*n^l = {k}*{n}^{ell}", n, ell, factor=k)
    if ell == 1 or smallest_blocking_prime(n, k) is None:
        return n
    return next_admissible_order(n, k)


def build_covering(k: int, n: int, ell: int) -> BlockFamily:
    """A covering family of at most lifting_order(k,n,ell)^ell blocks.

    Returns the exact decomposition whenever n itself is admissible (always
    for ell = 1); otherwise constructs at the next admissible order and fuses
    down to n.
    """
    n_lift = lifting_order(k, n, ell)
    if n_lift == n:
        return construct(k, n, ell)
    return fuse(construct(k, n_lift, ell), n)


def exact_cover_size(
    k: int, n: int, ell: int, budget: int = DEFAULT_BUDGET
) -> int | None:
    """Minimum number of blocks covering every projection, or None on budget exhaustion.

    Depth-first branch and bound over the n^k candidate blocks.  A pair is an
    (index set, tuple) cell, numbered s * n^ell + flat(tuple); each block's
    coverage is one int bitmask over pair ids, and the uncovered pairs are an
    int passed down the recursion.  Every node branches on the first uncovered
    pair, trying the blocks that cover it ordered by how many uncovered pairs
    they would close (ties broken lexicographically).  Each block closes at
    most one pair per index set, so any completion needs at least the largest
    uncovered count of one index set (at the root, the n^ell lower bound).

    Two cuts keep the search complete.  Relabelling the symbols of each
    colour class on its own maps covers to covers of the same size and can
    send any one block to (1, ..., 1), so the root branches on that block
    alone.  Once a candidate's subtree is done, every cover containing it has
    been seen, so the later siblings' subtrees never add it again.

    A search that runs out of budget has visited budget + 1 nodes.
    """
    params = Params(k, n, ell)
    if budget < 1:
        raise ValueError(f"budget >= 1 required (budget={budget})")
    if capped_power(n, k, limit=SEARCH_VOLUME_GUARD) > SEARCH_VOLUME_GUARD:
        raise ValueError(
            f"search volume n^k = {n}^{k} exceeds guard {SEARCH_VOLUME_GUARD}"
        )
    # the C(k, ell) * n^ell pairs to cover, bounded without forming C(k, ell)
    check_size(f"(k*n)^l = ({k}*{n})^{ell}", k * n, ell)

    index_sets = enumerate_index_sets(params)
    n_sets = len(index_sets)
    cell = n**ell
    set_masks = [((1 << cell) - 1) << (s * cell) for s in range(n_sets)]

    # Candidate blocks in lexicographic order, so block 0 is (1, ..., 1).
    coverage: list[int] = []
    by_pair: list[list[int]] = [[] for _ in range(n_sets * cell)]
    for b, block in enumerate(product(range(1, n + 1), repeat=k)):
        bits = bytearray((len(by_pair) + 7) // 8)
        for s, index_set in enumerate(index_sets):
            flat = 0
            for pos in index_set:
                flat = flat * n + (block[pos - 1] - 1)
            pair = s * cell + flat
            bits[pair >> 3] |= 1 << (pair & 7)
            by_pair[pair].append(b)
        coverage.append(int.from_bytes(bits, "little"))

    best = len(build_covering(k, n, ell).blocks)  # achievable upper bound
    excluded = bytearray(len(coverage))  # blocks an earlier sibling has settled
    nodes = 0
    exhausted = False

    def search(size: int, uncovered: int) -> None:
        nonlocal best, nodes, exhausted
        nodes += 1
        if nodes > budget:
            exhausted = True
            return
        if not uncovered:
            best = size
            return
        # prune when one index set alone has best - size uncovered pairs left;
        # no set has more than n^ell, and with one block to go any pair will do
        need = best - size
        if need == 1 or (
            need <= cell and any((uncovered & m).bit_count() >= need for m in set_masks)
        ):
            return
        target = (uncovered & -uncovered).bit_length() - 1
        # some minimum cover holds block 0, and block 0 covers pair 0
        candidates = by_pair[target] if size else (0,)
        closing = sorted(
            (-(closed := coverage[b] & uncovered).bit_count(), b, closed)
            for b in candidates
            if not excluded[b]
        )
        for _, b, closed in closing:
            search(size + 1, uncovered ^ closed)
            if exhausted:
                return
            excluded[b] = 1
        for _, b, _ in closing:
            excluded[b] = 0

    search(0, (1 << (n_sets * cell)) - 1)
    return None if exhausted else best
