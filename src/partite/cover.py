"""Covering families for orders where an exact decomposition is out of reach.

The pipeline lifts n to the next admissible order and builds the exact columns
there with their symbols already fused down to n: the fold is applied where
the construction's last step builds each run, never symbol by symbol.  One
row sort on big-endian byte lines then drops the repeated rows.  The result
covers every projection at least once and overshoots n^ell by at most the
lift.  At an admissible order the fold is the identity: the cover is exact.

For tiny instances (n^k <= SEARCH_VOLUME_GUARD) a branch-and-bound search
gives the exact minimum covering size: the covering-array number.  It keeps
coverage as int bitmasks over (index set, tuple) pairs, fixes the first block
to (1, ..., 1) because symbols can be relabelled within each colour class,
and never revisits a cover through a later sibling.  Neither cut loses a
minimum, so a settled search is exact.  Each child is counted, checked for a
cover and pruned inside its parent's sibling loop; only a child that survives
the prune costs a call.
"""

from __future__ import annotations

from .construct import _exact_columns, smallest_blocking_prime
from .core import BlockFamily, Params, capped_power, check_size, enumerate_index_sets, lift_columns
from .verify import _projection_keys

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
    Any family is accepted.  Its columns hold no runs to fold, so they are
    mapped through one fold table, then sorted as build_covering's rows are.
    """
    p = family.params
    if n_target < 1:
        raise ValueError(f"n_target >= 1 required (n_target={n_target})")
    if n_target > p.n:
        raise ValueError(f"cannot fuse order {p.n} up to {n_target}")
    table = [0, *((v - 1) % n_target + 1 for v in range(1, p.n + 1))]
    columns = (map(table.__getitem__, family._column(c)) for c in range(1, p.k + 1))
    return BlockFamily._sorted(Params(p.k, n_target, p.ell), columns, True)


def lifting_order(k: int, n: int, ell: int) -> int:
    """The order the exact construction actually runs at for these parameters."""
    Params(k, n, ell)
    # n' >= n, so this bounds k and n before factoring n or sieving below k
    check_size(f"k*n^l = {k}*{n}^{ell}", n, ell, factor=k)
    # an admissible n >= 2 is at least k, so the scan returns it unchanged
    return n if ell == 1 or n == 1 else next_admissible_order(n, k)


def build_covering(k: int, n: int, ell: int) -> BlockFamily:
    """A covering family of at most lifting_order(k,n,ell)^ell blocks.

    Builds the exact columns of the next admissible order with their symbols
    folded down to n as each run is built (`construct._exact_columns`), then
    sorts the rows once as big-endian byte lines and drops the repeats
    (`BlockFamily._sorted`): no family is built at the lifted order, and no
    row tuple.  Where n is admissible (always for ell = 1) the fold is the
    identity and no exact row repeats: that is construct(k, n, ell).
    """
    n_lift = lifting_order(k, n, ell)
    return BlockFamily._sorted(Params(k, n, ell), _exact_columns(k, n_lift, ell, n), True)


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

    The parent decides that prune for each child in its sibling loop.  It
    counts the uncovered pairs of each index set once; a child's largest
    count is then the parent's largest, less one exactly when the child's
    block closes a pair in every index set at that largest count.  A child is
    counted as a node, checked against the budget and recorded as a cover in
    the loop, in visit order; only a child that survives recurses.

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
    # the block (1, ..., 1) covers G(k, 1), whose C(k, ell) pairs can exceed any table
    if n == 1:
        return 1
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

    # Candidate blocks are the grid's rows in lexicographic order: block 0 is (1, ..., 1).
    keys, offset = _projection_keys(lift_columns([], k, n), n), (cell - 1) // (n - 1)
    coverage = [0] * n**k
    by_pair: list[list[int]] = [[] for _ in range(n_sets * cell)]
    for s, index_set in enumerate(index_sets):
        for b, key in enumerate(keys(index_set)):
            pair = s * cell + key - offset  # the key less its offset is flat(tuple)
            coverage[b] |= 1 << pair
            by_pair[pair].append(b)

    best = len(build_covering(k, n, ell)._symbols) // k  # achievable upper bound
    excluded = bytearray(len(coverage))  # blocks an earlier sibling has settled
    nodes = 1  # the root
    exhausted = False

    def search(size: int, uncovered: int) -> None:
        """Branch at a node that is counted and survived its prune; decide each child's here."""
        nonlocal best, nodes, exhausted
        # a child closes at most one pair per index set, so its largest count is
        # top, or top - 1 once it closes a pair in every set at top
        counts = [(uncovered & m).bit_count() for m in set_masks]
        top = max(counts)
        tops = sum(m for m, c in zip(set_masks, counts) if c == top)  # disjoint masks
        at_top = counts.count(top)
        target = (uncovered & -uncovered).bit_length() - 1
        # some minimum cover holds block 0, and block 0 covers pair 0
        candidates = by_pair[target] if size else (0,)
        closing = sorted(
            (-(closed := coverage[b] & uncovered).bit_count(), b, closed)
            for b in candidates
            if not excluded[b]
        )
        for _, b, closed in closing:
            nodes += 1
            if nodes > budget:
                exhausted = True
                return
            rest = uncovered ^ closed
            if not rest:
                best = size + 1
            # prune when one index set alone has best - size - 1 pairs left
            elif best - size - top > ((closed & tops).bit_count() < at_top):
                search(size + 1, rest)
                if exhausted:
                    return
            excluded[b] = 1
        for _, b, _ in closing:
            excluded[b] = 0

    # the root needs n^ell blocks, so a covering that small is already minimal
    if best > cell:
        search(0, (1 << (n_sets * cell)) - 1)
    return None if exhausted else best
