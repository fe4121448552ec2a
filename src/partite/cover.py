"""Covering families for orders where an exact decomposition is out of reach.

The pipeline lifts n to the next admissible order, builds exactly there, and
fuses symbols back down; the result covers every projection at least once and
overshoots the n^ell lower bound by at most the lift.  A branch-and-bound
search provides exact minimum covering sizes on tiny instances.
"""

from __future__ import annotations

from itertools import product

from .construct import construct, smallest_blocking_prime
from .core import BlockFamily, Params, capped_power, check_size, enumerate_index_sets

SEARCH_VOLUME_GUARD = 4096
DEFAULT_BUDGET = 1_000_000


def _primes_below(k: int) -> list[int]:
    if k <= 2:
        return []
    sieve = bytearray([1]) * k
    sieve[0] = sieve[1] = 0
    for p in range(2, int(k**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [p for p in range(2, k) if sieve[p]]


def next_admissible_order(n: int, k: int) -> int:
    """Minimum n' >= max(n, k) with no prime factor below k.

    A linear scan suffices: within any window of length primorial(k) there is
    a candidate congruent to 1 modulo every prime below k.
    """
    if n < 1:
        raise ValueError(f"n >= 1 required (n={n})")
    if k < 2:
        raise ValueError(f"k >= 2 required (k={k})")
    small = _primes_below(k)
    candidate = max(n, k)
    while any(candidate % p == 0 for p in small):
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
    if ell == 1:
        return n
    if n >= k and smallest_blocking_prime(n, k) is None:
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

    Depth-first search over candidate blocks: always branch on the first
    uncovered (index set, tuple) pair, trying its candidate blocks ordered by
    how many uncovered pairs they would close (ties broken lexicographically).
    Prunes with per-index-set demand: each block closes at most one pair per
    index set, so any completion needs at least max over index sets of the
    uncovered count there (at the root this is the n^ell lower bound).
    """
    params = Params(k, n, ell)
    if capped_power(n, k, limit=SEARCH_VOLUME_GUARD) > SEARCH_VOLUME_GUARD:
        raise ValueError(
            f"search volume n^k = {n}^{k} exceeds guard {SEARCH_VOLUME_GUARD}"
        )
    # the C(k, ell) * n^ell pairs to cover, bounded without forming C(k, ell)
    check_size(f"(k*n)^l = ({k}*{n})^{ell}", k * n, ell)

    index_sets = enumerate_index_sets(params)
    n_sets = len(index_sets)
    cell = n**ell

    # Candidate blocks in lexicographic order; pair ids are s * cell + flat(tuple).
    blocks = list(product(range(1, n + 1), repeat=k))
    coverage: list[frozenset[int]] = []
    for block in blocks:
        pairs = []
        for s, index_set in enumerate(index_sets):
            flat = 0
            for pos in index_set:
                flat = flat * n + (block[pos - 1] - 1)
            pairs.append(s * cell + flat)
        coverage.append(frozenset(pairs))

    by_pair: dict[int, list[int]] = {}
    for b, pairs in enumerate(coverage):
        for pair in pairs:
            by_pair.setdefault(pair, []).append(b)

    best = len(build_covering(k, n, ell).blocks)  # achievable upper bound
    uncovered = set(range(n_sets * cell))
    demand = [cell] * n_sets  # uncovered count per index set
    nodes = 0
    exhausted = False

    def search(size: int) -> None:
        nonlocal best, nodes, exhausted
        if exhausted:
            return
        nodes += 1
        if nodes > budget:
            exhausted = True
            return
        if not uncovered:
            best = size
            return
        if size + max(demand) >= best:
            return
        target = min(uncovered)
        candidates = sorted(
            by_pair[target],
            key=lambda b: (-len(coverage[b] & uncovered), b),
        )
        for b in candidates:
            closed = coverage[b] & uncovered
            uncovered.difference_update(closed)
            for pair in closed:
                demand[pair // cell] -= 1
            search(size + 1)
            for pair in closed:
                demand[pair // cell] += 1
            uncovered.update(closed)
            if exhausted:
                return

    search(0)
    return None if exhausted else best
