"""Brute-force oracles shared across test modules.

These deliberately re-count projections cell by cell with nested loops, so
they stay independent of the library's bucket-counting passes.
`BlockFamily` validation is checked against its earlier per-block loop.  The
text format oracles convert and join one token at a time; the cube oracle
multiplies m*n^d up one n at a time and checks each cube's symbols with the
per-symbol loop.  The minimum-cover oracles are the earlier set-based search,
the earlier recursive bitmask search, and the closed form for n = 2, ell = 2.  The lift and extraction are
rebuilt one domain point at a time.
`LatinCube` symbol validation is checked against its earlier per-symbol loop,
and `mols_to_blocks` against its earlier Latin-then-orthogonal decision.
`exact_by_distance` decides exactness without counting any projection.
`product_decomposition` is checked against its earlier block-by-block product.
`fuse` is checked against its earlier set-then-sort fold, and
`vandermonde_blocks` against its earlier coefficient enumeration and sort.
`construct`, `lift_cubes` and `extract_cubes` are checked against the zip and
sort of the rows they now scatter into one array.
`validated_families` records each family `BlockFamily` validates.
"""

from itertools import combinations, product
from math import comb

from partite import (
    BlockFamily,
    CubeSet,
    LatinCube,
    Params,
    build_covering,
    enumerate_index_sets,
    lift_cubes,
    verify,
)
from partite.construct import _exact_columns, is_prime
from partite.core import SIZE_LIMIT, capped_power, check_size, lift_columns
from partite.cover import DEFAULT_BUDGET, SEARCH_VOLUME_GUARD


def first_projection_offense(family: BlockFamily, allowed=(1,)):
    """First (positions, values, capped hit count) with count not in allowed, or None."""
    k, n, ell, blocks = family.params.k, family.params.n, family.params.ell, family.blocks
    for positions in combinations(range(1, k + 1), ell):
        for values in product(range(1, n + 1), repeat=ell):
            hits = sum(
                1
                for block in blocks
                if all(block[s - 1] == v for s, v in zip(positions, values))
            )
            if min(hits, 2) not in allowed:
                return positions, values, min(hits, 2)
    return None


def validated_families(monkeypatch) -> list[int]:
    """The block count of every family BlockFamily validates from now on, in order.

    A family built from blocks is validated in __post_init__, and one built on
    an array by the range check in _from_symbols.
    """
    sizes = []
    validate, from_symbols = BlockFamily.__post_init__, BlockFamily._from_symbols.__func__

    def counted(family):
        sizes.append(len(family.blocks))
        validate(family)

    def counted_symbols(cls, params, symbols, *rest):  # distinct, and a parse's start
        sizes.append(len(symbols) // params.k)
        return from_symbols(cls, params, symbols, *rest)

    monkeypatch.setattr(BlockFamily, "__post_init__", counted)
    monkeypatch.setattr(BlockFamily, "_from_symbols", classmethod(counted_symbols))
    return sizes


def check_blocks_reference(blocks, params: Params) -> None:
    """The per-block validation BlockFamily ran before its bulk decide step."""
    for block in blocks:
        if len(block) != params.k:
            raise ValueError(
                f"block length {len(block)} does not match k={params.k}: {block}"
            )
        for v in block:
            if not 1 <= v <= params.n:
                raise ValueError(f"symbol {v} outside 1..{params.n} in block {block}")


def exact_by_distance(family: BlockFamily) -> bool:
    """Exact iff there are n^ell blocks and any two agree in at most ell - 1 positions.

    Two blocks sharing ell positions would hit one cell twice, and n^ell blocks
    that never do fill each index set's n^ell cells once: an index-unity OA is
    an MDS code of minimum distance k - ell + 1.  O(N^2 k); keep N below ~700.
    """
    ell, blocks = family.params.ell, family.blocks
    if len(blocks) != family.params.n**ell:
        return False
    return all(
        sum(map(int.__eq__, a, b)) < ell for a, b in combinations(blocks, 2)
    )


def check_cube_symbols_reference(n: int, table) -> None:
    """The per-symbol range check LatinCube ran before its bulk decide step."""
    for v in table:
        if not 1 <= v <= n:
            raise ValueError(f"symbol {v} outside 1..{n}")


def mols_to_blocks_reference(squares: CubeSet) -> BlockFamily:
    """The Latin-then-orthogonal decision mols_to_blocks made before it checked
    invertibility, kept verbatim apart from this docstring.
    """
    if squares.d != 2:
        raise ValueError(f"squares must have dimension 2, got d={squares.d}")
    for i, square in enumerate(squares.cubes, start=1):
        check = verify.is_latin(square)
        if not check.ok:
            raise ValueError(
                f"square {i} is not Latin (axis {check.axis}, line at {check.fixed})"
            )
    if len(squares.cubes) >= 2:
        check = verify.are_mutually_orthogonal(squares)
        if not check.ok:
            raise ValueError(
                f"squares {check.cubes} are not orthogonal: image {check.values} "
                f"hit {check.multiplicity} times"
            )
    return lift_cubes(squares)


def product_decomposition_reference(left: BlockFamily, right: BlockFamily) -> BlockFamily:
    """The block-by-block product product_decomposition built before it went
    column-wise, kept verbatim apart from this docstring.
    """
    if left.params.k != right.params.k:
        raise ValueError(f"k mismatch: {left.params.k} vs {right.params.k}")
    if left.params.ell != right.params.ell:
        raise ValueError(f"ell mismatch: {left.params.ell} vs {right.params.ell}")
    p = left.params.n
    params = Params(left.params.k, p * right.params.n, left.params.ell)
    blocks = [
        tuple((w - 1) * p + v for v, w in zip(x, y))
        for x in left.blocks
        for y in right.blocks
    ]
    return BlockFamily(params, tuple(sorted(blocks)))


def fuse_reference(family: BlockFamily, n_target: int) -> BlockFamily:
    """The set-then-sort fold fuse ran before it mapped columns through a
    table, kept verbatim apart from this docstring.
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


def vandermonde_blocks_reference(k: int, n: int, ell: int) -> BlockFamily:
    """The coefficient enumeration and sort vandermonde_blocks ran before it
    enumerated blocks by their symbols at colours 1..ell, kept verbatim apart
    from this docstring: the symbol at colour c is (sum_j c^(j-1) * a_j mod n)
    + 1 for each coefficient tuple (a_1..a_ell).
    """
    params = Params(k, n, ell)
    check_size(f"k*n^l = {k}*{n}^{ell}", n, ell, factor=k)
    if ell < 2:
        raise ValueError(f"ell >= 2 required for the polynomial construction (ell={ell})")
    if n < k:
        raise ValueError(f"n >= k required (n={n}, k={k})")
    if not is_prime(n):
        raise ValueError(f"n must be prime (n={n})")
    # row r of every column belongs to the r-th coefficient tuple in lexicographic order
    columns = []
    for c in range(1, k + 1):
        column = [1]
        for j in range(ell):
            step = pow(c, j, n)
            column = [(x - 1 + step * a) % n + 1 for x in column for a in range(n)]
        columns.append(column)
    return BlockFamily(params, tuple(sorted(zip(*columns))))


def construct_reference(k: int, n: int, ell: int) -> BlockFamily:
    """The one zip and sort construct ran before it scattered its columns into
    one array, kept verbatim apart from this docstring.
    """
    return BlockFamily(Params(k, n, ell), tuple(sorted(zip(*_exact_columns(k, n, ell)))))


def lift_cubes_reference(cube_set: CubeSet) -> BlockFamily:
    """The lift's columns zipped into rows and sorted, which lift_cubes did by
    placing them at their keys, or by the sort where the first d columns collide.
    """
    d, n = cube_set.d, cube_set.n
    check_size(f"n^d = {n}^{d}", n, d)
    m = len(cube_set.cubes)
    check_size(f"(m+d)*n^d = {m + d}*{n}^{d}", n, d, factor=m + d)
    column = lift_columns([cube._symbols for cube in cube_set.cubes], d, n)
    return BlockFamily(Params(m + d, n, d), tuple(sorted(zip(*map(column, range(1, m + d + 1))))))


def extract_cubes_reference(family: BlockFamily, positions) -> CubeSet:
    """The free columns of an exact family's blocks sorted by their symbols at
    positions, which extract_cubes read in that order through placed row numbers.
    """
    k, n, ell = family.params.k, family.params.n, family.params.ell
    free = [j - 1 for j in range(1, k + 1) if j not in positions]
    rows = sorted(family.blocks, key=lambda block: [block[s - 1] for s in positions])
    tables = zip(*([block[j] for j in free] for block in rows))
    return CubeSet(ell, n, tuple(LatinCube(ell, n, table) for table in tables))


def _cube_value(table, n: int, coords) -> int:
    """Entry of a table of order n at 1-based coords, last coordinate fastest.

    The callers read each cube's table once: every read of .table builds it.
    """
    flat = 0
    for x in coords:
        flat = flat * n + (x - 1)
    return table[flat]


def first_latin_offense(cube: LatinCube):
    """First (axis, fixed other coordinates) whose line is not a permutation, or None."""
    d, n, table = cube.d, cube.n, cube.table
    for axis in range(1, d + 1):
        for fixed in product(range(1, n + 1), repeat=d - 1):
            line = [
                _cube_value(table, n, fixed[: axis - 1] + (j,) + fixed[axis - 1 :])
                for j in range(1, n + 1)
            ]
            if sorted(line) != list(range(1, n + 1)):
                return axis, fixed
    return None


def first_orthogonal_offense(cube_set: CubeSet):
    """First (1-based cube subset, image, capped hit count) with count != 1, or None."""
    d, n, tables = cube_set.d, cube_set.n, [cube.table for cube in cube_set.cubes]
    domain = list(product(range(1, n + 1), repeat=d))
    for subset in combinations(range(1, len(tables) + 1), d):
        for image in product(range(1, n + 1), repeat=d):
            hits = sum(
                1
                for x in domain
                if all(_cube_value(tables[i - 1], n, x) == v for i, v in zip(subset, image))
            )
            if hits != 1:
                return subset, image, min(hits, 2)
    return None


def lifted_family(cube_set: CubeSet) -> BlockFamily:
    """The lift built point by point: cube values at x, then x, for every x."""
    d, n, tables = cube_set.d, cube_set.n, [cube.table for cube in cube_set.cubes]
    blocks = tuple(
        tuple(_cube_value(table, n, x) for table in tables) + x
        for x in product(range(1, n + 1), repeat=d)
    )
    return BlockFamily(Params(len(tables) + d, n, d), blocks)


def extracted_cubes(family: BlockFamily, positions) -> CubeSet:
    """Cubes read point by point: the block at each projection, free symbols in grid order."""
    k, n, ell = family.params.k, family.params.n, family.params.ell
    at = {tuple(block[s - 1] for s in positions): block for block in family.blocks}
    grid = list(product(range(1, n + 1), repeat=ell))
    free = [j for j in range(1, k + 1) if j not in positions]
    tables = (tuple(at[x][j - 1] for x in grid) for j in free)
    return CubeSet(ell, n, tuple(LatinCube(ell, n, table) for table in tables))


def covers_every_pair(blocks, k, n, ell):
    """True iff each (positions, values) cell is hit by at least one block."""
    for positions in combinations(range(1, k + 1), ell):
        for values in product(range(1, n + 1), repeat=ell):
            if not any(
                all(block[s - 1] == v for s, v in zip(positions, values))
                for block in blocks
            ):
                return False
    return True


def square(rows) -> LatinCube:
    """Build an order-len(rows) square from nested row lists."""
    return LatinCube(2, len(rows), tuple(v for row in rows for v in row))


def format_blocks_reference(family: BlockFamily) -> str:
    """The block file, one str() per symbol."""
    p = family.params
    lines = [f"blocks {p.k} {p.n} {p.ell} {len(family.blocks)}"]
    lines.extend(" ".join(str(v) for v in block) for block in family.blocks)
    return "\n".join(lines) + "\n"


def parse_blocks_reference(text: str) -> BlockFamily:
    """A block file read back with one int() per token."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("empty block file")
    header = lines[0].split()
    if len(header) != 5 or header[0] != "blocks":
        raise ValueError(f"bad block header: {lines[0]!r}")
    k, n, ell, count = (int(tok) for tok in header[1:])
    if len(lines) - 1 != count:
        raise ValueError(f"header says {count} blocks, file has {len(lines) - 1}")
    blocks = [tuple(int(tok) for tok in line.split()) for line in lines[1:]]
    return BlockFamily(Params(k, n, ell), tuple(blocks))


def format_cubes_reference(cube_set: CubeSet) -> str:
    """The cube file, one str() per value, n values a line."""
    d, n = cube_set.d, cube_set.n
    lines = [f"cubes {d} {n} {len(cube_set.cubes)}"]
    for table in (cube.table for cube in cube_set.cubes):
        for start in range(0, len(table), n):
            lines.append(" ".join(str(v) for v in table[start : start + n]))
    return "\n".join(lines) + "\n"


def parse_cubes_reference(text: str) -> CubeSet:
    """A cube file read back with one int() per token, each cube range-checked on its own.

    m*n^d is multiplied up one n at a time and refused once past SIZE_LIMIT,
    so no header, however large, forms n^d.
    """
    tokens = text.split()
    if len(tokens) < 4 or tokens[0] != "cubes":
        raise ValueError("bad cube header")
    d, n, m = (int(tok) for tok in tokens[1:4])
    if min(d, n, m) < 0:
        raise ValueError(f"bad cube header: negative value in {' '.join(tokens[:4])!r}")
    CubeSet(d, n, ())  # a zero dimension is named before the value count
    expected, power = m, 0
    while power < d and n > 1 and 0 < expected <= SIZE_LIMIT:
        expected, power = expected * n, power + 1
    if expected > SIZE_LIMIT:
        raise ValueError(f"m*n^d = {m}*{n}^{d} exceeds the size limit {SIZE_LIMIT}")
    values = [int(tok) for tok in tokens[4:]]
    if len(values) != expected:
        raise ValueError(f"cube file has {len(values)} values, expected m*n^d = {expected}")
    volume = expected // m if m else 0
    tables = [tuple(values[i * volume : (i + 1) * volume]) for i in range(m)]
    for table in tables:
        check_cube_symbols_reference(n, table)
    return CubeSet(d, n, tuple(LatinCube(d, n, table) for table in tables))


def min_cover_binary_pairs(k: int) -> int:
    """Least N with C(N-1, ceil(N/2)) >= k: the minimum cover of G(k, 2) at ell = 2.

    This is the binary strength-2 covering-array number (Kleitman and Spencer
    1973; Katona 1973).
    """
    size = 2
    while comb(size - 1, -(-size // 2)) < k:
        size += 1
    return size


def exact_cover_size_reference(
    k: int, n: int, ell: int, budget: int = DEFAULT_BUDGET
) -> int | None:
    """Minimum number of blocks covering every projection, or None on budget exhaustion.

    The set-based search partite shipped before its bitmask rewrite, kept
    verbatim apart from this paragraph as a differential reference.

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


def exact_cover_size_recursive(
    k: int, n: int, ell: int, budget: int = DEFAULT_BUDGET
) -> int | None:
    """Minimum number of blocks covering every projection, or None on budget exhaustion.

    The bitmask search partite shipped before it decided each child's prune
    in its parent's sibling loop, kept verbatim apart from this docstring as
    a differential reference: one recursive call per child, each counted as
    a node and pruned on entry.  Both searches visit the same tree, so every
    budget gives both the same outcome.
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
