"""Brute-force oracles shared across test modules.

These deliberately re-count projections cell by cell with nested loops, so
they stay independent of the library's bucket-counting passes.  The text
format oracles convert and join one token at a time.
"""

from itertools import combinations, product

from partite import BlockFamily, CubeSet, LatinCube, Params


def first_projection_offense(family: BlockFamily, allowed=(1,)):
    """First (positions, values, capped hit count) with count not in allowed, or None."""
    k, n, ell = family.params.k, family.params.n, family.params.ell
    for positions in combinations(range(1, k + 1), ell):
        for values in product(range(1, n + 1), repeat=ell):
            hits = sum(
                1
                for block in family.blocks
                if all(block[s - 1] == v for s, v in zip(positions, values))
            )
            if min(hits, 2) not in allowed:
                return positions, values, min(hits, 2)
    return None


def _cube_value(cube: LatinCube, coords) -> int:
    """Table entry at 1-based coords, last coordinate fastest."""
    flat = 0
    for x in coords:
        flat = flat * cube.n + (x - 1)
    return cube.table[flat]


def first_latin_offense(cube: LatinCube):
    """First (axis, fixed other coordinates) whose line is not a permutation, or None."""
    d, n = cube.d, cube.n
    for axis in range(1, d + 1):
        for fixed in product(range(1, n + 1), repeat=d - 1):
            line = [
                _cube_value(cube, fixed[: axis - 1] + (j,) + fixed[axis - 1 :])
                for j in range(1, n + 1)
            ]
            if sorted(line) != list(range(1, n + 1)):
                return axis, fixed
    return None


def first_orthogonal_offense(cube_set: CubeSet):
    """First (1-based cube subset, image, capped hit count) with count != 1, or None."""
    d, n, cubes = cube_set.d, cube_set.n, cube_set.cubes
    domain = list(product(range(1, n + 1), repeat=d))
    for subset in combinations(range(1, len(cubes) + 1), d):
        for image in product(range(1, n + 1), repeat=d):
            hits = sum(
                1
                for x in domain
                if all(_cube_value(cubes[i - 1], x) == v for i, v in zip(subset, image))
            )
            if hits != 1:
                return subset, image, min(hits, 2)
    return None


def lifted_family(cube_set: CubeSet) -> BlockFamily:
    """The lift built point by point: cube values at x, then x, for every x."""
    d, n, cubes = cube_set.d, cube_set.n, cube_set.cubes
    blocks = tuple(
        tuple(_cube_value(cube, x) for cube in cubes) + x
        for x in product(range(1, n + 1), repeat=d)
    )
    return BlockFamily(Params(len(cubes) + d, n, d), blocks)


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
    for cube in cube_set.cubes:
        for start in range(0, len(cube.table), n):
            lines.append(" ".join(str(v) for v in cube.table[start : start + n]))
    return "\n".join(lines) + "\n"


def parse_cubes_reference(text: str) -> CubeSet:
    """A cube file read back with one int() per token; small headers only."""
    tokens = text.split()
    if len(tokens) < 4 or tokens[0] != "cubes":
        raise ValueError("bad cube header")
    d, n, m = (int(tok) for tok in tokens[1:4])
    values = [int(tok) for tok in tokens[4:]]
    if len(values) != m * n**d:
        raise ValueError(f"cube file has {len(values)} values, expected m*n^d = {m * n**d}")
    volume = n**d
    members = tuple(
        LatinCube(d, n, tuple(values[i * volume : (i + 1) * volume])) for i in range(m)
    )
    return CubeSet(d, n, members)
