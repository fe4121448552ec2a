"""Brute-force oracles shared across test modules.

These deliberately re-count projections cell by cell with nested loops, so
they stay independent of the library's bucket-counting passes.
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
