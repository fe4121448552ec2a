"""Conversions between block families, Latin cube systems, and MOLS.

Extraction reads the free coordinates of an exact family off its unique
blocks; lifting tabulates cube values and appends the domain coordinates.
The two are inverse to each other at the canonical (last ell) positions.
"""

from __future__ import annotations

from itertools import product, repeat
from operator import add
from pathlib import Path

from . import verify
from .core import (
    BlockFamily,
    CubeSet,
    IndexSet,
    LatinCube,
    Params,
    Verdict,
    check_size,
    flatten_coords,
)
from .formats import parse_cubes

_DATA_DIR = Path(__file__).parent / "data"

# Order-4 triple of mutually orthogonal 3-cubes whose lift is not extendable.
ORTHOGONAL_NOT_INVERTIBLE_PATH = _DATA_DIR / "orthogonal_not_invertible_d3_n4.cubes"


def extract_cubes(family: BlockFamily, positions: IndexSet) -> CubeSet:
    """One cube per free colour class, read off the unique matching blocks.

    Cube j maps (x_1..x_ell) to t(j) where t is the unique block whose symbols
    at `positions` are (x_1..x_ell); the cubes come back in ascending j.  The
    family must be an exact decomposition and `positions` an ell-subset of
    {1..k} in increasing order.

    Every returned cube is Latin for any choice of positions; the returned
    system is guaranteed mutually invertible only for the canonical last-ell
    positions (lift_cubes inverts exactly that choice).
    """
    k, n, ell = family.params.k, family.params.n, family.params.ell
    positions = tuple(positions)
    if len(positions) != ell or any(
        not 1 <= s <= k for s in positions
    ) or any(a >= b for a, b in zip(positions, positions[1:])):
        raise ValueError(
            f"positions must be {ell} strictly increasing values in 1..{k}, got {positions}"
        )
    report = verify.is_l_extendable(family)
    if report.verdict is not Verdict.EXACT:
        w = report.witness
        raise ValueError(
            "family is not an exact decomposition "
            f"(first offense at positions {w.index_set}, values {w.values}, "
            f"multiplicity {w.multiplicity})"
        )
    free = [j for j in range(1, k + 1) if j not in positions]
    tables = {j: [0] * n**ell for j in free}
    for block in family.blocks:
        flat = flatten_coords((block[s - 1] for s in positions), n)
        for j in free:
            tables[j][flat] = block[j - 1]
    cubes = tuple(LatinCube(ell, n, tuple(tables[j])) for j in free)
    return CubeSet(ell, n, cubes)


def lift_cubes(cube_set: CubeSet) -> BlockFamily:
    """The family of (m + d)-tuples (cube values at x, then x), one per domain point.

    Makes no exactness claim: lifts of merely-orthogonal cube systems can
    leave projections uncovered.
    """
    d, n = cube_set.d, cube_set.n
    volume = check_size(f"n^d = {n}^{d}", n, d)
    tables = [cube.table for cube in cube_set.cubes]
    values = zip(*tables) if tables else repeat((), volume)
    grid = product(range(1, n + 1), repeat=d)  # row-major, like the tables
    params = Params(len(tables) + d, n, d)
    return BlockFamily(params, tuple(sorted(map(add, values, grid))))


def mols_to_blocks(squares: CubeSet) -> BlockFamily:
    """Lift a system of mutually orthogonal Latin squares into an exact family.

    Same output as lift_cubes, but the preconditions are checked (each square
    Latin; every pair orthogonal when there are two or more) and in return the
    lifted family is guaranteed exact.
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


def blocks_to_mols(family: BlockFamily) -> CubeSet:
    """The k-2 squares of an exact 2-decomposition, extracted at the last two positions."""
    if family.params.ell != 2:
        raise ValueError(f"a 2-decomposition is required (ell={family.params.ell})")
    k = family.params.k
    return extract_cubes(family, (k - 1, k))


def orthogonal_not_invertible_cubes() -> CubeSet:
    """Load the packaged order-4 counterexample triple from its cube file."""
    return parse_cubes(ORTHOGONAL_NOT_INVERTIBLE_PATH.read_text())
