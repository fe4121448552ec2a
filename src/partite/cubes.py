"""Conversions between block families, Latin cube systems, and MOLS.

Both follow `core.lift_columns`, the lift's one layout: lifting scatters its
columns into one row-major array of sorted rows, and extraction sorts the rows
by their symbols at its positions and slices the free columns out as tables.
The two are inverse at the last ell positions, extraction's default.  Both
sort by scattering each column at its rows' keys in the kernel's projection
(`verify._sorted_rows`); only a lift whose first d columns are not a bijection
goes to the one row sort on big-endian byte lines (`core._sorted_symbols`).
"""

from __future__ import annotations

from pathlib import Path

from . import verify
from .core import (
    BlockFamily,
    CubeSet,
    IndexSet,
    LatinCube,
    Params,
    Witness,
    check_size,
    lift_columns,
)
from .formats import parse_cubes

_DATA_DIR = Path(__file__).parent / "data"

# Order-4 triple of mutually orthogonal 3-cubes whose lift is not extendable.
ORTHOGONAL_NOT_INVERTIBLE_PATH = _DATA_DIR / "orthogonal_not_invertible_d3_n4.cubes"


def _require_exact(problem: str, witness: Witness | None) -> None:
    """Refuse an input whose exactness check found a witness, naming its first offense."""
    if witness is not None:
        raise ValueError(
            f"{problem} (first offense at positions {witness.index_set}, "
            f"values {witness.values}, multiplicity {witness.multiplicity})"
        )


def extract_cubes(family: BlockFamily, positions: IndexSet | None = None) -> CubeSet:
    """One cube per free colour class, read off the unique matching blocks.

    Cube j maps (x_1..x_ell) to t(j) where t is the unique block whose symbols
    at `positions` are (x_1..x_ell); the cubes come back in ascending j.  The
    family must be an exact decomposition and `positions` an ell-subset of
    {1..k} in increasing order, by default (None) the last ell positions.

    Every returned cube is Latin for any choice of positions; the returned
    system is guaranteed mutually invertible only for the default, the lift's
    inverse: lift_cubes puts the grid at the last ell positions.
    """
    k, n, ell = family.params.k, family.params.n, family.params.ell
    if positions is None:  # valid by Params, and lazy: nothing grows with k before the guard
        positions = range(k - ell + 1, k + 1)
    elif len(positions := tuple(positions)) != ell or any(
        not 1 <= s <= k for s in positions
    ) or any(a >= b for a, b in zip(positions, positions[1:])):
        raise ValueError(
            f"positions must be {ell} strictly increasing values in 1..{k}, got {positions}"
        )
    _require_exact("family is not an exact decomposition", verify.is_l_extendable(family).witness)
    # exactness makes the keys at positions a bijection: rows sorted by them,
    # positions first, hold the free columns in row-major order, like the tables
    taken = set(positions)
    order = [*positions, *(j for j in range(1, k + 1) if j not in taken)]
    symbols = verify._sorted_rows(lambda c: family._column(order[c - 1]), k, ell, n)
    tables = (symbols[c::k] for c in range(ell, k))  # the family's symbols passed its range check
    return CubeSet(ell, n, tuple(LatinCube._from_symbols(ell, n, table) for table in tables))


def lift_cubes(cube_set: CubeSet) -> BlockFamily:
    """The family of (m + d)-tuples (cube values at x, then x), one per domain point.

    Makes no exactness claim: lifts of merely-orthogonal cube systems can
    leave projections uncovered.
    """
    d, n = cube_set.d, cube_set.n
    check_size(f"n^d = {n}^{d}", n, d)
    m = len(cube_set.cubes)
    check_size(f"(m+d)*n^d = {m + d}*{n}^{d}", n, d, factor=m + d)  # the symbols it writes
    column = lift_columns([cube._symbols for cube in cube_set.cubes], d, n)
    symbols = verify._sorted_rows(column, m + d, d, n)  # sorted only if first-d prefixes collide
    return BlockFamily._from_symbols(Params(m + d, n, d), symbols, set(symbols))


def mols_to_blocks(squares: CubeSet) -> BlockFamily:
    """Lift a system of mutually orthogonal Latin squares into an exact family.

    Same output as lift_cubes, but refused unless the squares are mutually
    invertible, which by the paper's main theorem makes the lift exact.  At
    d = 2 invertibility is the Latin property plus orthogonality: the lift's
    column pairs are two squares, a square and a grid axis, or the grid itself.
    """
    if squares.d != 2:
        raise ValueError(f"squares must have dimension 2, got d={squares.d}")
    family = lift_cubes(squares)  # its n^d guard comes before the check's
    w = verify.is_mutually_invertible(squares).witness
    if w is not None:  # at ell = 2, invertible iff Latin and orthogonal
        a, b = w.index_set
        _require_exact(f"squares {w.index_set} are not orthogonal" if b <= len(squares.cubes)
                       else f"square {a} is not Latin", w)
    return family


def blocks_to_mols(family: BlockFamily) -> CubeSet:
    """The k-2 squares of an exact 2-decomposition, extracted at the last two positions."""
    if family.params.ell != 2:
        raise ValueError(f"a 2-decomposition is required (ell={family.params.ell})")
    return extract_cubes(family)


def orthogonal_not_invertible_cubes() -> CubeSet:
    """Load the packaged order-4 counterexample triple from its cube file."""
    return parse_cubes(ORTHOGONAL_NOT_INVERTIBLE_PATH.read_text())
