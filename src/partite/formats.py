"""The two text file formats and the witness line.

Block files: header `blocks k n l count`, then `count` lines of k symbols,
sorted lexicographically.  Cube files: header `cubes d n m`, then for each
cube n^(d-1) lines of n symbols, last coordinate fastest.  Both formats are
LF-terminated with single spaces and no trailing whitespace, so identical
objects always serialize to identical bytes.
"""

from __future__ import annotations

from .core import BlockFamily, CubeSet, LatinCube, Params, Witness, check_size


class _Tokens(dict):
    """One file's token -> int(token) memo: int() runs once per distinct token.

    Holds only tokens the file contains, so its size never depends on a header.
    """

    def __missing__(self, token: str) -> int:
        value = self[token] = int(token)
        return value


def format_blocks(family: BlockFamily) -> str:
    p = family.params
    row = " ".join(["%d"] * p.k)
    lines = [f"blocks {p.k} {p.n} {p.ell} {len(family.blocks)}"]
    lines.extend(row % block for block in family.blocks)
    return "\n".join(lines) + "\n"


def parse_blocks(text: str) -> BlockFamily:
    lines = list(filter(str.strip, text.splitlines()))
    if not lines:
        raise ValueError("empty block file")
    header = lines[0].split()
    if len(header) != 5 or header[0] != "blocks":
        raise ValueError(f"bad block header: {lines[0]!r}")
    k, n, ell, count = (int(tok) for tok in header[1:])
    if len(lines) - 1 != count:
        raise ValueError(f"header says {count} blocks, file has {len(lines) - 1}")
    symbol = _Tokens().__getitem__
    blocks = [tuple(map(symbol, line.split())) for line in lines[1:]]
    return BlockFamily(Params(k, n, ell), tuple(blocks))


def format_cubes(cube_set: CubeSet) -> str:
    d, n = cube_set.d, cube_set.n
    row = " ".join(["%d"] * n)
    lines = [f"cubes {d} {n} {len(cube_set.cubes)}"]
    for cube in cube_set.cubes:
        table = cube.table
        lines.extend(row % table[start : start + n] for start in range(0, len(table), n))
    return "\n".join(lines) + "\n"


def parse_cubes(text: str) -> CubeSet:
    tokens = text.split()
    if len(tokens) < 4 or tokens[0] != "cubes":
        raise ValueError("bad cube header")
    d, n, m = (int(tok) for tok in tokens[1:4])
    if min(d, n, m) < 0:
        raise ValueError(f"bad cube header: negative value in {' '.join(tokens[:4])!r}")
    expected = check_size(f"m*n^d = {m}*{n}^{d}", n, d, factor=m)
    values = list(map(_Tokens().__getitem__, tokens[4:]))
    if len(values) != expected:
        raise ValueError(
            f"cube file has {len(values)} values, expected m*n^d = {expected}"
        )
    volume = expected // m if m else 0
    members = tuple(
        LatinCube(d, n, tuple(values[i * volume : (i + 1) * volume]))
        for i in range(m)
    )
    return CubeSet(d, n, members)


def format_witness(witness: Witness) -> str:
    kind = "MISS" if witness.multiplicity == 0 else "DUP"
    positions = ",".join(str(s) for s in witness.index_set)
    values = ",".join(str(v) for v in witness.values)
    return f"{kind} {positions} : {values}"
