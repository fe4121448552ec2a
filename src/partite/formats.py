"""The two text file formats and the witness line.

Block files: header `blocks k n l count`, then `count` lines of k symbols,
sorted lexicographically; a parse splits the text into lines about 64 KiB at a
time, counts them and converts them into one row-major array("I"), and reads
rows only to name a wrong count, a broken line or a token.  Cube files: header
`cubes d n m`, then for each cube n^(d-1) lines of n symbols, last coordinate
fastest; a parse converts the body about 64 KiB of text at a time into one
array("I"), and each cube keeps its slice.  Both formats are LF-terminated with single
spaces and no trailing whitespace, so identical objects always serialize to
identical bytes; both writers join about 4,096 lines at a time, so no output
holds a str per line.
"""

from __future__ import annotations

import re
from array import array
from itertools import chain, islice

from .core import BlockFamily, CubeSet, LatinCube, Params, Witness, _check_symbols, check_size

_CUBE_HEADER = re.compile(r"\s*(\S+)\s+(\S+)\s+(\S+)\s+(\S+)")  # the first four tokens
_SPACE = re.compile(r"\s")  # the whitespace str.split() splits at
_CUBE_CHUNK = 1 << 16  # characters of cube body text split at a time
_BLOCK_CHUNK = 1 << 16  # characters of block file text split into lines at a time


class _Tokens(dict):
    """One file's token -> int(token) memo: int() runs once per distinct token.

    Holds only tokens the file contains, so its size never depends on a header.
    """

    def __missing__(self, token: str) -> int:
        value = self[token] = int(token)
        return value


def _joined(header: str, width: int, rows) -> str:
    """The header line, then one line of width symbols per row, 4,096 lines a join.

    The row template, width fields long, is built only once a row exists: a
    header-only file may declare any width.
    """
    rows, parts = iter(rows), [header + "\n"]
    for first in rows:  # runs at most once: the joins below take every other row
        row = " ".join(["%d"] * width) + "\n"
        parts.append(row % first)
        while chunk := "".join(map(row.__mod__, islice(rows, 4096))):
            parts.append(chunk)
    return "".join(parts)


def format_blocks(family: BlockFamily) -> str:
    p = family.params
    return _joined(f"blocks {p.k} {p.n} {p.ell} {len(family.blocks)}", p.k, family.blocks)


def _line_chunks(text: str):
    """The non-blank lines of text, one list per cut of about _BLOCK_CHUNK characters.

    Each cut ends just after a "\\n", so no line and no "\\r\\n" is split, and
    splitlines reads every line as it would read the whole text.
    """
    start = 0
    while start < len(text):
        cut = text.find("\n", start + _BLOCK_CHUNK)
        end = len(text) if cut < 0 else cut + 1
        yield list(filter(str.strip, text[start:end].splitlines()))
        start = end


def _converted(chunks, k: int, count: int, memo: _Tokens) -> array | None:
    """The k symbols of each of count lines in one array, or None on a wrong count or a break.

    One cut's lines and tokens are held at a time; the lines are counted as
    they come.
    """
    symbols, seen = array("I"), 0
    for lines in chunks:
        seen += len(lines)
        tokens = (" ; ".join(lines) + " ;").split()  # a ";" marker ends each line
        if len(tokens) != (k + 1) * len(lines):
            return None
        del tokens[k :: k + 1]  # the markers if each line holds k tokens, else one fails int()
        try:
            symbols.extend(map(memo.__getitem__, tokens))
        except (ValueError, OverflowError):  # no int, or one outside 0..2^32-1
            return None
    return symbols if seen == count else None


def parse_blocks(text: str) -> BlockFamily:
    chunks = filter(None, _line_chunks(text))
    lines = next(chunks, None)
    if lines is None:
        raise ValueError("empty block file")
    header = lines[0].split()
    if len(header) != 5 or header[0] != "blocks":
        raise ValueError(f"bad block header: {lines[0]!r}")
    k, n, ell, count = (int(tok) for tok in header[1:])
    memo = _Tokens()
    # as written, each of the count + 1 lines ends in one "\n"; any other file is
    # counted before a line is converted, so a wrong count costs no conversion
    if text.count("\n") == count + 1 or sum(map(len, _line_chunks(text))) == count + 1:
        symbols = _converted(filter(None, chain([lines[1:]], chunks)), k, count, memo)
        if symbols is not None:
            return BlockFamily._from_symbols(Params(k, n, ell), symbols, memo.values())
    # a wrong count or a broken line: read the file by rows, to name the count first
    lines = list(filter(str.strip, text.splitlines()))[1:]
    if len(lines) != count:
        raise ValueError(f"header says {count} blocks, file has {len(lines)}")
    blocks = [tuple(map(memo.__getitem__, line.split())) for line in lines]
    return BlockFamily(Params(k, n, ell), tuple(blocks))  # int() or this names the first break


def format_cubes(cube_set: CubeSet) -> str:
    d, n = cube_set.d, cube_set.n
    lines = chain.from_iterable(zip(*[iter(c._table())] * n) for c in cube_set.cubes)
    return _joined(f"cubes {d} {n} {len(cube_set.cubes)}", n, lines)


def parse_cubes(text: str) -> CubeSet:
    header = _CUBE_HEADER.match(text)
    if header is None or header[1] != "cubes":
        raise ValueError("bad cube header")
    d, n, m = (int(tok) for tok in header.groups()[1:])
    if min(d, n, m) < 0:
        raise ValueError(f"bad cube header: negative value in {' '.join(header.groups())!r}")
    CubeSet(d, n, ())  # the header's geometry, before its value count
    expected = check_size(f"m*n^d = {m}*{n}^{d}", n, d, factor=m)
    memo, values, start = _Tokens(), array("I"), header.end()
    try:
        while start < len(text):  # cut after a whitespace character, so no token is split
            cut = _SPACE.search(text, start + _CUBE_CHUNK)
            end = cut.end() if cut else len(text)
            values.extend(map(memo.__getitem__, text[start:end].split()))
            start = end
    except OverflowError:  # a value outside 0..2^32-1; int() may yet fail on a later token
        values = list(map(memo.__getitem__, text[header.end() :].split()))
    if len(values) != expected:
        raise ValueError(
            f"cube file has {len(values)} values, expected m*n^d = {expected}"
        )
    _check_symbols(values, n, memo.values())  # the whole file's range, decided once
    volume = expected // m if m else 0
    members = tuple(
        LatinCube._from_symbols(d, n, values[i * volume : (i + 1) * volume]) for i in range(m)
    )
    return CubeSet(d, n, members)


def format_witness(witness: Witness) -> str:
    kind = "MISS" if witness.multiplicity == 0 else "DUP"
    positions = ",".join(str(s) for s in witness.index_set)
    values = ",".join(str(v) for v in witness.values)
    return f"{kind} {positions} : {values}"
