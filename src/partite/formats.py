"""The two text file formats and the witness line.

Block files: header `blocks k n l count`, then `count` lines of k symbols,
sorted lexicographically; a parse splits the text into lines about 64 KiB at a
time, counts them and converts them into one row-major array("I").  Cube files:
header `cubes d n m`, then for each cube n^(d-1) lines of n symbols, last
coordinate fastest; a parse converts the body about 64 KiB of text at a time
into one array("I"), and each cube keeps its slice.  From _SPLIT_CHARS
characters on, either body is cut into one span per CPU, each parsed by its own
process (_runs.in_runs).  A file that does not fit its array (a wrong count, a
broken line, a token int() refuses, a value outside 0..2^32-1) is named in this
process by one naming pass (_named) over the same cuts, which holds one cut's
rows or values at a time and keeps only their count and the first bad one.
Both formats are LF-terminated with single spaces and no trailing whitespace,
so identical objects always serialize to identical bytes; both writers join
about 4,096 lines at a time, so no output holds a str per line.
"""

from __future__ import annotations

import re
from array import array
from itertools import chain, islice
from operator import not_

from ._runs import in_runs
from .core import BlockFamily, CubeSet, LatinCube, Params, Witness, check_size
from .core import _check_block, _check_symbols

_CUBE_HEADER = re.compile(r"\s*(\S+)\s+(\S+)\s+(\S+)\s+(\S+)")  # the first four tokens
_SPACE = re.compile(r"\s")  # the whitespace str.split() splits at
_NEWLINE = re.compile("\n")
_CUBE_CHUNK = 1 << 16  # characters of cube body text split at a time
_BLOCK_CHUNK = 1 << 16  # characters of block file text split into lines at a time
# characters below which one process parses a text: a fork and its reply cost
# about what a split saves (2-CPU host; the (7,49,3) block file is 2.3 MB)
_SPLIT_CHARS = 1 << 18


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
    p, symbols = family.params, family._symbols
    count = len(family.blocks) if symbols is None else len(symbols) // p.k
    return _joined(f"blocks {p.k} {p.n} {p.ell} {count}", p.k, family._rows())


def _past(cut: re.Pattern, text: str, at: int) -> int:
    """The offset just past cut's first match at or after at, or len(text)."""
    match = cut.search(text, at)
    return match.end() if match else len(text)


def _pieces(text: str, start: int, stop: int, cut: re.Pattern, size: int):
    """text[start:stop] in pieces of about size characters, each ending just past a cut."""
    while start < stop:
        end = min(_past(cut, text, start + size), stop)
        yield text[start:end]
        start = end


def _in_spans(text: str, start: int, cut: re.Pattern, out: array, work) -> list[tuple]:
    """in_runs of work(begin, end) on text[start:] in spans, one per CPU from _SPLIT_CHARS."""

    def edge(j: int, w: int) -> int:
        return start if j == 0 else _past(cut, text, max(start, len(text) * j // w))

    most = 1 if len(text) < _SPLIT_CHARS else len(text)  # in_runs caps it at the CPUs
    return in_runs(most, lambda i, w: work(edge(i, w), edge(i + 1, w)), not_, out)


def _bounds(memo: _Tokens) -> tuple[int, int]:
    """memo's least and greatest value, or (1, 1), which every range 1..n holds."""
    return min(memo.values(), default=1), max(memo.values(), default=1)


def _line_chunks(text: str, start: int = 0, stop: int | None = None, size: int = _BLOCK_CHUNK):
    """The non-blank lines of text[start:stop], one list per cut of about size characters.

    Each cut ends just after a "\\n", so splitlines reads the lines as in the whole text.
    """
    for piece in _pieces(text, start, len(text) if stop is None else stop, _NEWLINE, size):
        yield list(filter(str.strip, piece.splitlines()))


def _converted(chunks, k: int, symbols: array, memo: _Tokens) -> int | None:
    """The count of lines, their k symbols each appended to symbols; None on a broken line."""
    seen = 0
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
    return seen


def _named(chunks, bad) -> tuple[int, object]:
    """The count of the items in chunks, and the first that bad holds for, or None.

    Each chunk is a list of one cut's rows or values, converted through the
    file's _Tokens memo as the caller's generator yields it, so int() raises on
    the first bad token in file order, and only the count and one item are kept.
    """
    seen, first = 0, None
    for held in chunks:
        seen, first = seen + len(held), next(filter(bad, held), None) if first is None else first
    return seen, first


def parse_blocks(text: str) -> BlockFamily:
    lines = next(filter(None, _line_chunks(text, size=0)), None)  # a "\n" at a time
    if lines is None:
        raise ValueError("empty block file")
    header = lines[0].split()
    if len(header) != 5 or header[0] != "blocks":
        raise ValueError(f"bad block header: {lines[0]!r}")
    k, n, ell, count = (int(tok) for tok in header[1:])
    head = text.index(lines[0]) + len(lines[0])  # the body starts at the header's line end
    memo, symbols = _Tokens(), array("I")
    # as written, each of the count + 1 lines ends in one "\n"; any other file has
    # its lines counted before one is converted, so a wrong count costs no conversion
    found = None if text.count("\n") == count + 1 else sum(map(len, _line_chunks(text, head)))
    if found in (None, count):

        def convert(start: int, stop: int) -> tuple:
            """text[start:stop]'s line count, then the least and greatest symbol so far; or ()."""
            seen = _converted(filter(None, _line_chunks(text, start, stop)), k, symbols, memo)
            return () if seen is None else (seen, *_bounds(memo))

        spans = _in_spans(text, head, _NEWLINE, symbols, convert)
        if all(spans) and sum(s[0] for s in spans) == count:
            distinct = [v for s in spans for v in s[1:]]
            return BlockFamily._from_symbols(Params(k, n, ell), symbols, distinct)
    # named in parse_blocks_reference's order: the count (which blank lines can hide
    # from the "\n"s), a token int() refuses, Params, then the first bad block
    if (found := sum(map(len, _line_chunks(text, head))) if found is None else found) != count:
        raise ValueError(f"header says {count} blocks, file has {found}")
    top = min(n, 2**32 - 1)  # the array's range: a greater symbol is refused even within 1..n
    rows = ([tuple(map(memo.__getitem__, line.split())) for line in chunk]
            for chunk in _line_chunks(text, head))
    _, first = _named(rows, lambda row: len(row) != k or not 1 <= min(row) <= max(row) <= top)
    _check_block(first, Params(k, top, ell))  # Params(k, n, ell)'s message, if it has one


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
    memo, values = _Tokens(), array("I")

    def convert(start: int, stop: int) -> tuple[int, int]:
        """The least and greatest value so far: never (), so no span ends the runs early."""
        for piece in _pieces(text, start, stop, _SPACE, _CUBE_CHUNK):
            values.extend(map(memo.__getitem__, piece.split()))
        return _bounds(memo)

    try:
        distinct = [v for s in _in_spans(text, header.end(), _SPACE, values, convert) for v in s]
        seen = len(values)
    except OverflowError:  # a value outside 0..2^32-1, so outside 1..n whenever m*n^d > 0
        del values[:]  # named again below, a chunk at a time
        chunks = (list(map(memo.__getitem__, piece.split()))
                  for piece in _pieces(text, header.end(), len(text), _SPACE, _CUBE_CHUNK))
        seen, first = _named(chunks, lambda v: not 1 <= v <= n)
        values = distinct = (first,)  # all the range check below reads
    if seen != expected:
        raise ValueError(f"cube file has {seen} values, expected m*n^d = {expected}")
    _check_symbols(values, n, distinct)  # the whole file's range, decided once
    volume = expected // m if m else 0
    tables = (values[i * volume : (i + 1) * volume] for i in range(m))
    return CubeSet(d, n, tuple(LatinCube._from_symbols(d, n, table) for table in tables))


def format_witness(witness: Witness) -> str:
    kind = "MISS" if witness.multiplicity == 0 else "DUP"
    positions = ",".join(str(s) for s in witness.index_set)
    values = ",".join(str(v) for v in witness.values)
    return f"{kind} {positions} : {values}"
