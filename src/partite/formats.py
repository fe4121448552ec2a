"""The two text file formats and the witness line.

Block files: header `blocks k n l count`, then `count` lines of k symbols,
sorted lexicographically; a parse splits the text into lines about 64 KiB at a
time, counts them and converts them into one row-major array("I").  Cube files:
header `cubes d n m`, then for each cube n^(d-1) lines of n symbols, last
coordinate fastest; a parse converts the body about 64 KiB of text at a time
into one array("I"), and each cube keeps its slice.  From _SPLIT_CHARS
characters on, either body is cut into one span per CPU, each parsed by its own
process (_runs.in_runs); a span that does not fit the array (a broken line, a
token int() refuses, a value outside 0..2^32-1) returns () and takes back its
items, ending the runs.  Such a file, or one with a wrong count, is named here
by one naming pass (core._first_refused) over the same cuts, holding one cut's
items at a time; this module cuts and converts text, and core decides the
range 1..n.  Both formats are LF-terminated with single spaces and no trailing
whitespace, so identical objects always serialize to identical bytes.  Both
writers read one flat run of symbols (a family's array, or a cube set's arrays
chained), write each through a memo of its text ("v ", or "v\\n" where it
ends a line) and join about 2^13 symbols at a time, so no output holds a str
per line or a row tuple.
"""

from __future__ import annotations

import re
import sys
from array import array
from itertools import chain, islice, repeat
from operator import not_

from ._runs import in_runs
from .core import _SYMBOL_CAP, BlockFamily, CubeSet, LatinCube, Params, Witness, check_size
from .core import _bounds, _check_block, _check_symbols, _first_refused, _rows_fit, _within

_CUBE_HEADER = re.compile(r"\s*(\S+)\s+(\S+)\s+(\S+)\s+(\S+)")  # the first four tokens
_SPACE = re.compile(r"\s")  # the whitespace str.split() splits at
# where str.splitlines() breaks a line; a cut inside "\r\n" leaves a blank line
_NEWLINE = re.compile("[\n\r\v\f\x1c-\x1e\x85\u2028\u2029]")
_CHUNK = 1 << 16  # characters of body text a parse splits at a time
# characters below which one process parses a text: a fork and its reply cost
# about what a split saves (2-CPU host; the (7,49,3) block file is 2.3 MB)
_SPLIT_CHARS = 1 << 18
# symbols a writer joins at a time, in whole lines: 1,024 lines of 8, a 64 KiB
# token list (2^11 to 2^16 wrote as fast; 4,096 lines of 49 are 200,704 tokens)
_WRITE_CHUNK = 1 << 13


class _Tokens(dict):
    """A memo of make(key), int(token) unless given: make runs once per distinct key.

    A parse maps a file's tokens to symbols through one, and the writers map
    symbols to their text.  It holds only keys the file or output contains, so
    its size never depends on a header.
    """

    def __init__(self, make=int):
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def _joined(header: str, width: int, symbols) -> str:
    """The header line, then symbols, width a line, about _WRITE_CHUNK symbols a join.

    Each symbol is written through one memo as "v " and, where it ends a line,
    through a second that maps "v " to "v\\n", so no line or row is formed.  A
    join holds whole lines, at most sys.maxsize symbols: a header-only file may
    declare any width.
    """
    symbols, spaced, ended = iter(symbols), _Tokens("{} ".format), _Tokens(lambda t: t[:-1] + "\n")
    parts, size = [header + "\n"], min(max(width, _WRITE_CHUNK) // width * width, sys.maxsize)
    while tokens := list(map(spaced.__getitem__, islice(symbols, size))):
        tokens[width - 1 :: width] = map(ended.__getitem__, tokens[width - 1 :: width])
        parts.append("".join(tokens))
    return "".join(parts)


def format_blocks(family: BlockFamily) -> str:
    p, symbols = family.params, family._symbols
    return _joined(f"blocks {p.k} {p.n} {p.ell} {len(symbols) // p.k}", p.k, symbols)


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
    """in_runs of work(begin, end) on text[start:] in spans, one per CPU from _SPLIT_CHARS.

    A span whose result is () takes back the items it appended to out, so a
    child that fails replies none.
    """

    def edge(j: int, w: int) -> int:
        return start if j == 0 else _past(cut, text, max(start, len(text) * j // w))

    def run(i: int, w: int) -> tuple:
        mark = len(out)
        if not (result := work(edge(i, w), edge(i + 1, w))):
            del out[mark:]
        return result

    most = 1 if len(text) < _SPLIT_CHARS else len(text)  # in_runs caps it at the CPUs
    return in_runs(most, run, not_, out)


def _line_chunks(text: str, start: int = 0, stop: int | None = None, size: int = _CHUNK):
    """The non-blank lines of text[start:stop], one list per cut of about size characters.

    Each cut ends just after a line break, so splitlines reads the lines as in the whole text.
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


def parse_blocks(text: str) -> BlockFamily:
    lines = next(filter(None, _line_chunks(text, size=0)), None)  # a line at a time
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
            return () if seen is None else (seen, *_bounds(memo.values()))

        spans = _in_spans(text, head, _NEWLINE, symbols, convert)
        if all(spans) and sum(s[0] for s in spans) == count:
            distinct = [v for s in spans for v in s[1:]]
            return BlockFamily._from_symbols(Params(k, n, ell), symbols, distinct)
    # named in parse_blocks_reference's order: the count (which blank lines can hide
    # from the "\n"s), a token int() refuses, Params, then the first bad block
    if (found := sum(map(len, _line_chunks(text, head))) if found is None else found) != count:
        raise ValueError(f"header says {count} blocks, file has {found}")
    top = min(n, _SYMBOL_CAP)  # the array's range: a greater symbol is refused even within 1..n
    rows = (list(map(tuple, map(map, repeat(memo.__getitem__), map(str.split, chunk))))
            for chunk in _line_chunks(text, head))
    first = _first_refused(rows, lambda held: _rows_fit(held, k, top))[1]
    _check_block(first, Params(k, top, ell))  # Params(k, n, ell)'s message, if it has one


def format_cubes(cube_set: CubeSet) -> str:
    d, n, cubes = cube_set.d, cube_set.n, cube_set.cubes
    return _joined(f"cubes {d} {n} {len(cubes)}", n, chain.from_iterable(c._symbols for c in cubes))


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

    def convert(start: int, stop: int) -> tuple:
        """The least and greatest value so far; () at a token int() or the array refuses."""
        try:
            for piece in _pieces(text, start, stop, _SPACE, _CHUNK):
                values.extend(map(memo.__getitem__, piece.split()))
        except (ValueError, OverflowError):  # no int, or one outside 0..2^32-1
            return ()
        return _bounds(memo.values())

    spans = _in_spans(text, header.end(), _SPACE, values, convert)
    seen, distinct = len(values), [v for s in spans for v in s]
    if not all(spans):  # int()'s message, or a value outside 0..2^32-1, so outside 1..n
        del values[:]  # named again below, a chunk at a time
        chunks = (list(map(memo.__getitem__, piece.split()))
                  for piece in _pieces(text, header.end(), len(text), _SPACE, _CHUNK))
        seen, first, _ = _first_refused(chunks, lambda held: _within(held, n))
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
