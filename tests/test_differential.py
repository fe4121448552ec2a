"""Differential tests: every check and both text formats against the oracles in helpers.

Families and cube systems are small and drawn by Hypothesis with a fixed
derandomized seed, so the suite stays deterministic.  Damaged inputs start
from exact constructions and get one change each: a changed symbol, a
dropped or duplicated block, a swapped cube entry, or no blocks at all.
Covering is also checked on exact families with one symbol changed past
position ell, whose first offense lies past the first index set.
Damaged files get one textual change each: a token written as 07, +3, -3, 0,
n+1, 2^32 + 1 or x, an extra or a missing token, a token moved from one line
to another, a line of 2k + 1 tokens, a tab or a doubled space, n+1 and n+2 on
two lines, a blank line, CRLF line ends, or a header number set to 0, -3,
2^32 + 1 or 10^30; or two changes, the second on a later line, that pin the
message order: a short line then x, a blanked line (the "\n" count kept) then
a line of k + 1 tokens, n+1 then a line of k + 1 tokens, -3 then x, and -3
then a missing token.  Files of two parse chunks (1,331 block lines, an 82 KB
cube file) get x, n+1 or -3 at the end of the first chunk, the start of the
second, the last token, or both ends, with LF, CRLF, tab-separated and (cubes)
one-line layouts.  With the parses split across three processes, those
damages are placed at each span cut, and a child's span holds 2^32 + 1.
A header with n = 0 or -1 is named even where a first cut of blank lines
comes before a broken line.  A parsed cube system is compared with the built one.
Both writers are compared with one str() per symbol at widths 1, 7 and 8,
each on both sides of the join seam, with symbols of one to three digits, on
unsorted tuple families with repeated rows, their parsed arrays, cubes of
order 1 and dimension 1, and an empty family and cube set.
`BlockFamily` validation is compared with its earlier per-block loop on
blocks one symbol too short or too long and symbols one outside 1..n.
The lift is compared with the point-by-point lift on any tables, Latin or
not, and extraction with a point-by-point reading of shuffled exact families
at every valid choice of positions.
`LatinCube` validation is compared with its earlier per-symbol loop on
symbols one outside 1..n, and `mols_to_blocks` with its earlier
Latin-then-orthogonal decision on squares of order 1..4 mixing MOLS,
non-Latin and non-orthogonal members.
`construct`, the lift and extraction, which scatter columns into one array,
are compared with the zip and sort of their rows at n = 1, ell = 1, prime
orders, (3, 27, 3) and (7, 49, 3), on lifts whose first d columns collide and
on families with fewer rows than columns.
`product_decomposition` is compared with its earlier block-by-block product
on any two families of orders p != q and on `construct`'s two-prime folds;
`construct`'s prime-power folds, whose left factor has order p^2 or p^3, are
compared with the earlier product chained over the earlier Vandermonde build,
and its column fold, sorted once, with that chain of sorted products at orders
of three factors and of mixed primes.
`fuse` is compared with its earlier set-then-sort fold on unsorted families
with repeated blocks at every target order, and on exact families fused down
from a lifted order; `build_covering`, which fuses the lifted columns before
any family is built, with that fold of the lifted family at prime and
composite lifted orders.  `vandermonde_blocks` is compared, order included,
with its earlier coefficient enumeration and sort at every prime order up to 31.
The minimum-cover search is compared with the earlier set-based search on
every (k, n, ell) with n^k <= 256 that search settles, and with exhaustive
subset search where n^k <= 16.  It is compared with its earlier recursive
body, which pruned each child on entry, at random budgets on the same
instances: both must run out or settle alike, so they visit the same tree.
"""

import os
import re
from functools import reduce
from itertools import chain, combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    check_blocks_reference,
    check_cube_symbols_reference,
    construct_reference,
    exact_cover_size_recursive,
    exact_cover_size_reference,
    extract_cubes_reference,
    extracted_cubes,
    first_latin_offense,
    first_orthogonal_offense,
    first_projection_offense,
    format_blocks_reference,
    format_cubes_reference,
    fuse_reference,
    lift_cubes_reference,
    lifted_family,
    mols_to_blocks_reference,
    parse_blocks_reference,
    parse_cubes_reference,
    product_decomposition_reference,
    vandermonde_blocks_reference,
)

from partite import (
    BlockFamily,
    CubeSet,
    LatinCube,
    Params,
    Verdict,
    are_mutually_orthogonal,
    build_covering,
    construct,
    exact_cover_size,
    extract_cubes,
    factorize,
    fuse,
    is_covering,
    is_l_extendable,
    is_latin,
    is_mutually_invertible,
    lift_cubes,
    lifting_order,
    mols_to_blocks,
    product_decomposition,
    vandermonde_blocks,
    verify,
)
from partite import _runs, formats
from partite.cli import format_blocks, format_cubes, parse_blocks, parse_cubes
from partite.construct import is_prime
from partite.formats import _CHUNK as _BLOCK_CHUNK, _CHUNK as _CUBE_CHUNK, _WRITE_CHUNK
from test_cover import brute_force_minimum_cover

EXAMPLES = settings(derandomize=True, deadline=None, max_examples=80)
FORMAT_EXAMPLES = settings(EXAMPLES, max_examples=300)  # text checks are cheap

# (k, n, ell) with an exact construction small enough for the oracles
EXACT = [(2, 3, 2), (3, 3, 2), (4, 5, 2), (5, 5, 2), (3, 2, 1), (3, 3, 3), (4, 5, 3)]


@st.composite
def random_families(draw):
    ell = draw(st.integers(1, 3))
    k = draw(st.integers(ell, 4))
    n = draw(st.integers(1, 3))
    block = st.tuples(*[st.integers(1, n)] * k)
    blocks = draw(st.lists(block, max_size=n**ell + 3))
    return BlockFamily(Params(k, n, ell), tuple(blocks))


@st.composite
def unchecked_blocks(draw):
    """(params, blocks) with block lengths k-1..k+1 and symbols 0..n+1."""
    k, n = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    block = st.integers(k - 1, k + 1).flatmap(
        lambda width: st.tuples(*[st.integers(0, n + 1)] * width)
    )
    return Params(k, n, 1), tuple(draw(st.lists(block, max_size=6)))


@st.composite
def damaged_families(draw):
    k, n, ell = draw(st.sampled_from(EXACT))
    family = construct(k, n, ell)
    blocks = list(family.blocks)
    damage = draw(st.sampled_from(["none", "symbol", "drop", "duplicate", "empty"]))
    i = draw(st.integers(0, len(blocks) - 1))
    if damage == "symbol":
        pos = draw(st.integers(0, k - 1))
        symbol = draw(st.integers(1, n))
        blocks[i] = blocks[i][:pos] + (symbol,) + blocks[i][pos + 1 :]
    elif damage == "drop":
        del blocks[i]
    elif damage == "duplicate":
        blocks.insert(draw(st.integers(0, len(blocks))), blocks[i])
    elif damage == "empty":
        blocks = []
    return BlockFamily(family.params, tuple(blocks))


families = st.one_of(random_families(), damaged_families())


@st.composite
def late_damaged_families(draw):
    """An exact family with one symbol changed past position ell, maybe plus that block again.

    At exact size every index set before the first one holding the changed
    position stays exact, so the first offense lies past the first index set.
    The copy makes n^ell + 1 blocks, which offend in every index set.
    """
    k, n, ell = draw(st.sampled_from([t for t in EXACT if t[0] > t[2]]))
    blocks = list(construct(k, n, ell).blocks)
    i, pos = draw(st.integers(0, len(blocks) - 1)), draw(st.integers(ell, k - 1))
    symbol = draw(st.sampled_from([v for v in range(1, n + 1) if v != blocks[i][pos]]))
    blocks[i] = blocks[i][:pos] + (symbol,) + blocks[i][pos + 1 :]
    if draw(st.booleans()):
        blocks.append(blocks[i])
    return BlockFamily(Params(k, n, ell), tuple(blocks))


@st.composite
def cube_sets(draw):
    if draw(st.booleans()):
        k, n, d = draw(st.sampled_from([t for t in EXACT if t[2] >= 2]))
        extracted = extract_cubes(construct(k, n, d), tuple(range(k - d + 1, k + 1)))
        tables = [list(cube.table) for cube in extracted.cubes]
    else:
        d, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        cell = st.integers(1, n)
        tables = draw(st.lists(st.lists(cell, min_size=n**d, max_size=n**d), max_size=3))
    if tables and draw(st.booleans()):
        table = draw(st.sampled_from(tables))
        i, j = draw(st.integers(0, n**d - 1)), draw(st.integers(0, n**d - 1))
        table[i], table[j] = table[j], table[i]
    return CubeSet(d, n, tuple(LatinCube(d, n, tuple(t)) for t in tables))


def _triple(witness):
    return None if witness is None else (witness.index_set, witness.values, witness.multiplicity)


@settings(EXAMPLES, max_examples=300)
@given(unchecked_blocks())
def test_block_family_validation_matches_per_block_loop(drawn):
    params, blocks = drawn
    try:
        check_blocks_reference(blocks, params)
    except ValueError as error:
        with pytest.raises(ValueError) as raised:
            BlockFamily(params, blocks)
        assert str(raised.value) == str(error)
    else:
        assert BlockFamily(params, blocks).blocks == blocks


@EXAMPLES
@given(families)
def test_exactness_matches_oracle(family):
    report = is_l_extendable(family)
    expected = first_projection_offense(family)
    assert _triple(report.witness) == expected
    assert report.verdict is (Verdict.EXACT if expected is None else Verdict.FAIL)


@settings(EXAMPLES, max_examples=120)
@given(st.one_of(families, late_damaged_families()))
def test_covering_matches_oracle(family):
    report = is_covering(family)
    miss = first_projection_offense(family, allowed=(1, 2))
    dup = first_projection_offense(family, allowed=(0, 1))
    if miss is not None:
        assert (report.verdict, _triple(report.witness)) == (Verdict.FAIL, miss)
    elif dup is not None:
        assert (report.verdict, _triple(report.witness)) == (Verdict.COVER_ONLY, dup)
    else:
        assert (report.verdict, report.witness) == (Verdict.EXACT, None)


@EXAMPLES
@given(cube_sets())
def test_latin_matches_oracle(cube_set):
    for cube in cube_set.cubes:
        check = is_latin(cube)
        expected = first_latin_offense(cube)
        assert check.ok is (expected is None)
        assert (None if check.ok else (check.axis, check.fixed)) == expected


@EXAMPLES
@given(cube_sets())
def test_orthogonality_matches_oracle(cube_set):
    if len(cube_set.cubes) < cube_set.d:
        return  # refused with ValueError; covered in test_verify
    check = are_mutually_orthogonal(cube_set)
    expected = first_orthogonal_offense(cube_set)
    assert check.ok is (expected is None)
    if expected is not None:
        assert (check.cubes, check.values, check.multiplicity) == expected


@EXAMPLES
@given(cube_sets())
def test_invertibility_matches_oracle_on_the_lift(cube_set):
    report = is_mutually_invertible(cube_set)
    expected = first_projection_offense(lifted_family(cube_set))
    assert _triple(report.witness) == expected
    assert report.verdict is (Verdict.EXACT if expected is None else Verdict.FAIL)


def _every_check(subject) -> list:
    """Each check's result on a family, or on a cube set and each of its cubes.

    After each call no child process may be left, reaped or not.
    """
    if isinstance(subject, BlockFamily):
        calls = [is_l_extendable, is_covering]
    else:
        calls = [is_latin] * len(subject.cubes) + [is_mutually_invertible]
        calls += [are_mutually_orthogonal] * (len(subject.cubes) >= subject.d)
    results = []
    for i, call in enumerate(calls):
        results.append(call(subject.cubes[i] if call is is_latin else subject))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    return results


@settings(EXAMPLES, max_examples=100)
@given(st.one_of(families, late_damaged_families(), cube_sets()))
def test_split_checks_match_the_serial_scan(subject):
    # every check forks past its first index set, for up to two children, so
    # late-damaged families and swapped cubes put witnesses in a child's run
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verify, "_SPLIT_CELLS", float("inf"))
        serial = _every_check(subject)
        patch.setattr(verify, "_SPLIT_CELLS", 0)
        patch.setattr(_runs, "_cpus", lambda: 3)
        assert _every_check(subject) == serial


@st.composite
def unchecked_cube_sets(draw):
    """Any m = 0..3 tables of dimension 1..3 and order 1..4, Latin or not."""
    d, n = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    table = st.tuples(*[st.integers(1, n)] * n**d)
    tables = draw(st.lists(table, max_size=3))
    return CubeSet(d, n, tuple(LatinCube(d, n, t) for t in tables))


@EXAMPLES
@given(st.one_of(unchecked_cube_sets(), cube_sets()))
def test_lift_matches_point_by_point_lift(cube_set):
    expected = lifted_family(cube_set)
    assert lift_cubes(cube_set) == BlockFamily(expected.params, tuple(sorted(expected.blocks)))


@EXAMPLES
@given(st.sampled_from(EXACT + [(3, 1, 2)]), st.data())
def test_extraction_matches_point_by_point_reading(params, data):
    k, n, ell = params
    family = construct(k, n, ell)
    shuffled = BlockFamily(family.params, tuple(data.draw(st.permutations(family.blocks))))
    for positions in combinations(range(1, k + 1), ell):
        assert extract_cubes(shuffled, positions) == extracted_cubes(family, positions)



@settings(EXAMPLES, max_examples=300)
@given(st.integers(1, 3).flatmap(lambda d: st.integers(1, 4).flatmap(
    lambda n: st.tuples(st.just(d), st.just(n), st.lists(
        st.integers(0, n + 1), min_size=n**d, max_size=n**d)))))
def test_cube_validation_matches_per_symbol_loop(drawn):
    d, n, table = drawn
    try:
        check_cube_symbols_reference(n, table)
    except ValueError as error:
        with pytest.raises(ValueError) as raised:
            LatinCube(d, n, tuple(table))
        assert str(raised.value) == str(error)
    else:
        assert LatinCube(d, n, tuple(table)).table == tuple(table)


# multiplication in GF(4) on residues 0..3; a + b there is a ^ b
GF4_TIMES = [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 3, 1], [0, 3, 1, 2]]


def _mols(n: int) -> list[list[int]]:
    """n - 1 MOLS of order n (one square for n = 1): c*x + y over Z_n, or over GF(4)."""
    grid = [(x, y) for x in range(n) for y in range(n)]
    if n == 4:
        return [[(GF4_TIMES[c][x] ^ y) + 1 for x, y in grid] for c in range(1, 4)]
    return [[(c * x + y) % n + 1 for x, y in grid] for c in range(1, max(n, 2))]


@st.composite
def square_sets(draw):
    """m = 0..3 squares of order 1..4: MOLS members, repeated or with rows permuted, or any table."""
    n = draw(st.integers(1, 4))
    pool = _mols(n)
    tables = []
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["mols", "mols", "rows", "any"]))
        if kind == "any":
            tables.append(draw(st.lists(st.integers(1, n), min_size=n * n, max_size=n * n)))
            continue
        table = draw(st.sampled_from(pool))
        if kind == "rows":  # still Latin, rarely orthogonal to its pool mates
            order = draw(st.permutations(range(n)))
            table = [v for x in order for v in table[x * n : (x + 1) * n]]
        tables.append(table)
    return CubeSet(2, n, tuple(LatinCube(2, n, tuple(t)) for t in tables))


@settings(EXAMPLES, max_examples=300)
@given(square_sets())
def test_mols_to_blocks_matches_latin_then_orthogonal_decision(squares):
    reference = _outcome(mols_to_blocks_reference, squares)
    outcome = _outcome(mols_to_blocks, squares)
    if isinstance(reference, BlockFamily):
        assert outcome == reference == lift_cubes(squares)
        return
    assert isinstance(outcome, str)
    a, b = is_mutually_invertible(squares).witness.index_set
    orthogonal = b <= len(squares.cubes)
    assert ("not orthogonal" in outcome) is orthogonal
    assert outcome.startswith(f"squares {a, b} are not orthogonal (" if orthogonal
                              else f"square {a} is not Latin (")


# damage -> (the change to one line, the change to a later line)
LATER_PAIRS = {
    "short then x": ("missing", "x"),
    "blanked then long": ("blank", "extra"),
    "n+1 then long": ("n+1", "extra"),
    "-3 then x": ("-3", "x"),
    "-3 then short": ("-3", "missing"),
}


@st.composite
def damaged_text(draw, text: str, n: int) -> str:
    """text with one change: a rewritten, extra or missing token, a blank line, or CRLF.

    The block parse checks each line's token count per chunk and decides the
    symbol range over all lines at once, so five changes aim at that: a token
    added to one line and removed from another, a line of 2k + 1 tokens, a tab
    or a doubled space between tokens, and two out-of-range symbols on two
    lines, of which the first in file order is named.  Negative symbols and
    2^32 + 1 do not fit an unsigned 32-bit field.  Any change may fall on the
    header, and one always does: a header number becomes 0, -3, 2^32 + 1 or
    10^30, so the cube parse's size guard meets a huge d, n or m.
    The LATER_PAIRS damages are two changes, the second on a later line where
    there is one, so that the message order decides which of the two is named;
    a blanked line keeps the "\n" count, so only the line count shows it.
    """
    damage = draw(st.sampled_from(
        ["none", "07", "+3", "0", "n+1", "x", "extra", "missing", "blank", "crlf",
         "compensating", "-3", "4294967297", "gap", "two out of range", "block more",
         "header", *LATER_PAIRS]))
    if damage == "crlf":
        return text.replace("\n", "\r\n")
    lines = text.split("\n")[:-1]
    i = draw(st.integers(0, len(lines) - 1))
    other = i
    if damage in ("compensating", "two out of range") and len(lines) > 2:  # two block lines
        other = draw(st.integers(1, len(lines) - 1).filter(lambda line: line != i))
    if damage in LATER_PAIRS and len(lines) > 2:  # two body lines, in file order
        i, other = sorted(draw(st.lists(st.integers(1, len(lines) - 1), min_size=2,
                                        max_size=2, unique=True)))

    def change(line: int, how: str) -> None:
        tokens = lines[line].split(" ")
        j = draw(st.integers(0, len(tokens) - 1))
        if how == "missing":
            del tokens[j]
        elif how == "extra":
            tokens.insert(j, tokens[j])
        elif how == "block more":  # 2k + 1 tokens: with the line end, a whole k + 1 too many
            tokens += tokens + [tokens[j]]
        elif how == "header":  # a number, not the leading word
            tokens[max(j, 1)] = draw(st.sampled_from(["0", "-3", "4294967297", str(10**30)]))
        else:  # "0", "x" and "4294967297" replace the token as they are
            rewrite = {"07": "0" + tokens[j], "+3": "+" + tokens[j], "-3": "-" + tokens[j],
                       "n+1": str(n + 1), "n+2": str(n + 2)}
            tokens[j] = rewrite.get(how, how)
        lines[line] = " ".join(tokens)

    if damage == "blank":
        lines.insert(i, draw(st.sampled_from(["", "  ", "\t"])))
    elif damage == "gap":
        lines[i] = lines[i].replace(" ", draw(st.sampled_from(["\t", "  "])), 1)
    elif damage == "compensating":
        change(i, "extra")
        change(other, "missing")
    elif damage == "two out of range":
        change(i, "n+1")
        change(other, "n+2")
    elif damage == "header":
        change(0, "header")
    elif damage in LATER_PAIRS:
        first, then = LATER_PAIRS[damage]
        if first == "blank":
            lines[i] = draw(st.sampled_from(["", "  ", "\t"]))
        else:
            change(i, first)
        change(other, then)
    elif damage != "none":
        change(i, damage)
    return "\n".join(lines) + "\n"


def _outcome(call, *args, **kwargs):
    try:
        return call(*args, **kwargs)
    except ValueError as exc:
        return str(exc)


@FORMAT_EXAMPLES
@given(families, st.data())
def test_block_format_matches_reference(family, data):
    text = format_blocks(family)
    assert text == format_blocks_reference(family)
    damaged = data.draw(damaged_text(text, family.params.n))
    assert _outcome(parse_blocks, damaged) == _outcome(parse_blocks_reference, damaged)


@EXAMPLES
@given(families)
def test_parsed_family_matches_its_rows(family):
    # a parsed file keeps its symbols in one array and the checks read its
    # columns; the rows are built only when .blocks is read, after the checks
    parsed, rows = parse_blocks(format_blocks(family)), BlockFamily(family.params, family.blocks)
    assert is_l_extendable(parsed) == is_l_extendable(rows)
    assert is_covering(parsed) == is_covering(rows)
    assert _outcome(extract_cubes, parsed) == _outcome(extract_cubes, rows)
    assert fuse(parsed, max(1, family.params.n - 1)) == fuse(rows, max(1, family.params.n - 1))
    assert "blocks" not in vars(parsed)
    assert (parsed, hash(parsed), repr(parsed)) == (family, hash(family), repr(family))
    assert parsed.canonical() == rows.canonical()
    assert parsed.is_canonical == rows.is_canonical


@FORMAT_EXAMPLES
@given(cube_sets(), st.data())
def test_cube_format_matches_reference(cube_set, data):
    text = format_cubes(cube_set)
    assert text == format_cubes_reference(cube_set)
    damaged = data.draw(damaged_text(text, cube_set.n))
    assert _outcome(parse_cubes, damaged) == _outcome(parse_cubes_reference, damaged)


@EXAMPLES
@given(cube_sets())
def test_parsed_cubes_match_their_tables(cube_set):
    # a parsed cube keeps its slice of the file's array and the checks, the
    # lift and the writer read it; the table tuple is built only when read
    parsed = parse_cubes(format_cubes(cube_set))
    assert [is_latin(c) for c in parsed.cubes] == [is_latin(c) for c in cube_set.cubes]
    assert _outcome(are_mutually_orthogonal, parsed) == _outcome(are_mutually_orthogonal, cube_set)
    assert is_mutually_invertible(parsed) == is_mutually_invertible(cube_set)
    assert lift_cubes(parsed) == lift_cubes(cube_set)
    assert format_cubes(parsed) == format_cubes(cube_set)
    assert all("table" not in vars(c) for c in parsed.cubes)
    assert (parsed, hash(parsed), repr(parsed)) == (cube_set, hash(cube_set), repr(cube_set))
    assert all(type(c.table) is tuple for c in parsed.cubes)


def _symbol_rows(width: int, n: int, count: int) -> tuple:
    """count rows of width symbols in 1..n, unsorted, row i + n repeating row i."""
    return tuple(tuple((i * 7 + j * 13) % n + 1 for j in range(width)) for i in range(count))


# the writers join _WRITE_CHUNK symbols in whole lines (1,024 lines of 8 and
# 1,170 of 7), so 4,096 lines of 8 fill joins exactly and 4,097 start one more;
# n of 12, 101 and 120 mixes 9 with 10 and 99 with 100
@pytest.mark.parametrize("k, n, count", [
    (1, 12, 30), (1, 101, _WRITE_CHUNK), (1, 101, _WRITE_CHUNK + 1),
    (8, 120, _WRITE_CHUNK // 8), (8, 120, 4096), (8, 120, 4097),
    (7, 101, _WRITE_CHUNK // 7), (7, 101, _WRITE_CHUNK // 7 + 1), (3, 12, 0), (3, 12, 5),
])
def test_block_writer_edges_match_reference(k, n, count):
    # an unsorted tuple family with repeated rows, as the public constructor and
    # the covers build it, and the array family its file parses into, write the
    # same bytes
    family = BlockFamily(Params(k, n, 1), _symbol_rows(k, n, count))
    text = format_blocks(family)
    assert text == format_blocks_reference(family)
    assert format_blocks(parse_blocks(text)) == text


# widths of 1 (n = 1, every symbol ends a line), 7 and 8; two cubes of 8^4
# values fill one join exactly and three start another, cubes of 7^5 values
# cross seams inside a cube, and d = 1 writes each cube as one line
@pytest.mark.parametrize("d, n, m", [
    (3, 1, 2), (1, 1, 3), (4, 8, 2), (4, 8, 3), (5, 7, 2), (1, 100, 3), (2, 101, 2), (3, 5, 0),
])
def test_cube_writer_edges_match_reference(d, n, m):
    table = tuple(chain.from_iterable(_symbol_rows(n, n, n ** (d - 1))))
    cube_set = CubeSet(d, n, (LatinCube(d, n, table),) * m)
    text = format_cubes(cube_set)
    assert text == format_cubes_reference(cube_set)
    assert format_cubes(parse_cubes(text)) == text


# Two-chunk files: 1,331 block lines against chunks of 1,024, and an 82 KB cube
# file against 64 KiB of text, in every layout the parses accept
SEAM_TEXTS = {
    "blocks": format_blocks(construct(4, 11, 3)),
    "cubes": format_cubes(extract_cubes(construct(5, 25, 3))),
}
LAYOUTS = {
    "lf": lambda text: text,
    "crlf": lambda text: text.replace("\n", "\r\n"),
    "tabs": lambda text: text.replace(" ", "\t"),
    "one line": lambda text: text.replace("\n", " "),
}


def _first_chunk_end(text: str, kind: str) -> int:
    """An offset in the last token of the parse's first chunk, or just past it."""
    if kind == "blocks":  # the header and 1,024 lines: the 1,025th line end
        return reduce(lambda at, _: text.index("\n", at + 1), range(1025), -1)
    return list(re.finditer(r"\S+", text))[3].end() + _CUBE_CHUNK  # after the header


@pytest.mark.parametrize("kind, layout, damage, where", [
    (kind, layout, damage, where)
    for kind in SEAM_TEXTS
    for layout in LAYOUTS if (kind, layout) != ("blocks", "one line")
    for damage, where in [(None, None)] + [
        (damage, where) for damage in ["x", "n+1", "-3"]
        for where in ["first chunk end", "second chunk start", "last token", "both ends"]]
])
def test_damage_across_the_chunk_seam(kind, layout, damage, where):
    text = LAYOUTS[layout](SEAM_TEXTS[kind])
    seam = _first_chunk_end(text, kind)
    assert seam < len(text) - 100  # a second chunk exists
    if damage is not None:
        tokens = list(re.finditer(r"\S+", text))
        first_end = max(i for i, token in enumerate(tokens) if token.start() <= seam)
        # "both ends" writes a second value over 4,096 symbols later: the first is named
        at = {"first chunk end": [first_end], "second chunk start": [first_end + 1],
              "last token": [-1], "both ends": [-1, first_end]}[where]
        n = int(text.split()[2])
        new = {"x": ["x", "y"], "n+1": [str(n + 1), str(n + 2)], "-3": ["-3", "-4"]}[damage]
        for i in at:  # the later token first, so the earlier offsets hold
            text = text[: tokens[i].start()] + new[i == -1] + text[tokens[i].end() :]
    parse, reference = {"blocks": (parse_blocks, parse_blocks_reference),
                        "cubes": (parse_cubes, parse_cubes_reference)}[kind]
    expected = _outcome(reference, text)
    assert _outcome(parse, text) == expected
    assert isinstance(expected, str) is (damage is not None)


# a (5,25,3) block file, 206 KB, splits into lines in four cuts of about
# 64 KiB; each cut ends just after a line break
LINE_CUT_TEXT = format_blocks(construct(5, 25, 3))


def _first_token(text: str, at: int, new: str) -> str:
    """text with the token starting at offset at written as new."""
    return text[:at] + new + text[re.compile(r"\S+").match(text, at).end() :]


LINE_CUT_DAMAGES = {  # each at the line before the first cut or the line after it
    "x": lambda text, cut: _first_token(text, text.rindex("\n", 0, cut - 1) + 1, "x"),
    "n+1": lambda text, cut: _first_token(text, cut, "26"),
    "-3": lambda text, cut: _first_token(text, cut, "-3"),
    "blank lines": lambda text, cut: text[:cut] + " \n\n\t\n" + text[cut:],
    "lone CR": lambda text, cut: text[: cut - 1] + "\r" + text[cut:],
    "line dropped": lambda text, cut: text[:cut] + text[text.index("\n", cut) + 1 :],
    "line blanked": lambda text, cut: text[:cut] + text[text.index("\n", cut) :],  # same "\n"s
    "line repeated": lambda text, cut: text[: text.index("\n", cut) + 1] + text[cut:],
}
REFUSED_AT_A_CUT = {"x", "n+1", "-3", "line dropped", "line blanked", "line repeated"}


@pytest.mark.parametrize("layout", ["lf", "crlf", "tabs"])
@pytest.mark.parametrize("damage", [None, *LINE_CUT_DAMAGES])
def test_block_damage_at_a_line_cut(layout, damage):
    text = LAYOUTS[layout](LINE_CUT_TEXT)
    cut = text.index("\n", _BLOCK_CHUNK) + 1  # where the first cut ends
    assert len(text) > 3 * _BLOCK_CHUNK
    if damage is not None:
        text = LINE_CUT_DAMAGES[damage](text, cut)
    expected = _outcome(parse_blocks_reference, text)
    assert _outcome(parse_blocks, text) == expected
    assert isinstance(expected, str) is (damage in REFUSED_AT_A_CUT)


@pytest.mark.parametrize("n", [0, -1])
def test_blank_first_cut_before_a_broken_line_names_the_header(n):
    # the naming pass's first cut holds only blank lines; no n >= 1 admits the line
    text = f"blocks 1 {n} 1 1\n" + " " * (_BLOCK_CHUNK + 4464) + "\n1 2\n"
    expected = _outcome(parse_blocks_reference, text)
    assert _outcome(parse_blocks, text) == expected == f"n >= 1 violated (n={n})"


# The split parses: with the threshold at 0 and three CPUs a body is cut into
# three spans at about a third and two thirds of the text (blocks just after a
# "\n", cubes just after whitespace), and children parse the later two.  A
# damage that changes the text's length can move a cut by a line or a token,
# so each damage is placed at each cut and next to it.
@pytest.fixture
def split_parse(monkeypatch):
    monkeypatch.setattr(formats, "_SPLIT_CHARS", 0)
    monkeypatch.setattr(_runs, "_cpus", lambda: 3)


def _split_outcome(parse, text, capfd):
    outcome = _outcome(parse, text)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert capfd.readouterr() == ("", "")  # children leave by os._exit, never flushing stdio
    return outcome


SPAN_BLOCKS = format_blocks(construct(4, 11, 3))  # 1,331 lines
SPAN_CUBES = format_cubes(extract_cubes(construct(5, 11, 3)))  # 2,662 values


@pytest.mark.parametrize("layout", ["lf", "crlf", "tabs"])
@pytest.mark.parametrize("damage", [None, *LINE_CUT_DAMAGES])
def test_block_damage_at_a_span_cut(split_parse, capfd, layout, damage):
    text = LAYOUTS[layout](SPAN_BLOCKS)
    for third in (1, 2):
        cut = text.index("\n", len(text) * third // 3) + 1  # where span `third` starts
        before, after = text.rindex("\n", 0, cut - 1) + 1, text.index("\n", cut) + 1
        for at in (before, cut, after):
            damaged = text if damage is None else LINE_CUT_DAMAGES[damage](text, at)
            expected = _outcome(parse_blocks_reference, damaged)
            assert _split_outcome(parse_blocks, damaged, capfd) == expected
            assert isinstance(expected, str) is (damage in REFUSED_AT_A_CUT)


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("damage", [None, "x", "12", "-3"])  # 12 is n + 1
def test_cube_damage_at_a_span_cut(split_parse, capfd, layout, damage):
    text = LAYOUTS[layout](SPAN_CUBES)
    tokens = list(re.finditer(r"\S+", text))
    for third in (1, 2):
        cut = re.compile(r"\s").search(text, len(text) * third // 3).end()
        last = max(i for i, token in enumerate(tokens) if token.end() < cut)  # span third - 1's
        for i in range(last - 1, last + 3):
            damaged = text
            if damage is not None:
                damaged = text[: tokens[i].start()] + damage + text[tokens[i].end() :]
            expected = _outcome(parse_cubes_reference, damaged)
            assert _split_outcome(parse_cubes, damaged, capfd) == expected
            assert isinstance(expected, str) is (damage is not None)


# a value past 2^32 - 1 makes the parse convert the body again whole, which
# must still name the first bad token in file order, wherever the spans fall
@pytest.mark.parametrize("middle, late", [
    (str(2**32 + 1), "x"), ("x", str(2**32 + 1)), (str(2**32 + 1), "-3"),
])
def test_cube_overflow_in_a_child_span(split_parse, capfd, middle, late):
    tokens = list(re.finditer(r"\S+", SPAN_CUBES))
    at = [tokens[len(tokens) // 2], tokens[-2]]  # in the second span, and in the third
    text = SPAN_CUBES
    for token, new in [(at[1], late), (at[0], middle)]:  # the later token first
        text = text[: token.start()] + new + text[token.end() :]
    expected = _outcome(parse_cubes_reference, text)
    assert _split_outcome(parse_cubes, text, capfd) == expected
    assert expected in ("invalid literal for int() with base 10: 'x'",
                        f"symbol {2**32 + 1} outside 1..11")


# construct, the lift and extraction scatter columns into one array; the zip
# and sort of rows they replaced are the references, at n = 1, ell = 1 with
# fewer and more rows than columns, prime orders, a prime power and the
# largest workload's (7, 49, 3)
SCATTERED = EXACT + [(4, 1, 3), (2, 5, 1), (3, 27, 3), (7, 49, 3)]


@pytest.mark.parametrize("k, n, ell", SCATTERED)
def test_built_families_match_zip_and_sort(k, n, ell):
    # each built family is written off its array, each reference off its tuples
    family, expected = construct(k, n, ell), construct_reference(k, n, ell)
    assert format_blocks(family) == format_blocks(expected)
    assert family == expected
    positions = tuple(range(k - ell + 1, k + 1))
    cube_set = extract_cubes(family, positions)
    assert cube_set == extract_cubes_reference(family, positions)
    lifted, expected = lift_cubes(cube_set), lift_cubes_reference(cube_set)
    assert format_blocks(lifted) == format_blocks(expected)
    assert lifted == expected


@EXAMPLES
@given(st.one_of(unchecked_cube_sets(), cube_sets()))
def test_lift_matches_zip_and_sort(cube_set):
    lifted, expected = lift_cubes(cube_set), lift_cubes_reference(cube_set)
    assert format_blocks(lifted) == format_blocks_reference(expected)
    assert lifted == expected


def test_rows_fewer_than_columns_are_sorted_without_keys(monkeypatch):
    # a column costs the scatter about a microsecond however short it is, so
    # construct(2^19, 2, 1) took 0.7 s scattered against 0.15 s sorted
    monkeypatch.setattr(verify, "_projection_keys", lambda *args: pytest.fail("scattered"))
    assert construct(50, 3, 1) == construct_reference(50, 3, 1)


def test_lift_with_colliding_prefixes_is_sorted():
    # one swap in the first cube makes two rows share their first d symbols
    squares = extract_cubes(construct(4, 5, 2)).cubes
    table = list(squares[0].table)
    table[0], table[1] = table[1], table[0]
    cube_set = CubeSet(2, 5, (LatinCube(2, 5, tuple(table)), *squares[1:]))
    first, second = (cube.table for cube in cube_set.cubes[:2])
    assert len(set(zip(first, second))) < 5**2  # the lift's first two columns
    assert lift_cubes(cube_set) == lift_cubes_reference(cube_set)


@EXAMPLES
@given(st.sampled_from(SCATTERED[:-2]), st.data())
def test_extraction_matches_sorted_blocks(params, data):
    k, n, ell = params
    family = construct(k, n, ell)
    if data.draw(st.booleans()):  # an array family, or one built from shuffled tuples
        family = parse_blocks(format_blocks(family))
    else:
        family = BlockFamily(family.params, tuple(data.draw(st.permutations(family.blocks))))
    positions = data.draw(st.sampled_from(list(combinations(range(1, k + 1), ell))))
    expected = extract_cubes_reference(family, positions)
    assert format_cubes(extract_cubes(family, positions)) == format_cubes_reference(expected)


@st.composite
def factor_pairs(draw):
    """Two families under common k and ell, of orders 1..4 each, with any blocks."""
    ell = draw(st.integers(1, 3))
    k = draw(st.integers(ell, 4))

    def family(n):
        blocks = draw(st.lists(st.tuples(*[st.integers(1, n)] * k), max_size=6))
        return BlockFamily(Params(k, n, ell), tuple(blocks))

    return family(draw(st.integers(1, 4))), family(draw(st.integers(1, 4)))


@EXAMPLES
@given(factor_pairs())
def test_product_matches_block_by_block_product(pair):
    assert product_decomposition(*pair) == product_decomposition_reference(*pair)


# orders 15 = 3 * 5 and 35 = 5 * 7: the (w - 1) * p + v symbol order is pinned
# by factors p != q, in construct's fold and the other way round
@pytest.mark.parametrize("k, n, p, q", [(3, 15, 3, 5), (4, 35, 5, 7)])
def test_two_prime_products_match_block_by_block_product(k, n, p, q):
    left, right = vandermonde_blocks(k, p, 2), vandermonde_blocks(k, q, 2)
    assert construct(k, n, 2) == product_decomposition_reference(left, right)
    assert product_decomposition(right, left) == product_decomposition_reference(right, left)
    assert product_decomposition(right, left) != construct(k, n, 2)


# prime powers: construct folds left to right, so the left factor of the last
# product has order p^2 (27, 125, 343) or p^3 (81)
@pytest.mark.parametrize("k, p, e", [(3, 3, 3), (3, 3, 4), (5, 5, 3), (7, 7, 3)])
def test_prime_power_fold_matches_chained_references(k, p, e):
    family = construct(k, p**e, 2)
    factors = [vandermonde_blocks_reference(k, p, 2)] * e
    assert family == reduce(product_decomposition_reference, factors)
    assert family.is_canonical


# construct's one sort after the column fold: three factors, mixed primes and
# ell = 3 against the earlier fold of sorted families, one product at a time
@pytest.mark.parametrize(
    "k, n, ell", [(3, 27, 3), (3, 45, 2), (4, 125, 2), (5, 343, 2), (5, 35, 2), (3, 75, 2)]
)
def test_construct_matches_fold_of_sorted_products(k, n, ell):
    factors = [vandermonde_blocks_reference(k, p, ell)
               for p, e in factorize(n).factors for _ in range(e)]
    assert construct(k, n, ell) == reduce(product_decomposition_reference, factors)


# (k, n, ell) with k * n'^ell <= 2^15 at the lifting order n', which is n itself
# where n is admissible: there the fuse table is the identity
COVERED = [(k, n, ell) for ell in (2, 3) for k in range(ell, 7) for n in range(2, 27)
           if k * lifting_order(k, n, ell) ** ell <= 2**15]


# and always the lifts to 49, 41, 27 = 3^3, 45 = 3^2 * 5 and 11, and the
# admissible orders 7, 25 = 5^2, ell = 1 and n = 1, which do not lift
@EXAMPLES
@given(st.sampled_from(COVERED))
@example((5, 48, 3))
@example((7, 40, 3))
@example((3, 26, 3))
@example((3, 44, 2))
@example((8, 10, 3))
@example((5, 7, 2))
@example((3, 25, 3))
@example((4, 9, 1))
@example((3, 1, 2))
def test_build_covering_matches_fuse_of_the_lifted_family(instance):
    k, n, ell = instance
    lifted = construct(k, lifting_order(k, n, ell), ell)
    assert build_covering(k, n, ell) == fuse_reference(lifted, n)


@st.composite
def fusable_families(draw):
    """Any family of order 1..6, unsorted and with repeated blocks."""
    ell = draw(st.integers(1, 3))
    k = draw(st.integers(ell, 4))
    n = draw(st.integers(1, 6))
    blocks = draw(st.lists(st.tuples(*[st.integers(1, n)] * k), max_size=12))
    if blocks:
        blocks += draw(st.lists(st.sampled_from(blocks), max_size=6))
    return BlockFamily(Params(k, n, ell), tuple(draw(st.permutations(blocks))))


@settings(EXAMPLES, max_examples=300)
@given(fusable_families())
def test_fuse_matches_set_then_sort_fold(family):
    for n_target in range(1, family.params.n + 1):
        assert fuse(family, n_target) == fuse_reference(family, n_target)


# exact families at an admissible order, folded onto the order below and further
@pytest.mark.parametrize(
    "k, n, ell, n_target", [(5, 7, 3, 6), (4, 5, 2, 2), (3, 5, 2, 4), (4, 25, 2, 24)]
)
def test_fuse_of_exact_family_matches_set_then_sort_fold(k, n, ell, n_target):
    fused = fuse(construct(k, n, ell), n_target)
    assert fused == fuse_reference(construct(k, n, ell), n_target)
    assert fused.is_canonical


# every 2 <= ell <= k <= p with k * p^ell <= 2^16, p = k (colour k is 0 mod p)
# and ell = k among them
@pytest.mark.parametrize("p", [p for p in range(2, 32) if is_prime(p)])
def test_vandermonde_blocks_match_sorted_coefficient_enumeration(p):
    for ell in range(2, p + 1):
        for k in range(ell, p + 1):
            if k * p**ell <= 2**16:
                family = vandermonde_blocks(k, p, ell)
                assert family == vandermonde_blocks_reference(k, p, ell)
                assert family.is_canonical


@st.composite
def search_instances(draw):
    """(k, n, ell) with n^k <= 256 and k, n <= 16."""
    k = draw(st.integers(1, 8))
    n = draw(st.integers(1, max(m for m in range(1, 17) if m**k <= 256)))
    return k, n, draw(st.integers(1, k))


@settings(EXAMPLES, max_examples=50)
@given(search_instances())
def test_exact_cover_size_matches_set_based_search(instance):
    # a refusal (the covering incumbent over the size limit) must match too
    reference = _outcome(exact_cover_size_reference, *instance, budget=100_000)
    k, n, ell = instance
    if n == 1:  # one block covers G(k, 1); the set-based search refused (k*1)^l past the limit
        reference = 1
    if reference is None:
        return
    assert _outcome(exact_cover_size, *instance) == reference
    if n**k <= 16 and isinstance(reference, int):
        assert brute_force_minimum_cover(k, n, ell, reference) == reference


@settings(EXAMPLES, max_examples=100)
@given(search_instances(), st.integers(1, 5_000))
def test_exact_cover_size_matches_recursive_search_at_any_budget(instance, budget):
    # same outcome at every budget: the settle node count, and so the tree, agree
    expected = _outcome(exact_cover_size_recursive, *instance, budget=budget)
    assert _outcome(exact_cover_size, *instance, budget=budget) == expected
