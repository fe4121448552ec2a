"""Independent checks for partite's outputs.

Nothing here imports partite: the file formats, projections, lifts and
closed-form answers are re-derived from their definitions, so a fault in the
program cannot hide in a shared helper.  `selfcheck` compares these oracles
with the nested-loop brute force in tests/helpers.py on small instances.

Rows are tuples of 1-based symbols; a cube table is a list of n^d symbols,
last coordinate fastest.  An offense is (positions, values, hits capped at 2),
the lexicographically first projection cell hit other than once.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations, product
from math import comb


def parse_blocks_text(text: str):
    """(k, n, l, rows) from a block file; raises ValueError if the bytes break the format."""
    if not text.endswith("\n"):
        raise ValueError("block file does not end in LF")
    lines = text[:-1].split("\n")
    head = lines[0].split(" ")
    if len(head) != 5 or head[0] != "blocks":
        raise ValueError(f"bad header {lines[0]!r}")
    k, n, ell, count = map(int, head[1:])
    if len(lines) - 1 != count:
        raise ValueError(f"header count {count}, {len(lines) - 1} lines")
    rows = []
    for line in lines[1:]:
        row = tuple(map(int, line.split(" ")))
        if len(row) != k or min(row) < 1 or max(row) > n:
            raise ValueError(f"bad block line {line!r}")
        rows.append(row)
    if format_blocks_text(k, n, ell, rows) != text:
        raise ValueError("block file is not in canonical spacing")
    return k, n, ell, rows


def format_blocks_text(k: int, n: int, ell: int, rows) -> str:
    body = "".join(" ".join(map(str, row)) + "\n" for row in rows)
    return f"blocks {k} {n} {ell} {len(rows)}\n" + body


def parse_cubes_text(text: str):
    """(d, n, tables) from a cube file, strict about layout."""
    lines = text.split("\n")
    if lines[-1] != "":
        raise ValueError("cube file does not end in LF")
    head = lines[0].split(" ")
    if len(head) != 4 or head[0] != "cubes":
        raise ValueError(f"bad header {lines[0]!r}")
    d, n, m = map(int, head[1:])
    values = [int(tok) for line in lines[1:-1] for tok in line.split(" ")]
    volume = n**d
    if len(values) != m * volume or (values and (min(values) < 1 or max(values) > n)):
        raise ValueError("cube file has the wrong volume or symbols")
    tables = [values[i * volume : (i + 1) * volume] for i in range(m)]
    if format_cubes_text(d, n, tables) != text:
        raise ValueError("cube file is not in canonical layout")
    return d, n, tables


def format_cubes_text(d: int, n: int, tables) -> str:
    out = [f"cubes {d} {n} {len(tables)}\n"]
    for table in tables:
        for start in range(0, len(table), n):
            out.append(" ".join(map(str, table[start : start + n])) + "\n")
    return "".join(out)


def _flat(values, n: int) -> int:
    flat = 0
    for v in values:
        flat = flat * n + v - 1
    return flat


def extract(rows, k: int, n: int, ell: int, positions):
    """Tables of the free positions, read off the row at each coordinate tuple."""
    free = [j for j in range(k) if j + 1 not in positions]
    tables = [[0] * n**ell for _ in free]
    for row in rows:
        flat = _flat((row[s - 1] for s in positions), n)
        for table, j in zip(tables, free):
            table[flat] = row[j]
    return tables


def lift(tables, d: int, n: int):
    """Sorted rows (value in each table, then the coordinates) over {1..n}^d."""
    coords = product(range(1, n + 1), repeat=d)
    return sorted(tuple(t[f] for t in tables) + c for f, c in enumerate(coords))


def first_offense(rows, k: int, n: int, ell: int, cover: bool = False):
    """First projection cell hit other than once (cover=False) or never (cover=True)."""
    cells = n**ell
    columns = list(zip(*rows)) if rows else [()] * k
    for positions in combinations(range(1, k + 1), ell):
        counts = Counter(zip(*(columns[s - 1] for s in positions)))
        if len(counts) == cells and (cover or len(rows) == cells):
            continue
        for values in product(range(1, n + 1), repeat=ell):
            hits = counts.get(values, 0)
            if hits == 0 or (hits > 1 and not cover):
                return positions, values, min(hits, 2)
    return None


def witness_line(offense) -> str:
    positions, values, hits = offense
    kind = "MISS" if hits == 0 else "DUP"
    return f"{kind} {','.join(map(str, positions))} : {','.join(map(str, values))}"


def first_nonlatin(table, d: int, n: int):
    """(axis, fixed coordinates) of the first line that is not a permutation."""
    for axis in range(1, d + 1):
        stride = n ** (d - axis)
        for fixed in product(range(1, n + 1), repeat=d - 1):
            base = _flat(fixed[: axis - 1] + (1,) + fixed[axis - 1 :], n)
            if len(set(table[base : base + stride * (n - 1) + 1 : stride])) != n:
                return axis, fixed
    return None


def first_nonorthogonal(tables, d: int, n: int):
    """(cube subset, image, hits) for the first d cubes whose superposition is no bijection."""
    volume = n**d
    for subset in combinations(range(len(tables)), d):
        counts = Counter(zip(*(tables[i] for i in subset)))
        if len(counts) == volume:
            continue
        for image in product(range(1, n + 1), repeat=d):
            hits = counts.get(image, 0)
            if hits != 1:
                return tuple(i + 1 for i in subset), image, min(hits, 2)
    return None


def smallest_factor(n: int) -> int:
    p = 2
    while p * p <= n:
        if n % p == 0:
            return p
        p += 1
    return n


def lifted_order(k: int, n: int) -> int:
    """Least order >= max(n, k) with no prime factor below k (trial division)."""
    order = max(n, k)
    while order > 1 and smallest_factor(order) < k:
        order += 1
    return order


def min_cover_binary_pairs(k: int) -> int:
    """Least N with C(N-1, ceil(N/2)) >= k: the minimum for (k, 2, 2) (Kleitman-Spencer; Katona)."""
    size = 2
    while comb(size - 1, (size + 1) // 2) < k:
        size += 1
    return size


def selfcheck(helpers, partite) -> None:
    """Compare these oracles with tests/helpers.py on small exact, damaged and covering families."""
    import random

    rng = random.Random(7)
    for k, n, ell in [(4, 5, 2), (4, 5, 3), (3, 3, 2)]:
        exact = list(partite.construct(k, n, ell).blocks)
        variants = [exact, exact[1:], exact + [exact[3]]]
        for _ in range(6):
            rows = list(exact)
            i, pos = rng.randrange(len(rows)), rng.randrange(k)
            row = list(rows[i])
            row[pos] = row[pos] % n + 1
            rows[i] = tuple(row)
            variants.append(sorted(rows))
        for rows in variants:
            family = partite.BlockFamily(partite.Params(k, n, ell), tuple(rows))
            want = helpers.first_projection_offense(family)
            got = first_offense(rows, k, n, ell)
            if got != want:
                raise AssertionError(f"oracle offense {got} != helpers {want} on {k, n, ell}")
            covered = first_offense(rows, k, n, ell, cover=True) is None
            if covered != helpers.covers_every_pair(rows, k, n, ell):
                raise AssertionError(f"oracle cover verdict differs on {k, n, ell}")
        cubes = extract(exact, k, n, ell, tuple(range(k - ell + 1, k + 1)))
        if lift(cubes, ell, n) != sorted(exact):
            raise AssertionError(f"lift(extract) is not the identity on {k, n, ell}")
        if any(first_nonlatin(t, ell, n) for t in cubes):
            raise AssertionError(f"extracted cube of {k, n, ell} judged non-Latin")
    counter = partite.orthogonal_not_invertible_cubes()
    tables = [list(c.table) for c in counter.cubes]
    lifted = lift(tables, counter.d, counter.n)
    family = partite.BlockFamily(partite.Params(6, 4, 3), tuple(lifted))
    if first_offense(lifted, 6, 4, 3) != helpers.first_projection_offense(family):
        raise AssertionError("oracle offense differs on the order-4 counterexample")
    for k, want in [(3, 4), (4, 5), (5, 6)]:
        if min_cover_binary_pairs(k) != want:
            raise AssertionError(f"closed-form minimum for ({k},2,2) is not {want}")
