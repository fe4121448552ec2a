"""The three workloads: their input files, command lists and expected outcomes.

Every command is one `partite` CLI invocation.  Its expectation is computed
by `oracles` from the command's input files (never from the program's own
output of an earlier run); the golden ledger in run.py adds the byte-level
pin for outputs that do not depend on the seed.
"""

from __future__ import annotations

import bisect
import hashlib
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import oracles as O

EXACT_LADDER = [(5, 25, 3), (7, 49, 3)]
MOLS_ORDER = (11, 121, 2)
COVERS = [(7, 40, 3), (5, 48, 3), (8, 10, 3), (5, 3, 2)]
SETTLED_SEARCHES = [(4, 2, 2), (5, 2, 2), (6, 2, 2)]
BUDGET_SEARCH = (5, 3, 2)
SEARCH_BUDGET = 200_000
DAMAGES = ["sym-first", "sym-last", "drop", "dup"]


@dataclass
class Result:
    code: int
    out: str
    err: str
    file: bytes | None


@dataclass
class Command:
    label: str
    kind: str  # "build" (writes files), "check" (verify, cubes --check) or "search"
    argv: list[str]
    expect: Callable[[Result], list[str]]
    output: str | None = None  # file name in the work directory
    seeded: bool = False  # output depends on --seed, so the ledger does not pin it


@dataclass
class Checks:
    """Expectation builders sharing one memo of oracle verdicts keyed by input bytes."""

    work: Path
    memo: dict = field(default_factory=dict)

    def path(self, name: str) -> str:
        return str(self.work / name)

    def _oracle(self, tag: str, path: str, compute):
        data = Path(path).read_bytes()
        key = (tag, hashlib.sha256(data).digest())
        if key not in self.memo:
            self.memo[key] = compute(data.decode())
        return self.memo[key]

    @staticmethod
    def _status(r: Result, code: int, out: str | None = "") -> list[str]:
        problems = []
        if r.code != code:
            problems.append(f"exit {r.code}, expected {code}: {r.err.strip()[:200]}")
        if out is not None and r.out != out:
            problems.append(f"stdout {r.out[:120]!r}, expected {out[:120]!r}")
        return problems

    def exact_file(self, out_name: str, k: int, n: int, ell: int):
        def check(r: Result) -> list[str]:
            problems = self._status(r, 0)
            if not problems:
                problems += self._oracle("exact", self.path(out_name), lambda t: _exact(t, k, n, ell))
            return problems
        return check

    def ok(self):
        return lambda r: self._status(r, 0, "OK\n")

    def same_file(self, name: str):
        def check(r: Result) -> list[str]:
            problems = self._status(r, 0)
            if r.file != Path(self.path(name)).read_bytes():
                problems.append(f"output differs from {name} byte for byte")
            return problems
        return check

    def extracted(self, blocks_name: str, positions_of):
        def compute(text):
            k, n, ell, rows = O.parse_blocks_text(text)
            return O.format_cubes_text(ell, n, O.extract(rows, k, n, ell, positions_of(k, ell)))
        def check(r: Result) -> list[str]:
            problems = self._status(r, 0)
            want = self._oracle("extract", self.path(blocks_name), compute)
            if r.file is None or r.file.decode() != want:
                problems.append("extracted cubes differ from the oracle's extraction")
            return problems
        return check

    def lifted(self, cubes_name: str):
        def compute(text):
            d, n, tables = O.parse_cubes_text(text)
            return O.format_blocks_text(len(tables) + d, n, d, O.lift(tables, d, n))
        def check(r: Result) -> list[str]:
            problems = self._status(r, 0)
            if r.file is None or r.file.decode() != self._oracle("lift", self.path(cubes_name), compute):
                problems.append("lifted file differs from the oracle's lift")
            return problems
        return check

    def refusal(self, *needles: str):
        def check(r: Result) -> list[str]:
            problems = self._status(r, 2)
            if r.file is not None:
                problems.append("a refused command wrote its output file")
            if not r.err.startswith("error: ") or any(s not in r.err for s in needles):
                problems.append(f"stderr {r.err.strip()[:200]!r} does not name {needles}")
            return problems
        return check

    def blocks_verdict(self, name: str, cover: bool = False):
        """`verify` on a block file: OK, or the oracle's first offense as a witness line."""
        def compute(text):
            k, n, ell, rows = O.parse_blocks_text(text)
            return O.first_offense(rows, k, n, ell, cover=cover)
        def check(r: Result) -> list[str]:
            offense = self._oracle(f"offense-{cover}", self.path(name), compute)
            if offense is None:
                return self._status(r, 0, "OK\n")
            return self._status(r, 1, O.witness_line(offense) + "\n")
        return check

    def extract_refusal(self, name: str):
        """`cubes --action extract` on a damaged family names the oracle's first offense."""
        def check(r: Result) -> list[str]:
            def compute(text):
                k, n, ell, rows = O.parse_blocks_text(text)
                return O.first_offense(rows, k, n, ell)
            positions, values, hits = self._oracle("offense-False", self.path(name), compute)
            return self.refusal(
                f"first offense at positions {positions}, values {values}, multiplicity {hits}"
            )(r)
        return check

    def cube_verdict(self, name: str, check_name: str):
        """`cubes --check` on a cube file: OK, a refusal, or the oracle's first violation."""
        def compute(text):
            d, n, tables = O.parse_cubes_text(text)
            if check_name == "latin":
                for i, table in enumerate(tables, start=1):
                    bad = O.first_nonlatin(table, d, n)
                    if bad:
                        axis, fixed = bad
                        tail = " : " + ",".join(map(str, fixed)) if fixed else ""
                        return 1, f"NONLATIN cube {i} axis {axis}{tail}\n"
                return 0, "OK\n"
            if check_name == "orthogonal":
                if len(tables) < d:
                    return 2, f"orthogonality needs at least d={d} cubes, got {len(tables)}"
                bad = O.first_nonorthogonal(tables, d, n)
                if bad:
                    subset, image, hits = bad
                    kind = "MISS" if hits == 0 else "DUP"
                    return 1, (f"NONORTHOGONAL {kind} cubes {','.join(map(str, subset))}"
                               f" : {','.join(map(str, image))}\n")
                return 0, "OK\n"
            rows = O.lift(tables, d, n)
            offense = O.first_offense(rows, len(tables) + d, n, d)
            return (1, O.witness_line(offense) + "\n") if offense else (0, "OK\n")
        def check(r: Result) -> list[str]:
            code, text = self._oracle(f"cube-{check_name}", self.path(name), compute)
            if code == 2:
                return self.refusal(text)(r)
            return self._status(r, code, text)
        return check

    def cover_file(self, out_name: str, k: int, n: int, ell: int):
        def compute(text):
            kk, nn, ll, rows = O.parse_blocks_text(text)
            problems = [] if (kk, nn, ll) == (k, n, ell) else [f"header names {kk, nn, ll}"]
            if any(a >= b for a, b in zip(rows, rows[1:])):
                problems.append("blocks are not strictly increasing")
            miss = O.first_offense(rows, k, n, ell, cover=True)
            if miss:
                problems.append(f"uncovered cell {O.witness_line(miss)}")
            if not n**ell <= len(rows) <= O.lifted_order(k, n) ** ell:
                problems.append(f"size {len(rows)} outside [n^l, lifted^l]")
            return len(rows), problems
        def check(r: Result) -> list[str]:
            size, problems = self._oracle("cover", self.path(out_name), compute)
            line = f"size={size} lower={n**ell} lifted_order={O.lifted_order(k, n)}\n"
            return self._status(r, 0, line) + problems
        return check

    def minimum(self, k: int):
        return lambda r: self._status(r, 0, f"{O.min_cover_binary_pairs(k)}\n")

    def bounded_minimum(self, cover_name: str, n: int, ell: int):
        def check(r: Result) -> list[str]:
            problems = self._status(r, 0, None)
            size = self._oracle("cover-size", self.path(cover_name),
                                lambda t: len(O.parse_blocks_text(t)[3]))
            text = r.out.strip()
            if r.out != text + "\n" or not (
                text == "unknown (budget)" or (text.isdigit() and n**ell < int(text) <= size)
            ):
                problems.append(f"minsearch printed {r.out!r}, outside (n^l, {size}]")
            return problems
        return check


def _exact(text: str, k: int, n: int, ell: int) -> list[str]:
    kk, nn, ll, rows = O.parse_blocks_text(text)
    problems = [] if (kk, nn, ll) == (k, n, ell) else [f"header names {kk, nn, ll}"]
    if len(rows) != n**ell:
        problems.append(f"{len(rows)} blocks, expected n^l = {n**ell}")
    if any(a >= b for a, b in zip(rows, rows[1:])):
        problems.append("blocks are not strictly increasing")
    offense = O.first_offense(rows, k, n, ell)
    if offense:
        problems.append(f"not exact: {O.witness_line(offense)}")
    return problems


def _tag(k: int, n: int, ell: int) -> str:
    return f"{k}-{n}-{ell}"


def _last(k: int, ell: int):
    return tuple(range(k - ell + 1, k + 1))


def no_inputs(partite, work: Path, seed: int) -> None:
    """exact-ladder and cover-search read only what earlier commands of the pass wrote."""


# --- exact-ladder -------------------------------------------------------------

def exact_ladder(c: Checks) -> list[Command]:
    cmds = []
    for k, n, ell in EXACT_LADDER:
        t = _tag(k, n, ell)
        fam, cub, back = f"{t}.blocks", f"{t}.cubes", f"{t}.lift.blocks"
        cmds += [
            Command(f"construct {t}", "build",
                    ["construct", "--k", str(k), "--n", str(n), "--l", str(ell), "-o", c.path(fam)],
                    c.exact_file(fam, k, n, ell), fam),
            Command(f"verify {t}", "check", ["verify", c.path(fam), "--mode", "exact"], c.ok()),
            Command(f"extract {t}", "build",
                    ["cubes", c.path(fam), "--action", "extract", "-o", c.path(cub)],
                    c.extracted(fam, _last), cub),
            Command(f"lift {t}", "build", ["cubes", c.path(cub), "--action", "lift", "-o", c.path(back)],
                    c.same_file(fam), back),
            Command(f"verify lift {t}", "check", ["verify", c.path(back), "--mode", "exact"], c.ok()),
        ]
        for check in ("latin", "orthogonal", "invertible"):
            cmds.append(Command(f"{check} {t}", "check", ["cubes", c.path(cub), "--check", check],
                                c.cube_verdict(cub, check)))
    k, n, ell = MOLS_ORDER
    t = _tag(k, n, ell)
    fam, mols, back = f"{t}.blocks", f"{t}.mols", f"{t}.back.blocks"
    cmds += [
        Command(f"construct {t}", "build",
                ["construct", "--k", str(k), "--n", str(n), "--l", str(ell), "-o", c.path(fam)],
                c.exact_file(fam, k, n, ell), fam),
        Command(f"blocks2mols {t}", "build",
                ["cubes", c.path(fam), "--action", "blocks2mols", "-o", c.path(mols)],
                c.extracted(fam, _last), mols),
        Command(f"mols2blocks {t}", "build",
                ["cubes", c.path(mols), "--action", "mols2blocks", "-o", c.path(back)],
                c.same_file(fam), back),
    ]
    return cmds


# --- cover-search -------------------------------------------------------------

def cover_search(c: Checks) -> list[Command]:
    cmds = []
    for k, n, ell in COVERS:
        t = _tag(k, n, ell)
        out = f"{t}.cover.blocks"
        cmds += [
            Command(f"cover {t}", "build",
                    ["cover", "--k", str(k), "--n", str(n), "--l", str(ell), "-o", c.path(out)],
                    c.cover_file(out, k, n, ell), out),
            Command(f"verify cover {t}", "check", ["verify", c.path(out), "--mode", "cover"],
                    c.blocks_verdict(out, cover=True)),
        ]
    for k, n, ell in SETTLED_SEARCHES:
        cmds.append(Command(f"minsearch {_tag(k, n, ell)}", "search",
                            ["minsearch", "--k", str(k), "--n", str(n), "--l", str(ell)],
                            c.minimum(k)))
    k, n, ell = BUDGET_SEARCH
    cmds.append(Command(f"minsearch {_tag(k, n, ell)} budget", "search",
                        ["minsearch", "--k", str(k), "--n", str(n), "--l", str(ell),
                         "--budget", str(SEARCH_BUDGET)],
                        c.bounded_minimum(f"{_tag(k, n, ell)}.cover.blocks", n, ell)))
    return cmds


# --- damaged-inputs -----------------------------------------------------------

def damaged_inputs_inputs(partite, work: Path, seed: int) -> None:
    """Damaged copies of the exact-ladder families and cubes, malformed files and the fixture.

    The seed picks which block, symbol and cube line each damage touches; the
    damaged position is fixed, so the first offense always falls in the same
    index set (see README) and the work before the verdict barely depends on it.
    """
    from partite.cli import format_blocks  # the program's own writer, as for exact-ladder files

    rng = random.Random(seed)
    for k, n, ell in EXACT_LADDER:
        t = _tag(k, n, ell)
        family = partite.construct(k, n, ell)
        rows = list(family.blocks)
        text = format_blocks(family)
        lines = text.split("\n")  # header, one line per row, then ""

        def write(name: str, body_lines) -> None:
            (work / name).write_text("\n".join(body_lines))

        for name, position in (("sym-first", 0), ("sym-last", k - 1)):
            i = rng.randrange(len(rows))
            row = list(rows[i])
            other = rng.randrange(1, n)
            row[position] = other if other < row[position] else other + 1
            rest = rows[:i] + rows[i + 1 :]
            j = bisect.bisect(rest, tuple(row))
            body = lines[1 : i + 1] + lines[i + 2 : -1]
            body.insert(j, " ".join(map(str, row)))
            write(f"{t}.{name}.blocks", [lines[0]] + body + [""])
        i = rng.randrange(len(rows))
        header = f"blocks {k} {n} {ell} {len(rows) - 1}"
        write(f"{t}.drop.blocks", [header] + lines[1 : i + 1] + lines[i + 2 :])
        i = rng.randrange(len(rows))
        header = f"blocks {k} {n} {ell} {len(rows) + 1}"
        write(f"{t}.dup.blocks", [header] + lines[1 : i + 2] + lines[i + 1 :])

        last = lines[-2].rsplit(" ", 1)[0] + f" {n + 1}"
        write(f"{t}.badsym.blocks", lines[:-2] + [last, ""])
        write(f"{t}.badcount.blocks", [f"blocks {k} {n} {ell} {len(rows) - 1}"] + lines[1:])

        tables = O.extract(rows, k, n, ell, _last(k, ell))
        (work / f"{t}.badvolume.cubes").write_text(
            O.format_cubes_text(ell, n, tables)[:-1].rsplit(" ", 1)[0] + "\n")
        base = rng.randrange(n ** (ell - 1)) * n
        a, b = sorted(rng.sample(range(n), 2))
        table = tables[0]
        table[base + a], table[base + b] = table[base + b], table[base + a]
        (work / f"{t}.swap.cubes").write_text(O.format_cubes_text(ell, n, tables))
    shutil.copyfile(partite.cubes.ORTHOGONAL_NOT_INVERTIBLE_PATH, work / "order4.cubes")


def damaged_inputs(c: Checks) -> list[Command]:
    cmds = []
    for k, n, ell in EXACT_LADDER:
        t = _tag(k, n, ell)
        for damage in DAMAGES:
            fam = f"{t}.{damage}.blocks"
            cmds += [
                Command(f"verify {fam}", "check", ["verify", c.path(fam), "--mode", "exact"],
                        c.blocks_verdict(fam), seeded=True),
                Command(f"extract {fam}", "build",
                        ["cubes", c.path(fam), "--action", "extract", "-o", c.path(fam + ".cubes")],
                        c.extract_refusal(fam), fam + ".cubes", seeded=True),
            ]
        cub, lifted = f"{t}.swap.cubes", f"{t}.swap.lift.blocks"
        cmds += [
            Command(f"lift {cub}", "build", ["cubes", c.path(cub), "--action", "lift", "-o", c.path(lifted)],
                    c.lifted(cub), lifted, seeded=True),
            Command(f"verify {lifted}", "check", ["verify", c.path(lifted), "--mode", "exact"],
                    c.blocks_verdict(lifted), seeded=True),
        ]
        for check in ("latin", "orthogonal", "invertible"):
            cmds.append(Command(f"{check} {cub}", "check", ["cubes", c.path(cub), "--check", check],
                                c.cube_verdict(cub, check), seeded=True))
        bad = f"{t}.badsym.blocks"
        cmds += [
            Command(f"verify {bad}", "check", ["verify", c.path(bad), "--mode", "exact"],
                    c.refusal(f"symbol {n + 1} outside 1..{n}")),
            Command(f"extract {bad}", "build",
                    ["cubes", c.path(bad), "--action", "extract", "-o", c.path(bad + ".cubes")],
                    c.refusal(f"symbol {n + 1} outside 1..{n}"), bad + ".cubes"),
            Command(f"verify {t}.badcount.blocks", "check",
                    ["verify", c.path(f"{t}.badcount.blocks"), "--mode", "exact"],
                    c.refusal(f"header says {n**ell - 1} blocks, file has {n**ell}")),
            Command(f"latin {t}.badvolume.cubes", "check",
                    ["cubes", c.path(f"{t}.badvolume.cubes"), "--check", "latin"],
                    c.refusal(f"has {(k - ell) * n**ell - 1} values, expected")),
        ]
    cub, lifted = "order4.cubes", "order4.lift.blocks"
    for check in ("latin", "orthogonal", "invertible"):
        cmds.append(Command(f"{check} {cub}", "check", ["cubes", c.path(cub), "--check", check],
                            c.cube_verdict(cub, check)))
    cmds += [
        Command(f"lift {cub}", "build", ["cubes", c.path(cub), "--action", "lift", "-o", c.path(lifted)],
                c.lifted(cub), lifted),
        Command(f"verify {lifted}", "check", ["verify", c.path(lifted), "--mode", "exact"],
                c.blocks_verdict(lifted)),
    ]
    return cmds


WORKLOADS = {
    "exact-ladder": (no_inputs, exact_ladder),
    "cover-search": (no_inputs, cover_search),
    "damaged-inputs": (damaged_inputs_inputs, damaged_inputs),
}
