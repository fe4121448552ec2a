"""Command-line front end and the two text file formats.

Block files: header `blocks k n l count`, then `count` lines of k symbols,
sorted lexicographically.  Cube files: header `cubes d n m`, then for each
cube n^(d-1) lines of n symbols, last coordinate fastest.  Both formats are
LF-terminated with single spaces and no trailing whitespace, so identical
objects always serialize to identical bytes.

Exit codes: 0 = success / property holds, 1 = property fails (witness on
stdout), 2 = usage, parse, or parameter error, or a size above
core.SIZE_LIMIT.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import cover, cubes, verify
from .construct import construct
from .core import BlockFamily, CubeSet, LatinCube, Params, Verdict, Witness, check_size


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


def _write(path: str, content: str) -> None:
    Path(path).write_text(content)


def _cmd_construct(args: argparse.Namespace) -> int:
    family = construct(args.k, args.n, args.l)
    _write(args.output, format_blocks(family))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    family = parse_blocks(Path(args.input).read_text())
    if args.mode == "exact":
        report = verify.is_decomposition(family)
        ok = report.verdict is Verdict.EXACT
    else:
        report = verify.is_covering(family)
        ok = report.verdict is not Verdict.FAIL
    if ok:
        print("OK")
        return 0
    print(format_witness(report.witness))
    return 1


def _parse_positions(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise ValueError(f"bad positions {text!r}: expected comma-separated integers")


def _cmd_cubes(args: argparse.Namespace) -> int:
    raw = Path(args.input).read_text()
    if args.check is not None:
        cube_set = parse_cubes(raw)
        if args.check == "latin":
            for i, cube in enumerate(cube_set.cubes, start=1):
                result = verify.is_latin(cube)
                if not result.ok:
                    line = f"NONLATIN cube {i} axis {result.axis}"
                    if result.fixed:
                        line += " : " + ",".join(str(v) for v in result.fixed)
                    print(line)
                    return 1
            print("OK")
            return 0
        if args.check == "orthogonal":
            result = verify.are_mutually_orthogonal(cube_set)
            if not result.ok:
                subset = ",".join(str(i) for i in result.cubes)
                values = ",".join(str(v) for v in result.values)
                kind = "MISS" if result.multiplicity == 0 else "DUP"
                print(f"NONORTHOGONAL {kind} cubes {subset} : {values}")
                return 1
            print("OK")
            return 0
        report = verify.is_mutually_invertible(cube_set)
        if report.verdict is not Verdict.EXACT:
            print(format_witness(report.witness))
            return 1
        print("OK")
        return 0

    if args.action == "extract":
        family = parse_blocks(raw)
        k, ell = family.params.k, family.params.ell
        positions = (
            _parse_positions(args.positions)
            if args.positions
            else tuple(range(k - ell + 1, k + 1))
        )
        _write(args.output, format_cubes(cubes.extract_cubes(family, positions)))
    elif args.action == "lift":
        _write(args.output, format_blocks(cubes.lift_cubes(parse_cubes(raw))))
    elif args.action == "mols2blocks":
        _write(args.output, format_blocks(cubes.mols_to_blocks(parse_cubes(raw))))
    else:  # blocks2mols
        _write(args.output, format_cubes(cubes.blocks_to_mols(parse_blocks(raw))))
    return 0


def _cmd_cover(args: argparse.Namespace) -> int:
    family = cover.build_covering(args.k, args.n, args.l)
    lifted = cover.lifting_order(args.k, args.n, args.l)
    lower = args.n**args.l
    print(f"size={len(family.blocks)} lower={lower} lifted_order={lifted}")
    if args.output:
        _write(args.output, format_blocks(family))
    return 0


def _cmd_minsearch(args: argparse.Namespace) -> int:
    size = cover.exact_cover_size(args.k, args.n, args.l, budget=args.budget)
    if size is None:
        print("unknown (budget)")
    else:
        print(size)
    return 0


def _add_params(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--k", type=int, required=True, help="colour classes")
    parser.add_argument("--n", type=int, required=True, help="symbols per class")
    parser.add_argument("--l", type=int, required=True, help="strength")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="partite",
        description="Construct, verify, and convert clique decompositions "
        "of complete multipartite graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build an exact decomposition")
    _add_params(p)
    p.add_argument("-o", "--output", required=True, help="block file to write")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="check a block file")
    p.add_argument("input", help="block file")
    p.add_argument("--mode", choices=["exact", "cover"], required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("cubes", help="check or convert cube systems")
    p.add_argument("input", help="cube or block file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--check", choices=["latin", "orthogonal", "invertible"])
    group.add_argument(
        "--action", choices=["extract", "lift", "mols2blocks", "blocks2mols"]
    )
    p.add_argument("--positions", help="comma-separated positions for extract")
    p.add_argument("-o", "--output", help="file to write (actions only)")
    p.set_defaults(func=_cmd_cubes)

    p = sub.add_parser("cover", help="build a covering family")
    _add_params(p)
    p.add_argument("-o", "--output", help="block file to write")
    p.set_defaults(func=_cmd_cover)

    p = sub.add_parser("minsearch", help="exact minimum covering size")
    _add_params(p)
    p.add_argument("--budget", type=int, default=cover.DEFAULT_BUDGET,
                   help="search node limit")
    p.set_defaults(func=_cmd_minsearch)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "action", None) in ("extract", "lift", "mols2blocks", "blocks2mols"):
        if not args.output:
            print("error: --action requires -o/--output", file=sys.stderr)
            return 2
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
