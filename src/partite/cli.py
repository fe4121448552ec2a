"""Command-line front end; the file formats live in `formats`.

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
from .core import CubeSet, Verdict, VerifyReport
from .formats import format_blocks, format_cubes, format_witness, parse_blocks, parse_cubes


def _cmd_construct(args: argparse.Namespace) -> int:
    family = construct(args.k, args.n, args.l)
    Path(args.output).write_text(format_blocks(family))
    return 0


def _witness_line(report: VerifyReport, *passing: Verdict) -> str | None:
    ok = report.verdict in (Verdict.EXACT, *passing)
    return None if ok else format_witness(report.witness)


def _latin_line(cube_set: CubeSet) -> str | None:
    for i, cube in enumerate(cube_set.cubes, start=1):
        result = verify.is_latin(cube)
        if not result.ok:
            line = f"NONLATIN cube {i} axis {result.axis}"
            if result.fixed:
                line += " : " + ",".join(str(v) for v in result.fixed)
            return line
    return None


def _orthogonal_line(cube_set: CubeSet) -> str | None:
    result = verify.are_mutually_orthogonal(cube_set)
    if result.ok:
        return None
    subset = ",".join(str(i) for i in result.cubes)
    values = ",".join(str(v) for v in result.values)
    kind = "MISS" if result.multiplicity == 0 else "DUP"
    return f"NONORTHOGONAL {kind} cubes {subset} : {values}"


def _extract(text: str, positions: str | None) -> str:
    family = parse_blocks(text)
    k, ell = family.params.k, family.params.ell
    chosen = tuple(range(k - ell + 1, k + 1))
    if positions:
        try:
            chosen = tuple(int(tok) for tok in positions.split(","))
        except ValueError:
            raise ValueError(f"bad positions {positions!r}: expected comma-separated integers")
    return format_cubes(cubes.extract_cubes(family, chosen))


# Entries look their functions up when called, so that wrappers installed in
# the module namespaces (the benchmark's spans) see every call.
# command -> check -> (file text -> stdout failure line, or None when it holds)
_CHECKS = {
    "verify": {
        "exact": lambda t: _witness_line(verify.is_decomposition(parse_blocks(t))),
        "cover": lambda t: _witness_line(verify.is_covering(parse_blocks(t)), Verdict.COVER_ONLY),
    },
    "cubes": {
        "latin": lambda t: _latin_line(parse_cubes(t)),
        "orthogonal": lambda t: _orthogonal_line(parse_cubes(t)),
        "invertible": lambda t: _witness_line(verify.is_mutually_invertible(parse_cubes(t))),
    },
}

# action -> (file text, --positions -> text of the output file)
_ACTIONS = {
    "extract": _extract,
    "lift": lambda t, _: format_blocks(cubes.lift_cubes(parse_cubes(t))),
    "mols2blocks": lambda t, _: format_blocks(cubes.mols_to_blocks(parse_cubes(t))),
    "blocks2mols": lambda t, _: format_cubes(cubes.blocks_to_mols(parse_blocks(t))),
}


def _outcome(line: str | None) -> int:
    print("OK" if line is None else line)
    return 0 if line is None else 1


def _cmd_file(args: argparse.Namespace) -> int:
    text = Path(args.input).read_text()
    if args.check is not None:
        return _outcome(_CHECKS[args.command][args.check](text))
    Path(args.output).write_text(_ACTIONS[args.action](text, args.positions))
    return 0


def _cmd_cover(args: argparse.Namespace) -> int:
    family = cover.build_covering(args.k, args.n, args.l)
    lifted = cover.lifting_order(args.k, args.n, args.l)
    lower = args.n**args.l
    print(f"size={len(family.blocks)} lower={lower} lifted_order={lifted}")
    if args.output:
        Path(args.output).write_text(format_blocks(family))
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
    p.add_argument("--mode", dest="check", choices=list(_CHECKS["verify"]), required=True)
    p.set_defaults(func=_cmd_file)

    p = sub.add_parser("cubes", help="check or convert cube systems")
    p.add_argument("input", help="cube or block file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--check", choices=list(_CHECKS["cubes"]))
    group.add_argument("--action", choices=list(_ACTIONS))
    p.add_argument("--positions", help="comma-separated positions for extract")
    p.add_argument("-o", "--output", help="file to write (actions only)")
    p.set_defaults(func=_cmd_file)

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
    if getattr(args, "action", None) in _ACTIONS and not args.output:
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
