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
from .core import BlockFamily, CubeSet, Witness
from .formats import format_blocks, format_cubes, format_witness, parse_blocks, parse_cubes


def _cmd_construct(args: argparse.Namespace) -> int:
    family = construct(args.k, args.n, args.l)
    Path(args.output).write_text(format_blocks(family))
    return 0


def _witness_line(witness: Witness | None) -> str | None:
    return None if witness is None else format_witness(witness)


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


def _extract(family: BlockFamily, positions: str | None) -> str:
    chosen = None  # extraction's default: the last ell positions
    if positions is not None:
        try:
            chosen = tuple(int(tok) for tok in positions.split(","))
        except ValueError:
            raise ValueError(f"bad positions {positions!r}: expected comma-separated integers")
    return format_cubes(cubes.extract_cubes(family, chosen))


# Entries look their functions up when called, so that wrappers installed in
# the module namespaces (the benchmark's spans) see every call.
_BLOCKS, _CUBES = (lambda t: parse_blocks(t)), (lambda t: parse_cubes(t))

# command -> check -> (file text -> parsed file, parsed file -> stdout failure
# line, or None when it holds)
_CHECKS = {
    "verify": {
        # an Exact report carries no witness, and neither does a family with no MISS
        "exact": (_BLOCKS, lambda f: _witness_line(verify.is_decomposition(f).witness)),
        "cover": (_BLOCKS, lambda f: _witness_line(verify._first_miss(f))),
    },
    "cubes": {
        "latin": (_CUBES, _latin_line),
        "orthogonal": (_CUBES, _orthogonal_line),
        "invertible": (_CUBES, lambda c: _witness_line(verify.is_mutually_invertible(c).witness)),
    },
}

# action -> (file text -> parsed file, (parsed file, --positions) -> text of the output file)
_ACTIONS = {
    "extract": (_BLOCKS, _extract),
    "lift": (_CUBES, lambda c, _: format_blocks(cubes.lift_cubes(c))),
    "mols2blocks": (_CUBES, lambda c, _: format_blocks(cubes.mols_to_blocks(c))),
    "blocks2mols": (_BLOCKS, lambda f, _: format_cubes(cubes.blocks_to_mols(f))),
}


def _outcome(line: str | None) -> int:
    print("OK" if line is None else line)
    return 0 if line is None else 1


def _cmd_file(args: argparse.Namespace) -> int:
    check = args.check is not None
    parse, act = _CHECKS[args.command][args.check] if check else _ACTIONS[args.action]
    parsed = parse(Path(args.input).read_text())  # the text is freed before act runs
    if check:
        return _outcome(act(parsed))
    Path(args.output).write_text(act(parsed, args.positions))
    return 0


def _cmd_cover(args: argparse.Namespace) -> int:
    family = cover.build_covering(args.k, args.n, args.l)
    lifted = cover.lifting_order(args.k, args.n, args.l)
    lower = args.n**args.l
    if args.output is not None:  # written first, so a failed write prints nothing on stdout
        Path(args.output).write_text(format_blocks(family))
    print(f"size={len(family._symbols) // args.k} lower={lower} lifted_order={lifted}")
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


def _check_flags(args: argparse.Namespace) -> None:
    """Refuse, with ValueError, a flag of `cubes` that would be ignored or is missing."""
    if args.command != "cubes":
        return
    if args.action is not None and not args.output:
        raise ValueError("--action requires -o/--output")
    if args.check is not None and args.output is not None:
        raise ValueError("-o/--output applies only to --action")
    if args.positions is not None and args.action != "extract":
        raise ValueError("--positions applies only to --action extract")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_flags(args)
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
