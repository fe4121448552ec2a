import functools
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_differential import damaged_text

import partite
from partite import _runs, formats
from partite import (
    BlockFamily,
    CubeSet,
    are_mutually_orthogonal,
    blocks_to_mols,
    construct,
    extract_cubes,
    is_l_extendable,
    lift_cubes,
    orthogonal_not_invertible_cubes,
)
from partite.cli import (
    format_blocks,
    format_cubes,
    main,
    parse_blocks,
    parse_cubes,
)
from partite.cubes import ORTHOGONAL_NOT_INVERTIBLE_PATH

FIXTURE = str(ORTHOGONAL_NOT_INVERTIBLE_PATH)


def test_block_format_round_trip():
    family = construct(4, 5, 2)
    assert parse_blocks(format_blocks(family)) == family


def test_block_format_header_and_layout():
    text = format_blocks(construct(5, 5, 2))
    lines = text.splitlines()
    assert lines[0] == "blocks 5 5 2 25"
    assert len(lines) == 26
    assert text.endswith("\n")
    assert not any(line != line.rstrip() for line in lines)


def test_cube_format_round_trip():
    cube_set = orthogonal_not_invertible_cubes()
    assert parse_cubes(format_cubes(cube_set)) == cube_set


def test_cube_format_layout():
    text = format_cubes(orthogonal_not_invertible_cubes())
    lines = text.splitlines()
    assert lines[0] == "cubes 3 4 3"
    assert len(lines) == 1 + 3 * 16  # m sections of n^(d-1) lines
    assert all(len(line.split()) == 4 for line in lines[1:])


def test_empty_cube_set_round_trip():
    empty = CubeSet(2, 3, ())
    assert format_cubes(empty) == "cubes 2 3 0\n"
    assert parse_cubes(format_cubes(empty)) == empty


def test_parse_blocks_rejects_wrong_count():
    with pytest.raises(ValueError, match="header says"):
        parse_blocks("blocks 2 2 2 3\n1 1\n2 2\n")


def test_parse_blocks_rejects_garbage():
    with pytest.raises(ValueError, match="header"):
        parse_blocks("squares 1 2\n")


def test_parse_cubes_rejects_wrong_volume():
    with pytest.raises(ValueError, match="expected"):
        parse_cubes("cubes 2 2 1\n1 2 2\n")


def test_construct_command_writes_expected_file(tmp_path):
    out = tmp_path / "d.blocks"
    assert main(["construct", "--k", "5", "--n", "5", "--l", "2", "-o", str(out)]) == 0
    content = out.read_text()
    assert content.splitlines()[0] == "blocks 5 5 2 25"
    # byte determinism across runs
    out2 = tmp_path / "d2.blocks"
    main(["construct", "--k", "5", "--n", "5", "--l", "2", "-o", str(out2)])
    assert out2.read_bytes() == out.read_bytes()


def test_construct_command_small_k_equals_ell(tmp_path):
    out = tmp_path / "id.blocks"
    assert main(["construct", "--k", "2", "--n", "3", "--l", "2", "-o", str(out)]) == 0
    assert parse_blocks(out.read_text()).blocks == tuple(
        (a, b) for a in (1, 2, 3) for b in (1, 2, 3)
    )


def test_construct_command_rejects_inadmissible_order(tmp_path, capsys):
    out = tmp_path / "x.blocks"
    code = main(["construct", "--k", "6", "--n", "10", "--l", "2", "-o", str(out)])
    assert code == 2
    assert "prime 2" in capsys.readouterr().err
    assert not out.exists()


def test_verify_command_accepts_construct_output(tmp_path, capsys):
    out = tmp_path / "d.blocks"
    main(["construct", "--k", "4", "--n", "5", "--l", "2", "-o", str(out)])
    assert main(["verify", str(out), "--mode", "exact"]) == 0
    assert main(["verify", str(out), "--mode", "cover"]) == 0


def test_verify_command_reports_missing_projection(tmp_path, capsys):
    family = construct(3, 3, 2)
    trimmed = format_blocks(BlockFamily(family.params, family.blocks[1:]))
    path = tmp_path / "broken.blocks"
    path.write_text(trimmed)
    capsys.readouterr()
    assert main(["verify", str(path), "--mode", "exact"]) == 1
    assert capsys.readouterr().out.strip() == "MISS 1,2 : 1,1"


def test_verify_command_parse_error_exits_2(tmp_path, capsys):
    path = tmp_path / "garbage.blocks"
    path.write_text("not a block file\n")
    assert main(["verify", str(path), "--mode", "exact"]) == 2


def test_verify_command_on_lifted_counterexample(tmp_path, capsys):
    lifted = tmp_path / "lifted.blocks"
    main(["cubes", FIXTURE, "--action", "lift", "-o", str(lifted)])
    capsys.readouterr()
    assert main(["verify", str(lifted), "--mode", "exact"]) == 1
    assert capsys.readouterr().out.strip() == "DUP 1,2,6 : 1,1,1"
    # the lift also fails mere covering: slice 2 never pairs value 1 with 1
    assert main(["verify", str(lifted), "--mode", "cover"]) == 1
    assert capsys.readouterr().out.strip() == "MISS 1,2,6 : 1,1,2"


def test_construct_command_names_violated_inequality(tmp_path, capsys):
    out = tmp_path / "x.blocks"
    assert main(["construct", "--k", "5", "--n", "3", "--l", "2", "-o", str(out)]) == 2
    assert "n >= k" in capsys.readouterr().err


def test_cubes_checks_on_counterexample(capsys):
    assert main(["cubes", FIXTURE, "--check", "latin"]) == 0
    assert main(["cubes", FIXTURE, "--check", "orthogonal"]) == 0
    capsys.readouterr()
    assert main(["cubes", FIXTURE, "--check", "invertible"]) == 1
    # deterministic first offense: the quadruply covered cell of the lift
    assert capsys.readouterr().out.strip() == "DUP 1,2,6 : 1,1,1"


def test_cubes_extract_then_lift_round_trip(tmp_path):
    blocks = tmp_path / "d.blocks"
    cubes_file = tmp_path / "d.cubes"
    lifted = tmp_path / "lifted.blocks"
    main(["construct", "--k", "6", "--n", "7", "--l", "3", "-o", str(blocks)])
    assert main(["cubes", str(blocks), "--action", "extract", "-o", str(cubes_file)]) == 0
    assert main(["cubes", str(cubes_file), "--action", "lift", "-o", str(lifted)]) == 0
    assert lifted.read_bytes() == blocks.read_bytes()


def test_cubes_extract_at_explicit_positions(tmp_path):
    blocks = tmp_path / "d.blocks"
    out = tmp_path / "d.cubes"
    main(["construct", "--k", "4", "--n", "5", "--l", "2", "-o", str(blocks)])
    code = main(
        ["cubes", str(blocks), "--action", "extract", "--positions", "1,3",
         "-o", str(out)]
    )
    assert code == 0
    assert parse_cubes(out.read_text()).d == 2


def test_cubes_extract_is_linear_in_k(tmp_path):
    # the free columns are taken by set membership, not by scanning the positions
    blocks = tmp_path / "d.blocks"
    assert main(["construct", "--k", "40000", "--n", "1", "--l", "20000", "-o", str(blocks)]) == 0
    outputs = {}
    for name, positions in [("default", None), ("first", range(1, 20001)),
                            ("last", range(20001, 40001))]:
        flags = [] if positions is None else ["--positions", ",".join(map(str, positions))]
        out = tmp_path / f"{name}.cubes"
        start = time.perf_counter()
        assert main(["cubes", str(blocks), "--action", "extract", *flags, "-o", str(out)]) == 0
        assert time.perf_counter() - start < 1.0
        outputs[name] = out.read_bytes()
    assert outputs["default"] == outputs["last"]


def test_cubes_mols_round_trip(tmp_path):
    blocks = tmp_path / "d.blocks"
    squares = tmp_path / "d.cubes"
    back = tmp_path / "back.blocks"
    main(["construct", "--k", "4", "--n", "5", "--l", "2", "-o", str(blocks)])
    assert main(["cubes", str(blocks), "--action", "blocks2mols", "-o", str(squares)]) == 0
    assert main(["cubes", str(squares), "--action", "mols2blocks", "-o", str(back)]) == 0
    assert back.read_bytes() == blocks.read_bytes()


def test_cubes_action_requires_output(capsys):
    assert main(["cubes", FIXTURE, "--action", "lift"]) == 2


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--action", "lift", "--positions", "9", "-o", "y"], "--positions applies only to --action extract"),
        (["--action", "mols2blocks", "--positions", "1,2", "-o", "y"], "--positions applies only to --action extract"),
        (["--check", "latin", "--positions", "1"], "--positions applies only to --action extract"),
        (["--check", "latin", "-o", "y"], "-o/--output applies only to --action"),
        (["--check", "invertible", "--output", "y"], "-o/--output applies only to --action"),
    ],
)
def test_cubes_misused_flags_exit_2(tmp_path, capsys, flags, message):
    flags = [str(tmp_path / f) if f == "y" else f for f in flags]
    assert main(["cubes", FIXTURE, *flags]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_cubes_orthogonal_check_needs_enough_cubes(tmp_path, capsys):
    path = tmp_path / "one.cubes"
    path.write_text("cubes 2 2 1\n1 2\n2 1\n")
    assert main(["cubes", str(path), "--check", "orthogonal"]) == 2
    assert "at least" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, line",
    [
        pytest.param("cubes 2 2 1\n1 1\n2 2\n", "NONLATIN cube 1 axis 2 : 1", id="flat"),
        # a one-dimensional cube has a single line, so no fixed coordinates follow
        pytest.param("cubes 1 3 1\n1 1 2\n", "NONLATIN cube 1 axis 1", id="d1"),
        pytest.param("cubes 2 2 2\n1 2\n2 1\n1 1\n2 2\n", "NONLATIN cube 2 axis 2 : 1",
                     id="second"),
    ],
)
def test_cubes_latin_check_reports_violating_line(tmp_path, capsys, text, line):
    path = tmp_path / "flat.cubes"
    path.write_text(text)
    capsys.readouterr()
    assert main(["cubes", str(path), "--check", "latin"]) == 1
    assert capsys.readouterr().out == line + "\n"


@pytest.mark.parametrize(
    "squares, line",
    [
        pytest.param("1 2\n2 1\n" * 2, "NONORTHOGONAL DUP cubes 1,2 : 1,1", id="dup"),
        pytest.param("2 2\n" * 4, "NONORTHOGONAL MISS cubes 1,2 : 1,1", id="miss"),
    ],
)
def test_cubes_orthogonal_check_reports_duplicate_image(tmp_path, capsys, squares, line):
    path = tmp_path / "pair.cubes"
    path.write_text("cubes 2 2 2\n" + squares)
    capsys.readouterr()
    assert main(["cubes", str(path), "--check", "orthogonal"]) == 1
    assert capsys.readouterr().out == line + "\n"


def test_cubes_bad_positions_exit_2(tmp_path, capsys):
    blocks = tmp_path / "d.blocks"
    main(["construct", "--k", "4", "--n", "5", "--l", "2", "-o", str(blocks)])
    out = tmp_path / "d.cubes"
    code = main(
        ["cubes", str(blocks), "--action", "extract", "--positions", "a,b",
         "-o", str(out)]
    )
    assert code == 2
    assert "bad positions 'a,b': expected comma-separated integers" in capsys.readouterr().err
    assert not out.exists()


def test_cubes_empty_positions_exit_2(tmp_path, capsys):
    # a given --positions is never ignored, not even when empty
    blocks = tmp_path / "d.blocks"
    main(["construct", "--k", "4", "--n", "5", "--l", "2", "-o", str(blocks)])
    out = tmp_path / "d.cubes"
    code = main(
        ["cubes", str(blocks), "--action", "extract", "--positions", "", "-o", str(out)]
    )
    assert code == 2
    assert "bad positions '': expected comma-separated integers" in capsys.readouterr().err
    assert not out.exists()


def test_cubes_extract_rejects_non_exact_input(tmp_path, capsys):
    lifted = tmp_path / "lifted.blocks"
    main(["cubes", FIXTURE, "--action", "lift", "-o", str(lifted)])
    out = tmp_path / "never.cubes"
    assert main(["cubes", str(lifted), "--action", "extract", "-o", str(out)]) == 2
    assert "not an exact decomposition" in capsys.readouterr().err


def test_cover_command_prints_stats(tmp_path, capsys):
    out = tmp_path / "c.blocks"
    assert main(["cover", "--k", "4", "--n", "2", "--l", "2", "-o", str(out)]) == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("size=")
    assert "lower=4" in line
    assert "lifted_order=5" in line
    size = int(line.split()[0].split("=")[1])
    assert size <= 25
    assert main(["verify", str(out), "--mode", "cover"]) == 0


def test_cover_command_unwritable_output_prints_nothing(tmp_path, capsys):
    out = tmp_path / "missing" / "c.blocks"
    assert main(["cover", "--k", "4", "--n", "2", "--l", "2", "-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_cover_command_empty_output_name_exits_2(tmp_path, monkeypatch, capsys):
    # a given flag is never ignored: "" names the working directory, so the write fails
    monkeypatch.chdir(tmp_path)
    assert main(["cover", "--k", "4", "--n", "2", "--l", "2", "-o", ""]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert list(tmp_path.iterdir()) == []


def test_module_entry_point_exits_with_mains_code(tmp_path):
    # `python -m partite.cli` exits through the same main the console script calls
    ok = tmp_path / "d.blocks"
    assert main(["construct", "--k", "4", "--n", "5", "--l", "2", "-o", str(ok)]) == 0
    env = dict(os.environ, PYTHONPATH=str(Path(partite.__file__).parents[1]))
    runs = [
        (["verify", str(ok), "--mode", "exact"], 0, "OK\n", ""),
        (["cubes", FIXTURE, "--check", "invertible"], 1, "DUP 1,2,6 : 1,1,1\n", ""),
        (["cubes", FIXTURE, "--action", "extract"], 2, "", "error: --action requires -o/--output\n"),
    ]
    for argv, code, out, err in runs:
        done = subprocess.run([sys.executable, "-m", "partite.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout, done.stderr) == (code, out, err)


def test_minsearch_command_prints_minimum(capsys):
    assert main(["minsearch", "--k", "4", "--n", "2", "--l", "2"]) == 0
    assert capsys.readouterr().out.strip() == "5"
    assert main(["minsearch", "--k", "3", "--n", "2", "--l", "2"]) == 0
    assert capsys.readouterr().out.strip() == "4"


def test_minsearch_budget_exhaustion(capsys):
    assert main(["minsearch", "--k", "4", "--n", "2", "--l", "2", "--budget", "1"]) == 0
    assert capsys.readouterr().out.strip() == "unknown (budget)"


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_minsearch_rejects_budget_below_one(capsys, budget):
    assert main(["minsearch", "--k", "4", "--n", "2", "--l", "2", "--budget", budget]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"budget >= 1 required (budget={budget})" in captured.err


def test_minsearch_guard_exits_2(capsys):
    assert main(["minsearch", "--k", "13", "--n", "2", "--l", "2"]) == 2


@pytest.mark.parametrize(
    "argv, line",
    [
        (["cover", "--k", "8", "--n", "1", "--l", "5"], "size=1 lower=1 lifted_order=1"),
        (["minsearch", "--k", "8", "--n", "1", "--l", "5"], "1"),
        # C(100000, 2) pairs, far above any table the search could build
        (["minsearch", "--k", "100000", "--n", "1", "--l", "2"], "1"),
    ],
    ids=["cover", "minsearch", "minsearch-wide"],
)
def test_order_one_commands_answer_with_one_block(capsys, argv, line):
    start = time.perf_counter()
    assert main(argv) == 0
    assert time.perf_counter() - start < 0.5
    assert capsys.readouterr().out == line + "\n"


# every command that reads a file, with the input kind it expects
FILE_COMMANDS = [
    ["verify", "--mode", "exact"],
    ["verify", "--mode", "cover"],
    ["cubes", "--check", "latin"],
    ["cubes", "--check", "orthogonal"],
    ["cubes", "--check", "invertible"],
    ["cubes", "--action", "extract"],
    ["cubes", "--action", "lift"],
    ["cubes", "--action", "mols2blocks"],
    ["cubes", "--action", "blocks2mols"],
]
VALID_FILES = [format_blocks(construct(k, n, ell)) for k, n, ell in
               [(3, 3, 2), (4, 5, 2), (4, 5, 3), (3, 2, 1)]] + [
    format_cubes(blocks_to_mols(construct(4, 5, 2))),
    format_cubes(extract_cubes(construct(4, 5, 3), (2, 3, 4))),
    ORTHOGONAL_NOT_INVERTIBLE_PATH.read_text(),
]
WRONG_HEADERS = [
    "", "blocks", "cubes", "blocks 4 5 2", "blocks 4 5 2 25 1", "blocks 4 5 9 25",
    "blocks 0 5 2 25", "blocks 4 5 2 -1", "cubes 2 5", "cubes 2 5 2 1", "cubes 0 5 2",
    "cubes 2 -5 2", "cubes 3 5 2", "squares 2 5 2",
]


@st.composite
def damaged_files(draw):
    text = draw(st.sampled_from(VALID_FILES))
    damage = draw(st.sampled_from(["token", "header", "no lines"]))
    if damage == "no lines":
        return draw(st.sampled_from(["", "\n", " \n\t\n"]))
    if damage == "header":
        return "\n".join([draw(st.sampled_from(WRONG_HEADERS))] + text.split("\n")[1:])
    return draw(damaged_text(text, int(text.split()[2])))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.sampled_from(FILE_COMMANDS), damaged_files())
def test_file_commands_never_raise_on_damaged_files(argv, text):
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "in"
        path.write_text(text)
        argv = [argv[0], str(path)] + argv[1:]
        if "--action" in argv:
            argv += ["-o", str(Path(work) / "out")]
        assert main(argv) in (0, 1, 2)


@pytest.mark.parametrize(
    "header, argv, power",
    [
        ("blocks 3 100000 3 1\n1 1 1\n", ["verify", "--mode", "exact"], "n^3 = 100000^3"),
        ("blocks 3 100000 3 1\n1 1 1\n", ["verify", "--mode", "cover"], "n^3 = 100000^3"),
        ("cubes 3 100000 0\n", ["cubes", "--check", "invertible"], "n^3 = 100000^3"),
        ("cubes 3 100000 0\n", ["cubes", "--action", "lift", "-o", "x"], "n^d = 100000^3"),
        ("cubes 2 100000 0\n", ["cubes", "--action", "mols2blocks", "-o", "x"], "n^d"),
        ("cubes 3 1025 1\nx\n", ["cubes", "--check", "latin"], "m*n^d = 1*1025^3"),
        ("cubes 2 1024 2\n", ["cubes", "--action", "lift", "-o", "x"], "m*n^d = 2*1024^2"),
        ("cubes 100000000 3 2\n", ["cubes", "--check", "invertible"], "m*n^d = 2*3^100000000"),
    ],
)
def test_over_large_input_files_exit_2(tmp_path, capsys, header, argv, power):
    path = tmp_path / "big"
    path.write_text(header)
    argv = [argv[0], str(path)] + [str(tmp_path / a) if a == "x" else a for a in argv[1:]]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert power in err and "exceeds the size limit 1048576" in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["construct", "--k", "3", "--n", "10007", "--l", "3"], "k*n^l = 3*10007^3"),
        (["cover", "--k", "100000", "--n", "2", "--l", "2"], "k*n^l = 100000*100003^2"),
        (["cover", "--k", "3", "--n", "1000000000000000003", "--l", "2"], "k*n^l"),
        (["minsearch", "--k", "100000000", "--n", "3", "--l", "2"], "exceeds guard 4096"),
        (["minsearch", "--k", "12", "--n", "2", "--l", "6"], "(k*n)^l"),
    ],
)
def test_over_large_requests_exit_2_quickly(tmp_path, capsys, argv, message):
    out = tmp_path / "x.blocks"
    if argv[0] == "construct":
        argv = argv + ["-o", str(out)]
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1.0
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "text, argv, code, out",
    [
        ("blocks 60 2 5 1\n" + " ".join(["1"] * 60) + "\n", ["verify", "--mode", "exact"],
         1, "MISS 1,2,3,4,5 : 1,1,1,1,2\n"),
        ("cubes 100000000 3 0\n", ["cubes", "--check", "latin"], 0, "OK\n"),
        # order 1: C(100, 50), C(80, 40) or C(40, 20) index sets of a single cell each
        ("blocks 100 1 50 1\n" + " ".join(["1"] * 100) + "\n", ["verify", "--mode", "exact"],
         0, "OK\n"),
        ("blocks 100 1 50 1\n" + " ".join(["1"] * 100) + "\n", ["verify", "--mode", "cover"],
         0, "OK\n"),
        ("blocks 100 1 50 2\n" + (" ".join(["1"] * 100) + "\n") * 2,
         ["verify", "--mode", "cover"], 0, "OK\n"),
        ("cubes 40 1 40\n" + "1\n" * 40, ["cubes", "--check", "invertible"], 0, "OK\n"),
        ("cubes 20 1 40\n" + "1\n" * 40, ["cubes", "--check", "orthogonal"], 0, "OK\n"),
        # order 1: the row count decides, so no d-long line or index set is formed
        ("cubes 4000 1 1\n1\n", ["cubes", "--check", "latin"], 0, "OK\n"),
        ("cubes 200000 1 1\n1\n", ["cubes", "--check", "invertible"], 0, "OK\n"),
        # the m + d index pool is formed only when a witness needs the first set
        pytest.param("cubes 300000 1 1\n1\n", ["cubes", "--check", "invertible"], 0, "OK\n",
                     id="order-1-invertible-index-pool"),
        # a failing check takes only its first index set, never the k-position pool
        ("blocks 1000000 2 1 0\n", ["verify", "--mode", "exact"], 1, "MISS 1 : 1\n"),
        ("blocks 1000000 2 1 0\n", ["verify", "--mode", "cover"], 1, "MISS 1 : 1\n"),
        ("blocks 1000000 1 1 0\n", ["verify", "--mode", "exact"], 1, "MISS 1 : 1\n"),
        ("blocks 1000000 1 1 0\n", ["verify", "--mode", "cover"], 1, "MISS 1 : 1\n"),
        # the empty family's columns are empty slices, so no k-long row or column list forms
        pytest.param("blocks 1000000 2 2 0\n",
                     ["cubes", "--action", "blocks2mols", "-o", os.devnull], 2, "",
                     id="blocks2mols-wide-empty-family"),
    ],
)
def test_large_headers_answer_quickly(tmp_path, capsys, text, argv, code, out):
    path = tmp_path / "in"
    path.write_text(text)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        assert main([argv[0], str(path)] + argv[1:]) == code
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.5
    assert peak < 2 * 2**20
    assert capsys.readouterr().out == out


def test_block_file_check_builds_no_rows():
    # parse_blocks keeps the (7,49,3) file as one array("I") and the check packs
    # strided slices of it; its 117,649 row tuples took the peak to 21.2 MiB.
    # The parse holds the peak, so the last block is dropped and the first index
    # set fails: the exact file's 35 sets take 8 s under tracemalloc, at one peak
    lines = format_blocks(construct(7, 49, 3)).split("\n")
    text = "\n".join([f"blocks 7 49 3 {49**3 - 1}"] + lines[1:-2] + [""])
    tracemalloc.start()
    try:
        witness = is_l_extendable(parse_blocks(text)).witness
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (witness.index_set, witness.values, witness.multiplicity) == ((1, 2, 3), (49, 49, 49), 0)
    assert peak < 18 * 2**20


def test_cube_file_check_builds_no_tuples():
    # parse_cubes converts the (7,49,3) cube file 64 KiB of text at a time into
    # one array("I"), each cube keeps its slice and the check packs it; the
    # whole-file split held 470,600 str and took the peak to 31.1 MiB
    text = format_cubes(extract_cubes(construct(7, 49, 3)))
    tracemalloc.start()
    try:
        result = are_mutually_orthogonal(parse_cubes(text))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.ok
    assert peak < 10 * 2**20


def test_block_writer_holds_no_str_per_line():
    # format_blocks joins 4,096 lines at a time; a str per line of the
    # (7,49,3) family took the peak to 13.0 MiB
    family = construct(7, 49, 3)
    tracemalloc.start()
    try:
        text = format_blocks(family)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text.count("\n") == 49**3 + 1
    assert peak < 7 * 2**20


def test_cube_writer_holds_no_str_per_line():
    # format_cubes joins about 2^13 symbols at a time, each through a memo of
    # its text; joins of 4,096 lines of 49 took the peak to 3.65 MiB
    cube_set = extract_cubes(construct(7, 49, 3))
    tracemalloc.start()
    try:
        text = format_cubes(cube_set)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text.count("\n") == 4 * 49**2 + 1
    assert peak < 3 * 2**20


def test_construct_builds_no_row_tuples():
    # construct scatters its columns into one row-major array; its 117,649 row
    # tuples took the peak to 12.45 MiB, and to 16.1 MiB with the write, whose
    # own peak on a constructed family test_block_writer_holds_no_str_per_line bounds
    tracemalloc.start()
    try:
        family = construct(7, 49, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(family._symbols) == 7 * 49**3
    assert peak < 6 * 2**20


def test_lifted_family_is_written_without_row_tuples():
    # the lift scatters its columns into one row-major array that format_blocks
    # reads rows off; its 117,649 row tuples took the peak to 17.75 MiB
    text = format_cubes(extract_cubes(construct(7, 49, 3)))
    tracemalloc.start()
    try:
        written = format_blocks(lift_cubes(parse_cubes(text)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert written.count("\n") == 49**3 + 1
    assert peak < 10 * 2**20


def test_block_parse_holds_no_str_per_line():
    # parse_blocks splits about 64 KiB of text into lines at a time; a str per
    # line of the (7,49,3) file took the peak to 12.6 MiB
    text = format_blocks(construct(7, 49, 3))
    tracemalloc.start()
    try:
        family = parse_blocks(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(family.blocks) == 49**3
    assert peak < 8 * 2**20


# with the parse split across two processes, even on one CPU, the child's
# items stream into this process's one array: a joined reply took 8.39 MiB
@pytest.mark.parametrize("test", [test_block_parse_holds_no_str_per_line,
                                  test_cube_file_check_builds_no_tuples])
def test_split_parse_streams_the_reply(monkeypatch, test):
    monkeypatch.setattr(_runs, "_cpus", lambda: 2)
    monkeypatch.setattr(formats, "_SPLIT_CHARS", 0)
    test()


@pytest.mark.parametrize("extra", [-1, 1])
def test_block_file_with_a_wrong_count_converts_no_token(monkeypatch, extra):
    # a file as written has one "\n" per line, so a header count that disagrees
    # is checked against the lines before any token is converted
    lines = format_blocks(construct(5, 25, 3)).split("\n")
    text = "\n".join([f"blocks 5 25 3 {25**3 + extra}"] + lines[1:])

    def no_conversion(memo, token):
        raise AssertionError(f"converted {token!r}")

    monkeypatch.setattr(formats._Tokens, "__missing__", no_conversion)
    with pytest.raises(ValueError, match=f"header says {25**3 + extra} blocks, file has {25**3}$"):
        parse_blocks(text)


def test_block_symbol_past_32_bits_is_refused_within_n():
    # symbols are held as unsigned 32-bit values, so a header may declare n of
    # 2^32 or more, but a symbol above 2^32 - 1 is refused, naming that range
    assert parse_blocks("blocks 2 4294967297 1 1\n1 2\n").params.n == 2**32 + 1
    with pytest.raises(ValueError, match=r"^symbol 4294967297 outside 1\.\.4294967295 in block "
                                         r"\(1, 4294967297\)$"):
        parse_blocks("blocks 2 4294967297 1 1\n1 4294967297\n")


# a 0.33 MB block file and a 0.32 MB cube file, both past _SPLIT_CHARS
PEAK_BLOCKS = format_blocks(construct(5, 29, 3))
PEAK_CUBES = format_cubes(extract_cubes(construct(7, 31, 3)))


def _last_token(text: str, new: str) -> str:
    """text with its last token written as new."""
    return text[: text.rstrip().rindex(" ") + 1] + new + "\n"


# damage -> (parse, clean text, damaged text, message); each damage but the
# header's count is in the last line, so the array parse converts the whole file
# before it gives up, and the x follows a short first block, chunks earlier,
# which must not end the naming pass
PEAK_DAMAGES = {
    "x": (parse_blocks, PEAK_BLOCKS,
          _last_token(PEAK_BLOCKS.replace("\n1 1 1 1 1\n", "\n1 1 1 1\n", 1), "x"),
          "invalid literal for int() with base 10: 'x'"),
    "line of k + 1": (parse_blocks, PEAK_BLOCKS, PEAK_BLOCKS[:-1] + " 1\n",
                      "block length 6 does not match k=5: (29, 29, 29, 29, 29, 1)"),
    "count one short": (parse_blocks, PEAK_BLOCKS,
                        PEAK_BLOCKS.replace(f" {29**3}\n", f" {29**3 - 1}\n", 1),
                        f"header says {29**3 - 1} blocks, file has {29**3}"),
    "-3": (parse_cubes, PEAK_CUBES, _last_token(PEAK_CUBES, "-3"), "symbol -3 outside 1..31"),
    "2^32": (parse_cubes, PEAK_CUBES, _last_token(PEAK_CUBES, str(2**32)),
             f"symbol {2**32} outside 1..31"),
}


@functools.cache
def _clean_peak(parse, text: str, cpus: int) -> int:
    """parse(text)'s peak with _runs._cpus patched to cpus, which the caller does."""
    message, peak = _peak(parse, text)
    assert message is None
    return peak


def _peak(parse, text: str) -> tuple[str | None, int]:
    """parse(text)'s message, or None, and its tracemalloc peak."""
    message = None
    tracemalloc.start()
    try:
        parse(text)
    except ValueError as exc:
        message = str(exc)
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return message, peak


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("damage", PEAK_DAMAGES)
def test_damaged_file_parses_in_a_clean_files_memory(monkeypatch, cpus, damage):
    # a damaged file is named a chunk at a time, holding no row, value or line
    # past its chunk: a whole-file row read or re-split peaked at 4 to 8 times
    # the clean parse at (7,49,3), and a wrong count's re-split at 1.7 times
    monkeypatch.setattr(_runs, "_cpus", lambda: cpus)
    parse, clean, damaged, message = PEAK_DAMAGES[damage]
    assert len(clean) >= formats._SPLIT_CHARS  # split across the CPUs where cpus > 1
    damaged_message, damaged_peak = _peak(parse, damaged)
    assert damaged_message == message
    assert damaged_peak <= 1.25 * _clean_peak(parse, clean, cpus)


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("end", ["\r", "\u2028"], ids=["CR", "U+2028"])
def test_every_line_break_cuts_a_block_file(monkeypatch, cpus, end):
    # a block file is cut at each break splitlines reads: cut at "\n" alone, a
    # file without one parsed in one piece on one CPU, at 3.1 to 3.8 times the peak
    monkeypatch.setattr(_runs, "_cpus", lambda: cpus)
    text = PEAK_BLOCKS.replace("\n", end)
    tracemalloc.start()
    try:
        family = parse_blocks(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * _clean_peak(parse_blocks, PEAK_BLOCKS, cpus)
    assert family == parse_blocks(PEAK_BLOCKS)


@pytest.mark.parametrize("n", [3_000_000, 10**30])
def test_header_only_cube_file_writes_without_a_row_template(n):
    # the writer's row template has n fields, so it is built only for a row:
    # at 10^30 it raised OverflowError, and 3,000,000 took 31.5 MiB
    tracemalloc.start()
    try:
        text = format_cubes(parse_cubes(f"cubes 1 {n} 0"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == f"cubes 1 {n} 0\n"
    assert peak < 2**20


@pytest.mark.parametrize("k", [3_000_000, 10**30])
def test_header_only_block_file_writes_without_a_row_template(k):
    # a join holds whole lines, at most sys.maxsize symbols, so no header's width
    # sizes it: 4,096 lines of 10^30 raised ValueError in islice; the rows,
    # read after the write, form no k-long list either
    tracemalloc.start()
    try:
        family = parse_blocks(f"blocks {k} 2 1 0")
        text = format_blocks(family)
        rows = family.blocks
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (text, rows) == (f"blocks {k} 2 1 0\n", ())
    assert peak < 2**20


@pytest.mark.parametrize(
    "text, argv, power",
    [
        ("blocks 6000000 2 3000000 0\n", ["verify", "--mode", "exact"], "n^3000000 = 2^3000000"),
        ("cubes 6000000 2 0\n", ["cubes", "--check", "invertible"], "n^6000000 = 2^6000000"),
        ("blocks 6000000 2 3000000 0\n", ["cubes", "--action", "extract", "-o", "x"],
         "n^3000000 = 2^3000000"),
    ],
)
def test_header_only_requests_refuse_before_allocating(tmp_path, capsys, text, argv, power):
    # the kernel checks n^w before it takes an index set, and extraction's
    # default positions are a range, so nothing holds the k (or m + d) columns
    path = tmp_path / "in"
    path.write_text(text)
    argv = [argv[0], str(path)] + [str(tmp_path / a) if a == "x" else a for a in argv[1:]]
    tracemalloc.start()
    try:
        start = time.perf_counter()
        assert main(argv) == 2
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.5
    assert peak < 50 * 2**20
    assert capsys.readouterr() == ("", f"error: {power} exceeds the size limit 1048576\n")
    assert not (tmp_path / "x").exists()


def test_order_1_lift_refuses_more_symbols_than_the_size_limit(tmp_path, capsys):
    # at n = 1 a cube file pays nothing for d, so the lift bounds the (m + d) * n^d
    # symbols it writes, as construct and cover bound k * n^l
    path = tmp_path / "in"
    path.write_text("cubes 1048577 1 0\n")
    out = tmp_path / "x"
    start = time.perf_counter()
    assert main(["cubes", str(path), "--action", "lift", "-o", str(out)]) == 2
    assert time.perf_counter() - start < 0.5
    assert capsys.readouterr() == (
        "", "error: (m+d)*n^d = 1048577*1^1048577 exceeds the size limit 1048576\n")
    assert not out.exists()


def test_parse_cubes_rejects_negative_header():
    with pytest.raises(ValueError, match="bad cube header: negative value in 'cubes -1 0 1'"):
        parse_cubes("cubes -1 0 1\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("cubes 0 3 1\n", "error: cube dimensions must be positive (d=0, n=3)\n"),
        ("cubes 2 0 1\n1\n", "error: cube dimensions must be positive (d=2, n=0)\n"),
    ],
)
def test_cube_header_with_a_zero_dimension_exits_2(tmp_path, capsys, text, message):
    path = tmp_path / "zero.cubes"
    path.write_text(text)
    assert main(["cubes", str(path), "--check", "latin"]) == 2
    assert capsys.readouterr() == ("", message)
