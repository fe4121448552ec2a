import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_differential import damaged_text

from partite import (
    BlockFamily,
    CubeSet,
    blocks_to_mols,
    construct,
    extract_cubes,
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
    ],
    ids=["cover", "minsearch"],
)
def test_order_one_commands_answer_with_one_block(capsys, argv, line):
    assert main(argv) == 0
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
        (["minsearch", "--k", "100000", "--n", "1", "--l", "2"], "(k*n)^l"),
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
    ],
)
def test_large_headers_answer_quickly(tmp_path, capsys, text, argv, code, out):
    path = tmp_path / "in"
    path.write_text(text)
    start = time.perf_counter()
    assert main([argv[0], str(path)] + argv[1:]) == code
    assert time.perf_counter() - start < 0.5
    assert capsys.readouterr().out == out


def test_parse_cubes_rejects_negative_header():
    with pytest.raises(ValueError, match="bad cube header: negative value in 'cubes -1 0 1'"):
        parse_cubes("cubes -1 0 1\n")
