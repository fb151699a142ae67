"""End-to-end runs of every subcommand through the click test runner."""

import importlib
import re
import sys

import pytest
from click.testing import CliRunner

from modalmin.cli import _CLAIMS, main
from modalmin.formula import MAX_DIGITS, MAX_NESTING
from modalmin.gallery import format_witnesses, transfer_witnesses
from modalmin.kripke import MAX_STATES, UNIVERSE_CAP, VALIDITY_CAP_BITS, ResourceCapError

from .conftest import time_limit

SINGLE_MODEL = """\
frame triangle
states 3
edge 0 1
edge 1 2
edge 2 0
edge 1 0
edge 2 1
edge 0 2
val p1 2
point 0
"""

DOUBLE_MODEL = """\
frame doubled
states 6
edge 0 1
edge 1 2
edge 2 0
edge 1 0
edge 2 1
edge 0 2
edge 3 4
edge 4 5
edge 5 3
edge 4 3
edge 5 4
edge 3 5
edge 3 3
val p1 2 5
point 0
"""

CHAIN_FRAME = """\
frame chain
states 2
edge 0 1
"""


@pytest.fixture()
def runner():
    return CliRunner()


def _invoke(runner, *args):
    return runner.invoke(main, list(args), catch_exceptions=False)


def _model_file(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# --- evaluation and validity ------------------------------------------------


def test_eval_reads_point_from_file(runner, tmp_path):
    path = _model_file(tmp_path, "m.model", SINGLE_MODEL)
    result = _invoke(runner, "eval", "--model", path, "--formula", "<> p1")
    assert result.exit_code == 0
    assert result.output == "TRUE\n"


def test_eval_point_override_and_global_formula(runner, tmp_path):
    path = _model_file(tmp_path, "m.model", SINGLE_MODEL)
    result = _invoke(runner, "eval", "--model", path, "--point", "2", "--formula", "p1")
    assert result.output == "TRUE\n"
    result = _invoke(runner, "eval", "--model", path, "--formula", "A <> T")
    assert result.output == "TRUE\n"
    result = _invoke(runner, "eval", "--model", path, "--formula", "E (p1 & <> p1)")
    assert result.output == "FALSE\n"


def test_valid_builtin_khat_against_noncol_formula(runner):
    emitted = _invoke(runner, "noncol", "--emit", "3")
    assert emitted.exit_code == 0
    phi = emitted.output.strip()
    result = _invoke(runner, "valid", "--frame", "builtin:khat3", "--formula", phi)
    assert result.exit_code == 0
    assert result.output == "VALID\n"
    result = _invoke(runner, "valid", "--frame", "builtin:k3", "--formula", phi)
    assert result.output == "NOT VALID\n"


def test_valid_frame_file(runner, tmp_path):
    path = _model_file(tmp_path, "c.frame", CHAIN_FRAME)
    result = _invoke(runner, "valid", "--frame", path, "--formula", "([] [] F | <> T)")
    assert result.output == "VALID\n"
    result = _invoke(runner, "valid", "--frame", path, "--formula", "(~p1 | <> p1)")
    assert result.output == "NOT VALID\n"


# --- bisimulation -----------------------------------------------------------


def test_bisim_languages_disagree_on_doubling(runner, tmp_path):
    left = _model_file(tmp_path, "a.model", SINGLE_MODEL)
    right = _model_file(tmp_path, "b.model", DOUBLE_MODEL)
    basic = _invoke(runner, "bisim", "--left", left, "--right", right)
    assert basic.output == "BISIMILAR\n"
    global_run = _invoke(
        runner, "bisim", "--left", left, "--right", right, "--language", "global"
    )
    assert global_run.output == "BISIMILAR\n"


def test_bisim_requires_point_lines(runner, tmp_path):
    pointless = SINGLE_MODEL.replace("point 0\n", "")
    left = _model_file(tmp_path, "a.model", pointless)
    right = _model_file(tmp_path, "b.model", SINGLE_MODEL)
    result = runner.invoke(main, ["bisim", "--left", left, "--right", right])
    assert result.exit_code == 2
    assert "point line" in result.output


# --- colouring --------------------------------------------------------------


def test_colour_assignment_output(runner):
    result = _invoke(runner, "colour", "--frame", "builtin:k3", "--n", "3")
    lines = result.output.splitlines()
    assert lines[0] == "COLOURABLE"
    pairs = dict(part.split(":") for part in lines[1].split())
    assert sorted(pairs) == ["0", "1", "2"]
    assert len(set(pairs.values())) == 3

    result = _invoke(runner, "colour", "--frame", "builtin:k3", "--n", "2")
    assert result.output == "NOT COLOURABLE\n"


def test_noncol_emit_pinned(runner):
    result = _invoke(runner, "noncol", "--emit", "2")
    assert result.output == "E ((~p1 & <> ~p1) | (p1 & <> p1))\n"


def test_noncol_comparison_block(runner):
    result = _invoke(runner, "noncol", "--frame", "builtin:khat2", "--n", "2")
    assert result.output.splitlines() == [
        "formula-valid TRUE",
        "n-colourable FALSE",
        "agreement OK",
    ]
    result = _invoke(runner, "noncol", "--frame", "builtin:k3", "--n", "3")
    assert result.output.splitlines() == [
        "formula-valid FALSE",
        "n-colourable TRUE",
        "agreement OK",
    ]


# --- synthesis and games ----------------------------------------------------


def test_synth_finds_literal(runner, tmp_path):
    path = _model_file(tmp_path, "c.frame", CHAIN_FRAME)
    result = _invoke(
        runner,
        "synth", "--frames", path, "--left", "2", "--right", "0",
        "--length-cap", "4",
    )
    lines = result.output.splitlines()
    assert lines[0].startswith("formula ")
    assert lines[1] == "length 1"
    assert len(lines) == 2


def test_synth_non_length_reports_both(runner, tmp_path):
    path = _model_file(tmp_path, "c.frame", CHAIN_FRAME)
    result = _invoke(
        runner,
        "synth", "--frames", path, "--left", "2", "--right", "0",
        "--measure", "modal-depth", "--length-cap", "4",
    )
    lines = result.output.splitlines()
    assert lines[1] == "modal-depth 0"
    assert lines[2] == "length 1"


def test_synth_absent(runner, tmp_path):
    path = _model_file(tmp_path, "c.frame", CHAIN_FRAME)
    result = _invoke(
        runner,
        "synth", "--frames", path, "--left", "0", "--right", "0",
        "--length-cap", "3",
    )
    assert result.exit_code == 2  # left and right overlap
    # indices 1 and 3 are dead ends with no p1: bisimilar, hence inseparable
    result = _invoke(
        runner,
        "synth", "--frames", path, "--left", "1", "--right", "3",
        "--length-cap", "6",
    )
    assert result.output == "ABSENT\n"


def test_game_transfer_0_1(runner):
    result = _invoke(
        runner, "game", "--witnesses", "builtin:transfer-0-1", "--budget", "4"
    )
    lines = result.output.splitlines()
    assert lines[0] == "cost 4"
    assert lines[1].startswith("formula ")
    assert lines[2].startswith("choice b point=")


def test_game_absent_below_minimum(runner):
    result = _invoke(
        runner, "game", "--witnesses", "builtin:transfer-0-1", "--budget", "3"
    )
    assert result.output == "ABSENT\n"


def test_game_emit_tree(runner, tmp_path):
    out = tmp_path / "tree.txt"
    result = _invoke(
        runner,
        "game", "--witnesses", "builtin:symmetry", "--budget", "5",
        "--emit-tree", str(out),
    )
    assert result.output.splitlines()[0] == "cost 5"
    rendered = out.read_text().splitlines()
    assert rendered[0].split()[0] in {"or", "and", "lit", "dia", "box", "top", "bot"}
    assert all("left={" in line and "right={" in line for line in rendered)
    assert any(line.startswith("  ") for line in rendered)


def test_game_symmetry_output_pinned(runner, tmp_path):
    out = tmp_path / "tree.txt"
    result = _invoke(
        runner,
        "game", "--witnesses", "builtin:symmetry", "--budget", "5",
        "--emit-tree", str(out),
    )
    assert result.output == "cost 5\nformula (~p1 | [] <> p1)\nchoice b point=0 p1={0}\n"
    assert out.read_text() == (
        "or left={0,1,2,3,4,5,7,9} right={6}\n"
        "  lit ~p1 left={0,3,4,7} right={6}\n"
        "  box left={1,2,5,9} right={6}\n"
        "    dia left={3,4,5,9} right={7}\n"
        "      lit p1 left={2,5,9} right={7}\n"
    )


def test_game_var_count_output_pinned(runner):
    result = _invoke(
        runner,
        "game", "--witnesses", "builtin:transfer-1-2", "--measure", "var-count",
        "--budget", "5", "--length-cap", "8",
    )
    assert result.output == "cost 1\nformula ([] ~p1 | <> <> p1)\nchoice b point=0 p1={2}\n"


def test_game_global_output_pinned(runner, tmp_path):
    out = tmp_path / "tree.txt"
    result = _invoke(
        runner,
        "game", "--witnesses", "builtin:transfer-1-2", "--budget", "6",
        "--language", "global", "--emit-tree", str(out),
    )
    assert result.output == "cost 6\nformula ([] ~p1 | <> <> p1)\nchoice b point=0 p1={2}\n"
    assert out.read_text() == (
        "or left={0,5,6,10,11,12,15,16,17,20,21,22,24,25,26,27,29,30,31,32,33,34,35,36,37,38,39,40,41,42,43,44,45,46,47,48,49,50,51,52,54,55,56,57,59,60,61,62,64,65,66,67,69,70,71,75,76,79,80,81,84,85,86,90,91,92,94,95,96,97,99,100,101,102,104,105,106,107,109,110,111,112,113,114,115,116,117,118,119,120,121,122,123,124,125,126,127,128,129,130,131,132,134,135,136,137,139,140,141,145} right={150}\n"
        "  box left={0,5,6,12,17,21,22,26,27,32,33,37,38,40,41,44,45,46,49,54,59,61,66,81,86,92,97,101,102,106,107,112,113,117,118,121,126} right={150}\n"
        "    lit ~p1 left={1,2,4,6,7,9,13,18,21,23,26,28,33,38,41,42,44,46,47,49,52,54,57,59,61,66,81,86,93,98,101,103,106,108,113,118,121,126} right={152}\n"
        "  dia left={10,11,15,16,20,24,25,29,30,31,34,35,36,39,42,43,47,48,50,51,52,55,56,57,60,62,64,65,67,69,70,71,75,76,79,80,84,85,90,91,94,95,96,99,100,104,105,109,110,111,114,115,116,119,120,122,123,124,125,127,128,129,130,131,132,134,135,136,137,139,140,141,145} right={150}\n"
        "    dia left={11,16,24,29,31,34,36,39,43,48,51,53,56,58,62,63,67,68,71,76,77,84,89,91,94,96,99,104,109,111,114,116,119,122,123,127,128,131,132,133,136,137,138,141,146} right={151,152}\n"
        "      lit p1 left={11,16,22,27,31,32,36,37,43,48,51,53,56,58,63,68,71,76,78,84,89,91,94,96,99,102,107,111,112,116,117,123,128,131,133,136,138,141,146} right={151,153}\n"
    )


def test_game_witness_file(runner, tmp_path):
    path = tmp_path / "w.witnesses"
    path.write_text(format_witnesses(transfer_witnesses(1, 0)))
    result = _invoke(
        runner, "game", "--witnesses", str(path), "--budget", "4"
    )
    assert result.output.splitlines()[0] == "cost 4"


def test_certify_writes_file_matching_stdout(runner, tmp_path):
    out = tmp_path / "cert.txt"
    result = _invoke(
        runner,
        "certify", "--witnesses", "builtin:transfer-0-1", "--bound", "4",
        "--out", str(out),
    )
    assert result.exit_code == 0
    assert out.read_text() == result.output
    lines = result.output.splitlines()
    assert lines[0] == "certificate transfer-0-1"
    assert "verdict Proved" in lines
    assert "scope full" in lines


def test_certify_usage_error_on_bad_measure(runner):
    result = runner.invoke(
        main,
        ["certify", "--witnesses", "builtin:transfer-0-1", "--bound", "1",
         "--measure", "exists"],
    )
    assert result.exit_code == 2


# --- exit codes -------------------------------------------------------------


def test_usage_errors_exit_2(runner, tmp_path):
    assert runner.invoke(main, ["eval", "--model", "missing.model", "--formula", "T"]).exit_code == 2
    assert runner.invoke(main, ["valid", "--frame", "builtin:nope", "--formula", "T"]).exit_code == 2
    path = _model_file(tmp_path, "m.model", SINGLE_MODEL)
    assert runner.invoke(main, ["eval", "--model", path, "--formula", "(p1 |"]).exit_code == 2
    assert runner.invoke(main, ["colour", "--frame", "builtin:k3", "--n", "0"]).exit_code == 2


# one row per command whose library errors reach the user only through the
# exit-code boundary; "MODEL" stands for a two-state model file
@pytest.mark.parametrize(
    "args, message",
    [
        (["eval", "--model", "MODEL", "--point", "9", "--formula", "p1"], "state 9 out of range"),
        (["synth", "--frames", "builtin:k2", "--left", "0", "--right", "1", "--length-cap", "3",
          "--measure", "size"], "unknown measure 'size'"),
        (["game", "--witnesses", "builtin:symmetry", "--budget", "3", "--measure", "size"],
         "unknown measure 'size'"),
        (["certify", "--witnesses", "builtin:symmetry", "--bound", "3", "--measure", "size"],
         "unknown measure 'size'"),
        (["game", "--witnesses", "builtin:symmetry", "--budget", "0"], "budget must be at least 1"),
        (["certify", "--witnesses", "builtin:symmetry", "--bound", "-1"], "claimed bound must be non-negative"),
        (["game", "--witnesses", "builtin:nope", "--budget", "3"], "unknown witness set: 'nope'"),
        (["noncol", "--emit", "0"], "need at least one colour"),
        (["colour", "--frame", "builtin:k3", "--n", "0"], "need at least one colour"),
    ],
)
def test_library_errors_exit_2_with_their_message(runner, tmp_path, args, message):
    model = _model_file(tmp_path, "m.model", "frame m\nstates 2\nedge 0 1\nval p1 0\npoint 0\n")
    result = runner.invoke(main, [model if arg == "MODEL" else arg for arg in args])
    assert result.exit_code == 2, result.output
    assert result.output.splitlines()[-1] == f"Error: {message}"
    assert result.exception is None or isinstance(result.exception, SystemExit)


# usage errors the commands raise themselves, or that reach them from a
# file; a capitalized argument stands for the file of that name below
USAGE_FILES = {
    "DUPLICATE_POSITIVES": format_witnesses(transfer_witnesses(0, 1)).replace("frame a2", "frame a1"),
    "TWO_FRAMES": "frame a\nstates 1\nframe b\nstates 1\npoint 0\n",
    "STATE_5": "frame m\nstates 2\nedge 0 1\nval p1 5\npoint 0\n",
    "POINTED": "frame m\nstates 2\nedge 0 1\nval p1 0\npoint 0\n",
    "STATES_1_0": "frame a\nstates 1_0\n",
    "STATES_PLUS_2": "frame a\nstates +2\n",
    "EDGE_ARABIC_0": "frame a\nstates 2\nedge \u0660 1\n",
}


@pytest.mark.parametrize(
    "args, message",
    [
        (["synth", "--frames", "builtin:k2", "--left", "1,x", "--right", "0", "--length-cap", "3"],
         "bad left index list: '1,x'"),
        (["noncol"], "pass --emit N, or --frame with --n"),
        (["noncol", "--frame", "builtin:k2"], "--frame needs --n"),
        (["valid", "--frame", "builtin:k0", "--formula", "p1"], "unknown builtin frame: 'k0'"),
        (["valid", "--frame", "builtin:khat0", "--formula", "p1"], "unknown builtin frame: 'khat0'"),
        (["game", "--witnesses", "DUPLICATE_POSITIVES", "--budget", "3"], "frame names must be unique"),
        (["certify", "--witnesses", "DUPLICATE_POSITIVES", "--bound", "3"], "frame names must be unique"),
        (["eval", "--model", "TWO_FRAMES", "--formula", "p1"], "model files contain exactly one frame"),
        (["eval", "--model", "STATE_5", "--formula", "p1"], "line 4: state 5 out of range"),
        # refused before a single edge is built, so at once
        (["colour", "--frame", "builtin:k100000", "--n", "2"],
         f"k100000 would have 9999900000 edges, more than {MAX_STATES}"),
        (["colour", "--frame", "builtin:khat100000", "--n", "2"],
         f"khat100000 would have 19999800001 edges, more than {MAX_STATES}"),
        # a builtin name's number is ASCII digits with no sign and no leading zero
        *((["colour", "--frame", f"builtin:{name}", "--n", "2"], f"unknown builtin frame: {name!r}")
          for name in ("k+3", "k1_0", "k03", "k\u0663")),
        *((["game", "--witnesses", f"builtin:{name}", "--budget", "3"], f"unknown witness set: {name!r}")
          for name in ("lob-+2", "lob-02", "lob-1_0", "transfer- 1-2")),
        (["game", "--witnesses", "builtin:transfer-1-1", "--budget", "3"],
         "transfer witnesses need distinct exponents"),
        # so is every number in a file or an index list
        *((["valid", "--frame", name, "--formula", "p1"], f"line {line}: expected an integer, got {field!r}")
          for name, line, field in (("STATES_1_0", 2, "1_0"), ("STATES_PLUS_2", 2, "+2"),
                                    ("EDGE_ARABIC_0", 3, "\u0660"))),
        (["synth", "--frames", "builtin:k3", "--left", "1_0", "--right", "2", "--length-cap", "3"],
         "bad left index list: '1_0'"),
        (["synth", "--frames", "builtin:k3", "--left", "0", "--right", "+2", "--length-cap", "3"],
         "bad right index list: '+2'"),
        (["eval", "--model", "POINTED", "--formula", "<> p\u00b2"],
         "bad formula: expected a variable index (at position 4)"),
        (["eval", "--model", "POINTED", "--formula", "p\u0663"],
         "bad formula: expected a variable index (at position 1)"),
        (["synth", "--frames", "builtin:k2", "--left", "0", "--right", "1", "--length-cap", "3",
          "--measure", "exists"], "measure exists needs the global language"),
        # a number too long for int() names no builtin, and is a parse error at its first digit
        (["colour", "--frame", "builtin:k" + "1" * 5000, "--n", "2"], f"unknown builtin frame: {'k' + '1' * 5000!r}"),
        (["eval", "--model", "POINTED", "--formula", "p" + "1" * 5000],
         f"bad formula: number longer than {MAX_DIGITS} digits (at position 1)"),
    ],
)
def test_usage_errors_exit_2_with_their_message(runner, tmp_path, args, message):
    paths = {name: _model_file(tmp_path, name, text) for name, text in USAGE_FILES.items()}
    with time_limit(10):
        result = runner.invoke(main, [paths.get(arg, arg) for arg in args])
    assert result.exit_code == 2, result.output
    assert result.output.splitlines()[-1].startswith("Error: ")
    assert result.output.splitlines()[-1].endswith(f" {message}")
    assert result.exception is None or isinstance(result.exception, SystemExit)


# every integer option (bisim has none), after the other arguments its command needs
_SYNTH = ["synth", "--frames", "builtin:k2", "--left", "0", "--right", "1", "--length-cap", "3"]
_INTEGER_OPTIONS = [
    (["eval", "--model", "MODEL", "--formula", "p1"], "--point"),
    (["valid", "--frame", "builtin:k2", "--formula", "p1"], "--cap-bits"),
    (["colour", "--frame", "builtin:k2"], "--n"),
    (["noncol"], "--emit"),
    (["noncol", "--frame", "builtin:k2"], "--n"),
    (_SYNTH, "--vars"),
    (_SYNTH, "--length-cap"),
    *((["game", "--witnesses", "builtin:symmetry", "--budget", "3"], option)
      for option in ("--vars", "--budget", "--length-cap")),
    *((["certify", "--witnesses", "builtin:symmetry", "--bound", "3"], option)
      for option in ("--bound", "--vars", "--length-cap")),
    (["reproduce"], "--seed"),
]


@pytest.mark.parametrize("value", ["٥", "1_0", "+3", "1" * 5000], ids=["arabic-5", "underscore", "plus", "5000-digits"])
@pytest.mark.parametrize("args, option", _INTEGER_OPTIONS)
def test_hostile_integer_options_exit_2(runner, tmp_path, args, option, value):
    # int() alone would take the first three; the last is past its 4,300 digits
    model = _model_file(tmp_path, "model.txt", SINGLE_MODEL)
    with time_limit(10):
        result = runner.invoke(main, [model if arg == "MODEL" else arg for arg in args] + [option, value])
    assert result.exit_code == 2, result.output
    assert result.output.splitlines()[-1].startswith(f"Error: Invalid value for '{option}': ")
    assert result.exception is None or isinstance(result.exception, SystemExit)


def test_huge_lob_depth_ends_quickly(runner):
    with time_limit(20):
        result = runner.invoke(main, ["game", "--witnesses", "builtin:lob-100000", "--budget", "3"])
    assert result.exit_code == 2, result.output
    assert result.output.splitlines()[-1] == f"Error: lob-100000 needs formulas nested deeper than {MAX_NESTING}"


@pytest.mark.parametrize(
    "args",
    [
        ["certify", "--witnesses", "builtin:symmetry", "--bound", "3", "--out"],
        ["game", "--witnesses", "builtin:symmetry", "--budget", "5", "--emit-tree"],
        ["reproduce", "--out"],
    ],
)
def test_unwritable_output_exits_2_after_printing_the_result(runner, tmp_path, monkeypatch, args):
    monkeypatch.setattr("modalmin.cli._CLAIMS", _CLAIMS[:2])
    path = tmp_path / "missing" / "x.txt"
    result = runner.invoke(main, args + [str(path)])
    assert result.exit_code == 2, result.output
    lines = result.output.splitlines()
    assert lines[-1].startswith(f"Error: cannot write {path}: ")
    assert len(lines) > 3 and not lines[0].startswith(("Usage:", "Error:"))
    assert result.exception is None or isinstance(result.exception, SystemExit)


def test_synth_index_outside_the_universe_exits_2(runner):
    for left, right, bad in (("0", "8", 8), ("-1", "1", -1), ("0,1", "2,99", 99)):
        args = ["synth", "--frames", "builtin:k2", "--left", left, "--right", right, "--length-cap", "3"]
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert result.output.splitlines()[-1] == f"Error: index {bad} outside the 8-element universe"


def test_huge_transfer_exponents_end_quickly(runner, tmp_path):
    name = "transfer-1-100000000000000000000"
    with time_limit(20):
        builtin = runner.invoke(main, ["game", "--witnesses", f"builtin:{name}", "--budget", "3"])
    assert builtin.exit_code == 2, builtin.output
    # the name matches transfer-M-N, so the builder's own error passes through
    assert builtin.output.splitlines()[-1] == (
        f"Error: the transfer 1 100000000000000000000 axiom nests deeper than {MAX_NESTING}"
    )
    assert builtin.exception is None or isinstance(builtin.exception, SystemExit)
    # R^(10^20) of a loop is the loop and of an edge is empty, so the set checks out
    text = "witnesses w\nproperty transfer 1 100000000000000000000\npositive:\n"
    text += "frame a\nstates 1\nedge 0 0\nnegative:\nframe b\nstates 2\nedge 0 1\n"
    path = _model_file(tmp_path, "w.txt", text)
    with time_limit(20):
        played = runner.invoke(main, ["game", "--witnesses", path, "--budget", "3"])
    assert played.exit_code == 0, played.output
    assert played.output.splitlines()[:2] == ["cost 2", "formula <> T"]


def test_certify_negative_length_cap_exits_2(runner):
    for args in (
        ["certify", "--witnesses", "builtin:symmetry", "--bound", "5"],
        ["game", "--witnesses", "builtin:symmetry", "--budget", "5"],
        ["game", "--witnesses", "builtin:symmetry", "--budget", "5", "--measure", "diamond"],
        ["synth", "--frames", "builtin:k2", "--left", "0", "--right", "1"],
        # reported before the universe is built, which passes its cap
        ["synth", "--frames", "builtin:k2", "--vars", "100000000000000000000", "--left", "0", "--right", "1"],
    ):
        result = runner.invoke(main, args + ["--length-cap", "-1"])
        assert result.exit_code == 2, (args, result.output)
        assert result.output.splitlines()[-1] == "Error: length cap must be non-negative"
    # a zero bound still certifies vacuously, under a default cap of 0 that
    # the command itself would take
    vacuous = _invoke(runner, "certify", "--witnesses", "builtin:symmetry", "--bound", "0")
    assert vacuous.exit_code == 0
    lines = vacuous.output.splitlines()
    assert {"length-cap 0", "verdict Proved", "scope full"} <= set(lines)
    explicit = _invoke(runner, "certify", "--witnesses", "builtin:symmetry", "--bound", "0", "--length-cap", "0")
    assert explicit.exit_code == 0
    assert [ln for ln in explicit.output.splitlines() if not ln.startswith("wall-time")] == [
        ln for ln in lines if not ln.startswith("wall-time")
    ]


def test_universe_cap_exits_3_with_one_message(runner):
    cap = f"resource cap exceeded: universe would exceed {UNIVERSE_CAP} pointed models"
    synth = runner.invoke(
        main, ["synth", "--frames", "builtin:k2", "--vars", "20", "--left", "0", "--right", "1", "--length-cap", "3"]
    )
    game = runner.invoke(main, ["game", "--witnesses", "builtin:symmetry", "--budget", "3", "--vars", "20"])
    # the expansion's cap, not the enumeration's, so no Inconclusive certificate
    certify = runner.invoke(
        main, ["certify", "--witnesses", "builtin:symmetry", "--bound", "1", "--vars", str(10**20)]
    )
    for result in (synth, game, certify):
        assert result.exit_code == 3, result.output
        assert result.output.splitlines()[-1] == cap


@pytest.mark.parametrize(
    "command, text",
    [
        ("valid", "frame f\nstates x\n"),
        ("valid", "frame f\nstates 2\nedge 0 y\n"),
        ("valid", "frame f\nstates 1000000000000000\n"),
        ("eval", "frame m\nstates 2\nval p1 0\npoint\n"),
        ("eval", "frame m\nstates 2\nval px 0\npoint 0\n"),
        ("bisim", "frame m\nstates 2\nval p1 0\npoint\n"),
        ("bisim", "frame m\nstates 2\nval px 0\npoint 0\n"),
        ("game", "witnesses w\nproperty\n"),
        ("game", "witnesses w\nproperty symmetric\nvars x\n"),
    ],
)
def test_malformed_files_exit_2(runner, tmp_path, command, text):
    path = _model_file(tmp_path, "bad.txt", text)
    args = {
        "valid": ["valid", "--frame", path, "--formula", "p1"],
        "eval": ["eval", "--model", path, "--formula", "p1"],
        "bisim": ["bisim", "--left", path, "--right", path],
        "game": ["game", "--witnesses", path, "--budget", "3"],
    }[command]
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert "line " in result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)


@pytest.mark.parametrize(
    "args",
    [
        ["synth", "--frames", "builtin:k2", "--vars", "-1", "--left", "0", "--right", "1",
         "--length-cap", "3"],
        ["certify", "--witnesses", "builtin:symmetry", "--bound", "3", "--vars", "-1"],
        ["game", "--witnesses", "builtin:symmetry", "--budget", "3", "--vars", "-1"],
    ],
)
def test_negative_var_bound_exits_2(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert "var bound must be >= 0" in result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)


@pytest.mark.parametrize(
    "args",
    [
        ["noncol", "--emit", "129"],
        ["noncol", "--emit", "1500"],
        ["noncol", "--emit", "100000000"],
        ["noncol", "--frame", "builtin:k2", "--n", "129"],
    ],
)
def test_noncol_past_nesting_limit_exits_2(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert f"nests deeper than {MAX_NESTING}" in result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)


def test_formula_nesting_limit_exits_2(runner):
    at_limit = "<>" * MAX_NESTING + "p1"
    result = _invoke(runner, "valid", "--frame", "builtin:k2", "--formula", at_limit)
    assert result.exit_code == 0
    assert result.output == "NOT VALID\n"
    over = runner.invoke(main, ["valid", "--frame", "builtin:k2", "--formula", "<>" + at_limit])
    assert over.exit_code == 2
    assert "nested deeper" in over.output
    deep = runner.invoke(main, ["valid", "--frame", "builtin:k2", "--formula", "<>" * 3000 + "p1"])
    assert deep.exit_code == 2


def test_resource_cap_exits_3(runner):
    result = runner.invoke(
        main,
        ["valid", "--frame", "builtin:k4", "--formula", "(p1 | ~p2)", "--cap-bits", "4"],
    )
    assert result.exit_code == 3
    assert "resource cap exceeded" in result.output


@pytest.mark.parametrize(
    "bits, code, message",
    [
        ("-1", 2, f"0<=x<={VALIDITY_CAP_BITS}"),
        ("60", 2, f"0<=x<={VALIDITY_CAP_BITS}"),
        ("4", 3, "needs 32 bits, cap is 4"),
    ],
)
def test_cap_bits_range(runner, bits, code, message):
    # 8 states and 4 variables: 32 valuation bits, 2^18 chunks of validity work
    formula = "((p1 | ~p1) | ((p2 & p3) & p4))"
    result = runner.invoke(main, ["valid", "--frame", "builtin:k8", "--formula", formula, "--cap-bits", bits])
    assert result.exit_code == code, result.output
    assert message in result.output


# --- the reproduce report ---------------------------------------------------


TIME_TOKEN = re.compile(r" \d+\.\d\d s?$|\s\d+\.\d\ds\b")


def _strip_times(text: str) -> list[str]:
    out = []
    for line in text.splitlines():
        out.append(re.sub(r" \d+\.\d\ds(?=$|,)", "", line))
    return out


def test_reproduce_all_pass(runner, tmp_path):
    out = tmp_path / "report.txt"
    result = _invoke(runner, "reproduce", "--out", str(out))
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert len(lines) == len(_CLAIMS) + 1
    for line in lines[:-1]:
        assert line.startswith("[PASS] ")
        assert "expected=" in line and "observed=" in line
        assert re.search(r"\[(fixed|oracle|direct)\]", line)
    assert lines[-1].startswith(f"reproduce: {len(_CLAIMS)} claims, {len(_CLAIMS)} passed, 0 failed")
    assert out.read_text().rstrip("\n").splitlines() == lines


def test_reproduce_reports_a_mismatch_and_a_cap_and_exits_1(runner, monkeypatch):
    def capped(seed):
        raise ResourceCapError("universe would exceed 7 pointed models")

    claims = list(_CLAIMS)
    claims[1] = (*claims[1][:3], lambda seed: ("n=16", "n=15"))
    claims[2] = (*claims[2][:3], capped)
    monkeypatch.setattr("modalmin.cli._CLAIMS", tuple(claims[:3]))
    result = runner.invoke(main, ["reproduce"])
    assert result.exit_code == 1
    lines = _strip_times(result.output)
    assert lines[0].startswith(f"[PASS] {_CLAIMS[0][0]} ")
    assert lines[1:] == [
        f"[FAIL] {_CLAIMS[1][0]} ({_CLAIMS[1][1]}) expected=n=16 [{_CLAIMS[1][2]}] observed=n=15",
        f"[FAIL] {_CLAIMS[2][0]} ({_CLAIMS[2][1]}) expected=completed [{_CLAIMS[2][2]}]"
        " observed=resource-cap:universe would exceed 7 pointed models",
        "reproduce: 3 claims, 1 passed, 2 failed,",
    ]


def test_reproduce_deterministic_modulo_timing(runner):
    one = _invoke(runner, "reproduce")
    two = _invoke(runner, "reproduce")
    assert _strip_times(one.output) == _strip_times(two.output)


# the public operations that the reproduce claims must call between them
PUBLIC_OPERATIONS = (
    "formula.parse",
    "formula.print_formula",
    "formula.measure",
    "formula.measure_all",
    "formula.nnf_negate",
    "kripke.eval_formula",
    "kripke.frame_valid",
    "kripke.bisimilar",
    "kripke.build_universe",
    "gallery.check_property",
    "gallery.transfer_witnesses",
    "gallery.s4_witnesses",
    "gallery.lob_witnesses",
    "gallery.symmetry_witnesses",
    "gallery.axiom",
    "colouring.phi_n",
    "colouring.k_complete",
    "colouring.khat",
    "colouring.is_n_colourable",
    "colouring.noncol_equivalence",
    "colouring.noncol_game_setup",
    "game.min_cost_fgm",
    "game.fgf_min_cost",
    "game.psi_of_tree",
    "game.verify_closed_tree",
    "game.check_weight",
    "game.special_pair_weight",
    "synth.enumerate_formulas",
    "synth.min_separating",
    "synth.certify_bound",
)


def test_reproduce_claims_cover_public_surface():
    names = {}
    for name in PUBLIC_OPERATIONS:
        module, function = name.split(".")
        names[getattr(importlib.import_module(f"modalmin.{module}"), function).__code__] = name
    covered = set()
    for claim_id, _, _, fn in _CLAIMS:
        called = set()

        def profile(frame, event, arg):
            if event == "call" and frame.f_code in names:
                called.add(names[frame.f_code])

        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            fn(2023)
        finally:
            sys.setprofile(previous)
        assert called, f"{claim_id} calls no public operation"
        covered |= called
    assert covered == set(PUBLIC_OPERATIONS)


def test_reproduce_tags_are_neutral():
    for _, _, tag, _ in _CLAIMS:
        assert tag in {"fixed", "oracle", "direct"}
