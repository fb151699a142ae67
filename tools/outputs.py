"""Print one line per command of a fixed CLI corpus, to compare two checkouts.

    python3 tools/outputs.py --src ../parent/src > parent.txt
    python3 tools/outputs.py > change.txt
    diff parent.txt change.txt

Each command runs as `python -m modalmin.cli ARGS` in its own process, with
the modalmin package taken from --src (default: this checkout's src/) and a
time limit per command; an `expand` command runs the _EXPAND script instead.  A line holds the exit code (or TIMEOUT), digests of
stdout, stderr and the files the command wrote, and the arguments.  Before
hashing, the certificate's wall-time, the reproduce timings and the
temporary directory are replaced by fixed tokens, so identical behaviour
gives identical lines.

The corpus, in this order:
  - game on 13 witness sets, with and without --emit-tree;
  - game --emit-tree on 10 witness sets under every measure, both languages;
  - certify --out at each set's pinned length bound;
  - reproduce --out;
  - synth on four builtin frames, six measures, both languages, two index pairs;
  - two variables: synth on three builtin frames under var-count and length,
    both languages; game and certify under var-count;
  - valid of each set's axiom on every one of its witness frames;
  - valid and noncol over 16 valuation-code bits, more than one of
    frame_valid's chunks holds;
  - expand: one reduced expansion of each of the 12 builtin sets, both
    languages, var bounds 0-2 (lob-4 to 1: at 2 it passes the universe cap);
  - bisim, both languages: every pair of small pointed models whose frames
    hold a lasso, a self-loop and a dead end, and two pairs of 800-state
    paths;
  - the argument lists of tests/test_fuzz.py's _case, seeds 0..FUZZ_SEEDS-1;
  - the exit-code contract: certify --out, game --emit-tree and reproduce
    --out into a directory that does not exist, and colour on the largest
    builtin complete frames accepted and the smallest refused;
  - malformed numbers and queries: builtin names with a sign, an
    underscore, a leading zero or a non-ASCII digit, frame files and
    formulas with such numbers, a --left list with an underscore, and synth
    queries whose measure or length cap is invalid.
  - lob-3 global games whose sweeps skip the right sets of classes no
    singleton search separates yet: Length at budgets 5 and 6, and the
    other measures of MEASURES and GLOBAL_MEASURES at budget 3 within
    length 6.
  - integer options that int() alone would take: game --budget ٥ and
    colour --n 1_0.
  - the three-negative symmetric set of tests/test_game.py (342,720
    opponent choices, var bound 2): Length games at budgets 3 and 4.
The witness files, frame files and fuzz inputs are written by this script's
own checkout, so both runs of a comparison feed identical inputs.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import os
import re
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from modalmin.formula import print_formula  # noqa: E402
from modalmin.gallery import axiom, builtin_witnesses, format_witnesses  # noqa: E402
from modalmin.kripke import Frame, format_frame  # noqa: E402
from tests.test_fuzz import _case  # noqa: E402
from tests.test_game import _symmetric_witnesses  # noqa: E402

# the sets the game and certify families run, with their length minima
# (m+n+3 for transfer-m-n)
SETS = {
    "transfer-0-1": 4,
    "transfer-1-0": 4,
    "transfer-1-2": 6,
    "transfer-2-1": 6,
    "transfer-0-2": 5,
    "transfer-2-0": 5,
    "transfer-0-3": 6,
    "symmetry": 5,
    "s4": 8,
    "lob-2": 8,
}
MEASURES = ("length", "modal-depth", "var-count", "or", "and", "diamond", "box")
GLOBAL_MEASURES = ("exists", "forall")

# A digest of one reduced expansion of a builtin set's frames, named as
# gallery.reduced_witnesses names them: its pointed models in index order,
# then its class representatives per frame.
_EXPAND = """
import hashlib, sys
from modalmin.gallery import builtin_witnesses
from modalmin.kripke import expand_reduced
name, language, var_bound = sys.argv[1], sys.argv[2], int(sys.argv[3])
w = builtin_witnesses(name)
named = [("+" + n, f) for n, f in w.named_positives()] + [("-" + n, f) for n, f in w.named_negatives()]
red = expand_reduced(named, var_bound, language)
text = repr([(pm.model, pm.point) for pm in red.universe.models]) + repr(sorted(red.class_reps.items()))
print(len(red.universe), hashlib.sha256(text.encode()).hexdigest()[:12])
"""

# the bisim family's models: (frame, states where p1 holds, point)
_LASSO = Frame(6, [(0, 1), (1, 2), (2, 3), (3, 1), (3, 4), (5, 5), (5, 4)])
_PATH = Frame(800, [(s, s + 1) for s in range(799)])
BISIM_MODELS = {
    "lasso-0": (_LASSO, (1, 4), 0),
    "lasso-1": (_LASSO, (1, 4), 1),
    "lasso-4": (_LASSO, (1, 4), 4),
    "lasso-bare-5": (_LASSO, (), 5),
    "loop": (Frame(1, [(0, 0)]), (), 0),
    "dead-end": (Frame(1), (0,), 0),
    "two-cycle": (Frame(2, [(0, 1), (1, 0)]), (), 0),
    "loop-over-dead-end": (Frame(2, [(0, 0), (0, 1)]), (), 0),
}
PATH_MODELS = {"path-p-first": (_PATH, (0,), 0), "path-p-last": (_PATH, (799,), 0)}

TIMEOUT_S = 60  # a command still running after this is reported as TIMEOUT
JOBS = 2
FUZZ_SEEDS = 3000  # the fuzz family runs seeds 0..FUZZ_SEEDS-1

_STRIPS = [
    (re.compile(r"^wall-time \d+\.\d+s$", re.M), "wall-time T"),
    (re.compile(r" \d+\.\d\ds(?=$|,)", re.M), " T"),
]


def _corpus(tmp: Path) -> list[tuple[list[str], list[str]]]:
    """(arguments, files the command writes) for every command, in order."""
    commands: list[tuple[list[str], list[str]]] = []

    def out(name: str) -> str:
        return str(tmp / f"out-{len(commands)}-{name}")

    game_runs = [(name, "basic") for name in SETS] + [
        ("lob-3", "basic"), ("lob-3", "global"), ("symmetry", "global")
    ]
    for name, language in game_runs:
        args = ["game", "--witnesses", f"builtin:{name}", "--budget", "8", "--language", language]
        commands.append((args, []))
        tree = out("tree")
        commands.append((args + ["--emit-tree", tree], [tree]))
    for name in SETS:
        for language in ("basic", "global"):
            measures = MEASURES + (GLOBAL_MEASURES if language == "global" else ())
            for measure in measures:
                caps = ["--budget", "8"] if measure == "length" else ["--budget", "3", "--length-cap", "6"]
                tree = out("tree")
                args = [
                    "game", "--witnesses", f"builtin:{name}", *caps,
                    "--measure", measure, "--language", language, "--emit-tree", tree,
                ]
                commands.append((args, [tree]))
    for name, bound in [*SETS.items(), ("lob-3", 8)]:
        cert = out("cert")
        commands.append(
            (["certify", "--witnesses", f"builtin:{name}", "--bound", str(bound), "--out", cert], [cert])
        )
    report = out("report")
    commands.append((["reproduce", "--out", report], [report]))
    for frames in ("builtin:k2", "builtin:k3", "builtin:khat2", "builtin:khat3"):
        for measure in ("length", "var-count", "modal-depth", "diamond", "and", "box"):
            for language in ("basic", "global"):
                for left, right in (("0", "1"), ("0,1", "2")):
                    commands.append((
                        ["synth", "--frames", frames, "--left", left, "--right", right,
                         "--length-cap", "6", "--measure", measure, "--language", language],
                        [],
                    ))
    for frames, left, right in (("k2", "10", "2,8"), ("k3", "27", "3,24"), ("khat2", "84", "4,80")):
        for measure in ("var-count", "length"):
            for language in ("basic", "global"):
                commands.append((
                    ["synth", "--frames", f"builtin:{frames}", "--vars", "2", "--left", left, "--right", right,
                     "--length-cap", "6", "--measure", measure, "--language", language],
                    [],
                ))
    for name in ("symmetry", "transfer-0-1"):
        commands.append((
            ["game", "--witnesses", f"builtin:{name}", "--vars", "2", "--measure", "var-count",
             "--budget", "2", "--length-cap", "6"],
            [],
        ))
    for name, cap in (("symmetry", "6"), ("s4", "5")):
        commands.append((
            ["certify", "--witnesses", f"builtin:{name}", "--vars", "2", "--measure", "var-count",
             "--bound", "2", "--length-cap", cap],
            [],
        ))
    for name in [*SETS, "lob-3", "lob-4"]:
        witnesses = builtin_witnesses(name)
        formula = print_formula(axiom(witnesses.prop))
        for frame_name, frame in witnesses.named_positives() + witnesses.named_negatives():
            path = tmp / f"frame-{name}-{frame_name}.txt"
            path.write_text(format_frame(frame_name, frame))
            commands.append((["valid", "--frame", str(path), "--formula", formula], []))
    for frame, formula in (
        ("builtin:khat8", "([] p1 | <> ~p1)"),
        ("builtin:khat8", "(~p1 | <> ~p1)"),
        ("builtin:k8", "(E (p1 & p2) | A (~p1 | ~p2))"),
        ("builtin:k8", "((~p1 | ~p2) | <> ~p2)"),
    ):
        commands.append((["valid", "--frame", frame, "--formula", formula], []))
    commands.append((["noncol", "--frame", "builtin:khat4", "--n", "3"], []))
    for name in [*SETS, "lob-3", "lob-4"]:
        for language in ("basic", "global"):
            for var_bound in range(2 if name == "lob-4" else 3):
                commands.append((["expand", name, language, str(var_bound)], []))
    paths = {}
    for name, (frame, p1, point) in {**BISIM_MODELS, **PATH_MODELS}.items():
        paths[name] = tmp / f"model-{name}.txt"
        val = [f"val p1 {' '.join(map(str, p1))}"] if p1 else []
        paths[name].write_text(format_frame(name, frame) + "\n".join([*val, f"point {point}"]) + "\n")
    pairs = [
        *itertools.combinations_with_replacement(BISIM_MODELS, 2),
        ("path-p-first", "path-p-first"),
        ("path-p-first", "path-p-last"),
    ]
    for left, right in pairs:
        for language in ("basic", "global"):
            args = ["bisim", "--left", str(paths[left]), "--right", str(paths[right]), "--language", language]
            commands.append((args, []))
    for seed in range(FUZZ_SEEDS):
        directory = tmp / f"fuzz-{seed}"
        directory.mkdir()
        commands.append((_case(seed, directory)[1], []))
    unwritable = str(tmp / "missing" / "x.txt")
    for args in (
        ["certify", "--witnesses", "builtin:symmetry", "--bound", "3", "--out"],
        ["game", "--witnesses", "builtin:symmetry", "--budget", "5", "--emit-tree"],
        ["reproduce", "--out"],
    ):
        commands.append((args + [unwritable], []))
    for frame in ("k775", "k776", "khat548", "khat549"):
        commands.append((["colour", "--frame", f"builtin:{frame}", "--n", "2"], []))
    for frame in ("k+3", "k1_0", "k03", "k\u0663"):
        commands.append((["colour", "--frame", f"builtin:{frame}", "--n", "2"], []))
    for name in ("lob-+2", "lob-02", "transfer- 1-2", "transfer-1-1"):
        commands.append((["game", "--witnesses", f"builtin:{name}", "--budget", "3"], []))
    for k, text in enumerate(("states 1_0", "states +2", "states 2\nedge \u0660 1")):
        path = tmp / f"frame-bad-number-{k}.txt"
        path.write_text(f"frame a\n{text}\n")
        commands.append((["valid", "--frame", str(path), "--formula", "p1"], []))
    for formula in ("<> p\u00b2", "p\u0663"):
        commands.append((["eval", "--model", str(paths["loop"]), "--formula", formula], []))
    synth = ["synth", "--frames", "builtin:k3", "--right", "2"]
    for extra in (
        ["--left", "1_0", "--length-cap", "6"],
        ["--left", "0", "--length-cap", "6", "--measure", "exists", "--language", "basic"],
        ["--left", "0", "--vars", "100000000000000000000", "--length-cap", "-1"],
    ):
        commands.append((synth + extra, []))
    lob3 = ["game", "--witnesses", "builtin:lob-3", "--language", "global"]
    for budget in ("5", "6"):
        commands.append((lob3 + ["--budget", budget], []))
    for measure in MEASURES[1:] + GLOBAL_MEASURES:
        tree = out("tree")
        args = lob3 + ["--budget", "3", "--length-cap", "6", "--measure", measure, "--emit-tree", tree]
        commands.append((args, [tree]))
    commands.append((["game", "--witnesses", "builtin:symmetry", "--budget", "\u0665"], []))
    commands.append((["colour", "--frame", "builtin:k3", "--n", "1_0"], []))
    three = tmp / "symmetric-three-negatives.txt"
    three.write_text(format_witnesses(_symmetric_witnesses([(nm, nm) for nm in ("b1", "b2", "b3")], 2)))
    for budget in ("3", "4"):
        commands.append((["game", "--witnesses", str(three), "--vars", "2", "--budget", budget], []))
    return commands


def _digest(text: str, tmp: Path) -> str:
    text = text.replace(str(tmp), "$TMP")
    for pattern, token in _STRIPS:
        text = pattern.sub(token, text)
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def _run(command: tuple[list[str], list[str]], src: Path, tmp: Path) -> str:
    args, written = command
    env = dict(os.environ, PYTHONPATH=str(src))
    shown = " ".join(map(repr, args)).replace(str(tmp), "$TMP")
    program = ["-c", _EXPAND, *args[1:]] if args[0] == "expand" else ["-m", "modalmin.cli", *args]
    try:
        done = subprocess.run(
            [sys.executable, *program],
            capture_output=True, text=True, env=env, timeout=TIMEOUT_S, cwd=tmp,
        )
    except subprocess.TimeoutExpired:
        return f"TIMEOUT - - - {shown}"
    files = "".join(Path(p).read_text() if Path(p).exists() else "<none>" for p in written)
    parts = [done.returncode, _digest(done.stdout, tmp), _digest(done.stderr, tmp), _digest(files, tmp)]
    return " ".join(map(str, parts)) + " " + shown


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="directory holding the modalmin package")
    opts = parser.parse_args()
    src = opts.src.resolve()
    with tempfile.TemporaryDirectory(prefix="modalmin-outputs-") as name:
        tmp = Path(name)
        commands = _corpus(tmp)
        with ThreadPoolExecutor(JOBS) as pool:
            for line in pool.map(lambda c: _run(c, src, tmp), commands):
                print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
