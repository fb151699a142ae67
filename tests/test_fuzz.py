"""Fixed-seed fuzzing of every file-reading subcommand through the click runner.

Frame, model and witness files start well formed and are then mutated, and
formulas are either printed random formulas, mutated ones or random text.
Integer options take small values, -1, malformed numbers and, where a run
still ends quickly, a huge one.  Whatever the input, a command ends in exit
0, 2 or 3, never in a traceback (exit 1 is the code of a failed
reproduction).  Budgets and caps stay small, so that every run is quick.
"""

import random

from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from modalmin.cli import main
from modalmin.formula import GLOBAL, print_formula
from modalmin.gallery import format_witnesses, symmetry_witnesses, transfer_witnesses

from .conftest import rand_formula

# whole-token replacements for mutated lines: directives, malformed and
# out-of-range values, and a count too large to shift by
_TOKENS = [
    "frame", "states", "edge", "val", "point", "witnesses", "property", "vars",
    "positive:", "negative:", "transfer", "symmetric", "reflexive", "#",
    "p1", "p0", "px", "x", "0", "1", "2", "3", "-1", "100000000000000000000",
]


def _frame_lines(rng: random.Random, name: str) -> list[str]:
    count = rng.randint(1, 3)
    edges = [f"edge {u} {v}" for u in range(count) for v in range(count) if rng.random() < 0.4]
    return [f"frame {name}", f"states {count}"] + edges


def _model_lines(rng: random.Random) -> list[str]:
    lines = _frame_lines(rng, "m")
    count = int(lines[1].split()[1])
    states = " ".join(str(s) for s in range(count) if rng.random() < 0.5)
    return lines + [f"val p1 {states}", f"point {rng.randrange(count)}"]


def _witness_lines(rng: random.Random) -> list[str]:
    witnesses = rng.choice([symmetry_witnesses(), transfer_witnesses(0, 1), transfer_witnesses(1, 0)])
    return format_witnesses(witnesses).splitlines()


def _mutated(rng: random.Random, lines: list[str]) -> str:
    """lines with a few lines dropped, duplicated, or with one token replaced."""
    lines = list(lines)
    for _ in range(rng.choice([0, 0, 1, 3])):
        i = rng.randrange(len(lines) + 1)
        roll = rng.randrange(3)
        if roll == 0 and i < len(lines):
            del lines[i]
        elif roll == 1 and lines:
            lines.insert(i, rng.choice(lines))
        elif i < len(lines) and lines[i].split():
            parts = lines[i].split()
            parts[rng.randrange(len(parts))] = rng.choice(_TOKENS)
            lines[i] = " ".join(parts)
    return "\n".join(lines) + "\n"


def _formula_text(rng: random.Random) -> str:
    text = print_formula(rand_formula(rng, 2, rng.randint(1, 7), GLOBAL))
    roll = rng.randrange(4)
    if roll < 2:
        return text
    if roll == 2:
        i = rng.randrange(len(text) + 1)
        return text[:i] + rng.choice("pT~<>[]EA()|&0 ") + text[i + 1:]
    return "".join(rng.choice("p1T~<>[]EA()|& ") for _ in range(rng.randint(0, 12)))


_HUGE = "100000000000000000000"
_SMALL = ["-1", "0", "1", "2", "2", "3", "3"]
_SMALL_OR_HUGE = _SMALL + [_HUGE]
# values every integer option refuses: a non-ASCII digit, an underscore, a
# sign and more digits than formula.parse_int reads
_MALFORMED = ["\u0665", "1_0", "+3", "1" * 5000]


def _arguments(rng: random.Random, files) -> list[str]:
    frame, model, other_model, witnesses = files

    def number(values=_SMALL) -> str:
        """One of values, or now and then a malformed one."""
        return rng.choice(_MALFORMED if rng.random() < 0.1 else values)

    def indices() -> str:
        return ",".join(str(rng.randint(-1, 8)) for _ in range(rng.randint(1, 2)))

    language = ["--language", rng.choice(["basic", "global"])]
    command = rng.choice(["eval", "valid", "bisim", "colour", "noncol", "synth", "game", "certify"])
    # a huge value only where it still ends quickly: a game or certificate
    # may search to a huge budget, bound or length cap
    if command == "eval":
        point = ["--point", number(_SMALL_OR_HUGE)] if rng.random() < 0.3 else []
        return ["eval", "--model", model, "--formula", _formula_text(rng)] + point
    if command == "valid":
        cap_bits = number([str(rng.randint(0, 12))] * 4 + ["-1", _HUGE])
        return ["valid", "--frame", frame, "--formula", _formula_text(rng), "--cap-bits", cap_bits]
    if command == "bisim":
        return ["bisim", "--left", model, "--right", other_model] + language
    if command == "colour":
        return ["colour", "--frame", frame, "--n", number(_SMALL_OR_HUGE)]
    if command == "noncol":
        if rng.random() < 0.3:
            return ["noncol", "--emit", number(_SMALL_OR_HUGE)]
        return ["noncol", "--frame", frame, "--n", number(_SMALL_OR_HUGE)]
    if command == "synth":
        return [
            "synth", "--frames", frame, "--vars", number(["0", "1", "-1", _HUGE]),
            "--left", indices(), "--right", indices(), "--length-cap", number(_SMALL_OR_HUGE),
            "--measure", rng.choice(["length", "box", "exists", "size"]),
        ] + language
    caps = ["--length-cap", number()] if rng.random() < 0.5 else []
    if rng.random() < 0.3:
        caps += ["--vars", number(["0", "-1", _HUGE])]
    if command == "game":
        return ["game", "--witnesses", witnesses, "--budget", number()] + caps + language
    return ["certify", "--witnesses", witnesses, "--bound", number()] + caps + language


def _case(seed: int, directory) -> tuple[list[str], list[str]]:
    """Seed's input texts, written to directory as input0..3.txt, and its arguments."""
    rng = random.Random(seed)
    texts = [
        _mutated(rng, _frame_lines(rng, "f")),
        _mutated(rng, _model_lines(rng)),
        _mutated(rng, _model_lines(rng)),
        _mutated(rng, _witness_lines(rng)),
    ]
    files = []
    for i, text in enumerate(texts):
        path = directory / f"input{i}.txt"
        path.write_text(text)
        files.append(str(path))
    return texts, _arguments(rng, files)


@settings(max_examples=1000)
@given(seed=st.integers(0, 2**32 - 1))
def test_hostile_input_never_ends_in_a_traceback(tmp_path_factory, seed):
    texts, args = _case(seed, tmp_path_factory.mktemp("fuzz"))
    result = CliRunner().invoke(main, args)
    assert result.exit_code in (0, 2, 3), (args, texts, result.output)
    assert result.exception is None or isinstance(result.exception, SystemExit), (args, texts)
