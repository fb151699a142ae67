"""Witness frame families, frame-property checkers, and their axioms."""

import dataclasses
import random
import re

import pytest

from modalmin.colouring import k_complete, khat
from modalmin.formula import MAX_NESTING, MeasureKind, measure, parse, print_formula
from modalmin.gallery import (
    CONVERSE_WELL_FOUNDED,
    FrameProperty,
    REFLEXIVE,
    REFLEXIVE_TRANSITIVE,
    SYMMETRIC,
    TRANSITIVE,
    TRANSITIVE_CWF,
    WitnessSet,
    axiom,
    builtin_frame,
    builtin_witnesses,
    check_property,
    format_witnesses,
    lob_witnesses,
    parse_witnesses,
    s4_witnesses,
    symmetry_witnesses,
    _relation_power,
    transfer_witnesses,
)
from modalmin.kripke import Frame, frame_valid

from .conftest import rand_frame, time_limit

TRANSFER_PAIRS = ((0, 1), (1, 0), (1, 2), (2, 1), (2, 0), (0, 2))


# --- property checkers ------------------------------------------------------


def _closure(frame: Frame) -> Frame:
    """The transitive closure, by Warshall's algorithm over edge sets."""
    edges = set(frame.edges())
    for k in range(frame.state_count):
        edges |= {(u, v) for u, k1 in edges if k1 == k for k2, v in edges if k2 == k}
    return Frame(frame.state_count, edges)


def test_transfer_property_basic_instances():
    loop = Frame(1, [(0, 0)])
    assert check_property(loop, FrameProperty.transfer(0, 1))
    assert not check_property(Frame(2, [(0, 1)]), FrameProperty.transfer(0, 1))
    # two-step chain without the shortcut edge is not transitive
    assert not check_property(Frame(3, [(0, 1), (1, 2)]), FrameProperty.transfer(2, 1))
    assert check_property(Frame(3, [(0, 1), (1, 2), (0, 2)]), FrameProperty.transfer(2, 1))


def test_transfer_exponent_validation():
    with pytest.raises(ValueError):
        FrameProperty.transfer(-1, 0)


def _naive_checks(frame: Frame) -> dict[str, bool]:
    edges = set(frame.edges())
    count = frame.state_count
    reflexive = all((s, s) in edges for s in range(count))
    transitive = all(
        (a, c) in edges for a, b in edges for b2, c in edges if b == b2
    )
    symmetric = all((b, a) in edges for a, b in edges)
    closure = _closure(frame)
    cwf = not any(closure.has_edge(s, s) for s in range(count))
    return {
        "reflexive": reflexive,
        "transitive": transitive,
        "symmetric": symmetric,
        "cwf": cwf,
    }


def test_simple_properties_match_naive_definitions(rng):
    for _ in range(80):
        frame = rand_frame(rng, max_states=4)
        naive = _naive_checks(frame)
        assert check_property(frame, REFLEXIVE) == naive["reflexive"]
        assert check_property(frame, TRANSITIVE) == naive["transitive"]
        assert check_property(frame, SYMMETRIC) == naive["symmetric"]
        assert check_property(frame, CONVERSE_WELL_FOUNDED) == naive["cwf"]
        assert check_property(frame, REFLEXIVE_TRANSITIVE) == (
            naive["reflexive"] and naive["transitive"]
        )
        assert check_property(frame, TRANSITIVE_CWF) == (naive["transitive"] and naive["cwf"])


def test_reflexive_point_breaks_cwf():
    b1 = Frame(4, [(0, 1), (1, 1), (0, 2)])
    assert not check_property(b1, TRANSITIVE_CWF)


def test_transfer_matches_axiom_validity_on_random_frames(rng):
    # the frame correspondence the axioms encode, cross-checked structurally
    for _ in range(60):
        frame = rand_frame(rng, max_states=3)
        for m, n in ((0, 1), (1, 0), (1, 2), (2, 1)):
            prop = FrameProperty.transfer(m, n)
            assert check_property(frame, prop) == frame_valid(frame, axiom(prop))


def test_lob_axiom_matches_property_on_random_frames(rng):
    lob = axiom(TRANSITIVE_CWF)
    for _ in range(60):
        frame = rand_frame(rng, max_states=4)
        assert check_property(frame, TRANSITIVE_CWF) == frame_valid(frame, lob)


# --- witness sets -----------------------------------------------------------


def test_witness_set_asserts_coherence():
    loop = Frame(1, [(0, 0)])
    chain = Frame(2, [(0, 1)])
    with pytest.raises(ValueError):
        WitnessSet(
            name="bad",
            prop=FrameProperty.transfer(0, 1),
            positives=(chain,),
            negatives=(loop,),
            positive_names=("a",),
            negative_names=("b",),
        )
    with pytest.raises(ValueError):
        WitnessSet(
            name="empty",
            prop=FrameProperty.transfer(0, 1),
            positives=(loop,),
            negatives=(),
            positive_names=("a",),
            negative_names=(),
        )
    for positive_names, negative_names, side in ((("a", "b"), ("c",), "positive"), (("a",), (), "negative")):
        with pytest.raises(ValueError, match=f"{side} frames and names differ in length"):
            WitnessSet(
                name="misnamed",
                prop=FrameProperty.transfer(0, 1),
                positives=(loop,),
                negatives=(chain,),
                positive_names=positive_names,
                negative_names=negative_names,
            )


def test_check_property_rejects_an_unknown_kind():
    with pytest.raises(ValueError, match="unknown frame property kind: 'dense'"):
        check_property(Frame(1, [(0, 0)]), FrameProperty("dense"))


@pytest.mark.parametrize("m,n", TRANSFER_PAIRS)
def test_transfer_witness_shapes(m, n):
    w = transfer_witnesses(m, n)
    assert w.name == f"transfer-{m}-{n}"
    assert w.prop == FrameProperty.transfer(m, n)
    assert len(w.positives) >= 2 and len(w.negatives) >= 1
    assert len(w.positive_names) == len(w.positives)


def test_transfer_rejects_equal_exponents():
    with pytest.raises(ValueError):
        transfer_witnesses(1, 1)


def _stepwise_power(frame: Frame, k: int) -> tuple[int, ...]:
    pairs = {(s, s) for s in range(frame.state_count)}
    for _ in range(k):
        pairs = {(a, c) for a, b in pairs for b2, c in frame.edges() if b == b2}
    return tuple(sum(1 << c for a, c in pairs if a == s) for s in range(frame.state_count))


def test_relation_power_matches_stepwise_composition(rng):
    for _ in range(100):
        frame = rand_frame(rng)
        for k in range(9):
            assert _relation_power(frame, k) == _stepwise_power(frame, k)
    # on a 3-cycle R^k is R^(k mod 3), however large k is
    cycle = Frame(3, [(0, 1), (1, 2), (2, 0)])
    with time_limit(10):
        for k in range(10**20, 10**20 + 3):
            assert _relation_power(cycle, k) == _stepwise_power(cycle, k % 3)


def test_transfer_witnesses_stop_at_the_nesting_limit():
    w = transfer_witnesses(MAX_NESTING - 1, 1)
    assert parse(print_formula(axiom(w.prop))) == axiom(w.prop)
    with pytest.raises(ValueError, match="nested deeper"):
        parse(print_formula(axiom(FrameProperty.transfer(MAX_NESTING, 1))))
    with time_limit(10):
        for m, n in ((MAX_NESTING, 1), (1, MAX_NESTING), (1, 10**20)):
            with pytest.raises(ValueError, match=f"nests deeper than {MAX_NESTING}"):
                transfer_witnesses(m, n)


def test_transfer_2_1_counts():
    w = transfer_witnesses(2, 1)
    assert len(w.positives) == 3
    assert len(w.negatives) == 1


def test_s4_witness_counts():
    w = s4_witnesses()
    assert len(w.positives) == 3
    assert len(w.negatives) == 2
    assert w.prop == REFLEXIVE_TRANSITIVE
    # the second negative has an irreflexive root
    assert not check_property(w.negatives[1], REFLEXIVE)


def test_lob_witnesses_grow_with_depth():
    shallow = lob_witnesses(1)
    deep = lob_witnesses(4)
    assert shallow.prop == TRANSITIVE_CWF
    assert deep.positives[3].state_count > shallow.positives[3].state_count
    # branch lengths 1..depth, transitively closed
    assert deep.positives[3].state_count == 1 + 1 + 2 + 3 + 4
    with pytest.raises(ValueError):
        lob_witnesses(0)


def test_lob_positive_is_the_closure_of_its_tree():
    assert sorted(_closure(Frame(3, [(0, 1), (1, 2)])).edges()) == [(0, 1), (0, 2), (1, 2)]
    for depth in (1, 2, 3, 4, 5, 8, 20):
        tree, nxt = [], 1
        for i in range(1, depth + 1):
            tree += zip([0, *range(nxt, nxt + i - 1)], range(nxt, nxt + i))
            nxt += i
        assert lob_witnesses(depth).positives[3] == _closure(Frame(nxt, tree))


def test_lob_witnesses_stop_at_the_nesting_limit():
    with time_limit(10):
        assert lob_witnesses(150).positives[3].state_count == 1 + 150 * 151 // 2
    for depth in (MAX_NESTING + 1, 10**20):
        with time_limit(1):
            with pytest.raises(ValueError, match=f"nested deeper than {MAX_NESTING}"):
                lob_witnesses(depth)


def test_symmetry_witness_shapes():
    w = symmetry_witnesses()
    assert len(w.positives) == 3 and len(w.negatives) == 1
    assert check_property(w.positives[2], SYMMETRIC)
    assert not check_property(w.negatives[0], SYMMETRIC)


# --- axioms -----------------------------------------------------------------


def test_axiom_shapes_and_lengths():
    assert print_formula(axiom(FrameProperty.transfer(2, 1))) == "([] [] ~p1 | <> p1)"
    assert measure(axiom(FrameProperty.transfer(2, 1)), MeasureKind.LENGTH) == 6
    assert print_formula(axiom(SYMMETRIC)) == "(~p1 | [] <> p1)"
    assert measure(axiom(SYMMETRIC), MeasureKind.LENGTH) == 5
    assert print_formula(axiom(TRANSITIVE_CWF)) == "([] ~p1 | <> (p1 & [] ~p1))"
    assert measure(axiom(TRANSITIVE_CWF), MeasureKind.LENGTH) == 8
    assert print_formula(axiom(REFLEXIVE_TRANSITIVE)) == "((~p1 & [] [] ~p1) | <> p1)"
    assert print_formula(axiom(FrameProperty.transfer(0, 2))) == "(~p1 | <> <> p1)"


def test_axiom_rejects_unsupported_property():
    with pytest.raises(ValueError):
        axiom(REFLEXIVE)


@pytest.mark.parametrize(
    "witnesses",
    [transfer_witnesses(m, n) for m, n in TRANSFER_PAIRS]
    + [s4_witnesses(), lob_witnesses(2), symmetry_witnesses()],
    ids=lambda w: w.name,
)
def test_axiom_separates_every_witness_set(witnesses):
    phi = axiom(witnesses.prop)
    assert all(frame_valid(f, phi) for f in witnesses.positives)
    assert not any(frame_valid(f, phi) for f in witnesses.negatives)


# --- naming and files -------------------------------------------------------


def test_builtin_witness_names():
    assert builtin_witnesses("s4").name == "s4"
    assert builtin_witnesses("transfer-1-2").name == "transfer-1-2"
    assert builtin_witnesses("lob-3").name == "lob-3"
    assert builtin_witnesses("symmetry").name == "symmetry"
    assert builtin_witnesses("transfer-0-1").name == "transfer-0-1"
    # a number is ASCII digits with no sign and no leading zero; frames are not witness sets
    for bad in (
        "lob-x", "transfer-1", "reflexive", "", "lob-+2", "lob-02", "lob-1_0", "lob-\u0663",
        "transfer- 1-2", "transfer-01-2", "transfer-1-2 ", "k3", "S4",
    ):
        with pytest.raises(ValueError, match=f"^unknown witness set: {re.escape(repr(bad))}$"):
            builtin_witnesses(bad)
    # a builder's own error passes through unchanged
    for name, message in (("transfer-1-1", "transfer witnesses need distinct exponents"),
                          ("lob-0", "depth must be at least 1")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            builtin_witnesses(name)


def test_builtin_frame_names():
    assert builtin_frame("k3") == k_complete(3)
    assert builtin_frame("khat2") == khat(2)
    for bad in ("k0", "khat0", "k+3", "k1_0", "k03", "k\u0663", "k", "khat", "k3 ", "s4", "K3"):
        with pytest.raises(ValueError, match=f"^unknown builtin frame: {re.escape(repr(bad))}$"):
            builtin_frame(bad)


def test_witness_file_roundtrip():
    for witnesses in (transfer_witnesses(1, 2), lob_witnesses(2), symmetry_witnesses()):
        text = format_witnesses(witnesses)
        back = parse_witnesses(text)
        assert back.name == witnesses.name
        assert back.prop == witnesses.prop
        assert back.positives == witnesses.positives
        assert back.negatives == witnesses.negatives
        assert back.recommended_var_bound == witnesses.recommended_var_bound
    # a bound other than 1 is written as a vars line and read back
    wide = dataclasses.replace(symmetry_witnesses(), recommended_var_bound=2)
    text = format_witnesses(wide)
    assert "\nvars 2\n" in text
    assert parse_witnesses(text) == wide


def test_parse_witnesses_reports_file_line_numbers():
    text = (
        "witnesses w\nproperty symmetric\npositive:\nframe a\nstates 1\n"
        "edge 0 0\nnegative:\nframe b\nstates 2\nedge 0 5\n"
    )
    with pytest.raises(ValueError, match="^line 10: "):
        parse_witnesses(text)
    frames = "positive:\nframe a\nstates 1\nnegative:\nframe b\nstates 1\n"
    for header, line in (
        ("witnesses w\nproperty symmetric\nvars x\n", 3),
        ("witnesses w\nproperty symmetric\nvars -1\n", 3),
        ("witnesses w\nproperty transfer 1 y\n", 2),
        ("witnesses w\nvars 1\nproperty transfer z 2\n", 3),
        ("witnesses w\nproperty transfer -1 2\n", 2),
    ):
        with pytest.raises(ValueError, match=f"^line {line}: "):
            parse_witnesses(header + frames)
