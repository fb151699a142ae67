"""Non-colourability encodings, complete-graph families, colouring search."""

import math

import pytest

from modalmin import colouring
from modalmin.colouring import (
    colour_assignment,
    colour_code_width,
    elementary_conjunction,
    is_n_colourable,
    k_complete,
    khat,
    noncol_equivalence,
    noncol_game_setup,
    phi_n,
    standard_colour_model,
)
from modalmin.formula import (
    GLOBAL,
    MeasureKind,
    PosLit,
    NegLit,
    measure,
    parse,
    print_formula,
    subformulas,
    vars_of,
)
from modalmin.kripke import MAX_STATES, Frame, bisimilar, frame_valid

from .conftest import rand_frame
from .oracles import brute_colourable


# --- the encoding formula ---------------------------------------------------


def test_phi_1_is_somewhere_a_successor():
    assert phi_n(1) == parse("E <> T")


def test_phi_2_shape():
    assert print_formula(phi_n(2)) == "E ((~p1 & <> ~p1) | (p1 & <> p1))"


def test_phi_var_count_is_code_width():
    for n in range(2, 17):
        assert measure(phi_n(n), MeasureKind.VAR_COUNT) == math.ceil(math.log2(n))
    assert vars_of(phi_n(1)) == frozenset()


def test_phi_occurrence_bound():
    for n in range(1, 65):
        occurrences = sum(
            1 for psi in subformulas(phi_n(n)) if isinstance(psi, (PosLit, NegLit))
        )
        assert occurrences < 4 * n * (math.log2(n) + 1) if n > 1 else occurrences == 0


def test_phi_length_quasilinear():
    # slack peaks just above a power of two (n=5 needs c > 16.6): the unused
    # code disjuncts pad the formula
    for n in range(2, 9):
        assert measure(phi_n(n), MeasureKind.LENGTH) <= 4 * n * (math.log2(n) + 1) + 17


def test_phi_rejects_zero():
    with pytest.raises(ValueError):
        phi_n(0)


def test_phi_round_trips_up_to_the_nesting_limit():
    # n = 128 is the last count whose formula nests no deeper than MAX_NESTING
    phi = phi_n(128)
    assert parse(print_formula(phi), GLOBAL) == phi
    with pytest.raises(ValueError, match="nests deeper"):
        phi_n(129)


def test_code_width_and_elementary_conjunctions():
    assert [colour_code_width(n) for n in (1, 2, 3, 4, 5, 16, 17)] == [0, 1, 2, 2, 3, 4, 5]
    assert elementary_conjunction(0b10, 2) == parse("(~p1 & p2)")
    assert elementary_conjunction(0b1, 1) == parse("p1")
    with pytest.raises(ValueError):
        elementary_conjunction(0, 0)


# --- graph families ---------------------------------------------------------


def test_complete_graph_shape():
    k3 = k_complete(3)
    assert k3.state_count == 3
    assert len(list(k3.edges())) == 6
    assert not any(k3.has_edge(s, s) for s in range(3))


def test_khat_shape():
    doubled = khat(3)
    assert doubled.state_count == 6
    assert len(list(doubled.edges())) == 13
    for n in range(1, 9):
        assert [s for s in range(2 * n) if khat(n).has_edge(s, s)] == [n]


def test_complete_frames_past_max_states_edges_are_refused(monkeypatch):
    for build, n, name, edges in ((k_complete, 776, "k776", 601_400), (khat, 549, "khat549", 601_705)):
        with pytest.raises(ValueError, match=f"^{name} would have {edges} edges, more than {MAX_STATES}$"):
            build(n)
    # the bound is inclusive: k4 has 12 edges and khat3 13
    monkeypatch.setattr(colouring, "MAX_STATES", 13)
    assert len(list(k_complete(4).edges())) == 12 and len(list(khat(3).edges())) == 13
    for build, n in ((k_complete, 5), (khat, 4)):
        with pytest.raises(ValueError, match="more than 13"):
            build(n)


# --- colouring search -------------------------------------------------------


def test_colouring_pinned_cases():
    assert is_n_colourable(k_complete(3), 3)
    assert not is_n_colourable(k_complete(3), 2)
    for n in range(2, 6):
        assert not is_n_colourable(khat(n), n)
    assert is_n_colourable(Frame(4, []), 1)
    assert not is_n_colourable(Frame(1, [(0, 0)]), 3)


def test_colour_assignment_is_proper():
    frame = Frame(5, [(0, 1), (1, 2), (2, 0), (3, 4)])
    colours = colour_assignment(frame, 3)
    assert colours is not None and len(colours) == 5
    assert all(colours[u] != colours[v] for u, v in frame.edges())
    assert all(0 <= c < 3 for c in colours)


def test_colouring_matches_brute_force(rng):
    for _ in range(60):
        frame = rand_frame(rng, max_states=5)
        for n in (1, 2, 3):
            assert is_n_colourable(frame, n) == brute_colourable(frame, n)


def test_colouring_frames_past_the_recursion_limit():
    # more states than Python's default limit of 1000 nested calls
    count = 1500
    path = [(s, s + 1) for s in range(count - 1)]
    assert colour_assignment(Frame(count, path), 2) == tuple(s % 2 for s in range(count))
    odd_cycle = path[:count - 2] + [(count - 2, 0)]
    assert colour_assignment(Frame(count - 1, odd_cycle), 2) is None


def test_colouring_rejects_zero_colours():
    with pytest.raises(ValueError):
        is_n_colourable(Frame(1, []), 0)


# --- the equivalence --------------------------------------------------------


def test_equivalence_pinned_instances():
    assert noncol_equivalence(k_complete(3), 3)
    assert not frame_valid(k_complete(3), phi_n(3))
    assert noncol_equivalence(khat(2), 2)
    assert frame_valid(khat(2), phi_n(2))
    five_cycle = Frame(5, [(i, (i + 1) % 5) for i in range(5)])
    assert noncol_equivalence(five_cycle, 2)
    assert frame_valid(five_cycle, phi_n(2))
    assert not is_n_colourable(five_cycle, 2)


def test_equivalence_on_random_frames(rng):
    for _ in range(40):
        frame = rand_frame(rng, max_states=4)
        for n in (2, 3):
            assert noncol_equivalence(frame, n)


# --- the game position ------------------------------------------------------


def _code(model, state, var_order):
    """Which of the variables hold at the state, in var_order."""
    return tuple(model.holds(var, state) for var in var_order)


def test_standard_colour_model_codes_are_distinct():
    for n in (1, 2, 3, 4):
        pointed = standard_colour_model(n)
        assert pointed.model.frame == k_complete(n)
        var_order = sorted(pointed.model.valuation) or [1]
        codes = {_code(pointed.model, w, var_order) for w in range(n)}
        assert len(codes) == n


def test_game_setup_shapes():
    universe, left, right = noncol_game_setup(3)
    assert len(left) == 3 and len(right) == 1
    assert len(universe.models) == 3 * 6 + 3
    assert [off for off, _ in universe.placed] == [0, 6, 12, 18]
    right_model = universe.models[right[0]]
    assert right_model.model.frame == k_complete(3)
    var_order = sorted(right_model.model.valuation)
    right_codes = {
        _code(right_model.model, w, var_order) for w in range(3)
    }
    for i in left:
        pm = universe.models[i]
        assert pm.model.frame == khat(3)
        # each left point sits on the doubled graph and answers the right
        # point's code
        assert _code(pm.model, pm.point, var_order) == _code(
            right_model.model, right_model.point, var_order
        )
        loop_state = next(
            s for s in range(6) if pm.model.frame.has_edge(s, s)
        )
        assert _code(pm.model, loop_state, var_order) in right_codes


def test_game_setup_needs_a_colour():
    with pytest.raises(ValueError, match="at least one colour"):
        noncol_game_setup(0)


def test_game_setup_left_models_pairwise_non_bisimilar():
    universe, left, _ = noncol_game_setup(2)
    for i in left:
        for j in left:
            if i != j:
                assert not bisimilar(universe.models[i], universe.models[j], language=GLOBAL)
