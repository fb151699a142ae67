"""Formula-complexity games: tree legality, the search engines, weights."""

import itertools
import random
import tracemalloc

import pytest

from modalmin.colouring import noncol_game_setup
from modalmin.formula import (
    BASIC,
    GLOBAL,
    MeasureKind,
    compose,
    field,
    measure,
    parse,
    print_formula,
)
from modalmin.game import (
    _MOVE_OF_NODE,
    GamePosition,
    GameTree,
    _FamilySearch,
    _is_exact_image,
    _minimal_hitting_masks,
    check_weight,
    closed_tree_violations,
    fgf_min_cost,
    min_cost_fgm,
    node_count,
    psi_of_tree,
    special_pair_weight,
    verify_closed_tree,
)
from modalmin.gallery import (
    CONVERSE_WELL_FOUNDED,
    REFLEXIVE,
    REFLEXIVE_TRANSITIVE,
    SYMMETRIC,
    TRANSITIVE,
    TRANSITIVE_CWF,
    WitnessSet,
    builtin_witnesses,
    check_property,
    parse_witnesses,
    reduced_witnesses,
    symmetry_witnesses,
    transfer_witnesses,
)
from modalmin import kripke
from modalmin.kripke import (
    Frame,
    Model,
    Moves,
    PointedModel,
    ResourceCapError,
    Universe,
    all_pre_image,
    bisimilar,
    build_universe,
    den_states,
    eval_formula,
    frame_valid,
    index_mask,
    mask_bits,
    some_pre_image,
)
from modalmin.synth import certify_bound, min_separating, min_separating_frames

from .conftest import rand_frame, time_limit
from .oracles import brute_exact_image, brute_min_value, brute_table

BASIC_KINDS = tuple(k for k in MeasureKind if k.applies_to(BASIC))
ALL_KINDS = tuple(MeasureKind)


def _universe_pair():
    """Two single-state models, one satisfying p1, one not."""
    loop = Frame(1, [(0, 0)])
    return Universe([Model(loop, {1: 1}), Model(loop, {})])


# --- trees and read-off -----------------------------------------------------


def test_psi_of_tree_reads_off_structure():
    u = _universe_pair()
    leaf_pos = GamePosition(u, [0], [1])
    leaf = GameTree("lit", leaf_pos, var=1, positive=True)
    assert psi_of_tree(leaf) == parse("p1")
    assert node_count(leaf) == 1
    or_node = GameTree("or", leaf_pos, children=(leaf, GameTree("bot", GamePosition(u, [], [1]))))
    assert psi_of_tree(or_node) == parse("(p1 | F)")
    assert node_count(or_node) == 3
    assert measure(psi_of_tree(or_node), MeasureKind.LENGTH) == 3
    assert measure(psi_of_tree(or_node), MeasureKind.FALSE_COUNT) == 1


def test_psi_of_tree_rejects_open_nodes():
    u = _universe_pair()
    with pytest.raises(ValueError):
        psi_of_tree(GameTree("or", GamePosition(u, [0], [1]), children=()))
    for var, positive in ((None, None), (1, None), (None, True)):
        with pytest.raises(ValueError, match="literal leaf without a literal"):
            psi_of_tree(GameTree("lit", GamePosition(u, [0], [1]), var=var, positive=positive))
    with pytest.raises(ValueError, match="unknown move: 'bogus'"):
        GameTree("bogus", GamePosition(u, [0], [1]))


def test_literal_leaf_legality():
    u = _universe_pair()
    good = GameTree("lit", GamePosition(u, [0], [1]), var=1, positive=True)
    assert verify_closed_tree(good)
    assert repr(good) == "GameTree('lit', children=0)"
    assert repr(good.position) == "GamePosition(left=[0], right=[1])"
    # right side satisfies the literal: illegal
    bad = GameTree("lit", GamePosition(u, [0], [0]), var=1, positive=True)
    violations = closed_tree_violations(bad)
    assert violations and violations[0].startswith("root")


def test_game_position_rejects_indices_outside_the_universe():
    u = _universe_pair()
    for bad in (-1, len(u)):
        with pytest.raises(ValueError, match=f"index {bad} outside the 2-element universe"):
            GamePosition(u, [0], [bad])
        with pytest.raises(ValueError, match=f"index {bad} outside the 2-element universe"):
            GamePosition(u, [bad], [1])
    assert GamePosition(u, (1,), [0]) == GamePosition(u, [1], (0,))
    # the same masks over another universe of the same models are another position
    assert GamePosition(u, [1], [0]) != GamePosition(_universe_pair(), [1], [0])


def test_checker_reports_every_literal_index_on_the_wrong_side():
    # indices 0 and 2 satisfy p1, 1 and 3 do not
    u = Universe([Model(Frame(1, [(0, 0)]), {1: 1}), Model(Frame(1, []), {})] * 2)
    for positive, holds, fails in ((True, [0, 2], [1, 3]), (False, [1, 3], [0, 2])):
        assert verify_closed_tree(GameTree("lit", GamePosition(u, holds, fails), var=1, positive=positive))
        swapped = GameTree("lit", GamePosition(u, fails, holds), var=1, positive=positive)
        assert closed_tree_violations(swapped) == [
            *(f"root: left index {i} refutes the literal" for i in fails),
            *(f"root: right index {i} satisfies the literal" for i in holds),
        ]
    # a variable no model mentions holds nowhere
    assert verify_closed_tree(GameTree("lit", GamePosition(u, [0, 1], []), var=7, positive=False))
    assert closed_tree_violations(GameTree("lit", GamePosition(u, [1], [2]), var=7, positive=True)) == [
        "root: left index 1 refutes the literal"
    ]
    for var, positive in ((None, True), (1, None)):
        leaf = GameTree("lit", GamePosition(u, [0], [1]), var=var, positive=positive)
        assert closed_tree_violations(leaf) == ["root: literal leaf without a literal"]


def test_checker_reports_arity_and_universe_mismatches():
    u = _universe_pair()
    leaf = GameTree("lit", GamePosition(u, [0], [1]), var=1, positive=True)
    assert closed_tree_violations(GameTree("or", GamePosition(u, [0], [1]), (leaf,))) == [
        "root: or node has 1 children"
    ]
    assert closed_tree_violations(GameTree("bot", GamePosition(u, [], [1]), (leaf,))) == [
        "root: bot node has 1 children"
    ]
    # an equal universe that is another object is still another universe
    other = GameTree("lit", GamePosition(_universe_pair(), [0], [1]), var=1, positive=True)
    assert closed_tree_violations(GameTree("or", GamePosition(u, [0], [1]), (leaf, other))) == [
        "root.1: child position over a different universe"
    ]
    # the diagnostic names the path of the node whose child is bad
    nested = GameTree("and", GamePosition(u, [0], [1]), (
        leaf, GameTree("or", GamePosition(u, [0], [1]), (other, leaf)),
    ))
    assert closed_tree_violations(nested) == ["root.1.0: child position over a different universe"]


def test_checker_reports_split_moves_that_move_the_kept_set_or_miss_the_split_one():
    # four single-state models: 0 and 1 satisfy p1, 2 and 3 do not
    loop = Frame(1, [(0, 0)])
    u = Universe([Model(loop, {1: 1}), Model(loop, {1: 1}), Model(loop, {}), Model(loop, {})])

    def leaf(left, right, positive=True):
        return GameTree("lit", GamePosition(u, left, right), var=1, positive=positive)

    def bot(right):
        return GameTree("bot", GamePosition(u, [], right))

    def top(left):
        return GameTree("top", GamePosition(u, left, []))

    def root(move, left, right, *children):
        return closed_tree_violations(GameTree(move, GamePosition(u, left, right), children))

    assert root("or", [0, 1], [2, 3], leaf([0], [2, 3]), leaf([1], [2, 3])) == []
    assert root("or", [0, 1], [2, 3], leaf([0], [2]), leaf([1], [2, 3])) == [
        "root: or move must keep the right set"
    ]
    assert root("or", [0, 1], [2, 3], leaf([0], [2, 3]), bot([2, 3])) == [
        "root: or children do not cover the left set"
    ]
    assert root("and", [0, 1], [2, 3], leaf([0, 1], [2]), leaf([0, 1], [3])) == []
    assert root("and", [0, 1], [2, 3], leaf([0], [2]), leaf([0, 1], [3])) == [
        "root: and move must keep the left set"
    ]
    assert root("and", [0, 1], [2, 3], leaf([0, 1], [2]), top([0, 1])) == [
        "root: and children do not cover the right set"
    ]
    # a cover that overlaps is legal for both moves
    assert root("and", [0, 1], [2, 3], leaf([0, 1], [2, 3]), leaf([0, 1], [3])) == []
    assert root("or", [0, 1], [2, 3], leaf([0, 1], [2, 3]), leaf([1], [2, 3])) == []


def test_bot_and_top_leaf_legality():
    u = _universe_pair()
    assert verify_closed_tree(GameTree("bot", GamePosition(u, [], [0, 1])))
    assert not verify_closed_tree(GameTree("bot", GamePosition(u, [0], [1])))
    assert verify_closed_tree(GameTree("top", GamePosition(u, [0, 1], [])))
    assert not verify_closed_tree(GameTree("top", GamePosition(u, [0], [1])))


def test_dia_greedy_reply_is_checked():
    chain = Frame(2, [(0, 1), (1, 1)])
    model = Model(chain, {1: 0b10})
    u = Universe([model])
    root = GamePosition(u, [0], [])
    child_ok = GameTree("lit", GamePosition(u, [1], []), var=1, positive=True)
    assert verify_closed_tree(GameTree("dia", root, children=(child_ok,)))
    # a diamond that drops a right successor is not the greedy reply
    both = Universe([model, Model(chain, {})])
    root2 = GamePosition(both, [0], [2])
    dropped = GameTree("lit", GamePosition(both, [1], []), var=1, positive=True)
    assert not verify_closed_tree(GameTree("dia", root2, children=(dropped,)))
    kept = GameTree("lit", GamePosition(both, [1], [3]), var=1, positive=True)
    assert verify_closed_tree(GameTree("dia", root2, children=(kept,)))


def test_dia_requires_left_successors():
    bare = Frame(1, [])
    u = Universe([Model(bare, {1: 1}), Model(bare, {})])
    root = GamePosition(u, [0], [])
    child = GameTree("top", GamePosition(u, [], []))
    assert not verify_closed_tree(GameTree("dia", root, children=(child,)))


# Per modal move, over the universe of two models of the frame 0->1, 0->2,
# one with p1 everywhere (indices 0-2) and one with p1 nowhere (3-5): the
# side that chooses, a legal child (left, right) of the root ({0}, {3}), a
# child without the greedy reply, a child whose chooser set no choice
# yields, and a root with a chooser index that has no move (None for the
# same-model relation, where every index has one).
_MODAL_MOVE_CASES = {
    "dia": ("left", ((1,), (4, 5)), ((1,), (4,)), ((1, 2), (4, 5)), ((0, 2), (3,))),
    "box": ("right", ((1, 2), (4,)), ((1,), (4,)), ((1, 2), (4, 5)), ((0,), (3, 5))),
    "exists": ("left", ((1,), (3, 4, 5)), ((1,), (4, 5)), ((1, 2), (3, 4, 5)), None),
    "forall": ("right", ((0, 1, 2), (4,)), ((0, 1), (4,)), ((0, 1, 2), (4, 5)), None),
}


@pytest.mark.parametrize("language", (BASIC, GLOBAL))
@pytest.mark.parametrize("move", tuple(_MODAL_MOVE_CASES))
def test_modal_move_legality(move, language):
    chooser, legal, no_reply, no_image, bare_root = _MODAL_MOVE_CASES[move]
    replier = "right" if chooser == "left" else "left"
    frame = Frame(3, [(0, 1), (0, 2)])
    models = (Model(frame, {1: 0b111}), Model(frame, {}))
    u = Universe(models)

    def violations(child, root=((0,), (3,))):
        leaf = GameTree("lit", GamePosition(u, *child), var=1, positive=True)
        tree = GameTree(move, GamePosition(u, *root), children=(leaf,))
        return closed_tree_violations(tree, language)

    global_only = move in ("exists", "forall")
    outside = [f"root: {move} move outside the basic language"]
    assert violations(legal) == (outside if global_only and language == BASIC else [])
    assert f"root: child {replier} set is not the greedy reply" in violations(no_reply)
    assert f"root: child {chooser} set is not an exact choice image" in violations(no_image)
    if bare_root is not None:
        assert f"root: {move} move with a successor-less {chooser} index" in violations(
            legal, root=bare_root
        )
    # a universe whose second model lacks two of its states is not built
    with pytest.raises(ValueError):
        build_universe([PointedModel(models[0], s) for s in range(3)] + [PointedModel(models[1], 0)])


# --- helper machinery -------------------------------------------------------


def test_exact_image_matches_brute_force(rng):
    for _ in range(400):
        n = rng.randint(0, 5)
        options = [tuple(sorted(rng.sample(range(6), rng.randint(1, 3)))) for _ in range(n)]
        image = frozenset(rng.sample(range(6), rng.randint(0, 4)))
        masks = [index_mask(o) for o in options]
        assert _is_exact_image(masks, index_mask(image)) == brute_exact_image(options, image)


def test_exact_image_deep_chain_does_not_recurse():
    n = 2500
    options = [index_mask(range(max(0, i - 1), i + 1)) for i in range(n)]
    assert _is_exact_image(options, index_mask(range(n)))


def test_minimal_hitting_masks_properties(rng):
    assert _minimal_hitting_masks([]) == [0]
    for _ in range(120):
        sets = [rng.randrange(1, 32) for _ in range(rng.randint(1, 4))]
        hits = _minimal_hitting_masks(sets)
        # the search inserts images in this order
        assert hits == sorted(hits, key=lambda m: (m.bit_count(), m))
        for mask in hits:
            assert all(mask & s for s in sets)
            for other in hits:
                if other != mask:
                    assert not (other & ~mask) == 0
        # every hitting set contains a minimal one
        for candidate in range(32):
            if all(candidate & s for s in sets):
                assert any((mask & ~candidate) == 0 for mask in hits)


# --- the model game ---------------------------------------------------------


def test_fgm_pinned_small_cases():
    u = _universe_pair()
    cost, tree = min_cost_fgm(GamePosition(u, [0], [1]), MeasureKind.LENGTH, 6)
    assert cost == 1
    assert psi_of_tree(tree) == parse("p1")

    empty_left = min_cost_fgm(GamePosition(u, [], [0, 1]), MeasureKind.LENGTH, 6)
    assert empty_left is not None
    cost, tree = empty_left
    assert cost == 1
    assert tree.move == "bot" and not tree.children

    empty_right = min_cost_fgm(GamePosition(u, [0, 1], []), MeasureKind.LENGTH, 6)
    assert empty_right[0] == 1 and empty_right[1].move == "top"


def test_fgm_bisimilar_sides_are_absent():
    u = _universe_pair()
    pos = GamePosition(u, [0], [0])
    for budget in (1, 4, 9):
        assert min_cost_fgm(pos, MeasureKind.LENGTH, budget) is None


def test_fgm_budget_is_inclusive():
    u = build_universe([(Frame(2, [(0, 1)]), 1)])
    # index 0: empty valuation, point 0; find any pair needing length >= 2
    pos = GamePosition(u, [1], [0])
    cost, _ = min_cost_fgm(pos, MeasureKind.LENGTH, 8)
    assert min_cost_fgm(pos, MeasureKind.LENGTH, cost) is not None
    if cost > 1:
        assert min_cost_fgm(pos, MeasureKind.LENGTH, cost - 1) is None


def test_fgm_validates_arguments():
    u = _universe_pair()
    pos = GamePosition(u, [0], [1])
    with pytest.raises(ValueError):
        min_cost_fgm(pos, MeasureKind.LENGTH, 0)
    with pytest.raises(ValueError):
        min_cost_fgm(pos, MeasureKind.DIA_COUNT, 3)  # needs a length cap
    with pytest.raises(ValueError):
        min_cost_fgm(pos, MeasureKind.EXISTS_COUNT, 3, language=BASIC, length_cap=4)
    with pytest.raises(ValueError):
        build_universe([PointedModel(Model(Frame(2, [(0, 1)]), {}), 0)])


def test_fgm_trees_verify_and_match_cost(rng):
    for _ in range(40):
        # the full expansion of one random frame
        count = rng.randint(1, 3)
        edges = [(a, b) for a in range(count) for b in range(count) if rng.random() < 0.45]
        u = build_universe([(Frame(count, edges), 1)])
        indices = range(len(u.models))
        left = rng.sample(indices, rng.randint(0, 2))
        right = rng.sample(indices, rng.randint(0, 2))
        language = GLOBAL if rng.random() < 0.5 else BASIC
        found = min_cost_fgm(
            GamePosition(u, left, right), MeasureKind.LENGTH, 6, language=language
        )
        if found is None:
            continue
        cost, tree = found
        assert verify_closed_tree(tree, language)
        psi = psi_of_tree(tree)
        assert measure(psi, MeasureKind.LENGTH) == cost
        den = u.den(psi)
        assert all(den >> i & 1 for i in left)
        assert not any(den >> i & 1 for i in right)


def test_fgm_matches_enumeration_oracle(rng):
    checked = 0
    for _ in range(25):
        count = rng.randint(1, 3)
        edges = [(a, b) for a in range(count) for b in range(count) if rng.random() < 0.45]
        model_count = rng.randint(1, 2)
        u = Universe([Model(Frame(count, edges), {1: rng.getrandbits(count)}) for _ in range(model_count)])
        if len(u.models) > 7:
            continue
        indices = range(len(u.models))
        pick = min(2, len(u.models))
        left = rng.sample(indices, rng.randint(0, pick))
        right = rng.sample(indices, rng.randint(0, pick))
        language = GLOBAL if rng.random() < 0.5 else BASIC
        pos = GamePosition(u, left, right)
        blocked = any(
            bisimilar(u.models[i], u.models[j], language=language)
            for i in left
            for j in right
        )
        table = None if blocked else brute_table(u, 6, language)
        # the enumerator's literals are p1..p_var_bound, the game's and the
        # oracle's the variables the universe mentions: make them the same
        var_bound = max((v for pm in u.models for v in pm.model.valuation), default=0)
        kinds = ALL_KINDS if language == GLOBAL else BASIC_KINDS
        for kind in kinds:
            budget = 6 if kind is MeasureKind.LENGTH else rng.randint(1, 5)
            got = min_cost_fgm(pos, kind, budget, language=language, length_cap=6)
            want = None if blocked else brute_min_value(table, left, right, kind, budget)
            got_value = got if got is None else got[0]
            assert got_value == want, (kind, left, right, language)
            enumerated = _enumerated_value(u, left, right, kind, budget, var_bound, language)
            assert enumerated == want, (kind, left, right, language)
            checked += 1
    assert checked > 100


def test_fgm_matches_the_oracle_on_two_variables():
    # the one-variable tests never compare the game's variable dominance
    # with brute force: here every universe values both p1 and p2.  At this
    # seed a game that compared var counts instead of variable sets answers
    # wrong on two cases.
    rng = random.Random(6)
    checked = 0
    while checked < 1000:
        count = rng.randint(1, 3)
        frames = [
            Frame(count, [(a, b) for a in range(count) for b in range(count) if rng.random() < 0.45])
            for _ in range(rng.randint(1, 2))
        ]
        u = Universe([
            Model(frame, {1: rng.getrandbits(count), 2: rng.getrandbits(count)}) for frame in frames
        ])
        if u.variables != [1, 2]:
            continue
        indices = range(len(u.models))
        pick = min(2, len(u.models))
        left = rng.sample(indices, rng.randint(0, pick))
        right = rng.sample(indices, rng.randint(0, pick))
        pos = GamePosition(u, left, right)
        for language, kinds in ((BASIC, BASIC_KINDS), (GLOBAL, ALL_KINDS)):
            table = brute_table(u, 5, language)
            for kind in kinds:
                budget = 5 if kind is MeasureKind.LENGTH else rng.randint(1, 4)
                got = min_cost_fgm(pos, kind, budget, language=language, length_cap=5)
                want = brute_min_value(table, left, right, kind, budget)
                assert (got if got is None else got[0]) == want, (kind, left, right, language)
                checked += 1


def _enumerated_value(u, left, right, kind, budget, var_bound, language):
    """min_separating's value within the budget, at length cap 6."""
    if set(left) & set(right):
        # an index on both sides is never separated; min_separating rejects it
        with pytest.raises(ValueError):
            min_separating(u, left, right, kind, var_bound, 6, language)
        return None
    found = min_separating(u, left, right, kind, var_bound, 6, language)
    if found is None or found[1].get(kind) > budget:
        return None
    return found[1].get(kind)


def _random_searches(rng):
    """Family searches grown to length 5 on random one-frame universes."""
    for _ in range(30):
        count = rng.randint(1, 3)
        edges = [(a, b) for a in range(count) for b in range(count) if rng.random() < 0.45]
        u = build_universe([(Frame(count, edges), 1)])
        right = rng.sample(range(len(u.models)), rng.randint(0, 2))
        rmask = sum(1 << i for i in right)
        for kind in (MeasureKind.LENGTH, MeasureKind.MODAL_DEPTH, MeasureKind.VAR_COUNT):
            for language in (BASIC, GLOBAL):
                search = _FamilySearch(u, kind, 5, language)
                search.compute(rmask, 5)
                yield search, kind, language


def test_every_stored_element_walks_to_its_own_tree(rng):
    # the search answers only from winning elements; this walks every
    # element the families keep, winning or not
    walked = 0
    for search, kind, language in _random_searches(rng):
        for r, levels in search.cells.items():
            for e in itertools.chain.from_iterable(levels):
                tree = search.build(e, e[0], r)
                assert verify_closed_tree(tree, language), (e[3][0], kind, language)
                assert node_count(tree) == e[2]
                assert measure(psi_of_tree(tree), kind) == field(e[1], kind)
                walked += 1
    assert walked > 1000


def test_lifted_levels_stay_the_lifting_of_their_child_level(rng):
    # every parent replying with a child set inserts the step's lifted list
    # as it stands, so the list must still lift the child's finished level
    lifted = 0
    for search, kind, language in _random_searches(rng):
        for (crmask, length, node), elements in search.lifted.items():
            pre_image, moves = search.steps[node]
            children = search.cells[crmask][length - 1]
            assert len(elements) == len(children), (node, kind, language)
            for (image, measured, n, prov), child in zip(elements, children):
                assert image == pre_image(moves, child[0])
                assert measured == compose(node, (child[1],))
                assert n == length
                assert prov[:2] == (_MOVE_OF_NODE[node], crmask) and prov[2] is child
                lifted += 1
    assert lifted > 1000


# element_count of every search _random_searches grows, as measured before
# the search dropped candidates on their masks: the drops never change what
# a family stores
_RANDOM_SEARCH_ELEMENT_COUNTS = [
    2, 2, 2, 2, 2, 2, 11, 30, 12, 32, 11, 30, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2,
    2, 2, 2, 2, 2, 2, 7, 7, 7, 7, 7, 7, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2,
    7, 7, 7, 7, 7, 7, 20, 233, 21, 237, 20, 233, 4, 4, 4, 4, 4, 4, 5, 5, 5, 5, 5, 5,
    18, 17, 18, 19, 19, 18, 6, 46, 6, 46, 6, 53, 21, 187, 21, 187, 21, 187,
    2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 46, 54, 46, 54, 46, 54, 2, 2, 2, 2, 2, 2,
    2, 2, 2, 2, 2, 2, 10, 15, 10, 15, 11, 16, 2, 2, 2, 2, 2, 2, 6, 18, 6, 19, 6, 19,
    3, 15, 3, 17, 3, 15, 7, 7, 7, 7, 7, 7, 17, 46, 17, 46, 18, 50, 8, 40, 8, 40, 8, 40,
    2, 2, 2, 2, 2, 2, 23, 67, 23, 69, 26, 70, 12, 56, 12, 56, 12, 61,
]


def test_random_search_element_counts_pinned(rng):
    counts = [search.element_count for search, _, _ in _random_searches(rng)]
    assert counts == _RANDOM_SEARCH_ELEMENT_COUNTS


def test_false_count_keeps_empty_elements():
    # A dead end (0) left; right 1 and 2, each seeing one reflexive point,
    # p1 at 3 only, so 0, 1 and 2 carry equal valuations.  The box move
    # leaves (empty, {3, 4}), which within length 4 only p1 & ~p1 (empty
    # set, no bot) closes for free: [](p1 & ~p1) costs 0, []F costs 1.  In
    # the global language A p1 (empty set) gives [] A p1 at length 3.  Bot
    # is no cheaper than an empty element under FALSE_COUNT, so the search
    # must keep those.
    u = Universe([Model(Frame(5, [(1, 3), (2, 4), (3, 3), (4, 4)]), {1: 0b01000})])
    pos = GamePosition(u, [0], [1, 2])
    for language, length_cap in ((BASIC, 4), (GLOBAL, 3)):
        found = min_cost_fgm(pos, MeasureKind.FALSE_COUNT, 3, language, length_cap)
        assert found is not None and found[0] == 0, language
        assert verify_closed_tree(found[1], language)
        separator = min_separating(u, [0], [1, 2], MeasureKind.FALSE_COUNT, 1, length_cap, language)
        assert separator is not None and separator[1].false_count == 0, language


def test_modal_steps_are_the_kernel_functions():
    # the game tells the steps apart by identity, so a wrapped entry would
    # silently change its answers
    u = build_universe([(Frame(2, [(0, 1)]), 1)])
    for language in (BASIC, GLOBAL):
        for node, (pre_image, _) in u.steps(language).items():
            assert pre_image is some_pre_image or pre_image is all_pre_image, node


def test_checking_a_basic_tree_builds_only_the_successor_relation(monkeypatch):
    # a basic-language tree with modal moves, moved onto a fresh universe of
    # the same models: the checker builds the relation its moves read, once
    u = build_universe([(Frame(3, [(0, 1), (1, 2)]), 1)])
    _, tree = min_cost_fgm(GamePosition(u, [0, 3], [1, 2]), MeasureKind.LENGTH, 6, language=BASIC)
    assert {"dia", "box"} & {node.move for node in tree.walk()}

    def moved(node, fresh):
        position = GamePosition(fresh, mask_bits(node.position.left), mask_bits(node.position.right))
        return GameTree(node.move, position, [moved(c, fresh) for c in node.children], node.var, node.positive)

    built = []
    monkeypatch.setattr(kripke, "Moves", lambda runs, everywhere: built.append(everywhere) or Moves(runs, everywhere))
    for language in (BASIC, GLOBAL):
        built.clear()
        fresh = moved(tree, Universe([model for _, model in u.placed]))
        assert verify_closed_tree(fresh, language)
        assert built == [False], language


def test_fgm_cost_monotone_in_left_set(rng):
    for _ in range(15):
        count = rng.randint(2, 3)
        edges = [(a, b) for a in range(count) for b in range(count) if rng.random() < 0.45]
        u = build_universe([(Frame(count, edges), 1)])
        indices = range(len(u.models))
        left = rng.sample(indices, 2)
        right = rng.sample(indices, 1)
        small = min_cost_fgm(GamePosition(u, left[:1], right), MeasureKind.LENGTH, 6)
        big = min_cost_fgm(GamePosition(u, left, right), MeasureKind.LENGTH, 6)
        if big is not None:
            assert small is not None
            assert small[0] <= big[0]


def test_fgm_resource_cap(monkeypatch):
    monkeypatch.setattr("modalmin.game.POSITION_CAP", 50)
    u, left, right = noncol_game_setup(3)
    with pytest.raises(ResourceCapError):
        min_cost_fgm(
            GamePosition(u, left, right),
            MeasureKind.LENGTH,
            9,
            language=GLOBAL,
        )


# --- the frame game ---------------------------------------------------------


def test_fgf_transfer_0_1_cost_4():
    cost, tree, choices = fgf_min_cost(transfer_witnesses(0, 1), MeasureKind.LENGTH, 1, 6)
    assert cost == 4
    psi = psi_of_tree(tree)
    assert psi == parse("(~p1 | <> p1)") or psi == parse("(p1 | <> ~p1)")
    assert set(choices) == {"b"}


def test_fgf_symmetry_cost_5():
    cost, tree, _ = fgf_min_cost(symmetry_witnesses(), MeasureKind.LENGTH, 1, 5)
    assert cost == 5
    assert psi_of_tree(tree) == parse("(~p1 | [] <> p1)")
    assert verify_closed_tree(tree)


def test_fgf_respects_budget():
    assert fgf_min_cost(transfer_witnesses(0, 1), MeasureKind.LENGTH, 1, 3) is None


def test_fgf_non_length_measures():
    w = transfer_witnesses(1, 2)
    dia, _, _ = fgf_min_cost(w, MeasureKind.DIA_COUNT, 1, 5, length_cap=8)
    box, _, _ = fgf_min_cost(w, MeasureKind.BOX_COUNT, 1, 5, length_cap=8)
    depth, _, _ = fgf_min_cost(w, MeasureKind.MODAL_DEPTH, 1, 5, length_cap=8)
    assert (dia, box, depth) == (2, 1, 2)


def test_fgf_var_count_pinned():
    found = fgf_min_cost(
        transfer_witnesses(1, 2), MeasureKind.VAR_COUNT, 1, 5, length_cap=8
    )
    cost, tree, _ = found
    assert cost == 1
    assert print_formula(psi_of_tree(tree)) == "([] ~p1 | <> <> p1)"
    assert verify_closed_tree(tree)


def test_fgf_stops_once_no_family_can_grow():
    # past the length where no family can gain an element, a far larger cap
    # must end at once with the same answer (it never ended before the stop)
    for name in ("symmetry", "transfer-0-1", "transfer-1-2"):
        w = builtin_witnesses(name)
        for kind in (MeasureKind.MODAL_DEPTH, MeasureKind.BOX_COUNT, MeasureKind.VAR_COUNT):
            for language in (BASIC, GLOBAL):
                if name == "transfer-1-2" and language == GLOBAL and kind is not MeasureKind.MODAL_DEPTH:
                    # these families still gain elements at length 21, so
                    # even cap 60 takes minutes
                    continue
                answers = []
                for cap in (60, 10**9):
                    found = fgf_min_cost(w, kind, 1, 1, language, length_cap=cap)
                    answers.append(found and (found[0], psi_of_tree(found[1])))
                assert answers[0] == answers[1], (name, kind, language)


def test_fgf_tree_separates_the_frames():
    w = transfer_witnesses(2, 1)
    cost, tree, _ = fgf_min_cost(w, MeasureKind.LENGTH, 1, 8)
    assert cost == 6
    psi = psi_of_tree(tree)
    assert all(frame_valid(f, psi) for f in w.positives)
    assert not any(frame_valid(f, psi) for f in w.negatives)


# negatives of the symmetric property: b1 and b3 share their dead end's classes
_SYMMETRIC_NEGATIVES = {
    "b1": [(0, 1), (1, 2)],
    "b2": [(0, 1), (1, 2), (2, 2)],
    "b3": [(0, 1), (0, 2), (1, 1)],
    "b4": [(0, 1), (1, 2), (2, 0)],
}


def _symmetric_witnesses(negatives, var_bound):
    """One reflexive state against the named three-state negatives."""
    lines = ["witnesses shared", "property symmetric", f"vars {var_bound}"]
    lines += ["positive:", "frame a1", "states 1", "edge 0 0", "negative:"]
    for name, frame in negatives:
        lines += [f"frame {name}", "states 3"]
        lines += [f"edge {a} {b}" for a, b in _SYMMETRIC_NEGATIVES[frame]]
    return parse_witnesses("\n".join(lines) + "\n")


def test_fgf_caps_the_opponent_choices_before_building_them(monkeypatch):
    # 342,720 choices of one class per negative frame; the sweep stops once
    # more right sets than the cap are live, before it builds one past it
    monkeypatch.setattr("modalmin.game.POSITION_CAP", 1000)
    w = _symmetric_witnesses([(nm, nm) for nm in ("b1", "b2", "b3")], 2)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceCapError, match="frame game search exceeded 1000 elements"):
            fgf_min_cost(w, MeasureKind.LENGTH, 2, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000


def test_fgf_lists_no_right_set_before_its_classes_are_live():
    # the same 342,720 choices at the default cap: within length 3 too few
    # classes have a singleton cover for the live right sets to pass the
    # cap, and no formula of length 3 separates the frames
    w = _symmetric_witnesses([(nm, nm) for nm in ("b1", "b2", "b3")], 2)
    with time_limit(10):
        assert fgf_min_cost(w, MeasureKind.LENGTH, 2, 3) is None
    assert min_separating_frames(w, MeasureKind.LENGTH, 2, 3) is None


@pytest.mark.parametrize("language", (BASIC, GLOBAL))
@pytest.mark.parametrize(
    "negatives",
    ([("b1", "b1"), ("c1", "b1")], [("b1", "b1"), ("b3", "b3")], [("b2", "b2"), ("c2", "b2"), ("b4", "b4")]),
)
def test_fgf_negatives_sharing_classes(negatives, language):
    # two negative frames may pick the same class; the chosen pointed models
    # must all refute the formula the tree reads off
    w = _symmetric_witnesses(negatives, 1)
    cost, tree, choice = fgf_min_cost(w, MeasureKind.LENGTH, 1, 4, language)
    psi = psi_of_tree(tree)
    assert verify_closed_tree(tree, language)
    _, enumerated = min_separating_frames(w, MeasureKind.LENGTH, 1, 4, language)
    assert cost == enumerated.length
    assert all(frame_valid(f, psi) for f in w.positives)
    assert set(choice) == {nm for nm, _ in negatives}
    assert not any(eval_formula(pm.model, pm.point, psi) for pm in choice.values())


_GALLERY = (REFLEXIVE, TRANSITIVE, SYMMETRIC, CONVERSE_WELL_FOUNDED, REFLEXIVE_TRANSITIVE, TRANSITIVE_CWF)


def _random_witnesses(rng, negatives=(1, 2)) -> WitnessSet:
    """1-4 random frames of 1-3 states, split by a random gallery property.

    A draw is redrawn unless both sides are non-empty and the number of
    negative frames is one of negatives: the frame game's right sets
    multiply with every negative frame's classes.
    """
    while True:
        frames = [rand_frame(rng, 3) for _ in range(rng.randint(1, 4))]
        prop = rng.choice(_GALLERY)
        pos = tuple(f for f in frames if check_property(f, prop))
        neg = tuple(f for f in frames if not check_property(f, prop))
        if pos and len(neg) in negatives:
            names = tuple(f"a{k}" for k in range(len(pos))), tuple(f"b{k}" for k in range(len(neg)))
            return WitnessSet("random", prop, pos, neg, *names)


def test_frame_routes_agree_on_random_witness_sets():
    # the frame game, the frame-wise enumeration and the certificate, per
    # measure of each language: Length to budget 5, the others to budget 2
    # within length 3
    rng = random.Random(2024)
    separated = 0
    for _ in range(24):
        w = _random_witnesses(rng)
        for language in (BASIC, GLOBAL):
            for kind in (k for k in MeasureKind if k.applies_to(language)):
                budget, cap = (5, 5) if kind is MeasureKind.LENGTH else (2, 3)
                played = fgf_min_cost(w, kind, 1, budget, language, length_cap=cap)
                found = min_separating_frames(w, kind, 1, cap, language)
                cost = None if found is None or found[1].get(kind) > budget else found[1].get(kind)
                assert (None if played is None else played[0]) == cost
                if played is None:
                    continue
                separated += 1
                _, tree, choice = played
                assert verify_closed_tree(tree, language)
                psi = psi_of_tree(tree)
                assert set(choice) == set(w.negative_names)
                assert not any(eval_formula(pm.model, pm.point, psi) for pm in choice.values())
                assert certify_bound(w, kind, cost, 1, cap, language).verdict == "Proved"
                assert certify_bound(w, kind, cost + 1, 1, cap, language).verdict == "Refuted"
    assert separated > 300


def _one_right_set_at_a_time(w, kind, budget, language, length_cap):
    """fgf_min_cost's answer, from every right set grown to the length cap.

    The right sets are fgf_min_cost's: one per choice of a free class in
    each negative frame, each kept with its first picks in product order.
    Each family is grown to the length cap with no pruning; the families
    are shared, as a family's content does not depend on which others were
    built.  The answer is the cheapest covering element of any level by
    (measure key, length, picks).
    """
    u, target, negatives = reduced_witnesses(w, 1, language)
    free = [(nm, [*mask_bits(neg & ~target)]) for nm, neg in negatives]
    combos = {}
    for combo in itertools.product(*(indices for _, indices in free)):
        combos.setdefault(index_mask(combo), combo)
    eff_cap = min(budget, length_cap) if kind is MeasureKind.LENGTH else length_cap
    search = _FamilySearch(u, kind, budget, language)
    best = None
    for rmask, combo in combos.items():
        for level in search.compute(rmask, eff_cap):
            for e in level:
                rank = (search.key(e[1]), e[2], combo)
                if target & ~e[0] == 0 and (best is None or rank < best[0]):
                    choice = {nm: u.models[i] for (nm, _), i in zip(free, combo)}
                    best = rank, (field(e[1], kind), psi_of_tree(search.build(e, target, rmask)), choice)
    return None if best is None else best[1]


def _check_against_one_right_set_at_a_time(rng, negatives, sets):
    """Checks fgf_min_cost on seeded random sets; returns how many answered.

    Every measure of both languages: the cost against min_separating_frames,
    and cost, formula and choice against _one_right_set_at_a_time.
    """
    answered = 0
    for _ in range(sets):
        w = _random_witnesses(rng, negatives)
        for language in (BASIC, GLOBAL):
            for kind in (k for k in MeasureKind if k.applies_to(language)):
                budget, cap = (5, 5) if kind is MeasureKind.LENGTH else (2, 4)
                played = fgf_min_cost(w, kind, 1, budget, language, length_cap=cap)
                found = min_separating_frames(w, kind, 1, cap, language)
                cost = None if found is None or found[1].get(kind) > budget else found[1].get(kind)
                assert (None if played is None else played[0]) == cost, (kind, language)
                if played is not None:
                    played = (played[0], psi_of_tree(played[1]), played[2])
                    answered += 1
                assert played == _one_right_set_at_a_time(w, kind, budget, language, cap), (kind, language)
    return answered


def test_fgf_matches_searching_each_right_set_alone():
    # fgf_min_cost builds only the right sets whose every class a singleton
    # search has separated; that must change no answer and no tie
    assert _check_against_one_right_set_at_a_time(random.Random(7), (2,), 12) > 150


def test_fgf_matches_searching_each_right_set_alone_on_three_negatives():
    # three negative frames of at most 3 states; at 4 states most draws take
    # the unpruned reference past the element cap
    assert _check_against_one_right_set_at_a_time(random.Random(5), (3,), 8) == 160


def test_fgf_builds_no_right_set_with_a_class_nothing_separates(monkeypatch):
    # lob-3 global: no pointed model of b1 has a singleton cover within
    # length 5, so none of the opponent's 256 right sets can be covered and
    # none is ever built
    w = builtin_witnesses("lob-3")
    _, target, negatives = reduced_witnesses(w, 1, GLOBAL)
    combos = itertools.product(*(mask_bits(neg & ~target) for _, neg in negatives))
    rmasks = {index_mask(combo) for combo in combos}
    assert len(rmasks) == 256
    computed = set()
    compute = _FamilySearch.compute
    monkeypatch.setattr(
        _FamilySearch, "compute", lambda self, rmask, upto: computed.add(rmask) or compute(self, rmask, upto)
    )
    assert fgf_min_cost(w, MeasureKind.LENGTH, 1, 5, GLOBAL) is None
    assert computed and not computed & rmasks


# The minimum of every basic measure, in MeasureKind order, on each shipped
# set but lob-4, within length 8
_BASIC_MINIMA = {
    "transfer-0-1": (4, 1, 1, 0, 0, 1, 0, 1, 0),
    "transfer-1-0": (4, 1, 1, 0, 0, 1, 0, 0, 1),
    "transfer-1-2": (6, 2, 1, 0, 0, 1, 0, 2, 1),
    "transfer-2-1": (6, 2, 1, 0, 0, 1, 0, 1, 2),
    "transfer-2-0": (5, 2, 1, 0, 0, 1, 0, 0, 2),
    "transfer-0-2": (5, 2, 1, 0, 0, 1, 0, 2, 0),
    "s4": (8, 2, 1, 0, 0, 1, 1, 1, 2),
    "lob-1": (8, 2, 1, 0, 0, 1, 1, 1, 2),
    "lob-2": (8, 2, 1, 0, 0, 1, 1, 1, 2),
    "lob-3": (8, 2, 1, 0, 0, 1, 1, 1, 2),
    "symmetry": (5, 2, 1, 0, 0, 1, 0, 1, 1),
}


@pytest.mark.parametrize("name", _BASIC_MINIMA)
def test_frame_routes_agree_on_the_shipped_sets_for_every_basic_measure(name):
    # the frame-wise enumeration, the frame game (Length to budget 8, the
    # others to budget 4) and the certificate, Proved at the minimum and
    # Refuted one above, all within length 8
    w = builtin_witnesses(name)
    for kind, minimum in zip(BASIC_KINDS, _BASIC_MINIMA[name]):
        found = min_separating_frames(w, kind, 1, 8, BASIC)
        assert found is not None and found[1].get(kind) == minimum, kind
        budget = 8 if kind is MeasureKind.LENGTH else 4
        played = fgf_min_cost(w, kind, 1, budget, BASIC, length_cap=8)
        assert played is not None and played[0] == minimum, kind
        assert certify_bound(w, kind, minimum, 1, 8, BASIC).verdict == "Proved", kind
        assert certify_bound(w, kind, minimum + 1, 1, 8, BASIC).verdict == "Refuted", kind


# --- weight functions -------------------------------------------------------


def test_check_weight_single_leaf():
    u = _universe_pair()
    leaf = GameTree("lit", GamePosition(u, [0], [1]), var=1, positive=True)
    assert check_weight(leaf, {leaf: 1})
    assert not check_weight(leaf, {leaf: 2})
    assert not check_weight(leaf, {leaf: -1})


def test_check_weight_parent_excess_clause():
    u = _universe_pair()
    leaf_pos = GamePosition(u, [0], [1])
    left = GameTree("lit", leaf_pos, var=1, positive=True)
    right = GameTree("bot", GamePosition(u, [], [1]))
    parent = GameTree("or", leaf_pos, children=(left, right))
    assert check_weight(parent, {parent: 3, left: 1, right: 1})
    assert not check_weight(parent, {parent: 4, left: 1, right: 1})
    # a negative weight fails even where the excess clause holds
    assert not check_weight(parent, {parent: -1, left: 1, right: 1})
    # so do children without a weight
    assert not check_weight(parent, {parent: 3})
    assert not check_weight(parent, {parent: 0, left: 0})


def test_special_pair_weight_matches_pairwise_valuations(rng):
    # equal atoms at two points, read pair by pair off the models themselves
    def naive(pos):
        u = pos.universe
        pairs = set()
        for i in mask_bits(pos.left):
            a = u.models[i]
            for j in mask_bits(pos.right):
                b = u.models[j]
                variables = set(a.model.valuation) | set(b.model.valuation)
                if all(a.model.holds(v, a.point) == b.model.holds(v, b.point) for v in variables):
                    pairs.add(a.model)
        return len(pairs)

    for _ in range(60):
        u = build_universe([(rand_frame(rng, 2), rng.randint(0, 2)) for _ in range(rng.randint(1, 2))])
        indices = list(range(len(u)))
        rng.shuffle(indices)
        cut = rng.randint(0, len(indices))
        pos = GamePosition(u, indices[:cut], indices[cut:])
        node = GameTree("top", pos)
        assert special_pair_weight(node) == {node: naive(pos)}


def test_node_count_bounds_root_weight(rng):
    universe, left, right = noncol_game_setup(2)
    cost, tree = min_cost_fgm(
        GamePosition(universe, left, right), MeasureKind.LENGTH, 6, language=GLOBAL
    )
    weight = special_pair_weight(tree)
    assert check_weight(tree, weight)
    assert weight[tree] == 2
    assert node_count(tree) >= weight[tree]
    assert cost == 6
