"""Frames, models, evaluation, validity, bisimulation, universes."""

import functools
import hashlib
import random
from operator import or_

import pytest
from hypothesis import given, strategies as st

from modalmin.formula import (
    BASIC,
    GLOBAL,
    And,
    Box,
    Dia,
    ExistsMod,
    ForallMod,
    MeasureKind,
    Or,
    PosLit,
    measure,
    nnf_negate,
    parse,
    vars_of,
)
from modalmin import kripke
from modalmin.kripke import (
    Frame,
    Model,
    Moves,
    PointedModel,
    ResourceCapError,
    Universe,
    VALIDITY_CAP_BITS,
    _greedy_cover,
    all_pre_image,
    bisimilar,
    build_universe,
    den_states,
    eval_formula,
    expand_reduced,
    format_frame,
    forward_image,
    frame_valid,
    index_mask,
    mask_bits,
    modal_steps,
    parse_frames,
    parse_model,
    relations,
    some_pre_image,
)
from modalmin.colouring import colour_assignment, k_complete, khat, phi_n
from modalmin.gallery import builtin_witnesses, lob_witnesses, reduced_witnesses

from .conftest import rand_formula, rand_frame, rand_model, rand_pointed
from .oracles import naive_bisimilar, naive_eval, naive_valid, rescanning_greedy_cover

LOOP = Frame(1, [(0, 0)])
# irreflexive root below a reflexive point
CHAIN = Frame(2, [(0, 1), (1, 1)])


# --- frames and models ------------------------------------------------------


def test_frame_rejects_bad_shapes():
    with pytest.raises(ValueError):
        Frame(0, [])
    with pytest.raises(ValueError):
        Frame(2, [(0, 2)])
    with pytest.raises(ValueError):
        Frame(2, [(-1, 0)])


def test_frame_dedups_edges_and_exposes_masks():
    frame = Frame(3, [(0, 1), (0, 1), (1, 2), (0, 2)])
    assert len(list(frame.edges())) == 3
    assert sorted(frame.edges()) == [(0, 1), (0, 2), (1, 2)]
    assert frame.succ_masks == (0b110, 0b100, 0)
    assert frame.has_edge(0, 1) and not frame.has_edge(1, 0)


def test_reflexive_mask():
    assert [s for s in range(CHAIN.state_count) if CHAIN.has_edge(s, s)] == [1]


def test_model_normalizes_valuation():
    model = Model(CHAIN, {2: 0b01, 1: 0})
    assert model.valuation == {2: 0b01}
    assert model.val_mask(1) == 0
    assert model.holds(2, 0) and not model.holds(2, 1)
    with pytest.raises(ValueError):
        Model(CHAIN, {0: 1})
    with pytest.raises(ValueError):
        Model(CHAIN, {1: 0b100})


def test_model_from_sets():
    model = Model.from_sets(CHAIN, {1: [0], 2: [0, 1]})
    assert model == Model(CHAIN, {1: 0b01, 2: 0b11})
    assert [model.holds(var, 0) for var in (1, 2)] == [True, True]
    assert [model.holds(var, 1) for var in (1, 2)] == [False, True]


def test_equal_structures_built_apart_hash_equal(rng):
    for _ in range(60):
        frame = rand_frame(rng)
        w = frame.state_count
        # the same edges, shuffled and with one repeated, give an equal frame
        edges = list(frame.edges())
        rng.shuffle(edges)
        twin = Frame(w, edges + edges[:1])
        assert twin == frame and hash(twin) == hash(frame)
        # the same valuation in another key order, plus variables valued empty
        valuation = {var: rng.getrandbits(w) for var in rng.sample(range(1, 5), rng.randint(0, 3))}
        items = list(valuation.items()) + [(var, 0) for var in range(5, 5 + rng.randint(0, 2))]
        rng.shuffle(items)
        model, other = Model(frame, valuation), Model(twin, dict(items))
        assert model == other and hash(model) == hash(other)
        point = rng.randrange(w)
        assert PointedModel(model, point) == PointedModel(other, point)
        assert hash(PointedModel(model, point)) == hash(PointedModel(other, point))
        assert len({model, other, Model(Frame(w, edges), dict(reversed(items)))}) == 1
        # nothing but an instance of the same class is equal, not even its fields
        pointed = PointedModel(model, point)
        for value, fields in (
            (frame, (w, frame.succ_masks)),
            (model, (frame, model.valuation)),
            (pointed, (model, point)),
        ):
            assert value != fields and value != frame.succ_masks
        assert frame != model != pointed != frame


def test_pointed_model_checks_point():
    with pytest.raises(ValueError):
        PointedModel(Model(CHAIN, {}), 2)


# --- evaluation -------------------------------------------------------------


def test_eval_pinned_cases():
    loop_p = Model(LOOP, {1: 1})
    assert eval_formula(loop_p, 0, parse("<> p1"))
    bare = Model(Frame(1, []), {})
    assert eval_formula(bare, 0, parse("[] F"))
    assert not eval_formula(bare, 0, parse("<> T"))
    assert eval_formula(bare, 0, parse("A ~p1"))


def test_eval_rejects_bad_state():
    with pytest.raises(ValueError):
        eval_formula(Model(LOOP, {}), 1, parse("T"))


def test_proper_colouring_satisfies_negated_encoding():
    # a valuation coding a proper n-colouring makes the negated encoding
    # true everywhere
    for frame, n in ((k_complete(3), 3), (k_complete(2), 2), (Frame(4, [(0, 1), (1, 2), (2, 3)]), 2)):
        colours = colour_assignment(frame, n)
        assert colours is not None
        width = max(1, (n - 1).bit_length())
        valuation = {
            b + 1: sum(1 << s for s, c in enumerate(colours) if c >> b & 1) for b in range(width)
        }
        model = Model(frame, valuation)
        negated = nnf_negate(phi_n(n))
        assert all(eval_formula(model, s, negated) for s in range(frame.state_count))


@given(seed=st.integers(0, 2**32 - 1), length=st.integers(1, 8))
def test_den_states_matches_naive_eval(seed, length):
    rng = random.Random(seed)
    model = rand_model(rng, var_bound=2, max_states=4)
    phi = rand_formula(rng, 2, length, GLOBAL)
    den = den_states(model, phi)
    for state in range(model.frame.state_count):
        assert bool(den >> state & 1) == naive_eval(model, state, phi)


def test_global_modality_is_point_independent():
    rng = random.Random(5)
    for _ in range(20):
        model = rand_model(rng, var_bound=1, max_states=4)
        phi = parse("E (p1 & <> ~p1)")
        den = den_states(model, phi)
        assert den == 0 or den == (1 << model.frame.state_count) - 1


# --- validity ---------------------------------------------------------------


def test_frame_valid_pinned_cases():
    reflexivity = parse("(~p1 | <> p1)")
    assert frame_valid(LOOP, reflexivity)
    assert not frame_valid(CHAIN, reflexivity)
    assert frame_valid(khat(2), phi_n(2))


def test_frame_valid_conjunction_of_valid_is_valid():
    left = parse("(~p1 | <> p1)")
    right = parse("([] p1 | <> ~p1)")
    if frame_valid(LOOP, left) and frame_valid(LOOP, right):
        assert frame_valid(LOOP, And(left, right))


def test_frame_valid_ignores_fresh_variables():
    phi = parse("(~p1 | <> p1)")
    padded = Or(phi, And(PosLit(7), nnf_negate(PosLit(7))))
    assert vars_of(padded) == frozenset({1, 7})
    assert frame_valid(LOOP, phi) == frame_valid(LOOP, padded)
    assert frame_valid(CHAIN, phi) == frame_valid(CHAIN, padded)


def test_frame_valid_resource_cap():
    wide = Frame(13, [])
    with pytest.raises(ResourceCapError):
        frame_valid(wide, parse("(p1 | p2)"), cap_bits=24)
    assert frame_valid(wide, parse("(p1 | ~p1)"), cap_bits=13)


def test_coded_masks_transpose_coded_models():
    # every block size 2^b, so every aligned block frame_valid reads under
    # any chunk size; v = 0 gives one code and no slots
    rng = random.Random(7)
    for w in (1, 2, 3, 4, 4):
        frame = Frame(w, [(s, t) for s in range(w) for t in range(w) if rng.random() < 0.4])
        for v in range(4):
            models = [kripke._coded_model(frame, v, code) for code in range(1 << w * v)]
            for b in range(w * v + 1):
                block = 1 << b
                blocks = list(kripke._coded_masks(w, v, block))
                assert len(blocks) == len(models) // block
                for n, masks in enumerate(blocks):
                    run = models[n * block:(n + 1) * block]
                    assert masks == [
                        sum(m.val_mask(k + 1) << i * w for i, m in enumerate(run)) for k in range(v)
                    ], (w, v, block, n)


def test_frame_valid_reads_every_chunk_of_valuations():
    # 8 states and 2 variables give 2^16 valuation codes, split into chunks;
    # p2 at state 7 is code bit 15, constant within a chunk
    path = Frame(8, [(i, i + 1) for i in range(7)])
    assert not frame_valid(path, parse("([] [] [] [] [] [] [] ~p2 | (p1 & ~p1))"))
    assert frame_valid(path, parse("([] [] [] [] [] [] [] ~p2 | <> <> <> <> <> <> <> p2)"))


@given(seed=st.integers(0, 2**32 - 1), length=st.integers(1, 6))
def test_frame_valid_matches_naive_product(seed, length):
    rng = random.Random(seed)
    frame = rand_frame(rng, max_states=3)
    phi = rand_formula(rng, 2, length, GLOBAL)
    assert frame_valid(frame, phi) == naive_valid(frame, phi)


# --- bisimulation -----------------------------------------------------------

def _loop_and_chain_pair():
    chain_model = Model(CHAIN, {1: 0b10})
    loop_model = Model(LOOP, {1: 0b1})
    return PointedModel(chain_model, 1), PointedModel(loop_model, 0)


def test_bisimilar_identical_models():
    pm = PointedModel(Model(CHAIN, {1: 0b01}), 0)
    assert bisimilar(pm, pm, language=BASIC)
    assert bisimilar(pm, pm, language=GLOBAL)


def test_reflexive_point_bisimilar_to_loop():
    chain_top, loop = _loop_and_chain_pair()
    assert bisimilar(chain_top, loop, language=BASIC)
    # the chain root carries different atoms, so totality fails
    assert not bisimilar(chain_top, loop, language=GLOBAL)


def test_shared_valuation_double_is_globally_bisimilar():
    single = PointedModel(Model(k_complete(3), {1: 0b100}), 0)
    double = PointedModel(Model(khat(3), {1: 0b100100}), 0)
    assert bisimilar(single, double, language=GLOBAL)
    distinct = PointedModel(Model(k_complete(3), {1: 0b001}), 0)
    doubled_distinct = PointedModel(Model(khat(3), {1: 0b001001}), 0)
    assert not bisimilar(distinct, doubled_distinct, language=GLOBAL)


def test_atom_mismatch_is_never_bisimilar():
    a = PointedModel(Model(LOOP, {1: 1}), 0)
    b = PointedModel(Model(LOOP, {}), 0)
    assert not bisimilar(a, b, language=BASIC)


@given(seed=st.integers(0, 2**32 - 1))
def test_bisimilar_matches_fixpoint_oracle(seed):
    rng = random.Random(seed)
    a = rand_pointed(rng, var_bound=1, max_states=3)
    b = rand_pointed(rng, var_bound=1, max_states=3)
    for language in (BASIC, GLOBAL):
        assert bisimilar(a, b, language=language) == naive_bisimilar(a, b, language)


# the path 0 -> 1 leads into the 2-cycle 1 <-> 2, the dead end 5 lies below
# it and below the self-loop 3, and 4 -> 5 is a path that reaches no cycle
MIXED = Frame(6, [(0, 1), (1, 2), (2, 1), (2, 5), (3, 3), (3, 5), (4, 5)])


def _refine_layout(rng, frames, var_bound):
    """(atoms, runs, pointed models) of a layout of 1-3 models per frame."""
    runs, pointed, atoms, size = [], [], [0] * var_bound, 0
    for frame in frames:
        count = rng.randint(1, 3)
        runs.append((size, frame, count))
        for _ in range(count):
            # few valuations, so equal models recur across and inside runs
            every = (1 << frame.state_count) - 1
            p1 = rng.choice((0, 1, 0b110 & every, every))
            model = Model(frame, {1: p1} if var_bound else {})
            atoms = [mask | p1 << size for mask in atoms]
            pointed += [PointedModel(model, s) for s in range(frame.state_count)]
            size += frame.state_count
    return atoms, runs, pointed


def test_refine_matches_naive_bisimilarity_across_runs():
    # the dead end below the second loop takes id 0, also the loops' atom code
    layouts = [_refine_layout(random.Random(0), [Frame(3, [(0, 0), (1, 1), (1, 2)])], 0)]
    for seed in range(10):
        rng = random.Random(seed)
        frames = [MIXED, *(rand_frame(rng, 4, rng.choice((0.2, 0.4))) for _ in range(rng.randint(1, 2)))]
        rng.shuffle(frames)
        layouts.append(_refine_layout(rng, frames, rng.choice((0, 1))))
    bisimilar_pairs = 0
    for n, (atoms, runs, pointed) in enumerate(layouts):
        # the same models as a universe, which finds the runs itself
        universe = Universe([pm.model for pm in pointed if pm.point == 0])
        for language in (BASIC, GLOBAL):
            for colours in (kripke._refine(atoms, runs, language), universe.colours(language)):
                for i, a in enumerate(pointed):
                    for j in range(i + 1, len(pointed)):
                        same = naive_bisimilar(a, pointed[j], language)
                        assert (colours[i] == colours[j]) == same, (n, language, i, j)
                        bisimilar_pairs += same
    assert bisimilar_pairs > 0


def test_bisimilar_on_long_paths():
    path = Frame(2000, [(s, s + 1) for s in range(1999)])
    first = PointedModel(Model(path, {1: 1}), 0)
    last = PointedModel(Model(path, {1: 1 << 1999}), 0)
    for language in (BASIC, GLOBAL):
        assert bisimilar(first, first, language)
        assert not bisimilar(first, last, language)


@given(seed=st.integers(0, 2**32 - 1), length=st.integers(1, 6))
def test_bisimilar_points_agree_on_formulas(seed, length):
    rng = random.Random(seed)
    a = rand_pointed(rng, var_bound=1, max_states=3)
    b = rand_pointed(rng, var_bound=1, max_states=3)
    phi = rand_formula(rng, 1, length, BASIC)
    if bisimilar(a, b, language=BASIC):
        assert naive_eval(a.model, a.point, phi) == naive_eval(b.model, b.point, phi)


# --- universes --------------------------------------------------------------


def test_expand_frame_counts():
    assert len(build_universe([(LOOP, 1)])) == 2
    assert len(build_universe([(CHAIN, 1)])) == 8
    assert len(build_universe([(CHAIN, 0)])) == 2


def test_build_universe_keeps_explicit_seeds():
    seeds = [PointedModel(Model(CHAIN, {1: 0b01}), s) for s in range(2)]
    u = build_universe(seeds)
    assert tuple(u.models) == tuple(seeds)
    assert u.placed == ((0, seeds[0].model),)


def test_build_universe_cap(monkeypatch):
    monkeypatch.setattr(kripke, "UNIVERSE_CAP", 7)
    with pytest.raises(ResourceCapError):
        build_universe([(CHAIN, 1)])
    # pointed seeds count toward the cap too
    seeds = [PointedModel(Model(CHAIN, {1: val}), s) for val in (0b01, 0b10) for s in range(2)]
    monkeypatch.setattr(kripke, "UNIVERSE_CAP", 4)
    assert len(build_universe(seeds)) == 4
    monkeypatch.setattr(kripke, "UNIVERSE_CAP", 3)
    with pytest.raises(ResourceCapError, match="exceed 3 pointed models"):
        build_universe(seeds)


def test_moves_row_rejects_an_index_outside_the_layout():
    u = build_universe([(CHAIN, 1)])
    for everywhere in (False, True):
        moves = u.relation(everywhere)
        assert moves.row(len(u) - 1)
        for i in (len(u), -1):
            with pytest.raises(IndexError, match=f"index {i} outside the layout"):
                moves.row(i)


def test_universe_models_view_matches_eager_listing():
    for seed in range(30):
        rng = random.Random(seed)
        seeds = []
        for _ in range(rng.randint(1, 4)):
            if rng.random() < 0.5:
                model = rand_model(rng, 2, 3)
                seeds += [PointedModel(model, s) for s in range(model.frame.state_count)]
            else:
                seeds.append((rand_frame(rng, 2), rng.randint(0, 2)))
        u = build_universe(seeds)
        eager = tuple(PointedModel(m, s) for _, m in u.placed for s in range(m.frame.state_count))
        assert len(u.models) == len(eager) == len(u)
        assert tuple(u.models) == eager
        assert [u.models[i] for i in range(len(eager))] == list(eager)
        assert u.models[-1] == eager[-1]
        assert u.models[-len(eager)] == eager[0]
        for outside in (len(eager), -len(eager) - 1):
            with pytest.raises(IndexError):
                u.models[outside]
    assert len(Universe(()).models) == 0


def test_universe_structure_matches_frames():
    u = build_universe([(CHAIN, 1)])
    succ, same = u.relation(False), u.relation(True)
    for i, pm in enumerate(u.models):
        for j in mask_bits(succ.row(i)):
            other = u.models[j]
            assert other.model == pm.model
            assert pm.model.frame.has_edge(pm.point, other.point)
        assert all(u.models[j].model == pm.model for j in mask_bits(same.row(i)))
    full_groups = {pm.model for pm in u.models}
    assert len(full_groups) == 4


def test_universe_point_closed_flag():
    """A point-closed seed list (whole models) builds; a lone state does not."""
    model = Model(CHAIN, {1: 0b01})
    other = Model(LOOP, {})
    pointed = [PointedModel(model, s) for s in range(2)]
    whole = build_universe(pointed + [PointedModel(other, 0), (LOOP, 1)])
    assert [pm.point for pm in whole.models] == [0, 1, 0, 0, 0]
    with pytest.raises(ValueError, match="whole models"):
        build_universe(pointed[:1])  # the model lacks its state 1


def test_permuted_or_split_universe_is_not_point_closed():
    """Seeds that hold every state but not as whole models in point order."""
    model = Model(CHAIN, {1: 0b01})
    other = Model(LOOP, {})
    pointed = [PointedModel(model, s) for s in range(2)]
    cases = (
        pointed[::-1],  # states out of point order
        [pointed[0], PointedModel(other, 0), pointed[1]],  # model split by another
        [pointed[0], PointedModel(Model(CHAIN, {}), 1)],  # two models mixed
        [pointed[0], (LOOP, 1)],  # an expansion inside a model
    )
    for seeds in cases:
        with pytest.raises(ValueError, match="whole models"):
            build_universe(seeds)


def test_universe_den_is_per_model_truth():
    model = Model(CHAIN, {1: 0b10})
    other = Model(CHAIN, {1: 0b01})
    u = Universe([model, other])
    # both states move to state 1, which holds p1 in the first model only
    assert u.den(parse("<> p1")) == 0b0011
    assert u.den(parse("~p1")) == 0b1001
    assert u.lit_mask(1) == 0b0110
    # seeded universes of several runs over different frames, one model at
    # two positions, sometimes next to itself
    for seed in range(20):
        rng = random.Random(seed)
        frames = [rand_frame(rng, 3) for _ in range(3)]
        models = [
            Model(frame, {var: rng.getrandbits(frame.state_count) for var in (1, 2)})
            for frame in rng.choices(frames, k=4)
        ]
        models.insert(rng.randint(0, 4), models[0])
        u = Universe(models)
        for _ in range(10):
            phi = rand_formula(rng, 2, rng.randint(1, 8), GLOBAL)
            den = u.den(phi)
            for i, pm in enumerate(u.models):
                assert bool(den >> i & 1) == naive_eval(pm.model, pm.point, phi), (seed, i, phi)


def test_reduced_expansion_read_off_matches_validity():
    rng = random.Random(12)
    frames = [("a", rand_frame(rng, 3)), ("b", rand_frame(rng, 3))]
    red = expand_reduced(frames, 1)
    for _ in range(40):
        phi = rand_formula(rng, 1, rng.randint(1, 6), BASIC)
        den = red.universe.den(phi)
        for name, frame in frames:
            reps = red.class_reps[name]
            covered = all(den >> i & 1 for i in reps)
            assert covered == frame_valid(frame, phi)


def test_reduced_classes_match_naive_bisimilarity():
    dead_ends = 0
    for seed in range(30):
        rng = random.Random(seed)
        var_bound = rng.choice((1, 2))
        width = 3 if var_bound == 1 else 2
        frames = [(f"f{k}", rand_frame(rng, width)) for k in range(rng.randint(1, 2))]
        dead_ends += sum(not m for _, frame in frames for m in frame.succ_masks)
        for language in (BASIC, GLOBAL):
            red = expand_reduced(frames, var_bound, language)
            models = red.universe.models
            for name, frame in frames:
                reps = red.class_reps[name]
                for pm in build_universe([(frame, var_bound)]).models:
                    matches = [i for i in reps if naive_bisimilar(pm, models[i], language)]
                    assert len(matches) == 1, (seed, language, name, pm)
            every = sorted(set().union(*red.class_reps.values()))
            for k, i in enumerate(every):
                for j in every[k + 1:]:
                    assert not naive_bisimilar(models[i], models[j], language), (seed, language, i, j)
    assert dead_ends > 0


def _lob_named(depth):
    w = lob_witnesses(depth)
    named = [(f"+{n}", f) for n, f in w.named_positives()]
    return named + [(f"-{n}", f) for n, f in w.named_negatives()]


def test_reduced_expansion_sizes_lob_3():
    for depth, language, indices, classes in (
        (3, GLOBAL, 790, 622), (3, BASIC, 750, 132), (4, BASIC, 11342, 1076),
    ):
        red = expand_reduced(_lob_named(depth), 1, language)
        assert len(red.universe) == indices
        assert len(set().union(*red.class_reps.values())) == classes


def _greedy_matches_rescanning(covers: list[int]) -> None:
    sets = [frozenset(mask_bits(cover)) for cover in covers]
    assert _greedy_cover(covers) == rescanning_greedy_cover(sets), covers


def test_greedy_cover_matches_rescanning_rule_on_random_families():
    for seed in range(600):
        rng = random.Random(seed)
        elements = rng.randint(1, 12)
        # sizes from 0 so that some covers are empty; sets of equal size
        # tie on their gains
        covers = [
            index_mask(rng.sample(range(elements), rng.randint(0 if seed % 3 else 1, elements)))
            for _ in range(rng.randint(0, 15))
        ]
        if covers and seed % 2:
            # repeat some covers, before and after their first index
            for _ in range(rng.randint(1, 4)):
                covers.insert(rng.randint(0, len(covers)), rng.choice(covers))
        _greedy_matches_rescanning(covers)
    for covers in (
        [],
        [0, 0],
        [0b11, 0b11, 0b1100, 0b0110, 0b11],  # ties on gain 2, a repeat picked once
        [0b0011, 0b1100, 0b0110, 0b1001],  # every cover ties
        [0b0110, 0b0011, 0b1100, 0, 0b0110],  # the tie goes to the lower index
    ):
        _greedy_matches_rescanning(covers)


def test_greedy_cover_matches_rescanning_rule_on_lob_3(monkeypatch):
    families = []

    def recording(covers):
        families.append(covers)
        return _greedy_cover(covers)

    monkeypatch.setattr(kripke, "_greedy_cover", recording)
    for language in (BASIC, GLOBAL):
        expand_reduced(_lob_named(3), 1, language)
    assert len(families) == 2
    for covers in families:
        _greedy_matches_rescanning(covers)


def test_reduced_expansion_lob_4_layout_pinned():
    """tools/outputs.py's expand digest of lob-4 at var bound 1: every kept
    model and index, and each frame's class representatives."""
    for language, indices, digest, models in (
        (BASIC, 11342, "85ad4e10633a", 1046), (GLOBAL, 11382, "399ac724d866", 1058),
    ):
        red = expand_reduced(_lob_named(4), 1, language)
        text = repr([(pm.model, pm.point) for pm in red.universe.models])
        text += repr(sorted(red.class_reps.items()))
        assert len(red.universe) == indices
        assert hashlib.sha256(text.encode()).hexdigest()[:12] == digest
        assert len(red.universe.placed) == models


# --- the mask kernel --------------------------------------------------------


@given(seed=st.integers(0, 2**32 - 1))
def test_mask_kernel_matches_set_comprehensions(seed):
    # a multi-run universe: runs of models over random frames of up to 7
    # states (shifts -6..6, as wide as lob-3's widest run), each model
    # possibly equal to the one before it, then a model whose state has no
    # successor at all
    rng = random.Random(seed)
    layout, succ_sets, same_sets = [], [], []
    models = [Model(rand_frame(rng, 7), {1: rng.getrandbits(1)}) for _ in range(rng.randint(1, 3))]
    models += [Model(Frame(1, []), {})]
    for model in models:
        for _ in range(rng.choice((1, 1, 2, 3))):
            base, w = len(succ_sets), model.frame.state_count
            layout.append(model)
            for s in range(w):
                succ_sets.append({base + t for t in model.frame.successors_of(s)})
                same_sets.append(set(range(base, base + w)))
    u = Universe(layout)
    n = len(u)
    dead = n - 1

    def members(mask):
        return {i for i in range(n) if mask >> i & 1}

    succ, same = Moves(u.runs), Moves(u.runs, everywhere=True)
    for moves, sets in ((succ, succ_sets), (same, same_sets)):
        for m in (rng.getrandbits(n), 0, (1 << n) - 1):
            target = members(m)
            assert members(forward_image(moves, m)) == {j for i in target for j in sets[i]}
            assert members(some_pre_image(moves, m)) == {i for i in range(n) if sets[i] & target}
            assert members(all_pre_image(moves, m)) == {i for i in range(n) if sets[i] <= target}
        assert all(members(moves.row(i)) == sets[i] for i in range(n))
    # the successor-less state: vacuously in every box, in no diamond
    m = rng.getrandbits(n)
    assert dead in members(all_pre_image(succ, m))
    assert dead not in members(some_pre_image(succ, m))
    assert dead in members(some_pre_image(same, m | 1 << dead))


def test_mask_kernel_matches_rows_on_lob_3_global():
    # the reduced lob-3 universe of the global language: 790 indices in runs
    # up to 7 states wide, over both relations
    u, _, _ = reduced_witnesses(builtin_witnesses("lob-3"), 1, GLOBAL)
    n = len(u)
    assert n == 790 and max(frame.state_count for _, frame, _ in u.runs) == 7
    steps = u.steps(GLOBAL)
    rng = random.Random(20)
    for moves in (steps[Dia][1], steps[ExistsMod][1]):
        rows = [moves.row(i) for i in range(n)]
        for m in [rng.getrandbits(n) for _ in range(4)] + [0, (1 << n) - 1]:
            assert forward_image(moves, m) == functools.reduce(or_, (rows[i] for i in mask_bits(m)), 0)
            assert some_pre_image(moves, m) == index_mask(i for i in range(n) if rows[i] & m)
            assert all_pre_image(moves, m) == index_mask(i for i in range(n) if not rows[i] & ~m)


def test_modal_steps_build_each_relation_the_language_uses_once(monkeypatch):
    u = build_universe([(CHAIN, 1), (LOOP, 1)])
    built = []
    monkeypatch.setattr(kripke, "Moves", lambda runs, everywhere: built.append(everywhere) or Moves(runs, everywhere))
    relation = relations(u.runs)
    assert built == []
    modal_steps(relation, BASIC)
    modal_steps(relation, GLOBAL)
    assert built == [False, True]
    monkeypatch.undo()
    relation = relations(u.runs)
    basic = modal_steps(relation, BASIC)
    assert list(basic) == [Dia, Box]
    assert basic[Dia][1] is basic[Box][1]
    full = modal_steps(relation, GLOBAL)
    assert list(full) == [Dia, Box, ExistsMod, ForallMod]
    assert full[Dia][1] is full[Box][1] and full[ExistsMod][1] is full[ForallMod][1]
    assert full[Dia][1] is basic[Dia][1] is not full[ExistsMod][1]
    for i in range(len(u)):
        assert full[Dia][1].row(i) == basic[Dia][1].row(i) == Moves(u.runs).row(i)
        assert full[ExistsMod][1].row(i) == Moves(u.runs, everywhere=True).row(i)


def test_universe_languages_share_the_successor_relation(monkeypatch):
    built = []
    monkeypatch.setattr(kripke, "Moves", lambda runs, everywhere: built.append(everywhere) or Moves(runs, everywhere))
    for first, second in ((BASIC, GLOBAL), (GLOBAL, BASIC)):
        u = build_universe([(CHAIN, 1), (LOOP, 1)])
        built.clear()
        u.steps(first), u.steps(second), u.steps(first)
        assert sorted(built) == [False, True]
        assert u.steps(BASIC)[Dia][1] is u.steps(GLOBAL)[Dia][1] is u.steps(GLOBAL)[Box][1]
    # a universe read only in the basic language never builds the same-model
    # relation, and den reads it only for a formula with E or A
    u = build_universe([(CHAIN, 1)])
    built.clear()
    u.steps(BASIC), u.den(parse("(~p1 | <> p1)")), u.steps(BASIC)
    assert built == [False]
    u.den(parse("A <> p1"))
    assert built == [False, True]
    # den builds a relation on first read, and the steps read the same Moves
    u = build_universe([(CHAIN, 1)])
    built.clear()
    assert u.den(parse("E [] p1")) == u.den(parse("E [] p1"))
    assert built == [True, False]
    assert u.steps(GLOBAL)[ForallMod][1] is u.relation(True)
    assert u.steps(BASIC)[Box][1] is u.relation(False)
    assert built == [True, False]


def test_frame_valid_builds_the_same_model_relation_only_for_e_and_a(monkeypatch):
    built = []
    monkeypatch.setattr(kripke, "Moves", lambda runs, everywhere: built.append(everywhere) or Moves(runs, everywhere))
    for text, read in (("(~p1 | <> p1)", [False]), ("(p1 | ~p1)", []), ("(E p1 | A ~p1)", [True])):
        built.clear()
        assert frame_valid(CHAIN, parse(text)) == naive_valid(CHAIN, parse(text))
        assert built == read, text


def test_frame_valid_builds_each_relation_once_per_call(monkeypatch):
    # 8 states and 2 variables give 2^16 valuation codes, four chunks of
    # 2^14; the formula is valid, so every chunk reads both relations
    built = []
    monkeypatch.setattr(kripke, "Moves", lambda runs, everywhere: built.append(everywhere) or Moves(runs, everywhere))
    cycle = Frame(8, [(s, (s + 1) % 8) for s in range(8)])
    phi = parse("((<> p2 | [] ~p2) & (E p1 | A ~p1))")
    for _ in range(2):
        built.clear()
        assert frame_valid(cycle, phi)
        assert built == [False, True]


def test_universe_mask_and_variables():
    u = Universe([Model(CHAIN, {2: 0b01}), Model(LOOP, {})])
    assert u.variables == [2]
    assert Universe([Model(LOOP, {})]).variables == []
    assert u.mask([0, 2, 2]) == 0b101
    assert u.mask(()) == 0
    for bad in (-1, len(u)):
        with pytest.raises(ValueError, match=f"index {bad} outside the 3-element universe"):
            u.mask([0, bad])


# --- file formats -----------------------------------------------------------


def test_frame_text_roundtrip():
    text = format_frame("pair", CHAIN)
    parsed = parse_frames(text)
    assert parsed == [("pair", CHAIN)]


def test_parse_frames_multiple_and_comments():
    text = "# two frames\nframe one\nstates 1\nedge 0 0\n\nframe two\nstates 2\nedge 0 1\n"
    parsed = parse_frames(text)
    assert parsed == [("one", LOOP), ("two", Frame(2, [(0, 1)]))]


@pytest.mark.parametrize(
    "text",
    [
        "frame x\nedge 0 0\n",
        "frame x\nstates 1\nedge 0 1\n",
        "states 1\n",
        "frame x\nstates 1\nwibble\n",
        "frame x\nstates x\n",
        "frame x\nstates\n",
        "frame x\nstates 0\n",
        "frame x\nstates 2\nedge 0 y\n",
        "frame x\nstates 1000000000000000\n",
    ],
)
def test_parse_frames_rejects_malformed(text):
    with pytest.raises(ValueError):
        parse_frames(text)


@pytest.mark.parametrize(
    "text, line",
    [
        ("frame m\nstates 2\npoint\n", 3),
        ("frame m\nstates 2\npoint x\n", 3),
        ("frame m\nstates 2\npoint 2\n", 3),
        ("frame m\nval px 0\nstates 2\n", 2),
        ("frame m\nstates 2\nval p1 0 z\n", 3),
        ("frame m\nstates 2\nval p0 1\n", 3),
        ("frame m\npoint 0\nstates x\n", 3),
    ],
)
def test_parse_model_rejects_malformed_with_line_number(text, line):
    with pytest.raises(ValueError, match=f"^line {line}: "):
        parse_model(text)


def test_model_text_roundtrip():
    model = Model(CHAIN, {1: 0b10, 3: 0b01})
    text = "frame m\nstates 2\nedge 0 1\nedge 1 1\nval p1 1\nval p3 0\n"
    assert parse_model(text + "point 1\n") == ("m", model, 1)
    assert parse_model(text) == ("m", model, None)
