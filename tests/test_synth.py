"""Denotation-deduplicated enumeration, separator search, certificates."""

import random

import pytest

from modalmin.formula import (
    BASIC,
    GLOBAL,
    MeasureKind,
    _VBASE,
    measure,
    measure_all,
    no_worse,
    pack,
    parse,
    print_formula,
    vars_of,
)
from modalmin.game import fgf_min_cost
from modalmin.gallery import (
    axiom,
    builtin_witnesses,
    lob_witnesses,
    reduced_witnesses,
    symmetry_witnesses,
    transfer_witnesses,
)
from modalmin.kripke import (
    Frame,
    Model,
    PointedModel,
    ResourceCapError,
    Universe,
    bisimilar,
    build_universe,
    frame_valid,
)
from modalmin.synth import (
    EnumerationStats,
    _enumerate,
    certify_bound,
    enumerate_formulas,
    format_certificate,
    min_separating,
    min_separating_frames,
)

from .oracles import brute_denotations, brute_min_separating, brute_min_value, brute_table


def _two_point_universe():
    loop = Frame(1, [(0, 0)])
    return Universe([Model(loop, {1: 1}), Model(loop, {})])


# --- enumeration ------------------------------------------------------------


def test_enumeration_replays_to_true_denotations():
    u = build_universe([(Frame(2, [(0, 1)]), 1)])
    for phi, den, vec in enumerate_formulas(u, 1, 5):
        assert u.den(phi) == den
        assert measure_all(phi) == vec


def test_enumeration_is_shortest_first():
    u = _two_point_universe()
    lengths = [vec.get(MeasureKind.LENGTH) for _, _, vec in enumerate_formulas(u, 1, 5)]
    assert lengths == sorted(lengths)
    assert lengths[0] == 1


def test_enumeration_irreflexive_point_no_vars():
    # one state, no arrows, no atoms: only two denotations ever appear
    u = Universe([Model(Frame(1, []), {})])
    dens = {den for _, den, _ in enumerate_formulas(u, 0, 3)}
    assert dens == {0, 1}


def test_enumeration_covers_all_reachable_denotations(rng):
    for language in (BASIC, GLOBAL):
        for _ in range(12):
            count = rng.randint(1, 3)
            edges = [
                (a, b) for a in range(count) for b in range(count) if rng.random() < 0.5
            ]
            u = build_universe([(Frame(count, edges), 1)])
            got = {den for _, den, _ in enumerate_formulas(u, 1, 4, language)}
            want = brute_denotations(u, [1], 4, language)
            assert got == want


def test_enumeration_keeps_pareto_incomparable_vectors():
    u = build_universe([(Frame(2, [(0, 1)]), 1)])
    seen: dict[int, list] = {}
    for _, den, vec in enumerate_formulas(u, 1, 5):
        for old in seen.get(den, ()):
            assert not old.dominates(vec)
        seen.setdefault(den, []).append(vec)


def test_enumeration_keeps_equal_vectors_over_other_variables():
    # p1 and p2 hold at the same states and measure alike, but a formula
    # over p1 cannot stand in for one over p2 next to p1: (p1 | p2) counts
    # two variables, (p1 | p1) one
    u = Universe([Model(Frame(2, [(0, 1)]), {1: 0b01, 2: 0b01})])
    found = {print_formula(phi) for phi, _, _ in enumerate_formulas(u, 2, 1)}
    assert {"p1", "p2", "~p1", "~p2"} <= found


def test_enumerate_rejects_an_unknown_language():
    u = Universe([Model(Frame(1, [(0, 0)]), {1: 1})])
    with pytest.raises(ValueError, match="unknown language 'modal'"):
        next(enumerate_formulas(u, 1, 2, "modal"))


def _measured(phi):
    return pack(measure_all(phi)) | sum(1 << _VBASE + var for var in vars_of(phi))


def _lob_3_global_universe():
    return reduced_witnesses(builtin_witnesses("lob-3"), 1, GLOBAL)[0]


def test_enumerate_under_length_yields_each_denotation_once():
    u = _lob_3_global_universe()
    dens = [den for _, den, _ in _enumerate(u, 1, 8, GLOBAL, kind=MeasureKind.LENGTH)]
    assert len(dens) == len(set(dens)) == 5830


def _item_one_universe():
    frame = Frame(3, [(0, 0), (1, 0), (1, 1), (1, 2), (2, 1), (2, 2)])
    return Universe([Model(frame, {1: 0b001, 2: 0b100})])


@pytest.mark.parametrize(
    "kind, universe, var_bound, length_cap",
    [
        (MeasureKind.VAR_COUNT, _item_one_universe, 2, 6),
        (MeasureKind.MODAL_DEPTH, _lob_3_global_universe, 1, 7),
        (MeasureKind.BOX_COUNT, _lob_3_global_universe, 1, 7),
    ],
)
def test_enumerate_under_a_measure_keeps_no_entry_a_kept_one_is_no_worse_than(
    kind, universe, var_bound, length_cap
):
    # entries are yielded shortest first, so every earlier entry of a
    # denotation is no longer than a later one and must be worse in kind
    u = universe()
    rule = no_worse(kind)
    seen: dict[int, list] = {}
    for phi, den, packed in _enumerate(u, var_bound, length_cap, GLOBAL, kind=kind):
        measured = _measured(phi)
        assert measured == packed
        assert not any(rule(old, measured) for old in seen.get(den, ()))
        seen.setdefault(den, []).append(measured)
    assert any(len(entries) > 1 for entries in seen.values())


def test_enumeration_rejects_open_universe():
    # a universe is its whole models: a lone state of one is no universe
    chain = Frame(2, [(0, 1)])
    with pytest.raises(ValueError):
        build_universe([PointedModel(Model(chain, {}), 0)])


def test_enumeration_rejects_negative_var_bound():
    with pytest.raises(ValueError):
        list(enumerate_formulas(_two_point_universe(), -1, 3))


def test_enumeration_stops_once_no_level_can_hold_a_candidate():
    # every retained formula here has length <= 3, so a length cap of 60
    # already enumerates everything; a cap of 10^9 must end just as soon
    universes = (
        (_two_point_universe(), 1),
        (Universe([Model(Frame(1, []), {})]), 1),
        (build_universe([(Frame(2, [(0, 1)]), 0)]), 0),
    )
    for u, var_bound in universes:
        for language in (BASIC, GLOBAL):
            runs = []
            for cap in (60, 10**9):
                stats = EnumerationStats()
                runs.append((list(enumerate_formulas(u, var_bound, cap, language, stats=stats)), stats))
            assert runs[0] == runs[1]


def test_enumeration_stats_and_cap(monkeypatch):
    u = _two_point_universe()
    stats = EnumerationStats()
    list(enumerate_formulas(u, 1, 4, stats=stats))
    assert stats.formulas > stats.denotations > 0

    monkeypatch.setattr("modalmin.synth.ENUM_CAP", 10)
    partial = EnumerationStats()
    with pytest.raises(ResourceCapError):
        list(enumerate_formulas(u, 1, 6, stats=partial))
    assert partial.formulas == 11
    assert 0 < partial.denotations <= 10


def test_cap_counts_candidates_dropped_on_their_masks(monkeypatch):
    # []T denotes T's set and (F | T) and (F & T) denote operands' sets, so
    # from level 2 on the enumerator drops candidates without measuring
    # them; each must still count toward the cap, one by one, and the
    # totals are those of an enumerator that measures every candidate
    u = build_universe([(Frame(2, [(0, 1)]), 1)])
    for language, length_cap, total in ((BASIC, 5, 286), (GLOBAL, 4, 264)):
        stats = EnumerationStats()
        full = list(enumerate_formulas(u, 1, length_cap, language, stats=stats))
        assert stats.formulas == total
        dens = [den for _, den, _ in full]
        steps = u.steps(language).values()
        assert any(pre_image(moves, den) == den for den in dens for pre_image, moves in steps)
        assert any(da & db in (da, db) for da in dens for db in dens)
        for cap in range(1, stats.formulas):
            monkeypatch.setattr("modalmin.synth.ENUM_CAP", cap)
            partial = EnumerationStats()
            got = []
            with pytest.raises(ResourceCapError):
                for triple in enumerate_formulas(u, 1, length_cap, language, stats=partial):
                    got.append(triple)
            assert partial.formulas == cap + 1, (language, cap)
            assert got == full[: len(got)], (language, cap)


# --- separator search over index sets ---------------------------------------


def test_min_separating_pinned_pair():
    u = _two_point_universe()
    phi, vec = min_separating(u, [0], [1], MeasureKind.LENGTH, 1, 4)
    assert phi == parse("p1")
    assert vec.get(MeasureKind.LENGTH) == 1


def test_min_separating_transfer_shape():
    # within one model: a state with a p1 successor against one without
    frame = Frame(3, [(0, 1), (2, 2)])
    model = Model(frame, {1: 0b010})
    u = Universe([model])
    phi, _ = min_separating(u, [0], [2], MeasureKind.LENGTH, 1, 4)
    assert u.den(phi) & 1
    assert not (u.den(phi) >> 2) & 1
    assert measure(phi, MeasureKind.LENGTH) == 2


def test_min_separating_validates_inputs():
    u = _two_point_universe()
    with pytest.raises(ValueError):
        min_separating(u, [0], [0], MeasureKind.LENGTH, 1, 4)
    with pytest.raises(ValueError):
        min_separating(u, [0], [1], MeasureKind.EXISTS_COUNT, 1, 4, language=BASIC)


def test_min_separating_rejects_indices_outside_the_universe():
    u = build_universe([(Frame(2, [(0, 1)]), 2)])
    for bad in (-1, len(u), len(u) + 3):
        for left, right in (([0], [bad]), ([bad], [1])):
            with pytest.raises(ValueError, match=f"index {bad} outside the {len(u)}-element universe"):
                min_separating(u, left, right, MeasureKind.LENGTH, 1, 4)
    # the gate comes before the disjointness check
    with pytest.raises(ValueError, match="outside"):
        min_separating(u, [0, len(u)], [0], MeasureKind.LENGTH, 1, 4)


def test_min_separating_rejects_overlapping_sides():
    u = _two_point_universe()
    with pytest.raises(ValueError, match="must be disjoint"):
        min_separating(u, [0, 1], [1], MeasureKind.LENGTH, 1, 4)


def test_min_separating_absent_for_bisimilar_pair():
    loop = Frame(1, [(0, 0)])
    a = PointedModel(Model(loop, {1: 1}), 0)
    chain = Frame(2, [(0, 1), (1, 0)])
    b = PointedModel(Model(chain, {1: 0b11}), 0)
    u = build_universe([a, b, PointedModel(Model(chain, {1: 0b11}), 1)])
    assert bisimilar(u.models[0], u.models[1], language=GLOBAL)
    assert min_separating(u, [0], [1], MeasureKind.LENGTH, 1, 6, language=GLOBAL) is None


def test_min_separating_matches_brute_force(rng):
    for _ in range(20):
        count = rng.randint(1, 3)
        edges = [(a, b) for a in range(count) for b in range(count) if rng.random() < 0.45]
        u = build_universe([(Frame(count, edges), 1)])
        if len(u.models) > 7:
            continue
        pick = min(2, len(u.models))
        left = tuple(rng.sample(range(len(u.models)), rng.randint(1, pick)))
        right = tuple(i for i in rng.sample(range(len(u.models)), pick) if i not in left)
        language = GLOBAL if rng.random() < 0.5 else BASIC
        got = min_separating(u, left, right, MeasureKind.LENGTH, 1, 5, language)
        want = brute_min_separating(u, left, right, MeasureKind.LENGTH, 99, 5, language)
        if want is None:
            assert got is None
        else:
            assert got is not None
            assert got[1].get(MeasureKind.LENGTH) == want


def test_min_separating_non_length_measure():
    frame = Frame(3, [(0, 1), (1, 2)])
    model = Model(frame, {1: 0b100})
    u = Universe([model])
    phi, vec = min_separating(u, [0], [1, 2], MeasureKind.DIA_COUNT, 1, 6)
    # a diamond-free separator exists here, e.g. (~p1 & [] ~p1)
    want = brute_min_separating(u, (0,), (1, 2), MeasureKind.DIA_COUNT, 99, 6, BASIC)
    assert vec.get(MeasureKind.DIA_COUNT) == want == 0
    assert u.den(phi) == 0b001


def _two_variable_universe(rng):
    # brute_table enumerates the variables some model mentions, so both
    # must hold somewhere for the oracle to search what the enumerator does
    models = []
    for _ in range(rng.randint(1, 2)):
        count = rng.randint(1, 3)
        edges = [(a, b) for a in range(count) for b in range(count) if rng.random() < 0.45]
        models.append(Model(Frame(count, edges), {1: rng.getrandbits(count), 2: rng.getrandbits(count)}))
    u = Universe(models)
    return u if u.variables == [1, 2] else _two_variable_universe(rng)


def test_min_separating_matches_brute_force_with_two_variables():
    # a composite counts the union of its children's variables, so under
    # VAR_COUNT an entry over p2 may not stand in for an equal-cost one over
    # p1; this draw holds separators that need the entry over p1
    rng = random.Random(3)
    cases = 0
    for _ in range(30):
        u = _two_variable_universe(rng)
        size = len(u)
        language = rng.choice((BASIC, GLOBAL))
        table = brute_table(u, 5, language)
        if size < 2:
            continue
        for _ in range(4):
            left = tuple(rng.sample(range(size), rng.randint(1, min(2, size - 1))))
            rest = [i for i in range(size) if i not in left]
            right = tuple(rng.sample(rest, rng.randint(1, min(2, len(rest)))))
            for kind in MeasureKind:
                if not kind.applies_to(language):
                    continue
                got = min_separating(u, left, right, kind, 2, 5, language)
                want = brute_min_value(table, left, right, kind, 99)
                assert (None if got is None else got[1].get(kind)) == want, (left, right, kind)
                cases += 1
    assert cases > 1000


def test_min_separating_var_count_with_two_variables_pinned():
    # (p1 | p2) is shortest, but (p1 | [] ~p1) separates with one variable
    u = _item_one_universe()
    phi, vec = min_separating(u, [0, 2], [1], MeasureKind.VAR_COUNT, 2, 5)
    assert (vec.var_count, vec.length) == (1, 4)
    assert u.den(phi) == 0b101


# --- frame-wise separation --------------------------------------------------


def test_min_separating_frames_reads_off_validity():
    w = transfer_witnesses(0, 1)
    phi, vec = min_separating_frames(w, MeasureKind.LENGTH, 1, 4)
    assert vec.get(MeasureKind.LENGTH) == 4
    assert all(frame_valid(f, phi) for f in w.positives)
    assert not any(frame_valid(f, phi) for f in w.negatives)
    assert phi in (parse("(~p1 | <> p1)"), parse("(p1 | <> ~p1)"))


def test_min_separating_frames_below_minimum_absent():
    assert min_separating_frames(transfer_witnesses(0, 1), MeasureKind.LENGTH, 1, 3) is None


def test_min_separating_frames_symmetry():
    phi, vec = min_separating_frames(symmetry_witnesses(), MeasureKind.LENGTH, 1, 5)
    # frame validity cannot tell a variable from its negation
    assert print_formula(phi) in ("(~p1 | [] <> p1)", "(p1 | [] <> ~p1)")
    assert vec.get(MeasureKind.LENGTH) == 5


def test_min_separating_frames_language_gate():
    with pytest.raises(ValueError):
        min_separating_frames(symmetry_witnesses(), MeasureKind.FORALL_COUNT, 1, 5)


# --- certificates -----------------------------------------------------------


def test_certify_transfer_0_1_proved_at_4():
    cert = certify_bound(transfer_witnesses(0, 1), MeasureKind.LENGTH, 4)
    assert cert.verdict == "Proved"
    assert cert.scope == "full"
    assert cert.length_cap == 3
    assert cert.refutation is None
    assert cert.formulas_enumerated > 0
    assert cert.distinct_denotations > 0


def test_certify_transfer_0_1_refuted_at_5(monkeypatch):
    cert = certify_bound(transfer_witnesses(0, 1), MeasureKind.LENGTH, 5)
    assert cert.verdict == "Refuted"
    assert cert.scope == "full"
    assert measure(cert.refutation, MeasureKind.LENGTH) == 4
    w = transfer_witnesses(0, 1)
    assert all(frame_valid(f, cert.refutation) for f in w.positives)
    assert not any(frame_valid(f, cert.refutation) for f in w.negatives)
    # a refutation the frames themselves disagree with is never reported
    monkeypatch.setattr("modalmin.synth.frame_valid", lambda frame, phi: False)
    with pytest.raises(RuntimeError, match="refutation failed independent re-validation"):
        certify_bound(w, MeasureKind.LENGTH, 5)


def test_certify_vacuous_and_invalid_claims():
    w = transfer_witnesses(0, 1)
    assert certify_bound(w, MeasureKind.LENGTH, 0).verdict == "Proved"
    with pytest.raises(ValueError):
        certify_bound(w, MeasureKind.LENGTH, -1)
    # the default Length cap is floored at 0; a caller's negative cap is an error
    vacuous = certify_bound(w, MeasureKind.LENGTH, 0)
    assert (vacuous.length_cap, vacuous.scope) == (0, "full")
    with pytest.raises(ValueError, match="length cap must be non-negative"):
        certify_bound(w, MeasureKind.LENGTH, 5, length_cap=-1)
    with pytest.raises(ValueError):
        certify_bound(w, MeasureKind.EXISTS_COUNT, 1, language=BASIC)


def test_certify_default_caps():
    length_cert = certify_bound(transfer_witnesses(0, 1), MeasureKind.LENGTH, 4)
    assert length_cert.length_cap == 3
    dia_cert = certify_bound(transfer_witnesses(0, 1), MeasureKind.DIA_COUNT, 1)
    assert dia_cert.length_cap == 3
    assert dia_cert.scope == "length-capped"


def test_certify_non_length_measures_transfer_1_2():
    w = transfer_witnesses(1, 2)
    for kind, bound in (
        (MeasureKind.DIA_COUNT, 2),
        (MeasureKind.BOX_COUNT, 1),
        (MeasureKind.MODAL_DEPTH, 2),
        (MeasureKind.VAR_COUNT, 1),
    ):
        cert = certify_bound(w, kind, bound, length_cap=8)
        assert cert.verdict == "Proved", kind
        refuted = certify_bound(w, kind, bound + 1, length_cap=8)
        assert refuted.verdict == "Refuted", kind
        assert measure(refuted.refutation, kind) == bound


def test_certify_var_count_with_two_variables_agrees_with_the_game():
    w = transfer_witnesses(0, 1)
    cost, _, _ = fgf_min_cost(w, MeasureKind.VAR_COUNT, 2, 2, length_cap=5)
    assert certify_bound(w, MeasureKind.VAR_COUNT, cost, 2, 5).verdict == "Proved"
    refuted = certify_bound(w, MeasureKind.VAR_COUNT, cost + 1, 2, 5)
    assert refuted.verdict == "Refuted"
    assert measure(refuted.refutation, MeasureKind.VAR_COUNT) == cost == 1


@pytest.mark.parametrize(
    "w, kind, bound, length_cap, counts",
    [
        (transfer_witnesses(0, 1), MeasureKind.LENGTH, 4, None, (40, 10)),
        (symmetry_witnesses(), MeasureKind.LENGTH, 5, None, (112, 50)),
        (transfer_witnesses(1, 2), MeasureKind.VAR_COUNT, 1, 8, (3782, 812)),
    ],
    ids=["transfer-0-1@4", "symmetry@5", "transfer-1-2-var-count@1"],
)
def test_certify_pinned_counts(w, kind, bound, length_cap, counts):
    cert = certify_bound(w, kind, bound, length_cap=length_cap)
    assert cert.verdict == "Proved"
    assert (cert.formulas_enumerated, cert.distinct_denotations) == counts


def test_certify_inconclusive_on_tiny_cap(monkeypatch):
    monkeypatch.setattr("modalmin.synth.ENUM_CAP", 8)
    cert = certify_bound(symmetry_witnesses(), MeasureKind.LENGTH, 5)
    assert cert.verdict == "Inconclusive"
    assert cert.refutation is None
    assert cert.formulas_enumerated == 9


def test_certify_lob_axiom_is_optimal_witness():
    w = lob_witnesses(2)
    cert = certify_bound(w, MeasureKind.LENGTH, 8)
    assert cert.verdict == "Proved"
    loeb = axiom(w.prop)
    assert measure(loeb, MeasureKind.LENGTH) == 8
    assert all(frame_valid(f, loeb) for f in w.positives)
    assert not any(frame_valid(f, loeb) for f in w.negatives)


def test_format_certificate_layout():
    cert = certify_bound(transfer_witnesses(0, 1), MeasureKind.LENGTH, 5)
    text = format_certificate(cert)
    lines = text.splitlines()
    assert lines[0] == "certificate transfer-0-1"
    assert lines[1] == "measure length"
    assert lines[2] == "claimed-bound 5"
    assert lines[3] == "var-bound 1"
    assert lines[4] == "length-cap 4"
    assert lines[5] == "language basic"
    assert lines[6] == "verdict Refuted"
    assert lines[7].startswith("refutation ")
    assert lines[8] == "scope full"
    assert lines[9].startswith("formulas-enumerated ")
    assert lines[10].startswith("distinct-denotations ")
    assert lines[11].startswith("wall-time ") and lines[11].endswith("s")
    assert text.endswith("\n")


def test_format_certificate_deterministic_modulo_time():
    runs = [
        format_certificate(certify_bound(transfer_witnesses(1, 0), MeasureKind.LENGTH, 4))
        for _ in range(2)
    ]
    heads = [r.rsplit("wall-time", 1)[0] for r in runs]
    assert heads[0] == heads[1]
