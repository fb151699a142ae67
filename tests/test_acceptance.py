"""The ten headline checks, one test per criterion, one printed verdict each.

Every test computes its own verdict, prints a single [PASS]/[FAIL] line even
under pytest's capture, and only then asserts.  Seeds are fixed so reruns are
bit-identical; elapsed times appear in the printed line next to the budget
each criterion is expected to stay under.
"""

import math
import random
import time

from modalmin.cli import _doubled
from modalmin.colouring import (
    is_n_colourable,
    k_complete,
    khat,
    noncol_equivalence,
    noncol_game_setup,
    phi_n,
)
from modalmin.formula import (
    BASIC,
    GLOBAL,
    Formula,
    MeasureKind,
    NegLit,
    PosLit,
    measure,
    parse,
    print_formula,
)
from modalmin.gallery import (
    axiom,
    builtin_witnesses,
    lob_witnesses,
    s4_witnesses,
    symmetry_witnesses,
    transfer_witnesses,
)
from modalmin.game import (
    GamePosition,
    check_weight,
    fgf_min_cost,
    min_cost_fgm,
    node_count,
    special_pair_weight,
    verify_closed_tree,
)
from modalmin.kripke import (
    Frame,
    Model,
    PointedModel,
    Universe,
    bisimilar,
    build_universe,
    frame_valid,
)
from modalmin.synth import (
    certify_bound,
    enumerate_formulas,
    min_separating,
    min_separating_frames,
)

SEED = 2023

TRANSFER_PAIRS = ((0, 1), (1, 0), (1, 2), (2, 1), (2, 0), (0, 2))
SHIPPED_WITNESSES = tuple(
    [f"transfer-{m}-{n}" for m, n in TRANSFER_PAIRS]
    + ["s4", "lob-1", "lob-2", "lob-3", "lob-4", "symmetry"]
)


def _report(capsys, num: int, budget_s: float, started: float, ok: bool, detail: str) -> None:
    elapsed = time.perf_counter() - started
    line = (
        f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {detail}"
        f" ({elapsed:.1f}s, budget {budget_s:.0f}s)"
    )
    with capsys.disabled():
        print(line)
    assert ok, line
    assert elapsed < budget_s, line


def _cycle(length: int) -> Frame:
    return Frame(length, [(i, (i + 1) % length) for i in range(length)])


def _random_digraph(rng: random.Random, max_states: int = 6) -> Frame:
    count = rng.randint(1, max_states)
    edges = [(u, v) for u in range(count) for v in range(count) if rng.random() < 0.3]
    return Frame(count, edges)


def _separates(phi: Formula, witnesses) -> bool:
    return all(frame_valid(f, phi) for f in witnesses.positives) and not any(
        frame_valid(f, phi) for f in witnesses.negatives
    )


def test_criterion_01_encoding_equivalence(capsys):
    started = time.perf_counter()
    rng = random.Random(SEED)
    randoms = [_random_digraph(rng) for _ in range(300)]
    checked = agreed = 0
    for n in (2, 3, 4):
        for frame in [k_complete(n), khat(n), _cycle(5), _cycle(7)] + randoms:
            checked += 1
            agreed += noncol_equivalence(frame, n)
    _report(
        capsys, 1, 120, started,
        agreed == checked == 912,
        f"validity matches non-colourability on {agreed}/{checked} frame/n cases",
    )


def test_criterion_02_formula_shape(capsys):
    started = time.perf_counter()
    widths_ok = all(
        measure(phi_n(n), MeasureKind.VAR_COUNT) == (n - 1).bit_length()
        for n in range(1, 17)
    )

    def occurrences(phi: Formula) -> int:
        if isinstance(phi, (PosLit, NegLit)):
            return 1
        return sum(occurrences(child) for child in phi.children())

    growth_ok = all(
        occurrences(phi_n(n)) < 4 * n * (math.log2(n) + 1) for n in range(1, 65)
    )
    _report(
        capsys, 2, 5, started,
        widths_ok and growth_ok,
        "var count is ceil(log2 n) up to 16; occurrences stay under 4n(log2 n + 1) up to 64",
    )


def test_criterion_03_transfer_minimality(capsys):
    started = time.perf_counter()
    ok = True
    notes = []
    for m, n in TRANSFER_PAIRS:
        w = transfer_witnesses(m, n)
        bound = m + n + 3
        cert = certify_bound(w, MeasureKind.LENGTH, bound)
        ax = axiom(w.prop)
        pair_ok = (
            cert.verdict == "Proved"
            and measure(ax, MeasureKind.LENGTH) == bound
            and _separates(ax, w)
        )
        cap = m + n + 5
        for kind, minimum in (
            (MeasureKind.DIA_COUNT, n),
            (MeasureKind.BOX_COUNT, m),
            (MeasureKind.OR_COUNT, 1),
            (MeasureKind.MODAL_DEPTH, max(m, n)),
            (MeasureKind.VAR_COUNT, 1),
        ):
            lower = certify_bound(w, kind, minimum, length_cap=cap)
            upper = certify_bound(w, kind, minimum + 1, length_cap=cap)
            pair_ok = pair_ok and (
                lower.verdict == "Proved"
                and upper.verdict == "Refuted"
                and measure(upper.refutation, kind) == minimum
            )
        ok = ok and pair_ok
        notes.append(f"{m}+{n}+3")
    _report(
        capsys, 3, 600, started, ok,
        "six transfer pairs proved minimal at " + ", ".join(notes) + " with the stated measure minima",
    )


def test_criterion_04_s4_minimality(capsys):
    started = time.perf_counter()
    w = s4_witnesses()
    cert = certify_bound(w, MeasureKind.LENGTH, 8)
    ax = axiom(w.prop)
    ok = (
        cert.verdict == "Proved"
        and measure(ax, MeasureKind.LENGTH) == 8
        and _separates(ax, w)
        and certify_bound(w, MeasureKind.AND_COUNT, 1, length_cap=10).verdict == "Proved"
        and certify_bound(w, MeasureKind.BOX_COUNT, 2, length_cap=10).verdict == "Proved"
    )
    _report(
        capsys, 4, 600, started, ok,
        "reflexive-transitive minimum is length 8; separators need a conjunction and two boxes",
    )


def test_criterion_05_lob_minimality(capsys):
    started = time.perf_counter()

    def summary(depth: int):
        w = lob_witnesses(depth)
        cert = certify_bound(w, MeasureKind.LENGTH, 8)
        found = min_separating_frames(w, MeasureKind.LENGTH, 1, 8)
        return cert.verdict, None if found is None else print_formula(found[0])

    stable_depth = None
    previous = summary(2)
    for depth in range(3, 9):
        current = summary(depth)
        if current == previous:
            stable_depth = depth - 1
            break
        previous = current
    ok = stable_depth is not None
    if ok:
        w = lob_witnesses(stable_depth)
        ax = axiom(w.prop)
        ok = (
            certify_bound(w, MeasureKind.LENGTH, 8).verdict == "Proved"
            and measure(ax, MeasureKind.LENGTH) == 8
            and _separates(ax, w)
        )
    _report(
        capsys, 5, 900, started, ok,
        f"truncation certificates stabilize at depth {stable_depth}; minimum is length 8",
    )


def test_criterion_06_symmetry_minimality(capsys):
    started = time.perf_counter()
    w = symmetry_witnesses()
    witness_formula = parse("(~p1 | [] <> p1)")
    ok = (
        certify_bound(w, MeasureKind.LENGTH, 5).verdict == "Proved"
        and measure(witness_formula, MeasureKind.LENGTH) == 5
        and _separates(witness_formula, w)
    )
    _report(capsys, 6, 120, started, ok, "symmetry minimum is length 5, met by ~p or box dia p")


def test_criterion_07_noncol_lower_bounds(capsys):
    started = time.perf_counter()
    results = {}
    for n, var_bound, cap in ((2, 1, 6), (3, 2, 9)):
        universe, left, right = noncol_game_setup(n)
        found = min_separating(
            universe, left, right, MeasureKind.LENGTH, var_bound, cap, language=GLOBAL
        )
        results[n] = found
    u3, l3, r3 = noncol_game_setup(3)
    one_var = min_separating(u3, l3, r3, MeasureKind.LENGTH, 1, 10, language=GLOBAL)
    ok = all(
        results[n] is not None
        and results[n][1].get(MeasureKind.LENGTH) >= n
        and results[n][1].get(MeasureKind.EXISTS_COUNT) >= 1
        for n in (2, 3)
    ) and one_var is None
    lengths = {n: None if results[n] is None else results[n][1].get(MeasureKind.LENGTH) for n in (2, 3)}
    _report(
        capsys, 7, 600, started, ok,
        f"separator minima {lengths[2]} and {lengths[3]} with an exists each; none with one variable",
    )


def test_criterion_08_game_enumeration_agreement(capsys):
    started = time.perf_counter()
    rng = random.Random(9)
    agree = total = 0
    while total < 50:
        count = rng.randint(1, 4)
        edges = [(u, v) for u in range(count) for v in range(count) if rng.random() < 0.35]
        frame = Frame(count, edges)
        models = [Model(frame, {1: rng.getrandbits(count)}) for _ in range(rng.randint(1, 3))]
        universe = Universe(models)
        size = len(universe.models)
        if size > 12 or size < 2:
            continue
        total += 1
        pick = min(3, size - 1)
        left = tuple(rng.sample(range(size), rng.randint(1, pick)))
        rest = [i for i in range(size) if i not in left]
        right = tuple(rng.sample(rest, rng.randint(1, min(2, len(rest)))))
        played = min_cost_fgm(GamePosition(universe, left, right), MeasureKind.LENGTH, 6)
        enumerated = min_separating(universe, left, right, MeasureKind.LENGTH, 1, 6)
        agree += (played is None) == (enumerated is None) and (
            played is None or played[0] == enumerated[1].get(MeasureKind.LENGTH)
        )
    witness_ok = 0
    for name in SHIPPED_WITNESSES:
        w = builtin_witnesses(name)
        found = min_separating_frames(w, MeasureKind.LENGTH, 1, 10)
        game = fgf_min_cost(w, MeasureKind.LENGTH, 1, 10)
        if (
            found is not None
            and game is not None
            and found[1].get(MeasureKind.LENGTH) == game[0]
            and certify_bound(w, MeasureKind.LENGTH, game[0]).verdict == "Proved"
        ):
            witness_ok += 1
    ok = agree == total == 50 and witness_ok == len(SHIPPED_WITNESSES)
    _report(
        capsys, 8, 600, started, ok,
        f"game and enumeration agree on {agree}/{total} seeded universes"
        f" and {witness_ok}/{len(SHIPPED_WITNESSES)} witness sets",
    )


def test_criterion_09_weight_machinery(capsys):
    started = time.perf_counter()
    ok = True
    roots = {}
    for n, budget in ((2, 6), (3, 9)):
        universe, left, right = noncol_game_setup(n)
        found = min_cost_fgm(
            GamePosition(universe, left, right), MeasureKind.LENGTH, budget, language=GLOBAL
        )
        if found is None:
            ok = False
            continue
        _, tree = found
        weight = special_pair_weight(tree)
        roots[n] = weight[tree]
        ok = ok and (
            verify_closed_tree(tree, GLOBAL)
            and check_weight(tree, weight)
            and weight[tree] == n
            and node_count(tree) >= n
        )
    _report(
        capsys, 9, 120, started, ok,
        f"engine trees carry valid weights with roots {roots.get(2)} and {roots.get(3)}",
    )


def _padded(pointed: PointedModel, rng: random.Random) -> PointedModel:
    # a disjoint looped component: invisible to the basic language only
    frame = pointed.model.frame
    count = frame.state_count
    extra = rng.randint(1, 2)
    edges = list(frame.edges()) + [(count + i, count + i) for i in range(extra)]
    valuation = dict(pointed.model.valuation)
    valuation[1] = valuation.get(1, 0) | ((rng.getrandbits(extra) | 1) << count)
    return PointedModel(Model(Frame(count + extra, edges), valuation), pointed.point)


def test_criterion_10_bisimulation_invariance(capsys):
    started = time.perf_counter()
    rng = random.Random(SEED)
    checked = agreed = 0
    while checked < 200:
        count = rng.randint(1, 3)
        edges = [(u, v) for u in range(count) for v in range(count) if rng.random() < 0.4]
        base = PointedModel(
            Model(Frame(count, edges), {1: rng.getrandbits(count)}), rng.randrange(count)
        )
        if checked % 2 == 0:
            other, language = _doubled(base), GLOBAL
        else:
            other, language = _padded(base, rng), BASIC
        if not bisimilar(base, other, language=language):
            continue
        checked += 1
        universe = build_universe(
            [PointedModel(base.model, s) for s in range(count)]
            + [PointedModel(other.model, s) for s in range(other.model.frame.state_count)]
        )
        here = next(
            i for i, pm in enumerate(universe.models)
            if pm.model == base.model and pm.point == base.point
        )
        there = next(
            i for i, pm in enumerate(universe.models)
            if pm.model == other.model and pm.point == other.point
        )
        invariant = all(
            (den >> here & 1) == (den >> there & 1)
            for _, den, _ in enumerate_formulas(universe, 1, 6, language=language)
        )
        agreed += invariant
    triangle = PointedModel(Model(k_complete(3), {1: 0b100}), 0)
    double = PointedModel(Model(khat(3), {1: 0b100100}), 0)
    shared_ok = bisimilar(triangle, double, language=GLOBAL)
    ok = agreed == checked == 200 and shared_ok
    _report(
        capsys, 10, 300, started, ok,
        f"formulas to length 6 agree on {agreed}/{checked} bisimilar pairs;"
        " the looped double of the triangle passes globally",
    )
