"""The benchmark's three workloads, their pinned answers and their checks.

Each workload is a fixed list of queries built once, before timing starts.
A query calls the program through the traced `Api` and hands the answer to
its check, which compares it with the pinned table, re-validates every
returned separator with the naive evaluator in tests/oracles.py and
returns a short summary of the answer.  Queries that share an agreement
group are different routes to one minimum and must agree (routes_agree).

Workloads (the seed only shapes the generated inputs of small-many):

- lob4-basic: builtin lob-4, basic language.  The widest shipped universe
  (11,342 indices after reduction) with few candidates, so the modal
  pre-image over the universe and expand_reduced do nearly all the work.
- lob3-global: builtin lob-3, global language (790 indices).  Drives the
  E/A pre-image over same-model groups, which lob4-basic never touches.
- small-many: hundreds of small queries, so per-call overhead, Pareto
  bookkeeping and measure computation dominate and the pre-image does
  almost nothing.  Work moved into per-universe set-up shows here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable

from modalmin.formula import BASIC, GLOBAL, MeasureKind
from modalmin.game import GamePosition
from modalmin.kripke import Frame, Model, PointedModel

from tests import oracles

L = MeasureKind.LENGTH

TRANSFER_PAIRS = ((0, 1), (1, 0), (1, 2), (2, 1), (2, 0), (0, 2))

# Pinned answers.  Length minima come from tests/test_acceptance.py
# (criteria 03-08) and the README; the per-measure transfer minima are the
# criterion-03 certificates; the noncol minima are criterion 07 at the
# lengths the engines report; candidate counts are the certificates'
# formulas-enumerated lines.
PINNED: dict[str, Any] = {
    "length": {
        **{f"transfer-{m}-{n}": m + n + 3 for m, n in TRANSFER_PAIRS},
        "s4": 8,
        "lob-1": 8,
        "lob-2": 8,
        "lob-3": 8,
        "lob-4": 8,
        "symmetry": 5,
    },
    "transfer_measures": {
        (m, n): {
            MeasureKind.DIA_COUNT: n,
            MeasureKind.BOX_COUNT: m,
            MeasureKind.OR_COUNT: 1,
            MeasureKind.MODAL_DEPTH: max(m, n),
            MeasureKind.VAR_COUNT: 1,
        }
        for m, n in TRANSFER_PAIRS
    },
    "noncol": {"n2": 6, "n3-vb2": 9, "n3-vb1": None, "n2-game": 6},
    "certify_candidates": {
        ("lob-4", BASIC, 7): 954,
        ("lob-3", GLOBAL, 8): 9602,
        ("lob-3", GLOBAL, 9): 24273,
    },
    "reproduce_failed": 0,
}

SHIPPED_SMALL = tuple(
    [f"transfer-{m}-{n}" for m, n in TRANSFER_PAIRS]
    + ["s4", "lob-1", "lob-2", "symmetry"]
)


@dataclass
class Query:
    """One call into the program plus the check of its answer.

    check(answer) returns (summary value, list of problems).  `expand` and
    `enum` describe the reduced expansion and the enumeration the query
    performs internally, so that traced runs can probe those layers
    directly on the same inputs.
    """

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], tuple[Any, list[str]]]
    group: str | None = None
    fixed: bool = True
    expand: tuple | None = None
    enum: tuple | None = None


class Checker:
    """Answer checks shared by all workloads."""

    def __init__(self, api, pinned):
        self.api = api
        self.pinned = pinned
        self._oracle_valid: dict[tuple[str, Frame], bool] = {}

    def roundtrip(self, phi, vec=None) -> tuple[str, list[str]]:
        """Print, parse and measure a returned formula."""
        f = self.api.formula
        text = f.print_formula(phi)
        back = f.parse(text)
        measured = f.measure_all(back)
        problems = []
        if back != phi:
            problems.append(f"{text}: does not parse back to itself")
        if vec is not None and measured != vec:
            problems.append(f"{text}: measures {tuple(measured)}, reported {tuple(vec)}")
        return text, problems

    def separates_frames(self, phi, w, vec=None) -> list[str]:
        text, problems = self.roundtrip(phi, vec)
        for positive, frames in ((True, w.named_positives()), (False, w.named_negatives())):
            for nm, fr in frames:
                if self.api.kripke.frame_valid(fr, phi) != positive:
                    problems.append(f"{text}: frame_valid wrong on {w.name}/{nm}")
                key = (text, fr)
                if key not in self._oracle_valid:
                    self._oracle_valid[key] = oracles.naive_valid(fr, phi)
                if self._oracle_valid[key] != positive:
                    problems.append(f"{text}: oracle validity wrong on {w.name}/{nm}")
        return problems

    def separates_points(self, phi, universe, left, right, vec=None) -> list[str]:
        text, problems = self.roundtrip(phi, vec)
        for positive, side in ((True, left), (False, right)):
            for i in side:
                pm = universe.models[i]
                if oracles.naive_eval(pm.model, pm.point, phi) != positive:
                    problems.append(f"{text}: oracle evaluation wrong at index {i}")
        return problems

    def tree(self, cost, tree, kind, language) -> tuple[Any, list[str]]:
        """Closure, cost and read-off formula of a game tree."""
        g = self.api.game
        problems = []
        if not g.verify_closed_tree(tree, language):
            problems.append("game tree is not closed")
        psi = g.psi_of_tree(tree)
        if self.api.formula.measure(psi, kind) != cost:
            problems.append(f"tree formula does not cost {cost}")
        self.api.tracer.counts["game.tree_nodes"] += g.node_count(tree)
        return psi, problems

    # --- route checks -----------------------------------------------------
    #
    # A route answers ("min", m): the cheapest separator costs m, or
    # ("above", k): nothing costing k or less separates.  Both are compared
    # with the pinned minimum; routes_agree compares the routes' answers.

    def min_frames(self, w, kind, cap, minimum):
        def check(found):
            if found is None:
                ok = cap < minimum
                return ("above", cap), [] if ok else [f"no separator up to {cap}"]
            phi, vec = found
            value = vec.get(kind)
            problems = [] if value == minimum else [f"minimum {value}, expected {minimum}"]
            return ("min", value), problems + self.separates_frames(phi, w, vec)
        return check

    def game_frames(self, w, kind, budget, minimum, language):
        def check(found):
            if found is None:
                ok = budget < minimum
                return ("above", budget), [] if ok else [f"no tree up to {budget}"]
            cost, tree, _choice = found
            problems = [] if cost == minimum else [f"game cost {cost}, expected {minimum}"]
            psi, more = self.tree(cost, tree, kind, language)
            return ("min", cost), problems + more + self.separates_frames(psi, w)
        return check

    def certificate(self, w, kind, bound, minimum, candidates=None):
        """Proved when bound <= minimum, else Refuted by a formula costing minimum."""
        verdict = "Proved" if bound <= minimum else "Refuted"

        def check(cert):
            problems = []
            if cert.verdict != verdict:
                problems.append(f"verdict {cert.verdict}, expected {verdict}")
            if cert.verdict == "Proved" and kind is L and cert.scope != "full":
                problems.append(f"scope {cert.scope}, expected full")
            if candidates is not None and cert.formulas_enumerated != candidates:
                problems.append(f"{cert.formulas_enumerated} candidates, expected {candidates}")
            self.api.tracer.counts["synth.certify_candidates"] += cert.formulas_enumerated
            if cert.verdict != "Refuted":
                return ("above", bound - 1), problems
            got = self.api.formula.measure(cert.refutation, kind)
            if got != minimum:
                problems.append(f"refutation costs {got}, expected {minimum}")
            return ("min", got), problems + self.separates_frames(cert.refutation, w)
        return check


def routes_agree(values) -> bool:
    """Found minima are equal and above every bound another route proved."""
    found = {v for kind, v in values if kind == "min"}
    ceiling = max((v for kind, v in values if kind == "above"), default=-1)
    return len(found) <= 1 and all(m > ceiling for m in found)


def _witness_queries(api, check, name, language, msf_cap, certify_at, game_budget):
    """The three Length routes on one witness set, checked against its minimum.

    certify_at lists the claimed bounds to certify: Proved up to the
    minimum, Refuted above it.
    """
    w = api.gallery.builtin_witnesses(name)
    minimum = check.pinned["length"][name]
    group = f"{name}/{language}/length"
    expand = (name, 1, language)
    queries = [Query(
        f"{group}/min_separating_frames",
        lambda: api.synth.min_separating_frames(w, L, 1, msf_cap, language),
        check.min_frames(w, L, msf_cap, minimum),
        group, expand=expand, enum=(expand, min(msf_cap, minimum)),
    )]
    for bound in certify_at:
        candidates = check.pinned["certify_candidates"].get((name, language, bound))
        queries.append(Query(
            f"{group}/certify_bound@{bound}",
            lambda bound=bound: api.synth.certify_bound(w, L, bound, language=language),
            check.certificate(w, L, bound, minimum, candidates),
            group, expand=expand, enum=(expand, min(bound, minimum) - 1),
        ))
    queries.append(Query(
        f"{group}/fgf_min_cost",
        lambda: api.game.fgf_min_cost(w, L, 1, game_budget, language),
        check.game_frames(w, L, game_budget, minimum, language),
        group, expand=expand,
    ))
    return queries


# The full-size lob queries (separators of length 8, games to budget 8-10)
# take up to half a minute each on a 2-core Xeon, so a run would hold one
# sample of each and a host whose speed drifts over tens of seconds gives
# no steady median.  These sizes keep each workload's bottleneck -- the
# <>/[] pre-image and expand_reduced on lob-4, the E/A pre-image on lob-3
# global -- at a few seconds per query.


def lob4_basic(api, seed: int, pinned=PINNED) -> list[Query]:
    return _witness_queries(api, Checker(api, pinned), "lob-4", BASIC,
                            msf_cap=6, certify_at=(7,), game_budget=3)


def lob3_global(api, seed: int, pinned=PINNED) -> list[Query]:
    return _witness_queries(api, Checker(api, pinned), "lob-3", GLOBAL,
                            msf_cap=10, certify_at=(8, 9), game_budget=5)


# --- small-many ---------------------------------------------------------------


def _transfer_measure_queries(api, check, m, n):
    """Criterion-03 non-Length certificates and the matching game calls."""
    name = f"transfer-{m}-{n}"
    w = api.gallery.builtin_witnesses(name)
    cap = m + n + 5
    expand = (name, 1, BASIC)
    out = []
    for kind, minimum in check.pinned["transfer_measures"][(m, n)].items():
        group = f"{name}/{kind.value}"
        out.append(Query(
            f"{group}/certify-lower",
            lambda kind=kind, minimum=minimum: api.synth.certify_bound(
                w, kind, minimum, length_cap=cap),
            check.certificate(w, kind, minimum, minimum),
            group, expand=expand, enum=(expand, cap),
        ))
        out.append(Query(
            f"{group}/certify-upper",
            lambda kind=kind, minimum=minimum: api.synth.certify_bound(
                w, kind, minimum + 1, length_cap=cap),
            check.certificate(w, kind, minimum + 1, minimum),
            group, expand=expand, enum=(expand, cap),
        ))
        out.append(Query(
            f"{group}/fgf_min_cost",
            lambda kind=kind, minimum=minimum: api.game.fgf_min_cost(
                w, kind, 1, max(minimum, 1), length_cap=cap),
            check.game_frames(w, kind, max(minimum, 1), minimum, BASIC),
            group, expand=expand,
        ))
    return out


def _noncol_queries(api, check):
    pinned = check.pinned["noncol"]
    u2, l2, r2 = api.colouring.noncol_game_setup(2)
    u3, l3, r3 = api.colouring.noncol_game_setup(3)

    def separator(universe, left, right, cap, minimum):
        """minimum None: nothing up to the cap separates."""
        def run_check(found):
            if found is None:
                ok = minimum is None
                return ("above", cap), [] if ok else [f"no separator up to {cap}"]
            phi, vec = found
            value = vec.get(L)
            problems = [] if value == minimum else [f"minimum {value}, expected {minimum}"]
            if vec.get(MeasureKind.EXISTS_COUNT) < 1:
                problems.append("separator has no E")
            return ("min", value), problems + check.separates_points(phi, universe, left, right, vec)
        return run_check

    def game_check(found):
        if found is None:
            return ("above", 6), ["no tree up to 6"]
        cost, tree = found
        problems = [] if cost == pinned["n2-game"] else [f"game cost {cost}"]
        psi, more = check.tree(cost, tree, L, GLOBAL)
        return ("min", cost), problems + more + check.separates_points(psi, u2, l2, r2)

    return [
        Query("noncol-2/min_separating",
              lambda: api.synth.min_separating(u2, l2, r2, L, 1, 6, language=GLOBAL),
              separator(u2, l2, r2, 6, pinned["n2"]), "noncol-2",
              enum=((u2, 1, GLOBAL), pinned["n2"])),
        Query("noncol-2/min_cost_fgm",
              lambda: api.game.min_cost_fgm(GamePosition(u2, l2, r2), L, 6, language=GLOBAL),
              game_check, "noncol-2"),
        Query("noncol-3-vb2/min_separating",
              lambda: api.synth.min_separating(u3, l3, r3, L, 2, 9, language=GLOBAL),
              separator(u3, l3, r3, 9, pinned["n3-vb2"]),
              enum=((u3, 2, GLOBAL), pinned["n3-vb2"])),
        Query("noncol-3-vb1/min_separating",
              lambda: api.synth.min_separating(u3, l3, r3, L, 1, 10, language=GLOBAL),
              separator(u3, l3, r3, 10, pinned["n3-vb1"]),
              enum=((u3, 1, GLOBAL), 10)),
    ]


def _seeded_universe(api, rng):
    """A criterion-08 style universe of 2..12 pointed models with a position."""
    while True:
        count = rng.randint(1, 4)
        edges = [(u, v) for u in range(count) for v in range(count) if rng.random() < 0.35]
        frame = Frame(count, edges)
        seeds = []
        for _ in range(rng.randint(1, 3)):
            model = Model(frame, {1: rng.getrandbits(count)})
            seeds.extend(PointedModel(model, s) for s in range(count))
        universe = api.kripke.build_universe(seeds)
        size = len(universe)
        if 2 <= size <= 12:
            break
    left = tuple(rng.sample(range(size), rng.randint(1, min(3, size - 1))))
    rest = [i for i in range(size) if i not in left]
    right = tuple(rng.sample(rest, rng.randint(1, min(2, len(rest)))))
    return universe, left, right


def _universe_query(api, check, k, universe, left, right):
    cap = 6

    def run():
        played = api.game.min_cost_fgm(GamePosition(universe, left, right), L, cap)
        enumerated = api.synth.min_separating(universe, left, right, L, 1, cap)
        return played, enumerated

    def run_check(answer):
        played, enumerated = answer
        if (played is None) != (enumerated is None):
            return None, [f"game {played is not None}, enumeration {enumerated is not None}"]
        if played is None:
            return None, []
        cost, tree = played
        phi, vec = enumerated
        problems = [] if cost == vec.get(L) else [f"game {cost}, enumeration {vec.get(L)}"]
        psi, more = check.tree(cost, tree, L, BASIC)
        problems += more + check.separates_points(psi, universe, left, right)
        return cost, problems + check.separates_points(phi, universe, left, right, vec)

    return Query(f"universe-{k}", run, run_check, fixed=False,
                 enum=((universe, 1, BASIC), cap))


def _random_digraph(rng, max_states):
    count = rng.randint(1, max_states)
    edges = [(u, v) for u in range(count) for v in range(count) if rng.random() < 0.3]
    return Frame(count, edges)


def _noncol_frame_query(api, k, frame, n):
    return Query(
        f"noncol-frame-{k}/n{n}",
        lambda: api.colouring.noncol_equivalence(frame, n),
        lambda agreed: (agreed, [] if agreed else ["validity and colouring disagree"]),
        fixed=False,
    )


def _doubled(pm: PointedModel) -> PointedModel:
    frame = pm.model.frame
    count = frame.state_count
    edges = list(frame.edges()) + [(u + count, v + count) for u, v in frame.edges()]
    valuation = {v: mask | mask << count for v, mask in pm.model.valuation.items()}
    return PointedModel(Model(Frame(2 * count, edges), valuation), pm.point)


def _flipped(pm: PointedModel) -> PointedModel:
    valuation = dict(pm.model.valuation)
    valuation[1] = valuation.get(1, 0) ^ (1 << pm.point)
    return PointedModel(Model(pm.model.frame, valuation), pm.point)


def _bisim_query(api, k, a, b, expected):
    def run():
        return tuple(api.kripke.bisimilar(a, b, lang) for lang in (BASIC, GLOBAL))

    def run_check(got):
        oracle = tuple(oracles.naive_bisimilar(a, b, lang) for lang in (BASIC, GLOBAL))
        problems = []
        if got != oracle:
            problems.append(f"bisimilar {got}, oracle {oracle}")
        if got[0] != expected:
            problems.append(f"basic bisimilarity {got[0]}, expected {expected}")
        return got, problems

    return Query(f"bisim-{k}", run, run_check, fixed=False)


def _reproduce_query(api, check, seed):
    def run_check(result):
        exit_code, output = result
        lines = output.strip().splitlines()
        summary = lines[-1] if lines else ""
        failed = check.pinned["reproduce_failed"]
        ok = exit_code == 0 and f", {failed} failed," in summary
        return summary.split(",")[:3], [] if ok else [f"exit {exit_code}: {summary}"]

    return Query("reproduce", lambda: api.reproduce(seed), run_check, fixed=False)


UNIVERSES = 200
NONCOL_FRAMES = 40
BISIM_PAIRS = 20


def small_many(api, seed: int, pinned=PINNED) -> list[Query]:
    check = Checker(api, pinned)
    queries = []
    for name in SHIPPED_SMALL:
        queries += _witness_queries(api, check, name, BASIC, msf_cap=10,
                                    certify_at=(pinned["length"][name],), game_budget=10)
    for m, n in TRANSFER_PAIRS:
        queries += _transfer_measure_queries(api, check, m, n)
    queries += _noncol_queries(api, check)

    rng = random.Random(seed)
    for k in range(UNIVERSES):
        queries.append(_universe_query(api, check, k, *_seeded_universe(api, rng)))
    for k in range(NONCOL_FRAMES):
        frame = _random_digraph(rng, 6)
        queries += [_noncol_frame_query(api, k, frame, n) for n in (2, 3)]
    for k in range(BISIM_PAIRS):
        frame = _random_digraph(rng, 3)
        base = PointedModel(
            Model(frame, {1: rng.getrandbits(frame.state_count)}),
            rng.randrange(frame.state_count),
        )
        queries.append(_bisim_query(api, f"{k}-doubled", base, _doubled(base), True))
        queries.append(_bisim_query(api, f"{k}-flipped", base, _flipped(base), False))
    queries.append(_reproduce_query(api, check, seed))
    return queries


WORKLOADS = {
    "lob4-basic": lob4_basic,
    "lob3-global": lob3_global,
    "small-many": small_many,
}
