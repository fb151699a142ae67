"""Slow reference implementations the library is cross-checked against.

Everything here favours obviousness over speed: structural recursion over
explicit sets, itertools products over whole valuation spaces, dedup-free
enumeration by level.  Nothing imports from the modules under test except
the plain data types.
"""

import functools
import itertools

from modalmin.formula import (
    FALSE,
    TRUE,
    And,
    Box,
    Dia,
    ExistsMod,
    FalseConst,
    ForallMod,
    Formula,
    GLOBAL,
    MeasureKind,
    MeasureVector,
    NegLit,
    Or,
    PosLit,
    TrueConst,
)
from modalmin.kripke import Frame, Model, PointedModel, Universe


def variables(phi: Formula) -> set[int]:
    if isinstance(phi, (PosLit, NegLit)):
        return {phi.var}
    out: set[int] = set()
    for child in phi.children():
        out |= variables(child)
    return out


_SYMBOL_COUNT = {
    FalseConst: "false_count",
    TrueConst: "true_count",
    Or: "or_count",
    And: "and_count",
    Dia: "dia_count",
    Box: "box_count",
    ExistsMod: "exists_count",
    ForallMod: "forall_count",
}


@functools.lru_cache(maxsize=None)
def naive_measures(phi: Formula) -> MeasureVector:
    """phi's measure vector by a fold over its nodes, not formula.compose.

    Length counts the nodes and each symbol count the nodes of its
    connective; modal depth is the deepest nesting of modal nodes and var
    count the size of the variable set.  Cached, because formulas_up_to
    shares subformulas.
    """
    kids = [naive_measures(child) for child in phi.children()]
    counts = {name: sum(getattr(k, name) for k in kids) for name in _SYMBOL_COUNT.values()}
    if type(phi) in _SYMBOL_COUNT:
        counts[_SYMBOL_COUNT[type(phi)]] += 1
    modal = isinstance(phi, (Dia, Box, ExistsMod, ForallMod))
    return MeasureVector(
        length=1 + sum(k.length for k in kids),
        modal_depth=modal + max((k.modal_depth for k in kids), default=0),
        var_count=len(variables(phi)),
        **counts,
    )


def naive_eval(model: Model, state: int, phi: Formula) -> bool:
    succ = [
        {t for t in range(model.frame.state_count) if model.frame.has_edge(s, t)}
        for s in range(model.frame.state_count)
    ]
    everything = range(model.frame.state_count)

    def walk(s: int, psi: Formula) -> bool:
        if isinstance(psi, TrueConst):
            return True
        if isinstance(psi, FalseConst):
            return False
        if isinstance(psi, PosLit):
            return model.holds(psi.var, s)
        if isinstance(psi, NegLit):
            return not model.holds(psi.var, s)
        if isinstance(psi, Or):
            return walk(s, psi.left) or walk(s, psi.right)
        if isinstance(psi, And):
            return walk(s, psi.left) and walk(s, psi.right)
        if isinstance(psi, Dia):
            return any(walk(t, psi.child) for t in succ[s])
        if isinstance(psi, Box):
            return all(walk(t, psi.child) for t in succ[s])
        if isinstance(psi, ExistsMod):
            return any(walk(t, psi.child) for t in everything)
        if isinstance(psi, ForallMod):
            return all(walk(t, psi.child) for t in everything)
        raise TypeError(f"unknown node {psi!r}")

    return walk(state, phi)


def naive_valid(frame: Frame, phi: Formula) -> bool:
    """Validity by explicit product over all valuations of the mentioned variables."""
    mentioned = sorted(variables(phi))
    cells = [(var, state) for var in mentioned for state in range(frame.state_count)]
    for bits in itertools.product((False, True), repeat=len(cells)):
        valuation: dict[int, int] = {}
        for (var, state), bit in zip(cells, bits):
            if bit:
                valuation[var] = valuation.get(var, 0) | 1 << state
        model = Model(frame, valuation)
        if not all(naive_eval(model, s, phi) for s in range(frame.state_count)):
            return False
    return True


def naive_bisimilar(a: PointedModel, b: PointedModel, language: str) -> bool:
    """Greatest-fixpoint bisimilarity on the full product of the two state spaces."""
    counts = (a.model.frame.state_count, b.model.frame.state_count)
    succ_a = [
        {t for t in range(counts[0]) if a.model.frame.has_edge(s, t)} for s in range(counts[0])
    ]
    succ_b = [
        {t for t in range(counts[1]) if b.model.frame.has_edge(s, t)} for s in range(counts[1])
    ]
    atoms = set(a.model.valuation) | set(b.model.valuation)
    rel = {
        (x, y)
        for x in range(counts[0])
        for y in range(counts[1])
        if all(a.model.holds(v, x) == b.model.holds(v, y) for v in atoms)
    }
    changed = True
    while changed:
        changed = False
        for x, y in sorted(rel):
            forth = all(any((x2, y2) in rel for y2 in succ_b[y]) for x2 in succ_a[x])
            back = all(any((x2, y2) in rel for x2 in succ_a[x]) for y2 in succ_b[y])
            if not (forth and back):
                rel.discard((x, y))
                changed = True
    if (a.point, b.point) not in rel:
        return False
    if language == GLOBAL:
        left_total = all(any((x, y) in rel for y in range(counts[1])) for x in range(counts[0]))
        right_total = all(any((x, y) in rel for x in range(counts[0])) for y in range(counts[1]))
        return left_total and right_total
    return True


def brute_colourable(frame: Frame, n: int) -> bool:
    for colours in itertools.product(range(n), repeat=frame.state_count):
        if all(colours[u] != colours[v] for u, v in frame.edges()):
            return True
    return False


def formulas_up_to(var_list: list[int], max_len: int, language: str) -> dict[int, list[Formula]]:
    """Every formula of each length up to max_len, duplicates and all."""
    by_len: dict[int, list[Formula]] = {1: [TRUE, FALSE]}
    for v in var_list:
        by_len[1] += [PosLit(v), NegLit(v)]
    for total in range(2, max_len + 1):
        acc: list[Formula] = []
        for f in by_len[total - 1]:
            acc += [Dia(f), Box(f)]
            if language == GLOBAL:
                acc += [ExistsMod(f), ForallMod(f)]
        for len1 in range(1, total - 1):
            len2 = total - 1 - len1
            if len2 < len1:
                break
            for f in by_len[len1]:
                for g in by_len[len2]:
                    acc += [Or(f, g), And(f, g)]
                    if len1 != len2:
                        acc += [Or(g, f), And(g, f)]
        by_len[total] = acc
    return by_len


@functools.lru_cache(maxsize=None)
def _measured_formulas(var_list: tuple[int, ...], max_len: int, language: str):
    """formulas_up_to's formulas, shortest first, each with its measure vector.

    Cached because the vectors do not depend on the universe.
    """
    return tuple(
        (phi, naive_measures(phi))
        for forms in formulas_up_to(list(var_list), max_len, language).values()
        for phi in forms
    )


def brute_table(u: Universe, max_len: int, language: str) -> list[tuple[int, MeasureVector]]:
    """(denotation over u, measure vector) of every formula up to max_len.

    Denotations come from per-state successor sets, as in naive_eval, not
    from the library's evaluator.  Each state of each distinct model of u
    is one node of a flat graph; a formula's extension is the set of nodes
    where it holds, computed from its children's, which formulas_up_to
    shares and which are therefore looked up, not re-evaluated.
    """
    models = list(dict.fromkeys(pm.model for pm in u.models))
    start: dict[Model, int] = {}
    succ: list[set[int]] = []
    same: list[set[int]] = []
    for model in models:
        start[model] = base = len(succ)
        count = model.frame.state_count
        for s in range(count):
            succ.append({base + t for t in range(count) if model.frame.has_edge(s, t)})
            same.append(set(range(base, base + count)))
    points = [start[pm.model] + pm.point for pm in u.models]
    everything = frozenset(range(len(succ)))
    var_list = sorted({v for model in models for v in model.valuation})
    holds = {
        v: frozenset(start[m] + s for m in models for s in range(m.frame.state_count) if m.holds(v, s))
        for v in var_list
    }
    ext: dict[Formula, frozenset[int]] = {}

    def extension(psi: Formula) -> frozenset[int]:
        if isinstance(psi, TrueConst):
            return everything
        if isinstance(psi, FalseConst):
            return frozenset()
        if isinstance(psi, PosLit):
            return holds[psi.var]
        if isinstance(psi, NegLit):
            return everything - holds[psi.var]
        if isinstance(psi, Or):
            return ext[psi.left] | ext[psi.right]
        if isinstance(psi, And):
            return ext[psi.left] & ext[psi.right]
        child = ext[psi.child]
        if isinstance(psi, Dia):
            return frozenset(g for g in everything if succ[g] & child)
        if isinstance(psi, Box):
            return frozenset(g for g in everything if succ[g] <= child)
        if isinstance(psi, ExistsMod):
            return frozenset(g for g in everything if same[g] & child)
        if isinstance(psi, ForallMod):
            return frozenset(g for g in everything if same[g] <= child)
        raise TypeError(f"unknown node {psi!r}")

    table = []
    for phi, vec in _measured_formulas(tuple(var_list), max_len, language):
        ext[phi] = got = extension(phi)
        table.append((sum(1 << i for i, g in enumerate(points) if g in got), vec))
    return table


def brute_min_value(
    table: list[tuple[int, MeasureVector]],
    left: tuple[int, ...],
    right: tuple[int, ...],
    kind: MeasureKind,
    budget: int,
) -> int | None:
    """The least measure within budget of a formula of the table that separates."""
    lmask = sum(1 << i for i in left)
    rmask = sum(1 << i for i in right)
    values = [
        vec.get(kind) for den, vec in table if lmask & ~den == 0 and rmask & den == 0
    ]
    return min((value for value in values if value <= budget), default=None)


def brute_min_separating(
    u: Universe,
    left: tuple[int, ...],
    right: tuple[int, ...],
    kind: MeasureKind,
    budget: int,
    max_len: int,
    language: str,
) -> int | None:
    """Cheapest separating formula value by dedup-free enumeration."""
    return brute_min_value(brute_table(u, max_len, language), left, right, kind, budget)


def brute_denotations(u: Universe, var_list: list[int], max_len: int, language: str) -> set[int]:
    dens: set[int] = set()
    for forms in formulas_up_to(var_list, max_len, language).values():
        dens |= {u.den(phi) for phi in forms}
    return dens


def brute_exact_image(options: list[tuple[int, ...]], image: frozenset[int]) -> bool:
    if not options:
        return image == frozenset()
    return any(frozenset(pick) == image for pick in itertools.product(*options))


def rescanning_greedy_cover(covers: list[frozenset[int]]) -> list[int]:
    """Greedy set cover by full rescans: each round picks the first index with
    the most elements not yet covered, until the union is covered."""
    everything = frozenset().union(*covers)
    covered: set[int] = set()
    picks = []
    while covered != everything:
        best, best_gain = None, -1
        for i, cover in enumerate(covers):
            gain = len(cover - covered)
            if gain > best_gain:
                best, best_gain = i, gain
        picks.append(best)
        covered |= covers[best]
    return picks
