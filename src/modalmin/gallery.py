"""Frame properties, modal axioms, and witness sets that separate them.

A witness set packages finitely many frames that satisfy a frame property
("positives") together with finitely many that violate it ("negatives").
Searching for a formula valid on every positive and refutable on every
negative then gives concrete lower and upper bounds on how succinctly the
property can be expressed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import reduce
from operator import or_

from .colouring import k_complete, khat
from .formula import MAX_NESTING, Formula, Or, And, Dia, Box, PosLit, NegLit
from .kripke import (
    Frame,
    Universe,
    _int_field,
    _rank_order,
    expand_reduced,
    format_frame,
    frames_of_rows,
    index_mask,
    mask_bits,
    text_rows,
)

__all__ = [
    "FrameProperty",
    "REFLEXIVE",
    "TRANSITIVE",
    "SYMMETRIC",
    "CONVERSE_WELL_FOUNDED",
    "REFLEXIVE_TRANSITIVE",
    "TRANSITIVE_CWF",
    "check_property",
    "WitnessSet",
    "reduced_witnesses",
    "transfer_witnesses",
    "s4_witnesses",
    "lob_witnesses",
    "symmetry_witnesses",
    "axiom",
    "builtin_frame",
    "builtin_witnesses",
    "format_witnesses",
    "parse_witnesses",
]


@dataclass(frozen=True)
class FrameProperty:
    """A property of Kripke frames checked structurally.

    ``kind`` is one of ``transfer``, ``reflexive``, ``transitive``,
    ``symmetric``, ``cwf``, ``reflexive-transitive``, ``transitive-cwf``.
    Transfer properties carry the two exponents: R^m subset of R^n.
    """

    kind: str
    m: int = 0
    n: int = 0

    @staticmethod
    def transfer(m: int, n: int) -> "FrameProperty":
        if m < 0 or n < 0:
            raise ValueError("transfer exponents must be non-negative")
        return FrameProperty("transfer", m, n)

    def __str__(self) -> str:
        if self.kind == "transfer":
            return f"transfer {self.m} {self.n}"
        return self.kind


REFLEXIVE = FrameProperty("reflexive")
TRANSITIVE = FrameProperty("transitive")
SYMMETRIC = FrameProperty("symmetric")
CONVERSE_WELL_FOUNDED = FrameProperty("cwf")
REFLEXIVE_TRANSITIVE = FrameProperty("reflexive-transitive")
TRANSITIVE_CWF = FrameProperty("transitive-cwf")

_PROPERTY_NAMES = {
    p.kind: p
    for p in (REFLEXIVE, TRANSITIVE, SYMMETRIC, CONVERSE_WELL_FOUNDED, REFLEXIVE_TRANSITIVE, TRANSITIVE_CWF)
}


def _then(rows: tuple[int, ...], step: tuple[int, ...]) -> tuple[int, ...]:
    """Successor masks of the relation rows followed by the relation step."""
    return tuple(reduce(or_, (step[t] for t in mask_bits(row)), 0) for row in rows)


def _relation_power(frame: Frame, k: int) -> tuple[int, ...]:
    """Successor masks of R^k by repeated squaring; R^0 is the identity."""
    rows = tuple(1 << s for s in range(frame.state_count))
    power = frame.succ_masks
    while k > 0:
        if k & 1:
            rows = _then(rows, power)
        k >>= 1
        if k:
            power = _then(power, power)
    return rows


def _has_transfer(frame: Frame, m: int, n: int) -> bool:
    """Whether R^m is a subset of R^n on the frame."""
    pm = _relation_power(frame, m)
    pn = _relation_power(frame, n)
    return all(a & ~b == 0 for a, b in zip(pm, pn))


def _is_symmetric(frame: Frame) -> bool:
    return all(
        frame.has_edge(v, u) for u, v in frame.edges()
    )


def _is_cwf(frame: Frame) -> bool:
    # Converse well-founded on a finite frame means no cycle at all,
    # including self-loops: no state reaches a cycle.
    return not _rank_order(frame)[1]


def check_property(frame: Frame, prop: FrameProperty) -> bool:
    # reflexivity is R^0 subset of R^1, transitivity R^2 subset of R^1
    if prop.kind == "transfer":
        return _has_transfer(frame, prop.m, prop.n)
    if prop.kind == "reflexive":
        return _has_transfer(frame, 0, 1)
    if prop.kind == "transitive":
        return _has_transfer(frame, 2, 1)
    if prop.kind == "symmetric":
        return _is_symmetric(frame)
    if prop.kind == "cwf":
        return _is_cwf(frame)
    if prop.kind == "reflexive-transitive":
        return _has_transfer(frame, 0, 1) and _has_transfer(frame, 2, 1)
    if prop.kind == "transitive-cwf":
        return _has_transfer(frame, 2, 1) and _is_cwf(frame)
    raise ValueError(f"unknown frame property kind: {prop.kind!r}")


@dataclass(frozen=True)
class WitnessSet:
    """Named frames separating a frame property.

    Every positive frame satisfies ``prop`` and every negative frame
    violates it; this coherence is asserted at construction time so a
    witness set can never silently drift out of sync with its property.
    """

    name: str
    prop: FrameProperty
    positives: tuple[Frame, ...]
    negatives: tuple[Frame, ...]
    positive_names: tuple[str, ...]
    negative_names: tuple[str, ...]
    recommended_var_bound: int = 1

    def __post_init__(self) -> None:
        if len(self.positives) != len(self.positive_names):
            raise ValueError("positive frames and names differ in length")
        if len(self.negatives) != len(self.negative_names):
            raise ValueError("negative frames and names differ in length")
        if not self.positives or not self.negatives:
            raise ValueError("witness set needs both positives and negatives")
        for nm, fr in zip(self.positive_names, self.positives):
            if not check_property(fr, self.prop):
                raise ValueError(
                    f"{self.name}: positive frame {nm} violates {self.prop}"
                )
        for nm, fr in zip(self.negative_names, self.negatives):
            if check_property(fr, self.prop):
                raise ValueError(
                    f"{self.name}: negative frame {nm} satisfies {self.prop}"
                )

    def named_positives(self) -> tuple[tuple[str, Frame], ...]:
        return tuple(zip(self.positive_names, self.positives))

    def named_negatives(self) -> tuple[tuple[str, Frame], ...]:
        return tuple(zip(self.negative_names, self.negatives))


def reduced_witnesses(
    w: WitnessSet, var_bound: int, language: str
) -> tuple[Universe, int, list[tuple[str, int]]]:
    """w's frames expanded over var_bound variables and reduced by bisimilarity.

    Returns the reduced universe, the mask of its indices standing for
    pointed models over positive frames, and per negative frame its name
    and the mask of the indices standing for its pointed models.
    """
    named = [(f"+{nm}", fr) for nm, fr in w.named_positives()]
    named += [(f"-{nm}", fr) for nm, fr in w.named_negatives()]
    red = expand_reduced(named, var_bound, language)
    positive = index_mask(i for nm, _ in w.named_positives() for i in red.class_reps[f"+{nm}"])
    negatives = [(nm, index_mask(red.class_reps[f"-{nm}"])) for nm, _ in w.named_negatives()]
    return red.universe, positive, negatives


def _path_edges(states) -> list[tuple[int, int]]:
    """The edges of the directed path visiting states in order."""
    return list(zip(states, states[1:]))


def _path_frame(edge_count: int) -> Frame:
    """A bare directed path with the given number of edges."""
    return Frame(edge_count + 1, _path_edges(range(edge_count + 1)))


def _transfer_frames_m0(n: int) -> tuple[list[tuple[str, Frame]], list[tuple[str, Frame]]]:
    # R^0 subset of R^n: every state must reach itself in exactly n steps.
    a1 = Frame(1, [(0, 0)])
    # An n-cycle whose states all also feed a shared reflexive sink: the
    # cycle returns in n steps and the sink trivially does.
    cyc = _path_edges([*range(n), 0])
    feed = [(i, n) for i in range(n)]
    a2 = Frame(n + 1, cyc + feed + [(n, n)])
    b = Frame(2, [(0, 1), (1, 1)])
    return [("a1", a1), ("a2", a2)], [("b", b)]


def _transfer_frames_n0(m: int) -> tuple[list[tuple[str, Frame]], list[tuple[str, Frame]]]:
    # R^m subset of R^0 = identity: every m-step path is a self-return.
    positives = [("a1", Frame(1, [(0, 0)]))]
    # Bare paths of 0 .. m-1 edges have empty R^m, so they qualify vacuously.
    for i in range(2, m + 2):
        positives.append((f"a{i}", _path_frame(i - 2)))
    b = Frame(2, [(0, 1), (1, 1)])
    return positives, [("b", b)]


def _transfer_frames_mn(m: int, n: int) -> tuple[list[tuple[str, Frame]], list[tuple[str, Frame]]]:
    # 0 < m < n.  The heavy positive a1 realizes both exponents: a root r
    # with a reflexive escape, an m-step vertical path and an n-step path
    # to a shared target t which has its own reflexive escape.  Every state
    # on the n-path carries a self-loop so that shorter-than-n walks can
    # idle; the loop on the first such state is load-bearing for R^m there.
    r = 0
    loop = 1
    verticals = list(range(2, m + 1))
    t = m + 1
    loop2 = m + 2
    walkers = list(range(m + 3, m + n + 2))

    edges = [(r, loop), (loop, loop), (t, loop2), (loop2, loop2)]
    edges += _path_edges([r, *verticals, t])
    edges += _path_edges([r, *walkers, t])
    edges += [(w, w) for w in walkers]
    a1 = Frame(m + n + 2, edges)

    positives = [("a1", a1)]
    for i in range(2, m + 2):
        # Root with reflexive escape plus a dead-end path of i-2 edges.
        pe = [(0, 1), (1, 1)] + _path_edges([0, *range(2, i)])
        positives.append((f"a{i}", Frame(max(2, i), pe)))

    # The negative is a1 without the n-path: r still has the m-step route
    # to t but no n-step one.
    edges_b = [(r, loop), (loop, loop), (t, loop2), (loop2, loop2)]
    edges_b += _path_edges([r, *verticals, t])
    b = Frame(m + 3, edges_b)
    return positives, [("b", b)]


def _transfer_frames_nm(m: int, n: int) -> tuple[list[tuple[str, Frame]], list[tuple[str, Frame]]]:
    # 0 < n < m.  a1 is a triangle: an m-edge vertical path and an n-edge
    # hypotenuse meeting at a common corner c, with an n-j edge branch
    # hanging off the j-th hypotenuse state.
    r = 0
    verticals = list(range(1, m))
    c = m
    hypo = list(range(m + 1, m + n))
    hchain = [r] + hypo + [c]
    edges = _path_edges([r, *verticals, c]) + _path_edges(hchain)
    nxt = m + n
    for j in range(n):
        prev = hchain[j]
        for _ in range(n - j):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    a1 = Frame(nxt, edges)

    positives = [("a1", a1)]
    for i in range(2, m + 2):
        # Disjoint union of a dead-end path of i-2 edges and one of n edges,
        # sharing only the root.
        pe = _path_edges([0, *range(1, i - 1)]) + _path_edges([0, *range(i - 1, i - 1 + n)])
        positives.append((f"a{i}", Frame(i - 1 + n, pe)))

    # Negative: the m-path and n-path both dead-end instead of rejoining.
    eb = _path_edges(range(m + 1)) + _path_edges([0, *range(m + 1, m + n + 1)])
    b = Frame(m + n + 1, eb)
    return positives, [("b", b)]


def transfer_witnesses(m: int, n: int) -> WitnessSet:
    """Witness frames for the transfer property R^m subset of R^n.

    Requires m != n (the property is trivially universal otherwise) and
    not both zero.
    """
    if m == n:
        raise ValueError("transfer witnesses need distinct exponents")
    # the axiom's disjunction adds one level above the longer modal chain
    if 1 + max(m, n) > MAX_NESTING:
        raise ValueError(f"the transfer {m} {n} axiom nests deeper than {MAX_NESTING}")
    if m == 0:
        pos, neg = _transfer_frames_m0(n)
    elif n == 0:
        pos, neg = _transfer_frames_n0(m)
    elif m < n:
        pos, neg = _transfer_frames_mn(m, n)
    else:
        pos, neg = _transfer_frames_nm(m, n)
    return WitnessSet(
        name=f"transfer-{m}-{n}",
        prop=FrameProperty.transfer(m, n),
        positives=tuple(f for _, f in pos),
        negatives=tuple(f for _, f in neg),
        positive_names=tuple(nm for nm, _ in pos),
        negative_names=tuple(nm for nm, _ in neg),
    )


def _reflexive(edges: list[tuple[int, int]], count: int) -> list[tuple[int, int]]:
    return edges + [(s, s) for s in range(count)]


def s4_witnesses() -> WitnessSet:
    """Witnesses for reflexivity plus transitivity.

    The negatives are a reflexive frame that is not transitive and a
    transitive frame that is not reflexive, so a separating formula must
    express the conjunction rather than either half.
    """
    a1 = Frame(4, _reflexive([(0, 1), (0, 2), (0, 3), (1, 2)], 4))
    a2 = Frame(2, _reflexive([(0, 1)], 2))
    a3 = Frame(3, _reflexive([(0, 1), (0, 2)], 3))
    b1 = Frame(4, _reflexive([(0, 1), (1, 2), (0, 3)], 4))
    b2 = Frame(2, [(0, 1), (1, 1)])
    return WitnessSet(
        name="s4",
        prop=REFLEXIVE_TRANSITIVE,
        positives=(a1, a2, a3),
        negatives=(b1, b2),
        positive_names=("a1", "a2", "a3"),
        negative_names=("b1", "b2"),
    )


def lob_witnesses(depth: int) -> WitnessSet:
    """Witnesses for transitivity plus converse well-foundedness.

    ``depth`` controls the largest positive: the transitive closure of a
    tree with branches of length 1 .. depth, which forces any separating
    formula to look that many steps ahead.  A depth past MAX_NESTING
    raises ValueError, since such a formula would not parse back.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if depth > MAX_NESTING:
        raise ValueError(f"lob-{depth} needs formulas nested deeper than {MAX_NESTING}")
    a1 = Frame(4, [(0, 1), (1, 2), (0, 2), (0, 3)])
    a2 = Frame(2, [(0, 1)])
    a3 = Frame(3, [(0, 1), (0, 2)])
    # the closure's edges: the root to every node, each node to its branch's later ones
    edges = []
    nxt = 1
    for i in range(1, depth + 1):
        branch = range(nxt, nxt + i)
        edges += [(0, v) for v in branch]
        edges += [(u, v) for u in branch for v in range(u + 1, nxt + i)]
        nxt += i
    a4 = Frame(nxt, edges)
    b1 = Frame(4, [(0, 1), (1, 2), (0, 3)])
    b2 = Frame(2, [(0, 0), (0, 1)])
    return WitnessSet(
        name=f"lob-{depth}",
        prop=TRANSITIVE_CWF,
        positives=(a1, a2, a3, a4),
        negatives=(b1, b2),
        positive_names=("a1", "a2", "a3", "a4"),
        negative_names=("b1", "b2"),
    )


def symmetry_witnesses() -> WitnessSet:
    a1 = Frame(1, [(0, 0)])
    a2 = Frame(1, [])
    a3 = Frame(2, [(0, 1), (1, 0), (1, 1)])
    b = Frame(2, [(0, 1), (1, 1)])
    return WitnessSet(
        name="symmetry",
        prop=SYMMETRIC,
        positives=(a1, a2, a3),
        negatives=(b,),
        positive_names=("a1", "a2", "a3"),
        negative_names=("b",),
    )


def _iterate(op, phi: Formula, k: int) -> Formula:
    for _ in range(k):
        phi = op(phi)
    return phi


def axiom(prop: FrameProperty) -> Formula:
    """The standard modal axiom whose frame validity defines ``prop``.

    Stated in negation normal form over the single variable p1.
    """
    p = PosLit(1)
    np = NegLit(1)
    if prop.kind == "transfer":
        return Or(_iterate(Box, np, prop.m), _iterate(Dia, p, prop.n))
    if prop.kind == "reflexive-transitive":
        return Or(And(np, Box(Box(np))), Dia(p))
    if prop.kind == "transitive-cwf":
        return Or(Box(np), Dia(And(p, Box(np))))
    if prop.kind == "symmetric":
        return Or(np, Box(Dia(p)))
    raise ValueError(f"no axiom registered for property: {prop}")


# Each builtin name's pattern, what it names and the builder called on its
# numbers.  A number is ASCII digits with no sign and no leading zero, so each
# builtin has one spelling; kN and khatN need a state.
_N, _N1 = "(0|[1-9][0-9]*)", "([1-9][0-9]*)"
_BUILTINS = {
    f"k{_N1}": (Frame, k_complete),
    f"khat{_N1}": (Frame, khat),
    "s4": (WitnessSet, s4_witnesses),
    "symmetry": (WitnessSet, symmetry_witnesses),
    f"lob-{_N}": (WitnessSet, lob_witnesses),
    f"transfer-{_N}-{_N}": (WitnessSet, transfer_witnesses),
}


def _builtin(name: str, kind: type, what: str):
    for pattern, (built, build) in _BUILTINS.items():
        if built is kind and (match := re.fullmatch(pattern, name)):
            return build(*map(int, match.groups()))
    raise ValueError(f"unknown {what}: {name!r}")


def builtin_frame(name: str) -> Frame:
    """The builtin frame ``kN`` (colouring.k_complete) or ``khatN`` (colouring.khat)."""
    return _builtin(name, Frame, "builtin frame")


def builtin_witnesses(name: str) -> WitnessSet:
    """The builtin witness set ``s4``, ``symmetry``, ``lob-D`` or ``transfer-M-N``."""
    return _builtin(name, WitnessSet, "witness set")


def format_witnesses(w: WitnessSet) -> str:
    lines = [f"witnesses {w.name}", f"property {w.prop}"]
    if w.recommended_var_bound != 1:
        lines.append(f"vars {w.recommended_var_bound}")
    lines.append("positive:")
    for nm, fr in w.named_positives():
        lines.append(format_frame(nm, fr).rstrip())
    lines.append("negative:")
    for nm, fr in w.named_negatives():
        lines.append(format_frame(nm, fr).rstrip())
    return "\n".join(lines) + "\n"


def parse_witnesses(text: str) -> WitnessSet:
    name = None
    prop = None
    var_bound = 1
    # the frame rows of each section, with their file line numbers
    sections: dict[str, list] = {"positive:": [], "negative:": []}
    current = None
    for lineno, parts in text_rows(text):
        if len(parts) == 1 and parts[0] in sections:
            current = sections[parts[0]]
            continue
        if current is not None:
            current.append((lineno, parts))
            continue
        if parts[0] == "witnesses" and len(parts) == 2:
            name = parts[1]
        elif parts[0] == "property":
            if len(parts) == 4 and parts[1] == "transfer":
                m, n = _int_field(parts[2], lineno), _int_field(parts[3], lineno)
                try:
                    prop = FrameProperty.transfer(m, n)
                except ValueError as exc:
                    raise ValueError(f"line {lineno}: {exc}") from None
            elif len(parts) == 2 and parts[1] in _PROPERTY_NAMES:
                prop = _PROPERTY_NAMES[parts[1]]
            else:
                raise ValueError(
                    f"line {lineno}: bad property declaration: {' '.join(parts)!r}"
                )
        elif parts[0] == "vars" and len(parts) == 2:
            var_bound = _int_field(parts[1], lineno)
            if var_bound < 0:
                raise ValueError(f"line {lineno}: var bound must be >= 0")
        else:
            raise ValueError(f"line {lineno}: unexpected line: {' '.join(parts)!r}")
    if name is None or prop is None:
        raise ValueError("witness file needs 'witnesses' and 'property' lines")
    end = len(text.splitlines()) + 1
    pos = frames_of_rows(sections["positive:"], end)
    neg = frames_of_rows(sections["negative:"], end)
    return WitnessSet(
        name=name,
        prop=prop,
        positives=tuple(f for _, f in pos),
        negatives=tuple(f for _, f in neg),
        positive_names=tuple(nm for nm, _ in pos),
        negative_names=tuple(nm for nm, _ in neg),
        recommended_var_bound=var_bound,
    )
