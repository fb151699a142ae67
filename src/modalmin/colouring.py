"""Graph colouring expressed as frame validity.

A directed graph is n-colourable when its states can be partitioned into n
classes with no edge inside a class (a self-loop therefore rules every
colouring out).  Encoding colours as truth value combinations of
ceil(log2 n) variables turns non-colourability into validity of a single
formula with the global modality, and the associated games yield matching
lower bounds.
"""

from __future__ import annotations

from .formula import (
    MAX_NESTING,
    Formula,
    TRUE,
    Or,
    And,
    Dia,
    PosLit,
    NegLit,
    ExistsMod,
)
from .kripke import Frame, Model, PointedModel, Universe, frame_valid, index_mask, mask_bits

__all__ = [
    "colour_code_width",
    "elementary_conjunction",
    "phi_n",
    "k_complete",
    "khat",
    "colour_assignment",
    "is_n_colourable",
    "noncol_equivalence",
    "standard_colour_model",
    "noncol_game_setup",
]


def colour_code_width(n: int) -> int:
    """Variables needed to give n colours distinct truth value codes."""
    if n < 1:
        raise ValueError("need at least one colour")
    return (n - 1).bit_length()


def elementary_conjunction(code: int, width: int) -> Formula:
    """The conjunction of literals over p1..p{width} matching ``code``.

    Bit b of the code decides the sign of p{b+1}; the conjunction is
    right-associated.  Width must be positive.
    """
    if width < 1:
        raise ValueError("elementary conjunction needs at least one variable")
    lits = [
        PosLit(b + 1) if code >> b & 1 else NegLit(b + 1)
        for b in range(width)
    ]
    out = lits[-1]
    for lit in reversed(lits[:-1]):
        out = And(lit, out)
    return out


def phi_n(n: int) -> Formula:
    """A formula valid on exactly the frames that are not n-colourable.

    Reading each state's truth values for p1..pk (k = ceil(log2 n)) as a
    colour code, the formula says some state either carries one of the
    2^k - n unused codes or repeats its code on a successor.  For n = 1 it
    degenerates to "some state has a successor".  The formula nests at most
    2^k + k + 1 connectives deep; an n whose bound exceeds MAX_NESTING
    raises ValueError, since the printed formula would not parse back.
    """
    if n == 1:
        return ExistsMod(Dia(TRUE))
    width = colour_code_width(n)
    if (1 << width) + width + 1 > MAX_NESTING:
        raise ValueError(f"phi_n for n = {n} nests deeper than {MAX_NESTING}")
    terms = []
    for code in range(n):
        conj = elementary_conjunction(code, width)
        terms.append(And(conj, Dia(conj)))
    for code in range(n, 1 << width):
        terms.append(elementary_conjunction(code, width))
    out = terms[-1]
    for term in reversed(terms[:-1]):
        out = Or(term, out)
    return ExistsMod(out)


def k_complete(n: int) -> Frame:
    """The complete loopless digraph on n states."""
    if n < 1:
        raise ValueError("need at least one state")
    return Frame(
        n, [(u, v) for u in range(n) for v in range(n) if u != v]
    )


def khat(n: int) -> Frame:
    """Two disjoint copies of the complete graph, one with a reflexive state.

    States 0..n-1 form a plain copy, states n..2n-1 a second copy whose
    state n (the image of 0) carries a self-loop.  The copies are not
    connected to each other.
    """
    if n < 1:
        raise ValueError("need at least one state")
    edges = [(u, v) for u in range(n) for v in range(n) if u != v]
    edges += [(n + u, n + v) for u in range(n) for v in range(n) if u != v]
    edges.append((n, n))
    return Frame(2 * n, edges)


def colour_assignment(frame: Frame, n: int) -> tuple[int, ...] | None:
    """A proper n-colouring of the frame's states, or None.

    Edge direction is ignored: an edge in either direction forces distinct
    colours, and a self-loop makes every colouring improper.
    """
    if n < 1:
        raise ValueError("need at least one colour")
    count = frame.state_count
    adj = [0] * count
    for u, v in frame.edges():
        if u == v:
            return None
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    colours = [-1] * count
    # highest[s] is the largest colour among states 0..s-1
    highest = [-1] * (count + 1)
    # depth-first over the states in order, as a loop: a frame may have far
    # more states than Python allows nested calls
    s = 0
    while 0 <= s < count:
        used = {colours[t] for t in mask_bits(adj[s]) if colours[t] >= 0}
        # Trying at most one previously unused colour suffices: unused
        # colours are interchangeable.
        top = min(highest[s] + 2, n)
        c = next((c for c in range(colours[s] + 1, top) if c not in used), None)
        if c is None:
            colours[s] = -1
            s -= 1
        else:
            colours[s] = c
            highest[s + 1] = max(highest[s], c)
            s += 1
    if s < 0:
        return None
    return tuple(colours)


def is_n_colourable(frame: Frame, n: int) -> bool:
    return colour_assignment(frame, n) is not None


def noncol_equivalence(frame: Frame, n: int) -> bool:
    """Whether the two routes to n-non-colourability agree on the frame.

    Route one decides validity of phi_n over all valuations; route two
    searches for a colouring directly.  Both are computed in full; the
    return value reports their agreement.
    """
    via_validity = frame_valid(frame, phi_n(n))
    via_search = not is_n_colourable(frame, n)
    return via_validity == via_search


def standard_colour_model(n: int) -> PointedModel:
    """The complete graph with each state carrying its own index as code.

    State w satisfies p{b+1} exactly when bit b of w is set, so the n
    states get pairwise distinct colour codes; the point is state 0.
    """
    width = colour_code_width(n)
    frame = k_complete(n)
    valuation = {}
    for b in range(width):
        valuation[b + 1] = index_mask(w for w in range(n) if w >> b & 1)
    return PointedModel(Model(frame, valuation), 0)


def noncol_game_setup(n: int) -> tuple[Universe, tuple[int, ...], tuple[int, ...]]:
    """The game position whose value bounds separating formulas for phi_n.

    The right side is ``standard_colour_model(n)``: the complete graph with
    pairwise distinct state codes.
    The left side holds one pointed model per state w: the doubled graph
    ``khat(n)`` carrying the right valuation composed with the
    transposition of 0 and w, pointed so that its code matches the right
    point's code.  Returns the universe of these n + 1 whole models, the
    doubled ones first, plus the left and right index tuples.
    """
    if n < 1:
        raise ValueError("need at least one colour")
    right = standard_colour_model(n)
    model, point = right.model, right.point
    doubled = khat(n)
    models: list[Model] = []
    points: list[int] = []
    for w in range(n):
        swap = {0: w, w: 0}
        valuation = {}
        for var, mask in model.valuation.items():
            out = 0
            for u in range(n):
                if mask >> swap.get(u, u) & 1:
                    out |= 1 << u | 1 << (n + u)
            valuation[var] = out
        points.append(swap.get(point, point))
        models.append(Model(doubled, valuation))
    universe = Universe(models + [model])
    left = tuple(off + p for (off, _), p in zip(universe.placed, points))
    return universe, left, (universe.placed[n][0] + point,)
