"""Finite Kripke structures: frames, models, pointed models, evaluation,
frame validity, bisimulation, and indexed universes of pointed models.

States are dense integer ranges; successor sets and valuation sets are kept
as bit masks so that evaluation and validity checking reduce to bitwise
arithmetic over machine integers.
"""

from __future__ import annotations

import functools
import itertools
from bisect import bisect_right
from collections import abc
from dataclasses import dataclass
from operator import add, lshift, or_
from typing import Iterable, Iterator, NamedTuple, Sequence

from .formula import (
    BASIC,
    GLOBAL,
    And,
    Box,
    Dia,
    ExistsMod,
    FalseConst,
    ForallMod,
    Formula,
    NegLit,
    Or,
    PosLit,
    TrueConst,
    check_language,
    in_language,
    parse_int,
    vars_of,
)

VALIDITY_CAP_BITS = 24
UNIVERSE_CAP = 600_000
# The largest frame a file may declare: no command builds a universe with
# more states, and Frame allocates its successor table before anything else.
MAX_STATES = UNIVERSE_CAP


class ResourceCapError(RuntimeError):
    """A requested computation exceeds the configured resource cap."""


def mask_bits(mask: int) -> Iterator[int]:
    """The positions of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def index_mask(indices: Iterable[int]) -> int:
    """The mask with the bits at indices set, mask_bits' inverse; an index may repeat."""
    out = 0
    for i in indices:
        out |= 1 << i
    return out


@dataclass(init=False, repr=False, unsafe_hash=True, slots=True)
class Frame:
    """A finite directed graph: state_count states, successor bit masks."""

    state_count: int
    succ_masks: tuple[int, ...]

    def __init__(self, state_count: int, edges: Iterable[tuple[int, int]] = ()):
        if state_count < 1:
            raise ValueError("a frame needs at least one state")
        masks = [0] * state_count
        for u, v in edges:
            if not (0 <= u < state_count and 0 <= v < state_count):
                raise ValueError(f"edge ({u},{v}) out of range for {state_count} states")
            masks[u] |= 1 << v
        self.state_count = state_count
        self.succ_masks = tuple(masks)

    def successors_of(self, s: int) -> tuple[int, ...]:
        return tuple(mask_bits(self.succ_masks[s]))

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.succ_masks[u] >> v & 1)

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.state_count):
            for v in self.successors_of(u):
                yield (u, v)

    def __repr__(self):
        return f"Frame({self.state_count}, edges={list(self.edges())})"


@dataclass(init=False, repr=False, slots=True)
class Model:
    """A frame with a valuation; valuation sets are state bit masks.

    Variables absent from the valuation are read as the empty set.
    """

    frame: Frame
    valuation: dict[int, int]

    def __init__(self, frame: Frame, valuation: dict[int, int] | None = None):
        self.frame = frame
        clean = {}
        limit = (1 << frame.state_count) - 1
        for var, mask in sorted((valuation or {}).items()):
            if var < 1:
                raise ValueError("variable indices start at 1")
            if mask & ~limit:
                raise ValueError(f"valuation of p{var} mentions states out of range")
            if mask:
                clean[var] = mask
        self.valuation = clean

    @classmethod
    def from_sets(cls, frame: Frame, sets: dict[int, Iterable[int]]) -> "Model":
        masks = {var: index_mask(states) for var, states in sets.items()}
        return cls(frame, masks)

    def val_mask(self, var: int) -> int:
        return self.valuation.get(var, 0)

    def holds(self, var: int, state: int) -> bool:
        return bool(self.val_mask(var) >> state & 1)

    def __hash__(self):
        return hash((self.frame, frozenset(self.valuation.items())))

    def __repr__(self):
        sets = {f"p{v}": tuple(mask_bits(m)) for v, m in self.valuation.items()}
        return f"Model({self.frame!r}, {sets})"


@dataclass(repr=False, unsafe_hash=True, slots=True)
class PointedModel:
    model: Model
    point: int

    def __post_init__(self):
        if not (0 <= self.point < self.model.frame.state_count):
            raise ValueError(f"point {self.point} out of range")

    def __repr__(self):
        return f"PointedModel({self.model!r}, point={self.point})"


# --- the modal mask kernel --------------------------------------------------
#
# Every modal step, in evaluation, validity, enumeration and the games, is one
# of three operations on a Moves relation.  Its layout is a list of runs: model
# k of a run of models over one frame of width W, from offset off on, holds
# state s at index off + k*W + s, so a move s -> t shifts an index by t - s.
# A relation is one table of its shifts over every run, each operation one
# shift-and-mask per shift, and box and A the duals of diamond and E.


class Moves:
    """One move relation over the runs given as (offset, frame, model count).

    A state moves to its frame successors, or with everywhere to every state
    of its model (the relation of E and A).  ahead pairs each shift d >= 0
    with the mask of the indices i that move to i + d, back each d > 0 with
    the mask of those that move to i - d, and full masks every index.  row
    reads runs: per run (off, W, span, rows), span its index count.
    """

    __slots__ = ("ahead", "back", "full", "runs")

    def __init__(self, runs: Iterable[Sequence], everywhere: bool = False):
        self.runs = []
        self.full = 0
        sources: dict[int, int] = {}
        for off, frame, count in runs:
            w = frame.state_count
            rows = ((1 << w) - 1,) * w if everywhere else frame.succ_masks
            # per shift, the states of one model that move by it (everywhere: O(W) steps, not W*W)
            if everywhere:
                states = {d: (1 << min(w, w - d)) - (1 << max(0, -d)) for d in range(1 - w, w)}
            else:
                states = {}
                for s, row in enumerate(rows):
                    for t in mask_bits(row):
                        states[t - s] = states.get(t - s, 0) | 1 << s
            rep = ((1 << count * w) - 1) // ((1 << w) - 1)  # bit k*W for every model k
            for d, mask in states.items():
                sources[d] = sources.get(d, 0) | (rep * mask) << off
            self.runs.append((off, w, count * w, rows))
            self.full |= ((1 << count * w) - 1) << off
        self.ahead = tuple((d, src) for d, src in sources.items() if d >= 0)
        self.back = tuple((-d, src) for d, src in sources.items() if d < 0)

    def row(self, i: int) -> int:
        """The indices one move away from index i."""
        for off, w, span, rows in self.runs:
            if 0 <= i - off < span:
                k, s = divmod(i - off, w)
                return rows[s] << (off + k * w)
        raise IndexError(f"index {i} outside the layout")


def forward_image(moves: Moves, m: int) -> int:
    """Indices one move away from some index in m: the game's greedy reply."""
    out = 0
    for d, src in moves.ahead:
        out |= (m & src) << d
    for d, src in moves.back:
        out |= (m & src) >> d
    return out


def some_pre_image(moves: Moves, m: int) -> int:
    """Indices with some move into m: the diamond and E."""
    out = 0
    for d, src in moves.ahead:
        out |= m >> d & src
    for d, src in moves.back:
        out |= m << d & src
    return out


def all_pre_image(moves: Moves, m: int) -> int:
    """Indices with every move inside m, vacuously when there is none: box and A."""
    return moves.full ^ some_pre_image(moves, moves.full & ~m)


# The modal connectives as kernel steps: the pre-image each one takes, and
# whether its relation is a layout's successor one or, everywhere, the
# same-model one.  _den and the tree checker read them directly, the
# enumerator and the game through modal_steps.
MODAL_STEPS = {
    Dia: (some_pre_image, False),
    Box: (all_pre_image, False),
    ExistsMod: (some_pre_image, True),
    ForallMod: (all_pre_image, True),
}


def relations(runs: Sequence[tuple[int, Frame, int]]) -> abc.Callable[[bool], Moves]:
    """A layout's relation cache: relation(everywhere) is its Moves, built on first read."""
    return functools.cache(functools.partial(Moves, runs))


def modal_steps(relation: abc.Callable[[bool], Moves], language: str) -> dict[type, tuple]:
    """The language's MODAL_STEPS in order, each with relation(everywhere), the Moves it reads."""
    steps = ((node, step) for node, step in MODAL_STEPS.items() if in_language(node, language))
    return {node: (pre_image, relation(everywhere)) for node, (pre_image, everywhere) in steps}


# --- evaluation -------------------------------------------------------------


def _den(phi: Formula, lit, full: int, relation: abc.Callable[[bool], Moves]) -> int:
    """Mask of the indices of a run layout where phi holds.

    lit(var) is the mask where p{var} holds, full the mask of every index
    and relation the layout's relation cache.
    """
    kind = type(phi)
    step = MODAL_STEPS.get(kind)
    if step is not None:
        pre_image, everywhere = step
        return pre_image(relation(everywhere), _den(phi.child, lit, full, relation))
    if kind is Or:
        return _den(phi.left, lit, full, relation) | _den(phi.right, lit, full, relation)
    if kind is And:
        return _den(phi.left, lit, full, relation) & _den(phi.right, lit, full, relation)
    if kind is PosLit:
        return lit(phi.var)
    if kind is NegLit:
        return lit(phi.var) ^ full
    if kind is TrueConst:
        return full
    if kind is FalseConst:
        return 0
    raise TypeError(f"not a formula: {phi!r}")


def den_states(m: Model, phi: Formula) -> int:
    """Bit mask of the model states where phi holds."""
    return Universe((m,)).den(phi)


def eval_formula(m: Model, w: int, phi: Formula) -> bool:
    if not (0 <= w < m.frame.state_count):
        raise ValueError(f"state {w} out of range")
    return bool(den_states(m, phi) >> w & 1)


# --- frame validity ---------------------------------------------------------
#
# Validity quantifies over every valuation of the occurring variables.  All
# 2^(W*v) valuations are packed into one run of models: position c*W + s
# stands for "state s under valuation code c", where bit k*W + s of the code
# c says that variable slot k holds at state s.  One evaluation per chunk of
# codes then checks all valuations at once.

_CHUNK_CODE_BITS = 14


def _coded_model(frame: Frame, var_bound: int, code: int) -> Model:
    """The model whose valuation code has bit k*W+s set iff p(k+1) holds at s."""
    w = frame.state_count
    return Model(frame, {k + 1: code >> (k * w) & ((1 << w) - 1) for k in range(var_bound)})


def _coded_masks(w: int, var_bound: int, block: int) -> Iterator[list[int]]:
    """Per aligned block of valuation codes, in code order, each slot's mask over its models.

    A block is `block` consecutive codes from a multiple of block, a power of
    two no larger than 2^(W*var_bound), laid out as a run of _coded_model's
    models: bit i*W+s of slot k's mask is set iff p(k+1) holds at state s of
    the block's model i.
    """
    masks = [0] * var_bound
    rep = 1
    # doubling: after round j the masks hold the block's first 2^(j+1)
    # codes, and rep has bit i*W set for each of them
    for j in range(block.bit_length() - 1):
        shift = (1 << j) * w
        masks = [mask | mask << shift for mask in masks]
        k, s = divmod(j, w)
        masks[k] |= rep << (shift + s)
        rep |= rep << shift
    state = (1 << w) - 1
    for c0 in range(0, 1 << (w * var_bound), block):
        # a code bit above the block's own ones is constant across the block
        yield [mask | rep * (c0 >> (k * w) & state) for k, mask in enumerate(masks)]


def frame_valid(frame: Frame, phi: Formula, cap_bits: int = VALIDITY_CAP_BITS) -> bool:
    """True iff phi holds at every state under every valuation of vars(phi)."""
    w = frame.state_count
    var_order = sorted(vars_of(phi))
    v = len(var_order)
    if w * v > cap_bits:
        raise ResourceCapError(
            f"validity space needs {w * v} bits, cap is {cap_bits}"
        )
    chunk_codes = 1 << min(w * v, _CHUNK_CODE_BITS)
    full = (1 << (chunk_codes * w)) - 1
    relation = relations([(0, frame, chunk_codes)])
    for masks in _coded_masks(w, v, chunk_codes):
        atoms = dict(zip(var_order, masks))
        if _den(phi, atoms.__getitem__, full, relation) != full:
            return False
    return True


# --- bisimulation -----------------------------------------------------------

_BIT_VALUES = bytes.maketrans(b"01", b"\0\1")


def _rank_order(frame: Frame) -> tuple[list[int], list[int]]:
    """The frame's well-founded states, successors first, and the states that reach a cycle.

    Kahn's algorithm on the reversed relation: a state joins the order once
    all its successors have, so a state on or above a cycle never does.
    """
    w = frame.state_count
    preds: list[list[int]] = [[] for _ in range(w)]
    waiting = [0] * w
    for u, v in frame.edges():
        preds[v].append(u)
        waiting[u] += 1
    order = [s for s in range(w) if not waiting[s]]
    for t in order:  # the order grows while it is walked
        for u in preds[t]:
            waiting[u] -= 1
            if not waiting[u]:
                order.append(u)
    return order, [s for s in range(w) if waiting[s]]


def _colour_sets(columns: list[list[int]]) -> Iterator[frozenset]:
    """Per model, the colours the columns hold there; empty sets when there is no column."""
    return map(frozenset, zip(*columns)) if columns else itertools.repeat(frozenset())


def _refine(atoms: Sequence[int], runs: Sequence[tuple[int, Frame, int]], language: str) -> list[int]:
    """The coarsest bisimulation colouring of the language that refines the atom colours.

    Colours form one flat table over the runs of Moves, (offset, frame, model
    count) triples, which lie end to end from index 0.  Bit i of atoms[j] says
    that variable j holds at index i, and bit j of an index's atom code
    repeats it.  State s's colours across a run of width W are the column
    colours[off+s:end:W], and zipping its successors' columns gives one
    successor colour set per model.

    Refinement goes in rank order (Dovier, Piazza and Policriti, TCS 311,
    2004).  A well-founded state, one from which no cycle can be reached,
    has a class fixed by its atom code and its successors' final classes,
    so each of its columns is coloured once, successors first.  The other
    states reach a cycle, so they have an infinite path and are bisimilar to
    no well-founded state; they start from one colour per atom code and
    refine together, across all runs, round by round with their
    well-founded successors' colours fixed, until a round splits no class.
    Every id comes from one counter, so the two kinds never share one.

    In the global language a last pass pairs each basic colour with the set
    of basic colours its model realizes: two finite models have a
    bisimulation total on both iff they realize the same basic classes, so
    two states then share a colour iff a bisimulation total on both their
    models relates them.

    Colour ids are sparse, since every index uses up one counter value, and
    are only compared for equality; a caller that uses them as bit
    positions must renumber them densely first.
    """
    size = sum(count * frame.state_count for _, frame, count in runs)
    colours = [0] * size
    for mask in reversed(atoms):
        # mask_bits would be quadratic here: one byte 0 or 1 per index instead
        bits = format(mask, f"0{size}b")[::-1].encode().translate(_BIT_VALUES)
        colours = list(map(add, map(add, colours, colours), bits))
    ids = itertools.count()
    settled: dict[tuple, int] = {}
    fresh: dict[int, int] = {}
    # (off, end, frame, states that reach a cycle) per run that has some
    looping: list[tuple[int, int, Frame, list[int]]] = []
    for off, frame, count in runs:
        w = frame.state_count
        end = off + count * w
        order, cyclic = _rank_order(frame)
        for s in order:
            succs = _colour_sets([colours[off + t:end:w] for t in frame.successors_of(s)])
            colours[off + s:end:w] = map(settled.setdefault, zip(colours[off + s:end:w], succs), ids)
        for s in cyclic:
            colours[off + s:end:w] = map(fresh.setdefault, colours[off + s:end:w], ids)
        if cyclic:
            looping.append((off, end, frame, cyclic))
    classes = len(fresh)
    while looping:
        intern: dict[tuple, int] = {}
        for off, end, frame, cyclic in looping:
            w = frame.state_count
            columns = [colours[off + s:end:w] for s in range(w)]
            for s in cyclic:
                succs = _colour_sets([columns[t] for t in frame.successors_of(s)])
                colours[off + s:end:w] = map(intern.setdefault, zip(columns[s], succs), ids)
        # only these states can still split, and each signature holds the
        # state's own colour, so an unchanged count means a stable partition
        if len(intern) == classes:
            break
        classes = len(intern)

    if language == GLOBAL:
        intern = {}
        for off, frame, count in runs:
            w = frame.state_count
            end = off + count * w
            columns = [colours[off + s:end:w] for s in range(w)]
            realized = list(_colour_sets(columns))
            for s in range(w):
                colours[off + s:end:w] = map(intern.setdefault, zip(columns[s], realized), ids)
    return colours


def bisimilar(a: PointedModel, b: PointedModel, language: str = BASIC) -> bool:
    """Bisimilarity of two pointed models in the basic or the global language."""
    check_language(language)
    colours = Universe((a.model, b.model)).colours(language)
    return colours[a.point] == colours[a.model.frame.state_count + b.point]


# --- universes --------------------------------------------------------------


class _PointedModels(abc.Sequence):
    """The pointed model at every index of a universe, built when it is read."""

    __slots__ = ("_placed", "_offsets", "_size")

    def __init__(self, placed: Sequence[tuple[int, Model]], size: int):
        self._placed = placed
        self._offsets = [off for off, _ in placed]
        self._size = size

    def __len__(self):
        return self._size

    def __getitem__(self, i: int) -> PointedModel:
        if i < 0:
            i += self._size
        if not 0 <= i < self._size:
            raise IndexError("universe index out of range")
        off, model = self._placed[bisect_right(self._offsets, i) - 1]
        return PointedModel(model, i - off)

    def __iter__(self) -> Iterator[PointedModel]:
        for _, model in self._placed:
            for s in range(model.frame.state_count):
                yield PointedModel(model, s)


class Universe:
    """The pointed models of whole models, indexed state by state.

    Model k holds its states in point order from the sum of the earlier
    models' state counts, and consecutive models over one frame form the
    runs of the kernel's layout.  Equal models at two positions are two
    models.  placed pairs each model with its first index; models is a
    read-only sequence of the pointed model at every index, each built
    when it is read; runs lists the layout's runs as (offset, frame,
    model count), and relation is their relation cache, so both languages
    share one Moves per relation, built when a modal step first reads it.
    """

    __slots__ = ("placed", "models", "runs", "relation")

    def __init__(self, models: Sequence[Model]):
        placed: list[tuple[int, Model]] = []
        # [offset, frame, model count] per run of models over one frame
        runs: list[list] = []
        size = 0
        for model in models:
            placed.append((size, model))
            if runs and runs[-1][1] == model.frame:
                runs[-1][2] += 1
            else:
                runs.append([size, model.frame, 1])
            size += model.frame.state_count
        self.placed = tuple(placed)
        self.models = _PointedModels(self.placed, size)
        self.runs = tuple(map(tuple, runs))
        self.relation = relations(self.runs)

    def __len__(self):
        return len(self.models)

    @property
    def variables(self) -> list[int]:
        """The variables some model's valuation mentions, ascending."""
        return sorted({var for _, model in self.placed for var in model.valuation})

    def mask(self, indices: Iterable[int]) -> int:
        """The index mask of indices; an index outside the universe raises ValueError."""
        size = len(self)
        out = 0
        for i in indices:
            if not 0 <= i < size:
                raise ValueError(f"index {i} outside the {size}-element universe")
            out |= 1 << i
        return out

    def lit_mask(self, var: int) -> int:
        """Bit i set iff p{var} holds at pointed model i."""
        return sum(model.val_mask(var) << off for off, model in self.placed)

    def steps(self, language: str) -> dict[type, tuple]:
        """modal_steps over this universe's relations."""
        return modal_steps(self.relation, language)

    def den(self, phi: Formula) -> int:
        """Denotation bit mask: bit i set iff phi holds at pointed model i."""
        return _den(phi, self.lit_mask, (1 << len(self)) - 1, self.relation)

    def colours(self, language: str) -> list[int]:
        """_refine's colour of every index: two share one iff they are bisimilar in the language."""
        return _refine(list(map(self.lit_mask, self.variables)), self.runs, language)


def _coded_count(frame: Frame, var_bound: int, used: int) -> int:
    """2^(W*v), the frame's valuation codes; their points and used others must fit UNIVERSE_CAP."""
    if var_bound < 0:
        raise ValueError("var bound must be >= 0")
    cap = UNIVERSE_CAP
    bits = frame.state_count * var_bound
    # the first test keeps a huge var bound from building a huge integer
    if bits >= cap.bit_length() or used + (frame.state_count << bits) > cap:
        raise ResourceCapError(f"universe would exceed {cap} pointed models")
    return 1 << bits


def build_universe(seeds: Iterable[PointedModel | tuple[Frame, int]]) -> Universe:
    """Builds a Universe from pointed models and/or (frame, var_bound) pairs.

    Pointed seeds must list whole models, each model's states in point
    order.  A (frame, v) seed expands to all valuations of p1..pv, in
    ascending valuation codes as in _coded_model, times all points.  More
    than UNIVERSE_CAP pointed models raise ResourceCapError.
    """
    cap = UNIVERSE_CAP
    models: list[Model] = []
    size = 0
    # the points of the model the pointed seeds are listing, 0 between models
    listed = 0
    partial = "pointed seeds must list whole models, states in point order"
    for seed in seeds:
        if isinstance(seed, PointedModel):
            if seed.point != listed or (listed and seed.model != models[-1]):
                raise ValueError(partial)
            if not listed:
                models.append(seed.model)
            listed = (listed + 1) % seed.model.frame.state_count
            size += 1
        else:
            if listed:
                raise ValueError(partial)
            frame, var_bound = seed
            count = _coded_count(frame, var_bound, size)
            models.extend(_coded_model(frame, var_bound, code) for code in range(count))
            size += count * frame.state_count
        if size > cap:
            raise ResourceCapError(f"universe would exceed {cap} pointed models")
    if listed:
        raise ValueError(partial)
    return Universe(models)


# --- reduced expansions -----------------------------------------------------
#
# Validity over a frame quantifies over all valuations and points, but
# bisimilar pointed models agree on every formula of the matching language.
# A reduced expansion therefore keeps only enough models to represent every
# bisimulation class of every frame's full expansion, and remembers which
# universe indices stand for each frame's classes.  Read-offs over the
# representatives coincide with read-offs over the full expansion.


class ReducedExpansion(NamedTuple):
    universe: Universe
    class_reps: dict[str, tuple[int, ...]]


def _greedy_cover(covers: Sequence[int]) -> list[int]:
    """Indices of covers, element bit masks, picked greedily until their union is covered.

    Each pick covers the most elements not yet covered, the lowest index on
    ties.  Gains only fall, so sweeping a gain from the largest cover size
    down to 1 and picking, in index order, each cover whose gain equals it
    makes exactly those picks: every cover left from the sweeps before
    gains at most the sweep's gain, and a lower index passed in this sweep
    gains less.  A repeated cover never gains after its first index.
    """
    # the first index of each distinct cover, ascending
    live = sorted(dict(zip(reversed(covers), reversed(range(len(covers))))).values())
    missing = functools.reduce(or_, covers, 0)
    picks: list[int] = []
    for gain in range(max(map(int.bit_count, covers), default=0), 0, -1):
        kept = []
        for i in live:
            new = covers[i] & missing
            if not new:
                continue
            if new.bit_count() == gain:
                picks.append(i)
                missing ^= new
            else:
                kept.append(i)
        live = kept
    return picks


def expand_reduced(
    named_frames: Sequence[tuple[str, Frame]],
    var_bound: int,
    language: str = BASIC,
) -> ReducedExpansion:
    """Expands every frame over var_bound variables and quotients by bisimilarity.

    Returns a universe of whole representative models plus, per frame name,
    the universe indices representing that frame's pointed-model classes.
    The classes are those of _refine in the chosen language, so global
    classes also split points whose models realize different class sets.
    A greedy cover keeps few models that together realize every class: the
    classes are renumbered densely, and each model's cover is the int mask
    of the classes it realizes.
    Read-offs of formulas of the chosen language over the representatives
    coincide with read-offs over the full expansion.
    """
    check_language(language)
    names = [name for name, _ in named_frames]
    if len(set(names)) != len(names):
        raise ValueError("frame names must be unique")

    # one run per frame, one model per valuation code: model k of a run has
    # code k and holds state s at off + k*W + s
    runs: list[tuple[int, Frame, int]] = []
    # per run, each variable slot's mask moved to the run's offset
    shifted: list[list[int]] = []
    size = 0
    for _, frame in named_frames:
        count = _coded_count(frame, var_bound, size)
        runs.append((size, frame, count))
        masks = next(_coded_masks(frame.state_count, var_bound, count))
        shifted.append([mask << size for mask in masks])
        size += count * frame.state_count
    sparse = _refine([sum(slot) for slot in zip(*shifted)], runs, language)
    # class numbers in first-seen order, dense so that they can be bit positions
    colours = list(map(dict(zip(dict.fromkeys(sparse), itertools.count())).__getitem__, sparse))

    # the cover picks whole models, numbered run by run in code order; a
    # model's cover has one bit per class it realizes
    covers: list[int] = []
    firsts = [0]  # the number of each run's first model
    for off, frame, count in runs:
        w = frame.state_count
        end = off + count * w
        run_covers: Iterable[int] = itertools.repeat(0, count)
        for s in range(w):
            run_covers = map(or_, run_covers, map(lshift, itertools.repeat(1), colours[off + s:end:w]))
        covers.extend(run_covers)
        firsts.append(len(covers))

    # materialize kept models and the class -> universe index map
    kept: list[Model] = []
    kept_colours: list[int] = []
    for idx in sorted(_greedy_cover(covers)):
        r = bisect_right(firsts, idx) - 1
        off, frame, _ = runs[r]
        code = idx - firsts[r]
        start = off + code * frame.state_count
        kept_colours += colours[start:start + frame.state_count]
        kept.append(_coded_model(frame, var_bound, code))
    # the first index of each class wins
    class_index = dict(zip(reversed(kept_colours), reversed(range(len(kept_colours)))))

    class_reps = {
        name: tuple(sorted(map(class_index.__getitem__, set(colours[off:off + count * frame.state_count]))))
        for name, (off, frame, count) in zip(names, runs)
    }
    return ReducedExpansion(Universe(kept), class_reps)


# --- file formats -----------------------------------------------------------


def format_frame(name: str, frame: Frame) -> str:
    lines = [f"frame {name}", f"states {frame.state_count}"]
    lines.extend(f"edge {u} {v}" for u, v in frame.edges())
    return "\n".join(lines) + "\n"


def _int_field(text: str, lineno: int) -> int:
    try:
        return parse_int(text)
    except ValueError:
        raise ValueError(f"line {lineno}: expected an integer, got {text!r}") from None


def text_rows(text: str) -> Iterator[tuple[int, list[str]]]:
    """(line number, fields) for each line of text with fields outside `#` comments."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split("#", 1)[0].split()
        if fields:
            yield lineno, fields


def parse_frames(text: str) -> list[tuple[str, Frame]]:
    """Parses one or more frame blocks: `frame <name>` / `states <N>` / `edge <u> <v>`.

    Blank lines and `#` comments are skipped; duplicate edges are ignored.
    """
    return frames_of_rows(text_rows(text), len(text.splitlines()) + 1)


def frames_of_rows(rows: Iterable[tuple[int, list[str]]], end: int) -> list[tuple[str, Frame]]:
    """The frame blocks of text_rows output; end is the line number of the end of input."""
    out: list[tuple[str, Frame]] = []
    name: str | None = None
    count: int | None = None
    edges: list[tuple[int, int]] = []

    def flush(lineno: int):
        nonlocal name, count, edges
        if name is None:
            return
        if count is None:
            raise ValueError(f"line {lineno}: frame {name!r} has no states line")
        out.append((name, Frame(count, edges)))
        name, count, edges = None, None, []

    for lineno, parts in rows:
        if parts[0] == "frame":
            if len(parts) != 2:
                raise ValueError(f"line {lineno}: expected 'frame <name>'")
            flush(lineno)
            name = parts[1]
        elif parts[0] == "states":
            if name is None:
                raise ValueError(f"line {lineno}: 'states' before any 'frame'")
            if count is not None:
                raise ValueError(f"line {lineno}: duplicate 'states' line")
            if len(parts) != 2:
                raise ValueError(f"line {lineno}: expected 'states <N>'")
            count = _int_field(parts[1], lineno)
            if count < 1:
                raise ValueError(f"line {lineno}: a frame needs at least one state")
            if count > MAX_STATES:
                raise ValueError(f"line {lineno}: a frame may have at most {MAX_STATES} states")
        elif parts[0] == "edge":
            if count is None:
                raise ValueError(f"line {lineno}: 'edge' before 'states'")
            if len(parts) != 3:
                raise ValueError(f"line {lineno}: expected 'edge <u> <v>'")
            u, v = _int_field(parts[1], lineno), _int_field(parts[2], lineno)
            if not (0 <= u < count and 0 <= v < count):
                raise ValueError(f"line {lineno}: edge ({u},{v}) out of range")
            edges.append((u, v))
        else:
            raise ValueError(f"line {lineno}: unknown directive {parts[0]!r}")
    flush(end)
    if not out:
        raise ValueError("no frames found")
    return out


def parse_model(text: str) -> tuple[str, Model, int | None]:
    """Parses a single model file: a frame block plus `val pK <states...>` and
    an optional `point <w>` line."""
    frame_rows = []
    val_lines = []
    point: int | None = None
    for lineno, parts in text_rows(text):
        if parts[0] not in ("val", "point"):
            frame_rows.append((lineno, parts))
        elif parts[0] == "val":
            if len(parts) < 2 or not parts[1].startswith("p"):
                raise ValueError(f"line {lineno}: expected 'val pK <states...>'")
            var = _int_field(parts[1][1:], lineno)
            if var < 1:
                raise ValueError(f"line {lineno}: variable indices start at 1")
            states = [_int_field(x, lineno) for x in parts[2:]]
            val_lines.append((lineno, var, states))
        else:
            if point is not None:
                raise ValueError(f"line {lineno}: duplicate 'point' line")
            if len(parts) != 2:
                raise ValueError(f"line {lineno}: expected 'point <w>'")
            point, point_line = _int_field(parts[1], lineno), lineno
    frames = frames_of_rows(frame_rows, len(text.splitlines()) + 1)
    if len(frames) != 1:
        raise ValueError("model files contain exactly one frame")
    name, frame = frames[0]
    sets: dict[int, list[int]] = {}
    for lineno, var, states in val_lines:
        for s in states:
            if not (0 <= s < frame.state_count):
                raise ValueError(f"line {lineno}: state {s} out of range")
        sets.setdefault(var, []).extend(states)
    model = Model.from_sets(frame, sets)
    if point is not None and not (0 <= point < frame.state_count):
        raise ValueError(f"line {point_line}: point {point} out of range")
    return name, model, point
