"""Formula-complexity games on pointed models and on frames.

One player grows a formula syntax tree move by move; the other answers every
modal move greedily by keeping all available successor (or same-model)
pointed models.  A finished tree whose leaves legally close reads off a
formula separating the root position, and the cheapest closed tree equals
the cheapest separating formula, which is what the search procedures here
compute.  Positions are pairs of index sets over a fixed Universe of whole
models, held as int index masks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .formula import (
    BASIC,
    GLOBAL,
    And,
    Box,
    Dia,
    ExistsMod,
    ForallMod,
    FalseConst,
    Formula,
    MeasureKind,
    NegLit,
    Or,
    PosLit,
    TrueConst,
    check_language,
    check_query,
    compose,
    cost_key,
    field,
    in_language,
    no_worse,
)
from .gallery import WitnessSet, reduced_witnesses
from .kripke import (
    MODAL_STEPS,
    PointedModel,
    ResourceCapError,
    Universe,
    forward_image,
    index_mask,
    mask_bits,
    some_pre_image,
)

__all__ = [
    "POSITION_CAP",
    "MOVES",
    "GamePosition",
    "GameTree",
    "psi_of_tree",
    "node_count",
    "closed_tree_violations",
    "verify_closed_tree",
    "check_weight",
    "special_pair_weight",
    "min_cost_fgm",
    "fgf_min_cost",
]

POSITION_CAP = 200_000

MOVES = ("bot", "top", "lit", "or", "and", "dia", "box", "exists", "forall")

# every move but lit builds one connective, whose fields are its children
_NODE_OF_MOVE = {
    "bot": FalseConst, "top": TrueConst, "or": Or, "and": And,
    "dia": Dia, "box": Box, "exists": ExistsMod, "forall": ForallMod,
}
_MOVE_OF_NODE = {node: move for move, node in _NODE_OF_MOVE.items()}
_ARITY = {"lit": 0, **{move: len(node._fields) for move, node in _NODE_OF_MOVE.items()}}


@dataclass(init=False, repr=False, slots=True)
class GamePosition:
    """A pair of index sets over a shared universe of pointed models.

    The left set holds the pointed models the eventual formula must satisfy,
    the right set those it must refute.  Both are given as indices and kept
    as int index masks; Universe.mask rejects an index outside the universe.
    Equal positions share one Universe object, which compares by identity.
    """

    universe: Universe
    left: int
    right: int

    def __init__(self, universe: Universe, left, right):
        self.universe = universe
        self.left = universe.mask(left)
        self.right = universe.mask(right)

    def __repr__(self):
        return f"GamePosition(left={[*mask_bits(self.left)]}, right={[*mask_bits(self.right)]})"


class GameTree:
    """A node of a (closed) game tree; compared by identity."""

    __slots__ = ("move", "position", "children", "var", "positive")

    def __init__(self, move, position, children=(), var=None, positive=None):
        if move not in MOVES:
            raise ValueError(f"unknown move: {move!r}")
        self.move = move
        self.position = position
        self.children = tuple(children)
        self.var = var
        self.positive = positive

    def walk(self):
        yield self
        for c in self.children:
            yield from c.walk()

    def __repr__(self):
        return f"GameTree({self.move!r}, children={len(self.children)})"


def psi_of_tree(t: GameTree) -> Formula:
    """The formula whose syntax tree the closed game tree spells out."""
    if len(t.children) != _ARITY[t.move]:
        raise ValueError(
            f"{t.move} node with {len(t.children)} children is not closed"
        )
    if t.move == "lit":
        if t.var is None or t.positive is None:
            raise ValueError("literal leaf without a literal")
        return PosLit(t.var) if t.positive else NegLit(t.var)
    return _NODE_OF_MOVE[t.move](*map(psi_of_tree, t.children))


def node_count(t: GameTree) -> int:
    return 1 + sum(node_count(c) for c in t.children)


# --- legality ---------------------------------------------------------------


def _is_exact_image(options: list[int], image: int) -> bool:
    """Whether some choice of one bit per option mask has exactly this image.

    Needs every slot to intersect the image and an injective assignment of a
    distinct slot to every image element, found by iterative augmenting
    paths so large images stay within the recursion limit.
    """
    if not all(image & o for o in options):
        return False
    elems = list(mask_bits(image))
    if len(elems) > len(options):
        return False
    slots_for: dict[int, list[int]] = {x: [] for x in elems}
    for s, o in enumerate(options):
        for x in mask_bits(o & image):
            slots_for[x].append(s)
    owner: dict[int, int] = {}

    def augment(x: int) -> bool:
        visited: set[int] = set()
        stack = [(x, iter(slots_for[x]), None)]
        while stack:
            elem, it, _ = stack[-1]
            moved = False
            for s in it:
                if s in visited:
                    continue
                visited.add(s)
                if s not in owner:
                    while stack:
                        elem, _, via = stack.pop()
                        owner[s] = elem
                        s = via
                    return True
                stack.append((owner[s], iter(slots_for[owner[s]]), s))
                moved = True
                break
            if not moved:
                stack.pop()
        return False

    return all(augment(x) for x in elems)


def closed_tree_violations(t: GameTree, language: str = GLOBAL) -> list[str]:
    """Diagnostics for every way the tree fails to be a legal closed tree.

    Each entry is "path: message" with the path a dot-joined child index
    sequence from the root.  Split moves accept any cover of the parent set,
    matching the move definition; the search itself only emits partitions.
    """
    check_language(language)
    out: list[str] = []
    # every child must share its parent's universe, so the root's serves all
    u = t.position.universe

    def visit(node: GameTree, path: str) -> None:
        left, right = node.position.left, node.position.right
        if len(node.children) != _ARITY[node.move]:
            out.append(
                f"{path}: {node.move} node has {len(node.children)} children"
            )
            return
        for k, c in enumerate(node.children):
            if c.position.universe is not u:
                out.append(f"{path}.{k}: child position over a different universe")
                return
        if node.move != "lit" and not in_language(_NODE_OF_MOVE[node.move], language):
            out.append(f"{path}: {node.move} move outside the basic language")

        if node.move == "bot":
            if left:
                out.append(f"{path}: bot move with non-empty left set")
        elif node.move == "top":
            if right:
                out.append(f"{path}: top move with non-empty right set")
        elif node.move == "lit":
            if node.var is None or node.positive is None:
                out.append(f"{path}: literal leaf without a literal")
            else:
                # where the literal holds; a negative int ands exactly with a mask
                holds = u.lit_mask(node.var)
                if not node.positive:
                    holds = ~holds
                for i in mask_bits(left & ~holds):
                    out.append(f"{path}: left index {i} refutes the literal")
                for i in mask_bits(right & holds):
                    out.append(f"{path}: right index {i} satisfies the literal")
        elif node.move == "or":
            a, b = node.children
            if a.position.right != right or b.position.right != right:
                out.append(f"{path}: or move must keep the right set")
            if a.position.left | b.position.left != left:
                out.append(f"{path}: or children do not cover the left set")
        elif node.move == "and":
            a, b = node.children
            if a.position.left != left or b.position.left != left:
                out.append(f"{path}: and move must keep the left set")
            if a.position.right | b.position.right != right:
                out.append(f"{path}: and children do not cover the right set")
        else:
            # a move whose step is some_pre_image: left picks a target per
            # left index, the reply keeps every right target; an
            # all_pre_image step swaps the two sides.
            child = node.children[0].position
            pre_image, everywhere = MODAL_STEPS[_NODE_OF_MOVE[node.move]]
            moves = u.relation(everywhere)
            sides = (("left", left, child.left), ("right", right, child.right))
            if pre_image is not some_pre_image:
                sides = sides[::-1]
            (chooser, chosen, image), (replier, replied, reply) = sides
            options = [moves.row(i) for i in mask_bits(chosen)]
            if 0 in options:
                out.append(f"{path}: {node.move} move with a successor-less {chooser} index")
            if reply != forward_image(moves, replied):
                out.append(f"{path}: child {replier} set is not the greedy reply")
            if not _is_exact_image(options, image):
                out.append(f"{path}: child {chooser} set is not an exact choice image")
        for k, c in enumerate(node.children):
            visit(c, f"{path}.{k}")

    visit(t, "root")
    return out


def verify_closed_tree(t: GameTree, language: str = GLOBAL) -> bool:
    return not closed_tree_violations(t, language)


# --- weight functions -------------------------------------------------------


def check_weight(t: GameTree, f: dict[GameTree, float]) -> bool:
    """Whether f satisfies the three weight clauses on every node.

    Leaves need f <= 1; a node's weight may exceed its children's total by
    at most 1.  Every node must be assigned a non-negative value.
    """
    for node in t.walk():
        if node not in f:
            return False
        w = f[node]
        if w < 0:
            return False
        if not node.children:
            if w > 1:
                return False
        elif w > sum(f.get(c, 0) for c in node.children) + 1:
            return False
    return True


def special_pair_weight(t: GameTree) -> dict[GameTree, int]:
    """Per node, how many left models pair with a right index on equal atoms.

    A pair is special when the left and right points carry identical
    valuations; the count is over distinct left models admitting one.  On
    positions built by the non-colourability game setup the root count is n,
    and the count satisfies the weight clauses, so any closed tree from the
    root has at least n nodes.
    """
    out: dict[GameTree, int] = {}
    for node in t.walk():
        u = node.position.universe
        lits = list(map(u.lit_mask, u.variables))
        pairs = set()
        for i in mask_bits(node.position.left):
            # the right indices whose literal column equals i's
            agree = node.position.right
            for lit in lits:
                agree &= lit if lit >> i & 1 else ~lit
            if agree:
                pairs.add(u.models[i].model)
        out[node] = len(pairs)
    return out


def _minimal_hitting_masks(option_masks: list[int]) -> list[int]:
    """All inclusion-minimal sets hitting every option mask, by (size, mask).

    Minimal hitting sets are exactly the inclusion-minimal exact choice
    images, which by cost monotonicity are the only images worth searching;
    with no options at all the empty image is the answer.  Berge's method:
    taking the options in turn, each set that misses the next one grows by
    one bit of it, and a grown set survives unless a set that already hit
    that option lies inside it.
    """
    found = [0]
    for opt in sorted(set(option_masks), key=lambda m: (m.bit_count(), m)):
        hit = [m for m in found if m & opt]
        grown = [m | 1 << b for m in found if not m & opt for b in mask_bits(opt)]
        found = hit + [g for g in grown if not any(h & ~g == 0 for h in hit)]
    return sorted(found, key=lambda m: (m.bit_count(), m))


# --- the search engine ------------------------------------------------------
#
# One shared table serves both games: it maps each right set R to a Pareto
# family of elements (achievable left set, measures, length, provenance),
# the left sets from which a closed tree with those costs exists against R.
# Left sets are handled as whole masks (an or-move is a union of two
# elements), so only right sets are ever partitioned; the families grow
# level by level in tree length, kept as one list per length, and a query
# asks for the cheapest element covering a target left set.  Cost
# monotonicity in both position sets makes this equivalent to searching
# positions directly while keeping large left sets tractable.
#
# An element's provenance is the move that built it and the elements it was
# built from: (move, child right set, child) for a modal move, ("or", e1, e2),
# ("and", part1, e1, part2, e2), or the leaf itself.  A level reads only
# finished lower levels, and an insertion evicts only from the level being
# built, so every element a provenance holds is a surviving element, and the
# winning element's tree is read off by walking its provenance down.
#
# An element's measures are the packed int formula.compose builds, but
# elements compare only on (measure minimized, length): by
# formula.no_worse(kind), the enumerator's rule, and in order by
# formula.cost_key(kind).  The cost is read through formula.field.
#
# The modal moves are the language's MODAL_STEPS.  A right set's replies
# over a relation do not depend on the length being built, so each (right
# set, relation) pair computes its greedy reply and its minimal hitting
# images once, and right sets whose moves offer the same options share one
# list of images.  A step lifts each finished child level once, into the
# list of elements every parent replying with that child set inserts; a
# finished level never changes, so no list goes stale, and the lists hold
# at most one element per step and stored element.
#
# Both games ask _cheapest_cover for the cheapest cover among the right sets
# the opponent may choose, one class per negative frame; in the model game
# every pick is forced.  A formula false on a right set is false on each of
# its classes, so a right set is covered within a length only if every
# class's singleton family is; the sweep deepens the singletons of the
# classes not yet covered in lockstep and lists and builds only the right
# sets whose classes are all covered.  A family's content does not depend
# on which others were built, so this changes no answer.
#
# An element is only ever evicted by one that dominates it, so a candidate
# is dropped unmeasured when its mask shows a stored element no worse: an or
# whose union is an operand's set, and, unless the measure is FALSE_COUNT,
# an and or lifted modal element whose set is empty (the bot leaf's).


class _FamilySearch:
    # elements are (set_mask, measured, length, prov); cells[rmask][k] holds
    # the elements of length k, for k up to the last level computed, and
    # cells[rmask][0] is empty; longest is the greatest length ever inserted

    def __init__(self, universe, kind, budget, language):
        self.u = universe
        self.kind = kind
        self.budget = budget
        self.cap = POSITION_CAP
        self.cells: dict[int, list[list]] = {}
        # node type -> (pre-image, relation) for the language's modal moves
        self.steps = universe.steps(language)
        # (rmask, relation) -> (greedy reply, minimal hitting images); no
        # images when some right index has no move
        self.replies: dict[tuple, tuple[int, list[int]]] = {}
        # one images list per distinct set of right move options
        self.hitting: dict[frozenset[int], list[int]] = {}
        # (child rmask, length, node type) -> the step's elements of that
        # length lifted from the child family's finished level below
        self.lifted: dict[tuple, list[tuple]] = {}
        self.element_count = 0
        self.longest = 0
        self.no_worse = no_worse(kind)
        self.key = cost_key(kind)
        self.by_length = kind is MeasureKind.LENGTH
        # only a measure counting bot may prefer an empty element to it
        self.keep_empty = kind is MeasureKind.FALSE_COUNT
        self.full = (1 << len(universe)) - 1
        # leaf measures are the same in every cell
        self.bot = compose(FalseConst)
        self.top = compose(TrueConst)
        self.lits = [
            (var, universe.lit_mask(var), compose(PosLit, var=var), compose(NegLit, var=var))
            for var in universe.variables
        ]

    def _insert(self, levels: list[list], element, node=None) -> None:
        # Given node, element's measured slot holds the children's ints.  A
        # Length cost is the length, every stored element is at most as long
        # and only those of its own length can be evicted, so for Length the
        # masks alone decide and only a kept element is composed.
        mask, measured, length, prov = element
        by_length = self.by_length
        if node is not None and not by_length:
            measured = compose(node, measured)
        if (length if by_length else field(measured, self.kind)) > self.budget:
            return
        for level in levels:
            for m2, a2, _, _ in level:
                if mask & ~m2 == 0 and (by_length or self.no_worse(a2, measured)):
                    return
        if node is not None:
            element = (mask, compose(node, measured) if by_length else measured, length, prov)
        levels[length] = [
            e for e in levels[length]
            if not (e[0] & ~mask == 0 and (by_length or self.no_worse(measured, e[1])))
        ] + [element]
        self.longest = max(self.longest, length)
        self.element_count += 1
        if self.element_count > self.cap:
            raise ResourceCapError(
                f"frame game search exceeded {self.cap} elements"
            )

    def compute(self, rmask: int, upto: int) -> list[list]:
        """Grows rmask's family to length upto; returns its per-length lists."""
        levels = self.cells.setdefault(rmask, [[]])
        while len(levels) <= upto:
            levels.append([])
            self._level(rmask, levels, len(levels) - 1)
        return levels

    def _level(self, rmask: int, levels: list[list], length: int) -> None:
        if length == 1:
            self._insert(levels, (0, self.bot, 1, ("bot",)))
            if rmask == 0:
                self._insert(levels, (self.full, self.top, 1, ("top",)))
            for var, holds, pos, neg in self.lits:
                if rmask & holds == 0:
                    self._insert(levels, (holds, pos, 1, ("lit", var, True)))
                if rmask & ~holds == 0:
                    self._insert(levels, (self.full & ~holds, neg, 1, ("lit", var, False)))
            return

        keep_empty = self.keep_empty
        for node, (pre_image, moves) in self.steps.items():
            replies = self.replies.get((rmask, moves))
            if replies is None:
                options = frozenset(moves.row(i) for i in mask_bits(rmask))
                images = [] if 0 in options else self.hitting.get(options)
                if images is None:
                    images = self.hitting[options] = _minimal_hitting_masks(list(options))
                replies = self.replies[rmask, moves] = (forward_image(moves, rmask), images)
            greedy, images = replies
            # A some_pre_image step answers with the greedy reply, which
            # keeps every right move target; an all_pre_image step lets an
            # image of the right move targets be chosen.  A subtree winning
            # from (M, R') admits the step's pre-image of M.
            for crmask in (greedy,) if pre_image is some_pre_image else images:
                lifted = self.lifted.get((crmask, length, node))
                if lifted is None:
                    move = _MOVE_OF_NODE[node]
                    lifted = self.lifted[crmask, length, node] = [
                        (pre_image(moves, child[0]), compose(node, (child[1],)),
                         length, (move, crmask, child))
                        for child in self.compute(crmask, length - 1)[length - 1]
                    ]
                for element in lifted:
                    if element[0] or keep_empty:
                        self._insert(levels, element)

        # or: union of two achievable sets against the same right set.
        for len1 in range(1, (length - 1) // 2 + 1):
            len2 = length - 1 - len1
            ones, twos = levels[len1], levels[len2]
            for i1, e1 in enumerate(ones):
                start = i1 + 1 if len1 == len2 else 0
                for e2 in twos[start:]:
                    union = e1[0] | e2[0]
                    if union != e1[0] and union != e2[0]:
                        self._insert(levels, (union, (e1[1], e2[1]), length, ("or", e1, e2)), Or)

        # and: the right set splits in two; both subtrees must admit.
        if rmask & (rmask - 1):
            low = rmask & -rmask
            rest = rmask ^ low
            sub = rest
            while sub:
                part1 = low | (rest ^ sub)
                part2 = sub
                for len1 in range(1, length - 1):
                    len2 = length - 1 - len1
                    ones = self.compute(part1, len1)[len1]
                    twos = self.compute(part2, len2)[len2]
                    for e1 in ones:
                        for e2 in twos:
                            meet = e1[0] & e2[0]
                            if meet or keep_empty:
                                prov = ("and", part1, e1, part2, e2)
                                self._insert(levels, (meet, (e1[1], e2[1]), length, prov), And)
                sub = (sub - 1) & rest

    def build(self, entry, target: int, rmask: int) -> GameTree:
        """The closed tree entry's provenance spells out from (target, rmask).

        target must lie inside entry's left set; each move hands its
        children the part of the position they must close.
        """
        u = self.u
        pos = GamePosition(u, mask_bits(target), mask_bits(rmask))
        prov = entry[3]
        tag = prov[0]
        if tag == "lit":
            return GameTree("lit", pos, var=prov[1], positive=prov[2])
        if tag == "or":
            _, e1, e2 = prov
            return GameTree(
                "or", pos,
                (self.build(e1, target & e1[0], rmask),
                 self.build(e2, target & ~e1[0], rmask)),
            )
        if tag == "and":
            _, part1, e1, part2, e2 = prov
            return GameTree(
                "and", pos,
                (self.build(e1, target, part1), self.build(e2, target, part2)),
            )
        if tag in ("bot", "top"):
            return GameTree(tag, pos)
        _, crmask, child = prov
        pre_image, moves = self.steps[_NODE_OF_MOVE[tag]]
        if pre_image is some_pre_image:
            # one move per left index, to the lowest target inside the child
            image = 0
            for i in mask_bits(target):
                opts = moves.row(i) & child[0]
                image |= opts & -opts
        else:
            image = forward_image(moves, target)
        return GameTree(tag, pos, (self.build(child, image, crmask),))


def _length_bound(kind, budget: int, language: str, length_cap: int | None) -> int:
    """Checks a search's arguments; returns the tree length it searches to."""
    if budget < 1:
        raise ValueError("budget must be at least 1")
    check_query(kind, language, length_cap)
    if kind is MeasureKind.LENGTH:
        return budget if length_cap is None else min(budget, length_cap)
    if length_cap is None:
        raise ValueError("non-Length measures need a length_cap")
    return length_cap


def _cheapest_cover(search: _FamilySearch, target: int, choices: list[list[int]], eff_cap: int):
    """The cheapest element covering target against one of the opponent's right sets.

    choices holds, per negative frame, the classes the opponent may pick
    there; a right set holds one pick from each.  Deepens level by level,
    to eff_cap, or, for Length, to the first level with a cover, stopping
    early once no family can gain an element.  The singleton family of
    each class is deepened with the sweep until it covers target (the class
    is then live), and only right sets of live classes are built and read
    (see the search comment above _FamilySearch).  Returns (picks, right
    set, element), preferring by (measure key, length, picks), or None.
    """
    # the classes whose singleton family has no cover yet
    dead = index_mask(itertools.chain.from_iterable(choices))
    for upto in range(1, eff_cap + 1):
        # levels below upto were checked at earlier steps and never change
        for b in mask_bits(dead):
            if any(target & ~e[0] == 0 for e in search.compute(1 << b, upto)[upto]):
                dead ^= 1 << b
        # product yields ascending pick tuples, so keeping each right set's
        # first picks breaks its ties as in the opponent's whole product
        live: dict[int, tuple[int, ...]] = {}
        for picks in itertools.product(*([r for r in rs if not dead >> r & 1] for rs in choices)):
            live.setdefault(index_mask(picks), picks)
            if len(live) > POSITION_CAP:
                raise ResourceCapError(f"frame game search exceeded {POSITION_CAP} elements")
        for rmask in live:
            search.compute(rmask, upto)
        # A tree of length L > 1 has a child of length at least L // 2.  A
        # family 3 levels deep has asked for every family its moves lead
        # to, so once all are that deep no family is added; if no element
        # is then half as long as the shallowest depth, no level past it
        # can gain one.
        depth = min(map(len, search.cells.values())) - 1
        last = upto == eff_cap or (depth >= 3 and 2 * search.longest < depth)
        if search.kind is MeasureKind.LENGTH or last:
            covers = [
                (picks, rmask, e)
                for rmask, picks in live.items()
                for level in search.cells[rmask]
                for e in level
                if target & ~e[0] == 0
            ]
            if covers:
                return min(covers, key=lambda c: (search.key(c[2][1]), c[2][2], c[0]))
            if last:
                break
    return None


def min_cost_fgm(
    pos: GamePosition,
    kind: MeasureKind,
    budget: int,
    language: str = BASIC,
    length_cap: int | None = None,
) -> tuple[int, GameTree] | None:
    """The cheapest closed game tree from the position, if any within budget.

    The cost is the measure of the read-off formula; for measures other
    than Length a length_cap is required to bound the search.  Returns
    (cost, tree) with cost <= budget, or None when no closed tree fits.
    """
    eff_cap = _length_bound(kind, budget, language, length_cap)
    u = pos.universe
    lmask, rmask = pos.left, pos.right
    colours = u.colours(language)
    if {colours[i] for i in mask_bits(lmask)} & {colours[j] for j in mask_bits(rmask)}:
        return None

    search = _FamilySearch(u, kind, budget, language)
    found = _cheapest_cover(search, lmask, [[r] for r in mask_bits(rmask)], eff_cap)
    best = None if found is None else found[2]
    if lmask == 0 and eff_cap >= 1:
        # The bot leaf always closes an empty left side; prefer it on ties
        # even when a wider element shadowed it in the family.
        bot = search.bot
        if field(bot, kind) <= budget and (
            best is None
            or (search.key(bot), 1) <= (search.key(best[1]), best[2])
        ):
            return field(bot, kind), GameTree("bot", GamePosition(u, (), mask_bits(rmask)))
    if best is None:
        return None
    tree = search.build(best, lmask, rmask)
    return field(best[1], kind), tree


def fgf_min_cost(
    w: WitnessSet,
    kind: MeasureKind,
    var_bound: int,
    budget: int,
    language: str = BASIC,
    length_cap: int | None = None,
) -> tuple[int, GameTree, dict[str, PointedModel]] | None:
    """The cheapest formula separating the witness frames, as a game value.

    The left side opens with all pointed models over the positive frames
    (up to var_bound variables); the search minimizes over the opponent's
    choices of one pointed model per negative frame.  Returns (cost, tree,
    choice) giving the chosen pointed model per negative frame name (up to
    bisimilarity), or None when no separating formula fits the caps.
    """
    eff_cap = _length_bound(kind, budget, language, length_cap)
    u, target, negatives = reduced_witnesses(w, var_bound, language)
    # Classes are merged globally, so a candidate bisimilar to some positive
    # pointed model is simply a candidate index inside the target set; such
    # a choice blocks every separating formula.
    candidates = [(nm, list(mask_bits(neg & ~target))) for nm, neg in negatives]
    if not all(free for _, free in candidates):
        return None

    search = _FamilySearch(u, kind, budget, language)
    found = _cheapest_cover(search, target, [free for _, free in candidates], eff_cap)
    if found is None:
        return None
    picks, rmask, element = found
    tree = search.build(element, target, rmask)
    choice = {nm: u.models[i] for (nm, _), i in zip(candidates, picks)}
    return field(element[1], kind), tree, choice
