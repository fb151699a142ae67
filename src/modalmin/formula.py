"""Negation normal form modal formulas, parsing, printing, and size measures.

Two languages are supported: the basic modal language (literals, binary
disjunction and conjunction, diamond and box) and its extension with the
global modalities E ("somewhere") and A ("everywhere").  Negation is only
available through dual swapping, so every formula is in negation normal
form by construction.
"""

from __future__ import annotations

import enum
import operator
from typing import Iterator, NamedTuple

BASIC = "basic"
GLOBAL = "global"
LANGUAGES = (BASIC, GLOBAL)


def check_language(language: str) -> str:
    if language not in LANGUAGES:
        raise ValueError(f"unknown language {language!r}, expected one of {LANGUAGES}")
    return language


class ParseError(ValueError):
    """Raised on malformed formula text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class Formula:
    """Base class for formula nodes.  Instances are immutable and hashable."""

    __slots__ = ("_hash",)

    def children(self) -> tuple["Formula", ...]:
        return ()

    def __str__(self) -> str:
        return print_formula(self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({print_formula(self)!r})"

    def __hash__(self) -> int:
        return self._hash


class TrueConst(Formula):
    __slots__ = ()

    def __init__(self):
        self._hash = hash(("T",))

    def __eq__(self, other):
        return type(other) is TrueConst

    __hash__ = Formula.__hash__


class FalseConst(Formula):
    __slots__ = ()

    def __init__(self):
        self._hash = hash(("F",))

    def __eq__(self, other):
        return type(other) is FalseConst

    __hash__ = Formula.__hash__


class PosLit(Formula):
    __slots__ = ("var",)

    def __init__(self, var: int):
        if var < 1:
            raise ValueError("variable indices start at 1")
        self.var = var
        self._hash = hash(("p", var))

    def __eq__(self, other):
        return type(other) is PosLit and other.var == self.var

    __hash__ = Formula.__hash__


class NegLit(Formula):
    __slots__ = ("var",)

    def __init__(self, var: int):
        if var < 1:
            raise ValueError("variable indices start at 1")
        self.var = var
        self._hash = hash(("~p", var))

    def __eq__(self, other):
        return type(other) is NegLit and other.var == self.var

    __hash__ = Formula.__hash__


class _Binary(Formula):
    __slots__ = ("left", "right")
    _tag = "?"

    def __init__(self, left: Formula, right: Formula):
        self.left = left
        self.right = right
        self._hash = hash((self._tag, left._hash, right._hash))

    def children(self):
        return (self.left, self.right)

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self._hash == other._hash
            and other.left == self.left
            and other.right == self.right
        )

    __hash__ = Formula.__hash__


class Or(_Binary):
    __slots__ = ()
    _tag = "|"


class And(_Binary):
    __slots__ = ()
    _tag = "&"


class _Unary(Formula):
    __slots__ = ("child",)
    _tag = "?"

    def __init__(self, child: Formula):
        self.child = child
        self._hash = hash((self._tag, child._hash))

    def children(self):
        return (self.child,)

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self._hash == other._hash
            and other.child == self.child
        )

    __hash__ = Formula.__hash__


class Dia(_Unary):
    __slots__ = ()
    _tag = "<>"


class Box(_Unary):
    __slots__ = ()
    _tag = "[]"


class ExistsMod(_Unary):
    """Global existential modality: true somewhere in the model."""

    __slots__ = ()
    _tag = "E"


class ForallMod(_Unary):
    """Global universal modality: true everywhere in the model."""

    __slots__ = ()
    _tag = "A"


TRUE = TrueConst()
FALSE = FalseConst()

_GLOBAL_ONLY = (ExistsMod, ForallMod)


def uses_global(phi: Formula) -> bool:
    if isinstance(phi, _GLOBAL_ONLY):
        return True
    return any(uses_global(c) for c in phi.children())


def language_of(phi: Formula) -> str:
    return GLOBAL if uses_global(phi) else BASIC


def subformulas(phi: Formula) -> Iterator[Formula]:
    """Yields phi and all descendants, preorder."""
    stack = [phi]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children()))


def vars_of(phi: Formula) -> frozenset[int]:
    out = set()
    for node in subformulas(phi):
        if isinstance(node, (PosLit, NegLit)):
            out.add(node.var)
    return frozenset(out)


# --- measures ---------------------------------------------------------------


class MeasureKind(enum.Enum):
    """A size measure on formulas.

    LENGTH counts every syntax tree node including leaves.  The symbol count
    members each count occurrences of one connective; truth constants count
    as their own symbols, literal leaves are counted by no symbol measure.
    """

    LENGTH = "length"
    MODAL_DEPTH = "modal-depth"
    VAR_COUNT = "var-count"
    FALSE_COUNT = "bottom"
    TRUE_COUNT = "top"
    OR_COUNT = "or"
    AND_COUNT = "and"
    DIA_COUNT = "diamond"
    BOX_COUNT = "box"
    EXISTS_COUNT = "exists"
    FORALL_COUNT = "forall"

    @classmethod
    def from_name(cls, name: str) -> "MeasureKind":
        for kind in cls:
            if kind.value == name:
                return kind
        raise ValueError(f"unknown measure {name!r}")

    def applies_to(self, language: str) -> bool:
        if self in (MeasureKind.EXISTS_COUNT, MeasureKind.FORALL_COUNT):
            return language == GLOBAL
        return True


def measures_for(language: str) -> tuple[MeasureKind, ...]:
    """The measure family of a language: 9 for basic, 11 for global."""
    check_language(language)
    return tuple(k for k in MeasureKind if k.applies_to(language))


class MeasureVector(NamedTuple):
    """All eleven measures of one formula; basic formulas have zero E/A counts."""

    length: int
    modal_depth: int
    var_count: int
    false_count: int
    true_count: int
    or_count: int
    and_count: int
    dia_count: int
    box_count: int
    exists_count: int
    forall_count: int

    def get(self, kind: MeasureKind) -> int:
        return self[_KIND_INDEX[kind]]

    def dominates(self, other: "MeasureVector") -> bool:
        """Componentwise at most: no measure of self exceeds other's."""
        return all(a <= b for a, b in zip(self, other))


_KIND_INDEX = {kind: i for i, kind in enumerate(MeasureKind)}


# The one measure rule: a node's measures are what its type adds (below) plus
# the sum of its children's, except that modal depth takes the children's
# maximum and var count the size of the union of their variables.  The rule
# therefore works on (vector, variable mask) pairs, bit v of the mask
# standing for pv.  measure_all folds it over a tree, the enumerator applies
# it once per candidate and the game once per search element.

_ZERO = MeasureVector(*[0] * len(MeasureVector._fields))
_OWN = {
    FalseConst: _ZERO._replace(length=1, false_count=1),
    TrueConst: _ZERO._replace(length=1, true_count=1),
    PosLit: _ZERO._replace(length=1, var_count=1),
    NegLit: _ZERO._replace(length=1, var_count=1),
    Or: _ZERO._replace(length=1, or_count=1),
    And: _ZERO._replace(length=1, and_count=1),
    Dia: _ZERO._replace(length=1, modal_depth=1, dia_count=1),
    Box: _ZERO._replace(length=1, modal_depth=1, box_count=1),
    ExistsMod: _ZERO._replace(length=1, modal_depth=1, exists_count=1),
    ForallMod: _ZERO._replace(length=1, modal_depth=1, forall_count=1),
}

Measured = tuple[MeasureVector, int]


def compose(node_type: type, parts: tuple[Measured, ...] = (), var: int = 0) -> Measured:
    """The measures of a node from its type and its children's measures.

    parts holds the children's (vector, variable mask) pairs in order; var
    is the variable of a literal leaf.
    """
    own = _OWN[node_type]
    # tuple.__new__ is MeasureVector._make without its length check, which
    # costs as much as the rest of a unary step
    if not parts:
        return own, 1 << var if var else 0
    if len(parts) == 1:
        ((a, vmask),) = parts
        return tuple.__new__(MeasureVector, map(operator.add, a, own)), vmask
    (a, amask), (b, bmask) = parts
    vmask = amask | bmask
    vals = list(map(operator.add, map(operator.add, a, b), own))
    vals[1] = max(a[1], b[1])  # modal depth
    vals[2] = vmask.bit_count()  # var count
    return tuple.__new__(MeasureVector, vals), vmask


def _measured(phi: Formula) -> Measured:
    return compose(
        type(phi),
        tuple(map(_measured, phi.children())),
        phi.var if isinstance(phi, (PosLit, NegLit)) else 0,
    )


def measure_all(phi: Formula) -> MeasureVector:
    return _measured(phi)[0]


def measure(phi: Formula, kind: MeasureKind) -> int:
    return measure_all(phi).get(kind)


# --- parsing and printing ---------------------------------------------------

_BINARY_BY_TAG = {"|": Or, "&": And}

# The deepest connective nesting parse accepts: p1 has depth 0, <> p1 depth 1.
# Printing, evaluation and the measures recurse once or twice per level, so a
# much deeper formula would exhaust Python's default limit of 1000 frames.
MAX_NESTING = 200


def print_formula(phi: Formula) -> str:
    """Canonical text form: fully parenthesized binaries, prefix unaries."""
    if isinstance(phi, TrueConst):
        return "T"
    if isinstance(phi, FalseConst):
        return "F"
    if isinstance(phi, PosLit):
        return f"p{phi.var}"
    if isinstance(phi, NegLit):
        return f"~p{phi.var}"
    if isinstance(phi, _Binary):
        return f"({print_formula(phi.left)} {phi._tag} {print_formula(phi.right)})"
    if isinstance(phi, _Unary):
        return f"{phi._tag} {print_formula(phi.child)}"
    raise TypeError(f"not a formula: {phi!r}")


def parse(text: str, language: str = GLOBAL) -> Formula:
    """Parses canonical (or any whitespace-variant) formula text.

    With language=BASIC the global modalities E and A are rejected.
    Raises ParseError with a character position on any malformed input,
    including nesting deeper than MAX_NESTING.
    """
    check_language(language)
    parser = _Parser(text, language)
    phi = parser.formula()
    parser.skip_ws()
    if parser.pos < len(parser.text):
        raise ParseError("unexpected trailing input", parser.pos)
    return phi


class _Parser:
    def __init__(self, text: str, language: str):
        self.text = text
        self.pos = 0
        self.language = language

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def formula(self, depth: int = 0) -> Formula:
        self.skip_ws()
        if depth > MAX_NESTING:
            raise ParseError(f"formula nested deeper than {MAX_NESTING}", self.pos)
        if self.pos >= len(self.text):
            raise ParseError("unexpected end of input", self.pos)
        ch = self.text[self.pos]
        if ch == "T":
            self.pos += 1
            return TRUE
        if ch == "F":
            self.pos += 1
            return FALSE
        if ch == "p":
            return PosLit(self.var_index())
        if ch == "~":
            self.pos += 1
            self.skip_ws()
            if self.pos >= len(self.text) or self.text[self.pos] != "p":
                raise ParseError("expected a variable after '~'", self.pos)
            return NegLit(self.var_index())
        if ch == "<":
            start = self.pos
            if not self.text.startswith("<>", self.pos):
                raise ParseError("expected '<>'", start)
            self.pos += 2
            return Dia(self.formula(depth + 1))
        if ch == "[":
            start = self.pos
            if not self.text.startswith("[]", self.pos):
                raise ParseError("expected '[]'", start)
            self.pos += 2
            return Box(self.formula(depth + 1))
        if ch in ("E", "A"):
            start = self.pos
            if self.language == BASIC:
                raise ParseError("universal modality in basic modal context", start)
            self.pos += 1
            cls = ExistsMod if ch == "E" else ForallMod
            return cls(self.formula(depth + 1))
        if ch == "(":
            self.pos += 1
            left = self.formula(depth + 1)
            self.skip_ws()
            if self.pos >= len(self.text) or self.text[self.pos] not in "|&":
                raise ParseError("expected '|' or '&'", self.pos)
            op = _BINARY_BY_TAG[self.text[self.pos]]
            self.pos += 1
            right = self.formula(depth + 1)
            self.skip_ws()
            if self.pos >= len(self.text) or self.text[self.pos] != ")":
                raise ParseError("expected ')'", self.pos)
            self.pos += 1
            return op(left, right)
        raise ParseError(f"unexpected character {ch!r}", self.pos)

    def var_index(self) -> int:
        # caller sits on 'p'; index syntax is a nonzero digit then digits
        self.pos += 1
        start = self.pos
        if self.pos >= len(self.text) or not self.text[self.pos].isdigit():
            raise ParseError("expected a variable index", self.pos)
        if self.text[self.pos] == "0":
            raise ParseError("variable indices start at 1", self.pos)
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        return int(self.text[start : self.pos])


# --- dual negation and renaming ---------------------------------------------

_DUALS = {
    TrueConst: lambda phi: FALSE,
    FalseConst: lambda phi: TRUE,
    PosLit: lambda phi: NegLit(phi.var),
    NegLit: lambda phi: PosLit(phi.var),
}


def nnf_negate(phi: Formula) -> Formula:
    """Semantic negation by dual swapping, staying in negation normal form."""
    leaf = _DUALS.get(type(phi))
    if leaf is not None:
        return leaf(phi)
    if isinstance(phi, Or):
        return And(nnf_negate(phi.left), nnf_negate(phi.right))
    if isinstance(phi, And):
        return Or(nnf_negate(phi.left), nnf_negate(phi.right))
    if isinstance(phi, Dia):
        return Box(nnf_negate(phi.child))
    if isinstance(phi, Box):
        return Dia(nnf_negate(phi.child))
    if isinstance(phi, ExistsMod):
        return ForallMod(nnf_negate(phi.child))
    if isinstance(phi, ForallMod):
        return ExistsMod(nnf_negate(phi.child))
    raise TypeError(f"not a formula: {phi!r}")


def canonical_rename(phi: Formula) -> Formula:
    """Renames variables to p1, p2, ... in order of first occurrence."""
    mapping: dict[int, int] = {}
    for node in subformulas(phi):
        if isinstance(node, (PosLit, NegLit)) and node.var not in mapping:
            mapping[node.var] = len(mapping) + 1
    return rename_vars(phi, mapping)


def rename_vars(phi: Formula, mapping: dict[int, int]) -> Formula:
    if isinstance(phi, PosLit):
        return PosLit(mapping.get(phi.var, phi.var))
    if isinstance(phi, NegLit):
        return NegLit(mapping.get(phi.var, phi.var))
    kids = phi.children()
    if not kids:
        return phi
    rebuilt = [rename_vars(c, mapping) for c in kids]
    if isinstance(phi, _Binary):
        return type(phi)(rebuilt[0], rebuilt[1])
    return type(phi)(rebuilt[0])
