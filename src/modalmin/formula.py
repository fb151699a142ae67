"""Negation normal form modal formulas, parsing, printing, and size measures.

Two languages are supported: the basic modal language (literals, binary
disjunction and conjunction, diamond and box) and its extension with the
global modalities E ("somewhere") and A ("everywhere").  Negation is only
available through dual swapping, so every formula is in negation normal
form by construction.
"""

from __future__ import annotations

import enum
import re
from collections import namedtuple
from typing import Iterator

BASIC = "basic"
GLOBAL = "global"
LANGUAGES = (BASIC, GLOBAL)


def check_language(language: str) -> str:
    if language not in LANGUAGES:
        raise ValueError(f"unknown language {language!r}, expected one of {LANGUAGES}")
    return language


# no count, index or cap comes near this many digits; Python's int() itself
# refuses more than 4,300, with a message that names no position
MAX_DIGITS = 100


def parse_int(text: str) -> int:
    """The integer text spells in at most MAX_DIGITS ASCII digits after an optional '-'.

    Anything else is a ValueError.
    """
    if not re.fullmatch("-?[0-9]+", text):
        raise ValueError(f"not a decimal integer: {text!r}")
    if len(text.lstrip("-")) > MAX_DIGITS:
        raise ValueError(f"number longer than {MAX_DIGITS} digits")
    return int(text)


class ParseError(ValueError):
    """Raised on malformed formula text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class Formula:
    """Base class for formula nodes.  Instances are immutable and hashable.

    Each connective's class is the one place that says what it is: _tag is
    its symbol in the text form and in the hash, _fields names what a node
    holds (a literal's variable, otherwise its children in order) and _dual
    is the class of the connective that negation swaps it for.
    """

    __slots__ = ("_hash",)
    _tag: str
    _fields: tuple[str, ...] = ()
    _dual: type["Formula"]

    def children(self) -> tuple["Formula", ...]:
        return ()

    def __str__(self) -> str:
        return print_formula(self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({print_formula(self)!r})"

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and other._hash == self._hash
            and all(getattr(other, f) == getattr(self, f) for f in self._fields)
        )

    def __hash__(self) -> int:
        return self._hash


class _Const(Formula):
    __slots__ = ()

    def __init__(self):
        self._hash = hash((self._tag,))


class TrueConst(_Const):
    __slots__ = ()
    _tag = "T"


class FalseConst(_Const):
    __slots__ = ()
    _tag = "F"


class _Lit(Formula):
    __slots__ = _fields = ("var",)

    def __init__(self, var: int):
        if var < 1:
            raise ValueError("variable indices start at 1")
        self.var = var
        self._hash = hash((self._tag, var))


class PosLit(_Lit):
    __slots__ = ()
    _tag = "p"


class NegLit(_Lit):
    __slots__ = ()
    _tag = "~p"


class _Binary(Formula):
    __slots__ = _fields = ("left", "right")

    def __init__(self, left: Formula, right: Formula):
        self.left = left
        self.right = right
        self._hash = hash((self._tag, left._hash, right._hash))

    def children(self):
        return (self.left, self.right)


class Or(_Binary):
    __slots__ = ()
    _tag = "|"


class And(_Binary):
    __slots__ = ()
    _tag = "&"


class _Unary(Formula):
    __slots__ = _fields = ("child",)

    def __init__(self, child: Formula):
        self.child = child
        self._hash = hash((self._tag, child._hash))

    def children(self):
        return (self.child,)


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


def _pair_duals(*pairs: tuple[type[Formula], type[Formula]]) -> None:
    for a, b in pairs:
        a._dual, b._dual = b, a


_pair_duals(
    (TrueConst, FalseConst), (PosLit, NegLit), (Or, And), (Dia, Box), (ExistsMod, ForallMod)
)

TRUE = TrueConst()
FALSE = FalseConst()

_GLOBAL_ONLY = (ExistsMod, ForallMod)


def in_language(node_type: type, language: str) -> bool:
    """Whether the language has the connective: E and A are global only."""
    return language == GLOBAL or node_type not in _GLOBAL_ONLY


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
        if isinstance(node, _Lit):
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

    # members compare by identity; Enum's own hash is a slow Python-level call
    __hash__ = object.__hash__

    @classmethod
    def from_name(cls, name: str) -> "MeasureKind":
        for kind in cls:
            if kind.value == name:
                return kind
        raise ValueError(f"unknown measure {name!r}")

    def applies_to(self, language: str) -> bool:
        """Whether some connective of the language counts toward the measure."""
        return any(field(own, self) for node, own in _OWN.items() if in_language(node, language))


def check_query(kind: MeasureKind, language: str, length_cap: int | None) -> None:
    """The one check of a search query: language, measure, then cap (None is no cap)."""
    check_language(language)
    if not kind.applies_to(language):
        raise ValueError(f"measure {kind.value} needs the global language")
    if length_cap is not None and length_cap < 0:
        raise ValueError("length cap must be non-negative")


class MeasureVector(namedtuple("MeasureVector", [kind.name.lower() for kind in MeasureKind])):
    """One field per MeasureKind, in its order; basic formulas have zero E/A counts."""

    __slots__ = ()

    def get(self, kind: MeasureKind) -> int:
        return self[_KIND_INDEX[kind]]

    def dominates(self, other: "MeasureVector") -> bool:
        """Componentwise at most: no measure of self exceeds other's."""
        return all(a <= b for a, b in zip(self, other))


_KIND_INDEX = {kind: i for i, kind in enumerate(MeasureKind)}


# Inside the enumerator and the game a formula's measures are one int: measure
# i (in MeasureKind order) sits at bit 32*i, and variable pv at bit _VBASE + v,
# above every field.  Bit 31 of each field is a guard bit, clear in every
# measure, so a field holds 0..2**31 - 1 (no formula that fits in memory comes
# near) and a field-wise subtraction borrows into its own guard bit, not into
# the next field.  Only this module reads the layout; MeasureVector is built
# only where measures leave the library: measure_all, the enumerator's yields
# and the answers of the searches.

_FIELD_BITS = 31
FIELD_MASK = (1 << _FIELD_BITS) - 1
FIELD_SHIFT = {kind: 32 * i for i, kind in enumerate(MeasureKind)}
_SHIFTS = tuple(FIELD_SHIFT.values())
_GUARDS = sum(1 << shift + _FIELD_BITS for shift in _SHIFTS)
_VBASE = 32 * len(MeasureKind)
_DEPTH_BITS = FIELD_MASK << FIELD_SHIFT[MeasureKind.MODAL_DEPTH]
_VARS = FIELD_SHIFT[MeasureKind.VAR_COUNT]
# every field but var count (its guard bit too), no variable bits
_KEEP = (1 << _VBASE) - 1 & ~((1 << 32) - 1 << _VARS)


def pack(vec: MeasureVector) -> int:
    """The fields of a measure vector as one int; every measure must fit a field."""
    if not all(0 <= v <= FIELD_MASK for v in vec):
        raise ValueError(f"measure vector {tuple(vec)} has a field outside 0..{FIELD_MASK}")
    return sum(v << shift for v, shift in zip(vec, _SHIFTS))


def unpack(packed: int) -> MeasureVector:
    return tuple.__new__(MeasureVector, [packed >> shift & FIELD_MASK for shift in _SHIFTS])


def field(packed: int, kind: MeasureKind) -> int:
    """One measure of a packed int."""
    return packed >> FIELD_SHIFT[kind] & FIELD_MASK


def no_worse(kind: MeasureKind | None):
    """The one dominance rule: no_worse(kind)(a, b) when a is no worse than b.

    A composite counts the union of its children's variables, so VAR_COUNT
    compares variable sets by inclusion, another kind its field.  kind None
    is the Pareto rule: each field of (b | guards) - a keeps its guard bit
    exactly when b's field is at least a's, whatever the variable bits
    above, and then the variables by inclusion.
    """
    if kind is None:
        return lambda a, b: ((b | _GUARDS) - a) & _GUARDS == _GUARDS and (a & ~b) >> _VBASE == 0
    if kind is MeasureKind.VAR_COUNT:
        return lambda a, b: (a & ~b) >> _VBASE == 0
    shift = FIELD_SHIFT[kind]
    return lambda a, b: a >> shift & FIELD_MASK <= b >> shift & FIELD_MASK


def cost_key(kind: MeasureKind):
    """Orders packed ints by kind, VAR_COUNT ties by the variables."""
    shift = FIELD_SHIFT[kind]
    if kind is MeasureKind.VAR_COUNT:
        return lambda a: (a >> shift & FIELD_MASK, [v for v in range(a.bit_length() - _VBASE) if a >> _VBASE + v & 1])
    return lambda a: a >> shift & FIELD_MASK


# The one measure rule: a node's measures are what its type adds (below) plus
# the sum of its children's, except that modal depth takes the children's
# maximum and var count the size of the union of their variables.
# measure_all folds it over a tree, the enumerator applies it once per
# candidate and the game once per search element.

_ZERO = MeasureVector(*[0] * len(MeasureVector._fields))


def _own(**counts: int) -> int:
    return pack(_ZERO._replace(length=1, **counts))


_OWN = {
    FalseConst: _own(false_count=1),
    TrueConst: _own(true_count=1),
    PosLit: _own(var_count=1),
    NegLit: _own(var_count=1),
    Or: _own(or_count=1),
    And: _own(and_count=1),
    Dia: _own(modal_depth=1, dia_count=1),
    Box: _own(modal_depth=1, box_count=1),
    ExistsMod: _own(modal_depth=1, exists_count=1),
    ForallMod: _own(modal_depth=1, forall_count=1),
}


def compose(node_type: type, parts: tuple[int, ...] = (), var: int = 0) -> int:
    """The measures of a node from its type and its children's measures.

    parts holds the children's packed ints in order; var is the variable
    of a literal leaf.
    """
    own = _OWN[node_type]
    if not parts:
        return own | 1 << _VBASE + var if var else own
    if len(parts) == 1:
        return parts[0] + own
    a, b = parts
    # the sum takes both children's depths: take back the shallower one;
    # then the variables and the var count are the union and its size
    union = (a | b) >> _VBASE
    shallower = min(a & _DEPTH_BITS, b & _DEPTH_BITS)
    return (a + b + own - shallower) & _KEEP | union << _VBASE | union.bit_count() << _VARS


def _measured(phi: Formula) -> int:
    return compose(
        type(phi),
        tuple(map(_measured, phi.children())),
        phi.var if isinstance(phi, _Lit) else 0,
    )


def measure_all(phi: Formula) -> MeasureVector:
    return unpack(_measured(phi))


def measure(phi: Formula, kind: MeasureKind) -> int:
    return field(_measured(phi), kind)


# --- parsing and printing ---------------------------------------------------

_CONST_BY_TAG = {c._tag: c for c in (TRUE, FALSE)}
_BINARY_BY_TAG = {cls._tag: cls for cls in (Or, And)}
# the prefix connectives by the first character of their tags
_UNARY_BY_LEAD = {cls._tag[0]: cls for cls in (Dia, Box, ExistsMod, ForallMod)}
_DIGITS = re.compile("[0-9]*")

# The deepest connective nesting parse accepts: p1 has depth 0, <> p1 depth 1.
# Printing, evaluation and the measures recurse once or twice per level, so a
# much deeper formula would exhaust Python's default limit of 1000 frames.
MAX_NESTING = 200


def print_formula(phi: Formula) -> str:
    """Canonical text form: fully parenthesized binaries, prefix unaries."""
    if isinstance(phi, _Binary):
        return f"({print_formula(phi.left)} {phi._tag} {print_formula(phi.right)})"
    if isinstance(phi, _Unary):
        return f"{phi._tag} {print_formula(phi.child)}"
    if isinstance(phi, _Lit):
        return f"{phi._tag}{phi.var}"
    if isinstance(phi, _Const):
        return phi._tag
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
        if ch in _CONST_BY_TAG:
            self.pos += 1
            return _CONST_BY_TAG[ch]
        if ch == "p":
            return PosLit(self.var_index())
        if ch == "~":
            self.pos += 1
            self.skip_ws()
            if self.pos >= len(self.text) or self.text[self.pos] != "p":
                raise ParseError("expected a variable after '~'", self.pos)
            return NegLit(self.var_index())
        if ch in _UNARY_BY_LEAD:
            cls = _UNARY_BY_LEAD[ch]
            if not self.text.startswith(cls._tag, self.pos):
                raise ParseError(f"expected '{cls._tag}'", self.pos)
            if not in_language(cls, self.language):
                raise ParseError("universal modality in basic modal context", self.pos)
            self.pos += len(cls._tag)
            return cls(self.formula(depth + 1))
        if ch == "(":
            self.pos += 1
            left = self.formula(depth + 1)
            self.skip_ws()
            if self.pos >= len(self.text) or self.text[self.pos] not in _BINARY_BY_TAG:
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
        # caller sits on 'p'; index syntax is a nonzero ASCII digit then ASCII digits
        self.pos += 1
        digits = _DIGITS.match(self.text, self.pos).group()
        if not digits:
            raise ParseError("expected a variable index", self.pos)
        if digits[0] == "0":
            raise ParseError("variable indices start at 1", self.pos)
        try:
            index = parse_int(digits)
        except ValueError as err:
            raise ParseError(str(err), self.pos) from None
        self.pos += len(digits)
        return index


# --- dual negation ----------------------------------------------------------

def nnf_negate(phi: Formula) -> Formula:
    """Semantic negation by dual swapping, staying in negation normal form."""
    if not isinstance(phi, Formula):
        raise TypeError(f"not a formula: {phi!r}")
    if isinstance(phi, _Lit):
        return phi._dual(phi.var)
    return phi._dual(*map(nnf_negate, phi.children()))
