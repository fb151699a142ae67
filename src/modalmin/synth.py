"""Exhaustive formula synthesis and lower-bound certificates.

Formulas are enumerated bottom-up over a fixed universe of pointed models,
deduplicated by denotation, and only survivors feed later combinations.  The
minimal-separator searches (over index sets, or frame-wise over a witness
set) keep per denotation the entries minimal under the asked measure and
Length; enumerate_formulas and certify_bound, which turns "no cheaper formula
separates these frames" into a checkable Certificate, keep the Pareto front.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .formula import (
    And,
    BASIC,
    FalseConst,
    Formula,
    MeasureKind,
    MeasureVector,
    NegLit,
    Or,
    PosLit,
    TrueConst,
    check_language,
    check_query,
    compose,
    field,
    no_worse,
    print_formula,
    unpack,
)
from .gallery import WitnessSet, reduced_witnesses
from .kripke import ResourceCapError, Universe, frame_valid

__all__ = [
    "ENUM_CAP",
    "EnumerationStats",
    "Certificate",
    "enumerate_formulas",
    "min_separating",
    "min_separating_frames",
    "certify_bound",
    "format_certificate",
]

ENUM_CAP = 2_000_000


@dataclass
class EnumerationStats:
    """Live counters for one enumeration run."""

    formulas: int = 0
    denotations: int = 0


def enumerate_formulas(
    u: Universe,
    var_bound: int,
    length_cap: int,
    language: str = BASIC,
    stats: EnumerationStats | None = None,
):
    """Yield (formula, denotation mask, measure vector), shortest first.

    Level k holds formulas of length exactly k: the atoms, then every unary
    and binary combination of retained smaller formulas.  A candidate is
    retained, yielded, and made available to later levels iff no retained
    formula with the same denotation is no worse in every measure, its
    variables a subset; within a level, newly dominated entries are dropped.
    Raises ResourceCapError once more than ENUM_CAP formulas have been
    considered, leaving partial counts in stats.
    """
    for phi, den, packed in _enumerate(u, var_bound, length_cap, language, stats):
        yield phi, den, unpack(packed)


def _enumerate(u, var_bound, length_cap, language, stats=None, kind=None):
    """enumerate_formulas with packed measures; under a measure kind it keeps
    per denotation only the entries minimal in kind and Length (no_worse)."""
    check_language(language)
    if var_bound < 0:
        raise ValueError("var bound must be >= 0")
    if stats is None:
        stats = EnumerationStats()

    cap = ENUM_CAP
    full = (1 << len(u)) - 1
    steps = u.steps(language).items()
    dominates = no_worse(kind)

    # per denotation, the kept packed measures
    front: dict[int, list[int]] = {}
    # per length, the retained (formula, denotation, packed measures)
    by_len: dict[int, list[tuple[Formula, int, int]]] = {}

    def count(n: int) -> None:
        # a dropped candidate counts too; the one passing the cap is the last
        stats.formulas += n
        if stats.formulas > cap:
            stats.formulas = cap + 1
            raise ResourceCapError(
                f"enumeration exceeded {cap} candidate formulas "
                f"({stats.denotations} denotations reached)"
            )

    def admit(ctor: type[Formula], args: tuple, den: int, measured: int):
        # ctor(*args) is built only once kept, and filed under the level
        # being built, length.  Every entry in front is no longer than the
        # candidate, so either may stand in for the other when no worse in
        # kind; under Length a denotation's first entry wins.
        count(1)
        kept = front.get(den)
        if kept is None:
            front[den] = [measured]
            stats.denotations += 1
        else:
            if any(dominates(m, measured) for m in kept):
                return None
            kept[:] = [m for m in kept if not dominates(measured, m)]
            kept.append(measured)
        phi = ctor(*args)
        by_len.setdefault(length, []).append((phi, den, measured))
        return phi, den, measured

    atoms = [(FalseConst, (), 0, compose(FalseConst)), (TrueConst, (), full, compose(TrueConst))]
    for var in range(1, var_bound + 1):
        lit = u.lit_mask(var)
        atoms.append((PosLit, (var,), lit, compose(PosLit, var=var)))
        atoms.append((NegLit, (var,), full & ~lit, compose(NegLit, var=var)))

    for length in range(1, length_cap + 1):
        if length == 1:
            for atom in atoms:
                out = admit(*atom)
                if out:
                    yield out
            continue
        # a candidate of this length has a child of length at least length // 2;
        # past the longest retained length no later level has a candidate either
        if max(by_len) < length // 2:
            return
        # a candidate denoting an operand's set is counted, not measured: that
        # operand (or the same-length entry that evicted it) is retained and no
        # worse in every measure.  A level appends only to its own length, so
        # the lower levels read here never change under the loops.
        for phi, den, measured in by_len.get(length - 1, ()):
            for ctor, (pre_image, moves) in steps:
                image = pre_image(moves, den)
                if image == den:
                    count(1)
                    continue
                out = admit(ctor, (phi,), image, compose(ctor, (measured,)))
                if out:
                    yield out
        for len1 in range(1, (length - 1) // 2 + 1):
            len2 = length - 1 - len1
            ones = by_len.get(len1, ())
            twos = by_len.get(len2, ()) if len2 != len1 else ones
            for i1, (a, da, ma) in enumerate(ones):
                start = i1 if len1 == len2 else 0
                for b, db, mb in twos[start:]:
                    if (da & db) in (da, db):  # Or and And each denote an operand's set
                        count(2)
                        continue
                    out = admit(Or, (a, b), da | db, compose(Or, (ma, mb)))
                    if out:
                        yield out
                    out = admit(And, (a, b), da & db, compose(And, (ma, mb)))
                    if out:
                        yield out


def _cheapest(found, kind: MeasureKind, separates) -> tuple[Formula, MeasureVector] | None:
    """The cheapest formula of a packed enumeration whose denotation separates.

    Minimizes the measure with ties broken by Length and then by the printed
    form, among the entries an enumeration under kind keeps; a Length search
    stops after the first level that separates.
    """
    best = None
    for phi, den, packed in found:
        length = field(packed, MeasureKind.LENGTH)
        if best is not None and kind is MeasureKind.LENGTH and length > best[0][1]:
            break
        if separates(den):
            key = (field(packed, kind), length, print_formula(phi))
            if best is None or key < best[0]:
                best = (key, phi, packed)
    return None if best is None else (best[1], unpack(best[2]))


def min_separating(
    u: Universe,
    left,
    right,
    kind: MeasureKind,
    var_bound: int,
    length_cap: int,
    language: str = BASIC,
) -> tuple[Formula, MeasureVector] | None:
    """The cheapest formula true on all left and false on all right indices.

    Minimizes the requested measure with ties broken by Length and then by
    the printed form; None when nothing within the caps separates.  An
    index outside u raises ValueError.
    """
    lmask = u.mask(left)
    rmask = u.mask(right)
    if lmask & rmask:
        raise ValueError("left and right index sets must be disjoint")
    check_query(kind, language, length_cap)
    return _cheapest(
        _enumerate(u, var_bound, length_cap, language, kind=kind),
        kind,
        lambda den: lmask & ~den == 0 and rmask & den == 0,
    )


# --- frame-wise separation --------------------------------------------------


def _frame_separation(w: WitnessSet, var_bound: int, language: str):
    """w's reduced universe and a test of whether a denotation separates w.

    A denotation separates when it is valid on every positive frame and
    refuted somewhere on every negative one.
    """
    u, positive, negatives = reduced_witnesses(w, var_bound, language)
    neg_masks = [mask for _, mask in negatives]

    def separates(den: int) -> bool:
        return positive & ~den == 0 and all(m & ~den for m in neg_masks)

    return u, separates


def min_separating_frames(
    w: WitnessSet,
    kind: MeasureKind,
    var_bound: int,
    length_cap: int,
    language: str = BASIC,
) -> tuple[Formula, MeasureVector] | None:
    """The cheapest formula valid on all positive and on no negative frame.

    Validity is read off denotations over a bisimulation-reduced expansion
    of all witness frames; ties break as in min_separating.
    """
    check_query(kind, language, length_cap)
    u, separates = _frame_separation(w, var_bound, language)
    return _cheapest(
        _enumerate(u, var_bound, length_cap, language, kind=kind),
        kind,
        separates,
    )


# --- certificates -----------------------------------------------------------


@dataclass(frozen=True)
class Certificate:
    """The outcome of exhaustively checking a claimed lower bound.

    Proved: no formula with measure below claimed_bound separates the
    witness frames within the caps; a full proof exactly when the measure
    is Length and length_cap >= claimed_bound - 1, a capped claim
    otherwise.  Refuted carries a cheaper separating formula, re-validated
    with frame_valid on each witness frame itself rather than on the
    bisimulation-reduced universe.  Inconclusive records
    a resource cap ending the run early.
    """

    witnesses: str
    measure: MeasureKind
    claimed_bound: int
    var_bound: int
    length_cap: int
    language: str
    verdict: str
    refutation: Formula | None = None
    formulas_enumerated: int = 0
    distinct_denotations: int = 0
    wall_time: float = 0.0

    @property
    def scope(self) -> str:
        if self.verdict == "Refuted":
            return "full"
        if self.verdict == "Proved" and (
            self.measure is MeasureKind.LENGTH
            and self.length_cap >= self.claimed_bound - 1
        ):
            return "full"
        return "length-capped"


def certify_bound(
    w: WitnessSet,
    kind: MeasureKind,
    claimed_bound: int,
    var_bound: int = 1,
    length_cap: int | None = None,
    language: str = BASIC,
) -> Certificate:
    """Check that no formula with measure below claimed_bound separates w.

    For Length the default cap enumerates every shorter formula, making a
    Proved verdict a full proof; for other measures a length cap bounds the
    infinite space and the certificate records the capped scope.  A
    refutation is re-validated per frame via frame_valid before being
    reported.  The enumeration's cap yields Inconclusive with partial
    statistics; the expansion's cap raises ResourceCapError.
    """
    if claimed_bound < 0:
        raise ValueError("claimed bound must be non-negative")
    check_query(kind, language, length_cap)
    if length_cap is None:
        if kind is MeasureKind.LENGTH:
            length_cap = claimed_bound - 1
        else:
            length_cap = claimed_bound + 2
    t0 = time.perf_counter()
    stats = EnumerationStats()

    def done(verdict: str, refutation: Formula | None = None) -> Certificate:
        return Certificate(
            witnesses=w.name,
            measure=kind,
            claimed_bound=claimed_bound,
            var_bound=var_bound,
            length_cap=length_cap,
            language=language,
            verdict=verdict,
            refutation=refutation,
            formulas_enumerated=stats.formulas,
            distinct_denotations=stats.denotations,
            wall_time=time.perf_counter() - t0,
        )

    u, separates = _frame_separation(w, var_bound, language)
    try:
        for phi, den, packed in _enumerate(u, var_bound, length_cap, language, stats):
            if field(packed, kind) >= claimed_bound:
                continue
            if separates(den):
                if not all(frame_valid(fr, phi) for fr in w.positives) or any(
                    frame_valid(fr, phi) for fr in w.negatives
                ):
                    raise RuntimeError("refutation failed independent re-validation")
                return done("Refuted", phi)
    except ResourceCapError:
        return done("Inconclusive")
    return done("Proved")


def format_certificate(cert: Certificate) -> str:
    """Render a certificate as a line-oriented text document.

    Every field except wall-time is bit-exact for identical inputs.
    """
    lines = [
        f"certificate {cert.witnesses}",
        f"measure {cert.measure.value}",
        f"claimed-bound {cert.claimed_bound}",
        f"var-bound {cert.var_bound}",
        f"length-cap {cert.length_cap}",
        f"language {cert.language}",
        f"verdict {cert.verdict}",
    ]
    if cert.refutation is not None:
        lines.append(f"refutation {print_formula(cert.refutation)}")
    lines.append(f"scope {cert.scope}")
    lines.append(f"formulas-enumerated {cert.formulas_enumerated}")
    lines.append(f"distinct-denotations {cert.distinct_denotations}")
    lines.append(f"wall-time {cert.wall_time:.3f}s")
    return "\n".join(lines) + "\n"
