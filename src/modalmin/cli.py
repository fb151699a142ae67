"""Command-line surface: evaluation, validity, games, synthesis, certification.

The ``reproduce`` subcommand re-runs every desk-scale check shipped with the
package and prints one verdict line per claim.  Each expected value carries a
provenance tag: ``fixed`` for values pinned in this package's development
record, ``oracle`` for values confirmed here by an independent second
computation, ``direct`` for immediate consequences of the definitions.
"""

import functools
import itertools
import random
import sys
import time
from pathlib import Path

import click

from . import __version__
from .colouring import (
    is_n_colourable,
    colour_assignment,
    k_complete,
    khat,
    noncol_equivalence,
    noncol_game_setup,
    phi_n,
)
from .formula import (
    BASIC,
    GLOBAL,
    LANGUAGES,
    MeasureKind,
    check_query,
    measure,
    measure_all,
    nnf_negate,
    parse,
    parse_int,
    print_formula,
)
from .gallery import (
    WitnessSet,
    axiom,
    builtin_frame,
    builtin_witnesses,
    lob_witnesses,
    parse_witnesses,
    s4_witnesses,
    symmetry_witnesses,
    transfer_witnesses,
)
from .game import (
    GamePosition,
    check_weight,
    fgf_min_cost,
    min_cost_fgm,
    node_count,
    psi_of_tree,
    special_pair_weight,
    verify_closed_tree,
)
from .kripke import (
    VALIDITY_CAP_BITS,
    Frame,
    Model,
    PointedModel,
    ResourceCapError,
    Universe,
    bisimilar,
    build_universe,
    eval_formula,
    frame_valid,
    mask_bits,
    parse_frames,
    parse_model,
)
from .synth import certify_bound, enumerate_formulas, format_certificate, min_separating


class _Integer(click.types.IntParamType):
    """click's integer type, read by formula.parse_int.

    A value that int() alone would take (`+3`, `1_0`, other scripts' digits)
    is then a usage error, like one too long for int().
    """

    @staticmethod
    def _number_class(value) -> int:
        # a default arrives as an int already
        return value if isinstance(value, int) else parse_int(value)


class _IntegerRange(_Integer, click.IntRange):
    """An _Integer option within click.IntRange's bounds."""


_INTEGER = _Integer()


def _capped(fn):
    """The exit-code boundary: any ValueError the command raises exits 2, a resource cap 3."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ValueError as exc:
            raise click.UsageError(str(exc)) from None
        except ResourceCapError as exc:
            click.echo(f"resource cap exceeded: {exc}", err=True)
            sys.exit(3)

    return wrapper


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise click.UsageError(f"cannot read {path}: {exc}") from None


def _write_text(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise click.UsageError(f"cannot write {path}: {exc}") from None


def _parse_file(parser, path: str, what: str):
    """Parse a file with one of the text-format parsers; bad input is a usage error."""
    try:
        return parser(_read_text(path))
    except ValueError as exc:
        raise click.UsageError(f"bad {what} file {path}: {exc}") from None


def _load_frames(spec: str) -> list[tuple[str, Frame]]:
    """A frame source: ``builtin:kN``, ``builtin:khatN``, or a frame file."""
    if spec.startswith("builtin:"):
        name = spec.split(":", 1)[1]
        return [(name, builtin_frame(name))]
    return _parse_file(parse_frames, spec, "frame")


def _load_one_frame(spec: str) -> Frame:
    frames = _load_frames(spec)
    if len(frames) > 1:
        raise click.UsageError(f"expected a single frame, got {len(frames)} in {spec}")
    return frames[0][1]


def _load_witnesses(spec: str) -> WitnessSet:
    if spec.startswith("builtin:"):
        return builtin_witnesses(spec.split(":", 1)[1])
    return _parse_file(parse_witnesses, spec, "witness")


def _parse_formula(text: str, language: str) -> "Formula":
    try:
        return parse(text, language)
    except ValueError as exc:
        raise click.UsageError(f"bad formula: {exc}") from None


def _parse_indices(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(parse_int(part) for part in text.split(","))
    except ValueError:
        raise click.UsageError(f"bad {what} index list: {text!r}") from None


def _states(mask: int) -> str:
    return "{" + ",".join(map(str, mask_bits(mask))) + "}"


_language_option = click.option(
    "--language",
    type=click.Choice(LANGUAGES),
    default=BASIC,
    show_default=True,
    help="Formula language: basic modal or with the global modalities.",
)


@click.group()
@click.version_option(__version__)
def main() -> None:
    """Minimal modal definitions of frame properties: games, search, certificates."""


@main.command("eval")
@click.option("--model", "model_path", required=True, type=click.Path(dir_okay=False))
@click.option("--point", type=_INTEGER, default=None, help="Evaluation state; defaults to the file's point line.")
@click.option("--formula", "formula_text", required=True)
@_capped
def eval_cmd(model_path: str, point: int | None, formula_text: str) -> None:
    """Evaluate a formula at one state of a model file; prints TRUE or FALSE."""
    _, model, file_point = _parse_file(parse_model, model_path, "model")
    if point is None:
        point = file_point
    if point is None:
        raise click.UsageError("no evaluation state: pass --point or add a point line to the model file")
    phi = _parse_formula(formula_text, GLOBAL)
    click.echo("TRUE" if eval_formula(model, point, phi) else "FALSE")


@main.command()
@click.option("--frame", "frame_spec", required=True)
@click.option("--formula", "formula_text", required=True)
@click.option(
    "--cap-bits", type=_IntegerRange(0, VALIDITY_CAP_BITS), default=VALIDITY_CAP_BITS, show_default=True
)
@_capped
def valid(frame_spec: str, formula_text: str, cap_bits: int) -> None:
    """Decide frame validity over all valuations; prints VALID or NOT VALID."""
    frame = _load_one_frame(frame_spec)
    phi = _parse_formula(formula_text, GLOBAL)
    click.echo("VALID" if frame_valid(frame, phi, cap_bits=cap_bits) else "NOT VALID")


@main.command()
@click.option("--left", "left_path", required=True, type=click.Path(dir_okay=False))
@click.option("--right", "right_path", required=True, type=click.Path(dir_okay=False))
@_language_option
@_capped
def bisim(left_path: str, right_path: str, language: str) -> None:
    """Decide bisimilarity of two pointed model files; prints BISIMILAR or NOT BISIMILAR."""
    sides = []
    for path in (left_path, right_path):
        _, model, point = _parse_file(parse_model, path, "model")
        if point is None:
            raise click.UsageError(f"{path} has no point line")
        sides.append(PointedModel(model, point))
    click.echo("BISIMILAR" if bisimilar(sides[0], sides[1], language=language) else "NOT BISIMILAR")


@main.command()
@click.option("--frame", "frame_spec", required=True)
@click.option("--n", "n", required=True, type=_INTEGER)
@_capped
def colour(frame_spec: str, n: int) -> None:
    """Search for a proper n-colouring; prints the assignment if one exists."""
    frame = _load_one_frame(frame_spec)
    assignment = colour_assignment(frame, n)
    if assignment is None:
        click.echo("NOT COLOURABLE")
    else:
        click.echo("COLOURABLE")
        click.echo(" ".join(f"{s}:{c}" for s, c in enumerate(assignment)))


@main.command()
@click.option("--emit", "emit_n", type=_INTEGER, default=None, help="Print the non-n-colourability formula.")
@click.option("--frame", "frame_spec", default=None)
@click.option("--n", "n", type=_INTEGER, default=None)
@_capped
def noncol(emit_n: int | None, frame_spec: str | None, n: int | None) -> None:
    """Emit the non-colourability formula, or compare its validity with a colouring search."""
    if emit_n is None and frame_spec is None:
        raise click.UsageError("pass --emit N, or --frame with --n")
    if emit_n is not None:
        click.echo(print_formula(phi_n(emit_n)))
    if frame_spec is not None:
        if n is None:
            raise click.UsageError("--frame needs --n")
        phi = phi_n(n)
        frame = _load_one_frame(frame_spec)
        valid_here = frame_valid(frame, phi)
        colourable = is_n_colourable(frame, n)
        click.echo(f"formula-valid {'TRUE' if valid_here else 'FALSE'}")
        click.echo(f"n-colourable {'TRUE' if colourable else 'FALSE'}")
        # phi_n is valid exactly on the frames that are not n-colourable
        click.echo(f"agreement {'OK' if valid_here != colourable else 'MISMATCH'}")


@main.command()
@click.option("--frames", "frames_spec", required=True, help="Frame file or builtin; expanded with all valuations.")
@click.option("--vars", "var_bound", type=_INTEGER, default=1, show_default=True)
@click.option("--left", "left_text", required=True, help="Comma-separated universe indices.")
@click.option("--right", "right_text", required=True)
@click.option("--measure", "measure_name", default="length", show_default=True)
@click.option("--length-cap", type=_INTEGER, required=True)
@_language_option
@_capped
def synth(
    frames_spec: str,
    var_bound: int,
    left_text: str,
    right_text: str,
    measure_name: str,
    length_cap: int,
    language: str,
) -> None:
    """Exhaustively search for a minimal formula true on the left indices, false on the right."""
    kind = MeasureKind.from_name(measure_name)
    # checked before any frame is read, so a bad query exits 2 even with a --vars past the universe cap
    check_query(kind, language, length_cap)
    frames = _load_frames(frames_spec)
    universe = build_universe([(frame, var_bound) for _, frame in frames])
    left = _parse_indices(left_text, "left")
    right = _parse_indices(right_text, "right")
    found = min_separating(universe, left, right, kind, var_bound, length_cap, language=language)
    if found is None:
        click.echo("ABSENT")
        return
    phi, vec = found
    click.echo(f"formula {print_formula(phi)}")
    click.echo(f"{kind.value} {vec.get(kind)}")
    if kind is not MeasureKind.LENGTH:
        click.echo(f"length {vec.get(MeasureKind.LENGTH)}")


def _render_tree(tree, depth: int, lines: list[str]) -> None:
    label = tree.move
    if tree.move == "lit":
        label += " " + ("p" if tree.positive else "~p") + str(tree.var)
    pos = tree.position
    lines.append("  " * depth + f"{label} left={_states(pos.left)} right={_states(pos.right)}")
    for child in tree.children:
        _render_tree(child, depth + 1, lines)


@main.command()
@click.option("--witnesses", "witness_spec", required=True, help="Witness file or builtin:NAME.")
@click.option("--measure", "measure_name", default="length", show_default=True)
@click.option("--vars", "var_bound", type=_INTEGER, default=None, help="Defaults to the witness set's bound.")
@click.option("--budget", type=_INTEGER, required=True)
@click.option("--length-cap", type=_INTEGER, default=None)
@click.option("--emit-tree", "tree_path", type=click.Path(dir_okay=False), default=None)
@_language_option
@_capped
def game(
    witness_spec: str,
    measure_name: str,
    var_bound: int | None,
    budget: int,
    length_cap: int | None,
    tree_path: str | None,
    language: str,
) -> None:
    """Play the formula-size game on a witness set; prints the minimal cost and formula."""
    kind = MeasureKind.from_name(measure_name)
    witnesses = _load_witnesses(witness_spec)
    if var_bound is None:
        var_bound = witnesses.recommended_var_bound
    found = fgf_min_cost(witnesses, kind, var_bound, budget, language=language, length_cap=length_cap)
    if found is None:
        click.echo("ABSENT")
        return
    cost, tree, choices = found
    click.echo(f"cost {cost}")
    click.echo(f"formula {print_formula(psi_of_tree(tree))}")
    for name in sorted(choices):
        chosen = choices[name]
        parts = [f"p{v}={_states(chosen.model.valuation[v])}" for v in sorted(chosen.model.valuation)]
        click.echo(f"choice {name} point={chosen.point} " + " ".join(parts))
    if tree_path is not None:
        lines: list[str] = []
        _render_tree(tree, 0, lines)
        _write_text(tree_path, "\n".join(lines) + "\n")


@main.command()
@click.option("--witnesses", "witness_spec", required=True, help="Witness file or builtin:NAME.")
@click.option("--measure", "measure_name", default="length", show_default=True)
@click.option("--bound", "claimed_bound", type=_INTEGER, required=True)
@click.option("--vars", "var_bound", type=_INTEGER, default=None, help="Defaults to the witness set's bound.")
@click.option("--length-cap", type=_INTEGER, default=None)
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None)
@_language_option
@_capped
def certify(
    witness_spec: str,
    measure_name: str,
    claimed_bound: int,
    var_bound: int | None,
    length_cap: int | None,
    out_path: str | None,
    language: str,
) -> None:
    """Certify a lower bound by exhaustive search; prints the certificate document."""
    kind = MeasureKind.from_name(measure_name)
    witnesses = _load_witnesses(witness_spec)
    if var_bound is None:
        var_bound = witnesses.recommended_var_bound
    cert = certify_bound(
        witnesses, kind, claimed_bound, var_bound=var_bound, length_cap=length_cap, language=language
    )
    text = format_certificate(cert)
    click.echo(text, nl=False)
    if out_path is not None:
        _write_text(out_path, text)


# --- the reproduce report ---------------------------------------------------
#
# Each claim function returns (expected, observed); the registry row adds the
# claim id, a parameter summary, and the provenance tag of the expected value.
# Claim functions raise nothing on mismatch: reproduce compares and reports.


def _rng_frame(rng: random.Random, max_states: int = 5) -> Frame:
    count = rng.randint(2, max_states)
    edges = [(u, v) for u in range(count) for v in range(count) if rng.random() < 0.35]
    return Frame(count, edges)


def _rng_model(rng: random.Random) -> PointedModel:
    """A seeded pointed model over 2-3 states with p1 valued."""
    frame = _rng_frame(rng, 3)
    valuation = {1: rng.randrange(1 << frame.state_count)}
    return PointedModel(Model(frame, valuation), rng.randrange(frame.state_count))


def _brute_colourable(frame: Frame, n: int) -> bool:
    return any(
        all(colours[u] != colours[v] for u, v in frame.edges())
        for colours in itertools.product(range(n), repeat=frame.state_count)
    )


def _claim_noncol_equivalence(seed: int) -> tuple[str, str]:
    rng = random.Random(seed)
    cycle5 = Frame(5, [(i, (i + 1) % 5) for i in range(5)])
    cases = [(k_complete(2), 2), (k_complete(3), 3), (khat(2), 2), (khat(3), 3), (cycle5, 2)]
    cases += [(_rng_frame(rng), 2) for _ in range(20)]
    agree = 0
    brute_ok = True
    for frame, n in cases:
        if noncol_equivalence(frame, n):
            agree += 1
        if is_n_colourable(frame, n) != _brute_colourable(frame, n):
            brute_ok = False
    suffix = "search-matches-brute" if brute_ok else "search-contradicts-brute"
    return f"agree:{len(cases)}/{len(cases)},search-matches-brute", f"agree:{agree}/{len(cases)},{suffix}"


def _claim_phi_shape(seed: int) -> tuple[str, str]:
    ok = 0
    for n in range(1, 17):
        phi = phi_n(n)
        vec = measure_all(phi)
        roundtrip = parse(print_formula(phi)) == phi
        width_ok = vec.get(MeasureKind.VAR_COUNT) == (n - 1).bit_length()
        agree = all(vec.get(kind) == measure(phi, kind) for kind in MeasureKind)
        if roundtrip and width_ok and agree:
            ok += 1
    return "ok:16/16", f"ok:{ok}/16"


def _axiom_splits(witnesses: WitnessSet) -> bool:
    # WitnessSet already checks that its property splits the frames
    ax = axiom(witnesses.prop)
    return all(frame_valid(f, ax) for f in witnesses.positives) and not any(
        frame_valid(f, ax) for f in witnesses.negatives
    )


def _minimality_claim(witnesses: WitnessSet, bound: int) -> tuple[str, str]:
    """Length bound proved, refuted one above with a length-bound formula, met by the axiom."""
    cert = certify_bound(witnesses, MeasureKind.LENGTH, bound)
    above = certify_bound(witnesses, MeasureKind.LENGTH, bound + 1, length_cap=bound)
    tag = "none"
    if above.verdict == "Refuted" and above.refutation is not None:
        tag = f"len{measure(above.refutation, MeasureKind.LENGTH)}"
    ax_len = measure(axiom(witnesses.prop), MeasureKind.LENGTH)
    ax_tag = f"axiom-len{ax_len}" if _axiom_splits(witnesses) else "axiom-fails"
    expected = f"proved@{bound},refuted-above:len{bound},axiom-len{bound}"
    return expected, f"{cert.verdict.lower()}@{bound},refuted-above:{tag},{ax_tag}"


def _claim_symmetry(seed: int) -> tuple[str, str]:
    witnesses = symmetry_witnesses()
    expected, observed = _minimality_claim(witnesses, 5)
    found = fgf_min_cost(witnesses, MeasureKind.LENGTH, 1, 5)
    if found is None:
        game = "game:absent"
    else:
        cost, tree, _ = found
        tree_ok = verify_closed_tree(tree) and measure(psi_of_tree(tree), MeasureKind.LENGTH) == cost
        game = f"game:{cost},{'tree-ok' if tree_ok else 'tree-bad'}"
    return f"{expected},game:5,tree-ok", f"{observed},{game}"


def _claim_noncol_lower_bound(seed: int) -> tuple[str, str]:
    universe, left, right = noncol_game_setup(2)
    found = min_separating(universe, left, right, MeasureKind.LENGTH, 1, 6, language=GLOBAL)
    if found is None:
        return "min:6", "min:absent"
    phi, vec = found
    parts = [f"min:{vec.get(MeasureKind.LENGTH)}"]
    parts.append("exists" if vec.get(MeasureKind.EXISTS_COUNT) >= 1 else "no-exists")
    played = min_cost_fgm(GamePosition(universe, left, right), MeasureKind.LENGTH, 6, language=GLOBAL)
    if played is None:
        parts.append("game:absent")
    else:
        cost, tree = played
        weight = special_pair_weight(tree)
        parts.append(f"game:{cost}")
        parts.append(f"root-weight:{weight[tree]}" if check_weight(tree, weight) else "weight-bad")
        parts.append("nodes-ok" if node_count(tree) >= weight[tree] else "nodes-bad")
    both = universe.mask(left + right)
    flips = (universe.den(phi) ^ universe.den(nnf_negate(phi))) & both == both
    parts.append("negation-flips" if flips else "negation-broken")
    expected = "min:6,exists,game:6,root-weight:2,nodes-ok,negation-flips"
    return expected, ",".join(parts)


def _claim_game_enum_agreement(seed: int) -> tuple[str, str]:
    rng = random.Random(seed + 1)
    agree = 0
    total = 5
    replay_ok = True
    for round_index in range(total):
        universe = build_universe([(_rng_frame(rng, 4), 1)])
        size = len(universe)
        indices = rng.sample(range(size), min(3, size))
        left, right = tuple(indices[:-1]), (indices[-1],)
        enumerated = min_separating(universe, left, right, MeasureKind.LENGTH, 1, 6)
        played = min_cost_fgm(GamePosition(universe, left, right), MeasureKind.LENGTH, 6)
        if (enumerated is None) == (played is None) and (
            enumerated is None or enumerated[1].get(MeasureKind.LENGTH) == played[0]
        ):
            agree += 1
        if round_index == 0:
            for phi, den, _ in enumerate_formulas(universe, 1, 5):
                if universe.den(phi) != den:
                    replay_ok = False
    suffix = "replay-ok" if replay_ok else "replay-bad"
    return f"agree:{total}/{total},replay-ok", f"agree:{agree}/{total},{suffix}"


def _doubled(pointed: PointedModel) -> PointedModel:
    """The disjoint union of a model with itself, pointed in the first copy."""
    frame = pointed.model.frame
    count = frame.state_count
    edges = list(frame.edges()) + [(u + count, v + count) for u, v in frame.edges()]
    valuation = {v: mask | mask << count for v, mask in pointed.model.valuation.items()}
    return PointedModel(Model(Frame(2 * count, edges), valuation), pointed.point)


def _shared_valuation_pair() -> tuple[PointedModel, PointedModel]:
    """A triangle against its double, valued so the looped state's twin pair shares.

    The double's self-loop sits at the image of vertex 0, so the valuation
    must let vertices 0 and 1 share; the loop can then be simulated by
    shuttling between the two equally-valued vertices.
    """
    single = Model(k_complete(3), {1: 0b100})
    double = Model(khat(3), {1: 0b100100})
    return PointedModel(single, 0), PointedModel(double, 0)


def _claim_bisim_invariance(seed: int) -> tuple[str, str]:
    rng = random.Random(seed + 2)
    one, two = _shared_valuation_pair()
    fig_ok = bisimilar(one, two, language=GLOBAL) and bisimilar(one, two, language=BASIC)
    pairs_ok = 0
    total = 20
    for _ in range(total):
        original = _rng_model(rng)
        copy = _doubled(original)
        if not (bisimilar(original, copy, language=BASIC) and bisimilar(original, copy, language=GLOBAL)):
            continue
        universe = Universe((original.model, copy.model))
        here, there = original.point, original.model.frame.state_count + copy.point
        invariant = True
        for _, den, _ in enumerate_formulas(universe, 1, 5, language=GLOBAL):
            if (den >> here & 1) != (den >> there & 1):
                invariant = False
                break
        if invariant:
            pairs_ok += 1
    split_ok = 0
    literal = parse("p1")
    for _ in range(5):
        base = _rng_model(rng)
        flipped_val = dict(base.model.valuation)
        flipped_val[1] = flipped_val.get(1, 0) ^ (1 << base.point)
        other = PointedModel(Model(base.model.frame, flipped_val), base.point)
        if not bisimilar(base, other) and eval_formula(base.model, base.point, literal) != eval_formula(
            other.model, other.point, literal
        ):
            split_ok += 1
    expected = f"shared-valuation:bisimilar,pairs:{total}/{total},split:5/5"
    observed = (
        f"shared-valuation:{'bisimilar' if fig_ok else 'distinguished'},"
        f"pairs:{pairs_ok}/{total},split:{split_ok}/5"
    )
    return expected, observed


_CLAIMS: tuple[tuple[str, str, str, object], ...] = (
    ("noncol-equivalence", "n=2..3 fixed+seeded frames", "oracle", _claim_noncol_equivalence),
    ("noncol-formula-shape", "n=1..16", "direct", _claim_phi_shape),
    ("transfer-0-1-minimal", "measure=length vars=1", "fixed",
     lambda seed: _minimality_claim(transfer_witnesses(0, 1), 4)),
    ("transfer-2-1-minimal", "measure=length vars=1", "fixed",
     lambda seed: _minimality_claim(transfer_witnesses(2, 1), 6)),
    ("reflexive-transitive-minimal", "measure=length vars=1", "fixed",
     lambda seed: _minimality_claim(s4_witnesses(), 8)),
    ("transitive-cwf-minimal", "measure=length vars=1 depth=2", "fixed",
     lambda seed: _minimality_claim(lob_witnesses(2), 8)),
    ("symmetry-minimal", "measure=length vars=1", "fixed", _claim_symmetry),
    ("noncol-lower-bound", "n=2 language=global", "fixed", _claim_noncol_lower_bound),
    ("game-enum-agreement", "5 seeded universes", "oracle", _claim_game_enum_agreement),
    ("bisim-invariance", "fixed pair + 20 seeded doublings", "oracle", _claim_bisim_invariance),
)


@main.command()
@click.option("--seed", type=_INTEGER, default=2023, show_default=True)
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None)
def reproduce(seed: int, out_path: str | None) -> None:
    """Re-run every shipped check; one verdict line per claim, exit 1 on any FAIL."""
    lines: list[str] = []
    failed = 0
    started = time.perf_counter()
    for claim_id, params, tag, fn in _CLAIMS:
        begun = time.perf_counter()
        try:
            expected, observed = fn(seed)
        except ResourceCapError as exc:
            expected, observed = "completed", f"resource-cap:{exc}"
        elapsed = time.perf_counter() - begun
        verdict = "PASS" if expected == observed else "FAIL"
        if verdict == "FAIL":
            failed += 1
        line = f"[{verdict}] {claim_id} ({params}) expected={expected} [{tag}] observed={observed} {elapsed:.2f}s"
        click.echo(line)
        lines.append(line)
    total = time.perf_counter() - started
    summary = f"reproduce: {len(_CLAIMS)} claims, {len(_CLAIMS) - failed} passed, {failed} failed, {total:.2f}s"
    click.echo(summary)
    lines.append(summary)
    if out_path is not None:
        _write_text(out_path, "\n".join(lines) + "\n")
    if failed:
        sys.exit(1)


if __name__ == "__main__":
    main()
