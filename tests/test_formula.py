"""Formula syntax: parsing, printing, measures, NNF negation."""

import random

import pytest
from hypothesis import given, strategies as st

from modalmin.formula import (
    BASIC,
    FALSE,
    GLOBAL,
    FIELD_MASK,
    MAX_NESTING,
    And,
    Box,
    Dia,
    ExistsMod,
    FalseConst,
    ForallMod,
    MeasureKind,
    MeasureVector,
    NegLit,
    Or,
    ParseError,
    PosLit,
    TRUE,
    TrueConst,
    _VBASE,
    compose,
    check_query,
    cost_key,
    field,
    measure,
    measure_all,
    nnf_negate,
    no_worse,
    pack,
    parse,
    parse_int,
    print_formula,
    subformulas,
    unpack,
    vars_of,
)
from modalmin.kripke import Frame, Model, den_states

from .conftest import rand_formula, rand_model
from .oracles import formulas_up_to, naive_eval, naive_measures, variables


@st.composite
def formulas(draw, language=GLOBAL, var_bound=3, max_len=9):
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    length = draw(st.integers(min_value=1, max_value=max_len))
    return rand_formula(random.Random(seed), var_bound, length, language)


# --- parsing and printing ---------------------------------------------------


def test_parse_literals_and_constants():
    assert parse("T") == TRUE
    assert parse("F") == FALSE
    assert parse("p3") == PosLit(3)
    assert parse("~p12") == NegLit(12)


def test_parse_connectives():
    assert parse("(~p1 | <> p1)") == Or(NegLit(1), Dia(PosLit(1)))
    assert parse("[] [] ~p1") == Box(Box(NegLit(1)))
    assert parse("E <> T") == ExistsMod(Dia(TRUE))
    assert parse("(p1 & A ~p2)") == And(PosLit(1), ForallMod(NegLit(2)))


def test_parse_is_whitespace_insensitive():
    assert parse("(p1|<>p1)") == parse("( p1 |  <>   p1 )")
    assert parse("[]p1") == Box(PosLit(1))


def test_print_canonical_forms():
    assert print_formula(Or(NegLit(1), Dia(PosLit(1)))) == "(~p1 | <> p1)"
    assert print_formula(TRUE) == "T"
    assert print_formula(FALSE) == "F"
    assert print_formula(Box(Box(NegLit(1)))) == "[] [] ~p1"
    assert print_formula(ExistsMod(And(PosLit(1), PosLit(2)))) == "E (p1 & p2)"


@pytest.mark.parametrize(
    "text",
    ["", "(p1 |", "p0", "q1", "(p1 | p2", "p1 p2", "<>", "(p1 & & p2)", "~T", "<> p\u00b2", "p\u0663"],
)
def test_parse_rejects_malformed_text(text):
    with pytest.raises(ParseError):
        parse(text)


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse("(p1 | q2)")
    assert err.value.position == 6
    # a variable index is ASCII digits: a superscript or Arabic-Indic digit is none
    for text, position in (("<> p\u00b2", 4), ("p\u0663", 1), ("(~p\u0661 | p1)", 3)):
        with pytest.raises(ParseError, match="^expected a variable index ") as err:
            parse(text)
        assert err.value.position == position


def test_parse_nesting_limit():
    at_limit = "<> " * MAX_NESTING + "p1"
    phi = parse(at_limit)
    assert measure(phi, MeasureKind.MODAL_DEPTH) == MAX_NESTING
    assert parse(print_formula(phi)) == phi
    with pytest.raises(ParseError, match="nested deeper"):
        parse("[] " + at_limit)
    over = "(p1 | " * (MAX_NESTING + 1) + "p1" + ")" * (MAX_NESTING + 1)
    with pytest.raises(ParseError, match="nested deeper"):
        parse(over)


def test_parse_language_gate():
    assert parse("E p1", GLOBAL) == ExistsMod(PosLit(1))
    for text in ("E p1", "A p1", "<> E p1"):
        with pytest.raises(ParseError):
            parse(text, BASIC)


def test_unknown_language_and_variable_zero_raise_value_error():
    with pytest.raises(ValueError, match="unknown language 'modal'"):
        parse("p1", "modal")
    with pytest.raises(ValueError, match="variable indices start at 1"):
        PosLit(0)


def test_parse_int_takes_ascii_digits_after_an_optional_minus_only():
    assert [parse_int(text) for text in ("0", "7", "-1", "0012", "600000")] == [0, 7, -1, 12, 600000]
    for text in ("", "-", "+2", "1_0", " 3", "3 ", "\u0663", "2\u00b2", "--1", "1.0", "0x1"):
        with pytest.raises(ValueError, match="^not a decimal integer: "):
            parse_int(text)


def test_check_query_checks_language_then_measure_then_cap():
    check_query(MeasureKind.EXISTS_COUNT, GLOBAL, None)
    check_query(MeasureKind.LENGTH, BASIC, 0)
    for kind, language, cap, message in (
        (MeasureKind.EXISTS_COUNT, "modal", -1, "unknown language 'modal'"),
        (MeasureKind.FORALL_COUNT, BASIC, -1, "measure forall needs the global language"),
        (MeasureKind.LENGTH, BASIC, -1, "length cap must be non-negative"),
    ):
        with pytest.raises(ValueError, match=f"^{message}"):
            check_query(kind, language, cap)


def test_roundtrip_every_formula_up_to_length_5():
    for forms in formulas_up_to([1, 2], 5, GLOBAL).values():
        for phi in forms:
            assert parse(print_formula(phi)) == phi


@given(phi=formulas())
def test_roundtrip_random_formulas(phi):
    assert parse(print_formula(phi)) == phi


# --- equality ---------------------------------------------------------------


def test_nodes_of_different_connectives_are_unequal():
    p1, p2 = PosLit(1), PosLit(2)
    pairs = [(TRUE, FALSE), (p1, NegLit(1)), (Or(p1, p2), And(p1, p2))]
    unary = [Dia(p1), Box(p1), ExistsMod(p1), ForallMod(p1)]
    pairs += [(a, b) for i, a in enumerate(unary) for b in unary[i + 1:]]
    for a, b in pairs:
        assert a != b and b != a


def test_structure_built_twice_is_equal():
    def build():
        return Or(Dia(And(PosLit(1), NegLit(2))), ForallMod(Box(Or(TrueConst(), FalseConst()))))

    one, two = build(), build()
    assert one is not two
    assert one == two and hash(one) == hash(two)
    assert one != Or(Dia(And(PosLit(1), NegLit(3))), ForallMod(Box(Or(TRUE, FALSE))))


@pytest.mark.parametrize(
    "operation",
    [print_formula, nnf_negate, lambda x: den_states(Model(Frame(1)), x)],
    ids=["print_formula", "nnf_negate", "den_states"],
)
def test_non_formulas_raise_type_error(operation):
    for thing in ("p1", 1, None):
        with pytest.raises(TypeError):
            operation(thing)


# --- subformulas and variables ----------------------------------------------


def test_subformulas_and_vars():
    phi = parse("(~p1 | <> (p2 & p1))")
    assert set(subformulas(phi)) == {
        phi,
        NegLit(1),
        Dia(And(PosLit(2), PosLit(1))),
        And(PosLit(2), PosLit(1)),
        PosLit(2),
        PosLit(1),
    }
    assert vars_of(phi) == frozenset({1, 2})
    assert vars_of(TRUE) == frozenset()


# --- measures ---------------------------------------------------------------


def test_measure_families():
    basic = [kind for kind in MeasureKind if kind.applies_to(BASIC)]
    assert len(basic) == 9
    assert set(MeasureKind) - set(basic) == {MeasureKind.EXISTS_COUNT, MeasureKind.FORALL_COUNT}
    assert all(kind.applies_to(GLOBAL) for kind in MeasureKind)


def test_measure_kind_names_roundtrip():
    for kind in MeasureKind:
        assert MeasureKind.from_name(kind.value) is kind
    # a measure vector's fields are the kinds' names, in MeasureKind's order
    assert MeasureVector._fields == (
        "length", "modal_depth", "var_count", "false_count", "true_count", "or_count",
        "and_count", "dia_count", "box_count", "exists_count", "forall_count",
    )
    assert MeasureVector._fields == tuple(kind.name.lower() for kind in MeasureKind)
    with pytest.raises(ValueError):
        MeasureKind.from_name("size")


def test_measure_all_box_box_example():
    vec = measure_all(parse("([] [] ~p1 | <> p1)"))
    assert vec.get(MeasureKind.LENGTH) == 6
    assert vec.get(MeasureKind.MODAL_DEPTH) == 2
    assert vec.get(MeasureKind.VAR_COUNT) == 1
    assert vec.get(MeasureKind.OR_COUNT) == 1
    assert vec.get(MeasureKind.BOX_COUNT) == 2
    assert vec.get(MeasureKind.DIA_COUNT) == 1
    assert vec.get(MeasureKind.AND_COUNT) == 0
    assert vec.get(MeasureKind.FALSE_COUNT) == 0
    assert vec.get(MeasureKind.TRUE_COUNT) == 0


def test_measure_all_symmetry_shape_example():
    vec = measure_all(parse("(~p1 | [] <> p1)"))
    assert (vec.length, vec.modal_depth, vec.var_count) == (5, 2, 1)


def test_modal_depth_counts_global_modalities():
    assert measure(parse("A [] p1"), MeasureKind.MODAL_DEPTH) == 2
    assert measure(parse("E p1"), MeasureKind.MODAL_DEPTH) == 1


def test_var_count_is_number_of_distinct_variables():
    assert measure(parse("((p1 | ~p1) & p1)"), MeasureKind.VAR_COUNT) == 1
    assert measure(parse("(p1 | (p2 & ~p7))"), MeasureKind.VAR_COUNT) == 3
    assert measure(parse("(T | F)"), MeasureKind.VAR_COUNT) == 0
    assert measure_all(parse("(p1 & (<> p40 | ~p100))")).var_count == 3


@given(phi=formulas())
def test_measure_all_agrees_with_measure(phi):
    vec = measure_all(phi)
    for kind in MeasureKind:
        assert vec.get(kind) == measure(phi, kind)


@given(phi=formulas())
def test_every_component_at_most_length(phi):
    vec = measure_all(phi)
    assert all(component <= vec.length for component in vec)


@given(phi=formulas())
def test_symbol_counts_plus_literals_cover_length(phi):
    vec = measure_all(phi)
    symbol_total = (
        vec.false_count
        + vec.true_count
        + vec.or_count
        + vec.and_count
        + vec.dia_count
        + vec.box_count
        + vec.exists_count
        + vec.forall_count
    )
    literal_leaves = sum(1 for psi in subformulas(phi) if isinstance(psi, (PosLit, NegLit)))
    assert symbol_total + literal_leaves == vec.length


@given(phi=formulas())
def test_var_count_matches_recursive_collection(phi):
    assert measure(phi, MeasureKind.VAR_COUNT) == len(variables(phi))


def test_measure_all_matches_the_oracle_fold_up_to_length_5():
    for forms in formulas_up_to([1, 2], 5, GLOBAL).values():
        for phi in forms:
            assert measure_all(phi) == naive_measures(phi), phi


# --- packed measure vectors -------------------------------------------------

# Fields are drawn over the whole range a packed field holds, extremes
# included, so that a carry or borrow into a guard bit would show.
_FIELD_VALUES = st.sampled_from([0, 1, FIELD_MASK - 1, FIELD_MASK]) | st.integers(0, FIELD_MASK)
_VECTORS = st.lists(_FIELD_VALUES, min_size=11, max_size=11).map(lambda v: MeasureVector(*v))
# two children and the node's own count fill a field exactly at the extreme
_HALF = FIELD_MASK // 2
_HALF_VECTORS = st.lists(
    st.sampled_from([0, 1, _HALF]) | st.integers(0, _HALF), min_size=11, max_size=11
).map(lambda v: MeasureVector(*v))
_VAR_MASKS = st.integers(0, 2**64 - 1)


def _with_vars(vec: MeasureVector, vmask: int) -> int:
    # bit v of vmask stands for pv
    return pack(vec) | vmask << _VBASE


@given(vec=_VECTORS)
def test_pack_roundtrip(vec):
    packed = pack(vec)
    assert unpack(packed) == vec
    assert all(field(packed, kind) == vec.get(kind) for kind in MeasureKind)


def test_pack_rejects_a_field_past_its_guard_bit():
    for bad in (FIELD_MASK + 1, -1):
        with pytest.raises(ValueError):
            pack(MeasureVector(*[0] * 10, bad))


@st.composite
def _vector_pairs(draw):
    # b at least a on every field, then maybe one field of b below a's
    a = draw(_VECTORS)
    b = [min(v + draw(st.sampled_from([0, 1, FIELD_MASK])), FIELD_MASK) for v in a]
    k = draw(st.integers(-1, len(a) - 1))
    if k >= 0 and a[k] > 0:
        b[k] = draw(st.sampled_from([0, a[k] - 1]) | st.integers(0, a[k] - 1))
    return a, MeasureVector(*b)


@given(pair=_vector_pairs())
def test_packed_dominance_is_the_tuple_rule(pair):
    a, b = pair
    pareto = no_worse(None)
    assert pareto(pack(a), pack(b)) == a.dominates(b)
    assert pareto(pack(b), pack(a)) == b.dominates(a)


_SMALL_MASKS = st.integers(0, 7)


@given(pair=_vector_pairs(), amask=_SMALL_MASKS, bmask=_SMALL_MASKS)
def test_no_worse_compares_one_measure_and_variables_by_inclusion(pair, amask, bmask):
    a, b = _with_vars(pair[0], amask), _with_vars(pair[1], bmask)
    subset = amask & ~bmask == 0
    assert no_worse(None)(a, b) == (pair[0].dominates(pair[1]) and subset)
    assert no_worse(MeasureKind.VAR_COUNT)(a, b) == subset
    for kind in MeasureKind:
        if kind is not MeasureKind.VAR_COUNT:
            assert no_worse(kind)(a, b) == (pair[0].get(kind) <= pair[1].get(kind))


def test_var_count_no_worse_is_inclusion_not_count():
    # one variable each, but only {p1} fits inside {p1, p2}
    zero = MeasureVector(*[0] * 11)
    p1, p2, both = [
        _with_vars(zero._replace(var_count=n), mask) for n, mask in ((1, 0b10), (1, 0b100), (2, 0b110))
    ]
    rule = no_worse(MeasureKind.VAR_COUNT)
    assert not rule(p2, p1) and not rule(p1, p2)
    assert rule(p1, both) and not rule(both, p1)
    assert not no_worse(None)(p2, p1)
    key = cost_key(MeasureKind.VAR_COUNT)
    assert key(p1) < key(p2) < key(both)
    assert cost_key(MeasureKind.LENGTH)(both) == 0
    # as composed, variables far apart
    p1, p40 = compose(PosLit, var=1), compose(NegLit, var=40)
    assert key(p1) < key(p40) < key(compose(Or, (p1, p40))) == (2, [1, 40])


@given(
    a=_HALF_VECTORS,
    b=_HALF_VECTORS,
    amask=_VAR_MASKS,
    bmask=_VAR_MASKS,
    node=st.sampled_from([(Or, "or_count"), (And, "and_count")]),
)
def test_packed_binary_compose_is_the_tuple_rule(a, b, amask, bmask, node):
    node_type, count = node
    summed = MeasureVector(*(x + y for x, y in zip(a, b)))
    expected = summed._replace(
        length=summed.length + 1,
        modal_depth=max(a.modal_depth, b.modal_depth),
        var_count=(amask | bmask).bit_count(),
        **{count: getattr(summed, count) + 1},
    )
    packed = compose(node_type, (_with_vars(a, amask), _with_vars(b, bmask)))
    assert packed >> _VBASE == amask | bmask
    assert unpack(packed) == expected


@given(
    a=_HALF_VECTORS,
    amask=_VAR_MASKS,
    node=st.sampled_from(
        [(Dia, "dia_count"), (Box, "box_count"), (ExistsMod, "exists_count"), (ForallMod, "forall_count")]
    ),
)
def test_packed_unary_compose_is_the_tuple_rule(a, amask, node):
    node_type, count = node
    expected = a._replace(
        length=a.length + 1, modal_depth=a.modal_depth + 1, **{count: getattr(a, count) + 1}
    )
    assert compose(node_type, (_with_vars(a, amask),)) == _with_vars(expected, amask)


def test_pareto_rule_with_top_field_below_and_variables_differing():
    # the top field (FORALL_COUNT) sits right below the variable bits, which
    # in (b | guards) - a go negative when b's read lower than a's: neither
    # may leak into the other's verdict
    zero = MeasureVector(*[0] * 11)
    pareto = no_worse(None)
    for a_forall, b_forall in ((2, 1), (1, 2), (FIELD_MASK, 0), (0, FIELD_MASK), (3, 3)):
        a_vec = zero._replace(forall_count=a_forall, length=5)
        b_vec = zero._replace(forall_count=b_forall, length=5)
        for amask, bmask in ((0b10, 0b110), (0b110, 0b10), (0b100, 0b10), (0b10, 0b100), (0, 1 << 100)):
            a, b = _with_vars(a_vec, amask), _with_vars(b_vec, bmask)
            expected = a_forall <= b_forall and amask & ~bmask == 0
            assert pareto(a, b) == expected, (a_forall, b_forall, amask, bmask)


# --- negation ---------------------------------------------------------------


def test_negate_swaps_duals():
    assert nnf_negate(PosLit(1)) == NegLit(1)
    assert nnf_negate(TRUE) == FALSE
    assert nnf_negate(parse("([] ~p1 | <> (p1 & [] ~p1))")) == parse(
        "(<> p1 & [] (~p1 | <> p1))"
    )
    assert nnf_negate(parse("E p1")) == parse("A ~p1")


@given(phi=formulas())
def test_negate_is_an_involution(phi):
    assert nnf_negate(nnf_negate(phi)) == phi


@given(phi=formulas(var_bound=2, max_len=7), seed=st.integers(0, 2**32 - 1))
def test_negate_flips_evaluation(phi, seed):
    rng = random.Random(seed)
    model = rand_model(rng, var_bound=2, max_states=3)
    for state in range(model.frame.state_count):
        assert naive_eval(model, state, nnf_negate(phi)) != naive_eval(model, state, phi)

