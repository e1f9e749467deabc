import random

import pytest

from kbqa.errors import SexprParseError
from kbqa.sexpr import (And, ArgMin, ClassRef, Compare, Count, EntityRef,
                        FunctionClass, Join, LiteralRef, Reverse, canonicalize,
                        function_class, parse, print_canonical, relation_count,
                        validate_schema)
from kbqa.store import LiteralValue

from randgen import random_syntax_ast

CASE_STRINGS = [
    "(AND measurement_unit.measurement_system "
    "(JOIN measurement_unit.measurement_system.length_units m.01p5ld))",
    "(AND spaceflight.bipropellant_rocket_engine "
    "(AND (JOIN spaceflight.bipropellant_rocket_engine.oxidizer m.01tm_5) "
    "(lt spaceflight.bipropellant_rocket_engine.chamber_pressure 257.0^^float)))",
    "(ARGMIN measurement_unit.unit_of_resistivity "
    "measurement_unit.unit_of_resistivity.resistivity_in_ohm_meters)",
]


def test_parse_and_join_structure():
    lf = parse(CASE_STRINGS[0])
    assert isinstance(lf, And)
    assert lf.left == ClassRef("measurement_unit.measurement_system")
    assert isinstance(lf.right, Join)
    assert lf.right.relation == "measurement_unit.measurement_system.length_units"
    assert lf.right.sub == EntityRef("m.01p5ld")


def test_parse_argmin():
    lf = parse(CASE_STRINGS[2])
    assert isinstance(lf, ArgMin)
    assert lf.sub == ClassRef("measurement_unit.unit_of_resistivity")
    assert lf.relation == \
        "measurement_unit.unit_of_resistivity.resistivity_in_ohm_meters"


def test_parse_comparative_literal():
    lf = parse("(lt sf.chamber_pressure 257.0^^float)")
    assert lf == Compare("lt", "sf.chamber_pressure",
                         LiteralValue("float", 257.0, "float"))


def test_parse_reverse_relation():
    lf = parse("(JOIN (R location.country.capital) m.0x)")
    assert lf.relation == Reverse("location.country.capital")


def test_unbalanced_input_is_positioned_error():
    with pytest.raises(SexprParseError) as err:
        parse("(JOIN r")
    assert err.value.pos == len("(JOIN r")


@pytest.mark.parametrize("sep", ["\u00a0", "\u2028"])
def test_parse_error_after_a_unicode_separator_keeps_its_position(sep):
    """U+00A0 and U+2028 separate tokens as a space does, and an error
    after them points at the offending token, not past it."""
    for text, bad in ((f"(COUNT{sep}a){sep}extra", "extra"),
                      (f"{sep}(JOIN{sep}r{sep}e1{sep})){sep}", ")"),
                      (f"(AND{sep}a{sep}){sep}", ")")):
        with pytest.raises(SexprParseError) as err:
            parse(text)
        assert err.value.pos == text.rindex(bad), text
    assert parse(f"(JOIN{sep}r{sep}e1)") == parse("(JOIN r e1)")


def test_unknown_operator_rejected():
    with pytest.raises(SexprParseError):
        parse("(UNION a b)")


def test_wrong_arity_rejected():
    with pytest.raises(SexprParseError):
        parse("(AND a)")
    with pytest.raises(SexprParseError):
        parse("(COUNT a b)")


def test_malformed_literal_rejected():
    with pytest.raises(SexprParseError):
        parse("(lt r abc^^float)")
    with pytest.raises(SexprParseError):
        parse("(lt r not_a_number)")


def test_trailing_tokens_rejected():
    with pytest.raises(SexprParseError):
        parse("(COUNT c) extra")


def test_bare_number_defaults_to_float():
    lf = parse("(JOIN r 257)")
    assert lf.sub == LiteralRef(LiteralValue("float", 257.0))
    assert print_canonical(lf) == "(JOIN r 257.0)"


@pytest.mark.parametrize("atom, node, printed", [
    ("٣", LiteralRef, "3.0"),  # a decimal digit of another script
    ("-5", LiteralRef, "-5.0"),
    ("5^^x", LiteralRef, "5^^x"),
    ("²", EntityRef, "²"),  # a digit, but not a decimal one
    ("-", EntityRef, "-"),
    ('"5"', EntityRef, '"5"'),
])
def test_atom_is_a_literal_only_when_number_shaped_or_tagged(atom, node, printed):
    lf = parse(f"(JOIN r {atom})")
    assert type(lf.sub) is node
    assert print_canonical(lf) == f"(JOIN r {printed})"


@pytest.mark.parametrize("text", ["(JOIN r %s)" % ("9" * 400), "(lt r %s)" % ("9" * 400),
                                  "(JOIN r %s)" % ("9" * 5000)])
def test_number_beyond_float_range_is_a_parse_error(text):
    with pytest.raises(SexprParseError) as err:
        parse(text)
    assert err.value.pos == text.index("9")


def test_case_strings_round_trip_canonically():
    for text in CASE_STRINGS:
        printed = print_canonical(parse(text))
        assert print_canonical(parse(printed)) == printed


def test_and_prints_commutatively():
    a = parse("(AND zz.class (JOIN r e1))")
    b = And(a.right, a.left)
    assert print_canonical(a) == print_canonical(b)


def test_canonicalize_sorts_and_is_idempotent():
    x = ClassRef("zz.zulu")
    y = Join("aa.rel", EntityRef("e9"))
    form = And(x, y)
    once = canonicalize(form)
    assert print_canonical(once.left) <= print_canonical(once.right)
    assert canonicalize(once) == once


def test_nested_and_normalizes_across_orderings():
    base = parse(CASE_STRINGS[1])
    swapped = And(base.right, base.left)
    inner = base.right
    assert isinstance(inner, And)
    reordered = And(And(inner.right, inner.left), base.left)
    for variant in (swapped, reordered):
        assert print_canonical(canonicalize(variant)) == \
            print_canonical(canonicalize(base))


def test_round_trip_random_asts():
    rng = random.Random(1234)
    for _ in range(1000):
        ast = random_syntax_ast(rng)
        printed = print_canonical(ast)
        reparsed = parse(printed)
        assert print_canonical(reparsed) == printed
        # the print already sorts AND's arguments: EM and predict skip canonicalize
        assert print_canonical(canonicalize(ast)) == printed
        assert canonicalize(reparsed) == canonicalize(canonicalize(reparsed))


def test_validate_schema_on_catalog(toy):
    ok = parse("(AND ms.system (JOIN ms.length_units e1))")
    assert validate_schema(ok, toy) == []
    bad = parse("(AND ms.resistance_unit (JOIN ms.length_units e1))")
    violations = validate_schema(bad, toy)
    assert len(violations) == 1
    assert violations[0].kind == "unknown-class"
    assert violations[0].name == "ms.resistance_unit"


def test_validate_schema_kind_mismatch(toy):
    swapped = parse("(AND ms.length_units (JOIN ms.system e1))")
    kinds = sorted(v.kind for v in validate_schema(swapped, toy))
    assert kinds == ["not-a-class", "not-a-relation"]


def test_validate_entity_only_form(toy):
    assert validate_schema(parse("(JOIN ms.length_units zz_unknown)"), toy) == []


def test_function_class_and_relation_count():
    assert function_class(parse(CASE_STRINGS[0])) == FunctionClass.NONE
    assert relation_count(parse(CASE_STRINGS[0])) == 1
    assert function_class(parse(CASE_STRINGS[1])) == FunctionClass.COMPARATIVE
    assert relation_count(parse(CASE_STRINGS[1])) == 2
    assert function_class(parse(CASE_STRINGS[2])) == FunctionClass.SUPERLATIVE
    assert function_class(parse("(COUNT some.class)")) == FunctionClass.COUNT
    assert relation_count(parse("(COUNT some.class)")) == 0


def test_count_dominates_only_at_root():
    assert function_class(parse("(COUNT (ARGMIN c r))")) == FunctionClass.SUPERLATIVE
    assert function_class(parse("(COUNT (AND c (lt r 1.0)))")) == \
        FunctionClass.COMPARATIVE


def test_reverse_counts_inner_relation_once():
    assert relation_count(parse("(JOIN (R a.b.c) e1)")) == 1
    assert relation_count(parse("(JOIN a.b.c (JOIN (R a.b.c) e1))")) == 2


def test_every_nonoperator_head_rejected():
    for head in ("OR", "NOT", "MAX", "and", "join", "Argmin"):
        with pytest.raises(SexprParseError):
            parse(f"({head} a b)")
