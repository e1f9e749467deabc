import random

import pytest

from kbqa.errors import EvalTypeError
from kbqa.executor import AnswerSet, evaluate, is_valid_prediction
from kbqa.fixtures import TOY_TRIPLES, toy_store
from kbqa.sexpr import And, ClassRef, Count, parse
from kbqa.store import LiteralValue, StoreBuilder, parse_literal

from randgen import StorePools, random_exec_ast, random_store


def brute_force_entities(store, predicate):
    """Independent oracle: test every node in the store."""
    nodes = set(store.all_entities())
    for t in store.triples():
        nodes.add(t.object)
    return {n for n in nodes if predicate(n)}


def test_case_one_analogue(toy):
    answer = evaluate(parse("(AND ms.system (JOIN ms.length_units e1))"), toy)
    expected = brute_force_entities(
        toy, lambda n: isinstance(n, str)
        and "ms.system" in toy.out_edges(n).get("type_rel", ())
        and "e1" in toy.out_edges(n).get("ms.length_units", ()))
    assert answer.entities == expected == {"sys1"}


def test_conjunction_with_comparative(toy):
    text = ("(AND sf.engine (AND (JOIN sf.oxidizer ox1) "
            "(lt sf.chamber_pressure 257.0^^float)))")
    answer = evaluate(parse(text), toy)
    # eng1: pressure 100.0 < 257.0 and oxidizer ox1; eng2 fails both
    assert answer.entities == {"eng1"}


def test_count(toy):
    answer = evaluate(parse("(COUNT sf.engine)"), toy)
    assert answer.kind == "number"
    assert answer.number == 2
    assert evaluate(parse("(COUNT (AND sf.engine sf.engine))"), toy).number == 2


def test_argmin(toy):
    answer = evaluate(parse("(ARGMIN sf.engine sf.chamber_pressure)"), toy)
    assert answer.entities == {"eng1"}  # 100.0 < 300.0
    assert evaluate(parse("(ARGMAX sf.engine sf.chamber_pressure)"),
                    toy).entities == {"eng2"}


def test_join_with_no_matching_subject(toy):
    answer = evaluate(parse("(JOIN sf.oxidizer e1)"), toy)
    assert answer.kind == "entities"
    assert answer.entities == frozenset()


def test_reverse_join_reaches_literal(toy):
    answer = evaluate(parse("(JOIN (R sf.chamber_pressure) eng1)"), toy)
    assert answer.entities == {LiteralValue("float", 100.0, "float")}
    assert answer.strings() == ["100.0^^float"]


def test_absent_entity_denotes_empty(toy):
    from kbqa.sexpr import EntityRef
    assert evaluate(EntityRef("ghost"), toy).is_empty()
    assert evaluate(EntityRef("eng1"), toy).entities == {"eng1"}
    # ghost as bare entity in object position
    assert evaluate(parse("(JOIN sf.oxidizer ghost)"), toy).is_empty()


def test_argmin_skips_entities_without_numeric_value():
    builder = StoreBuilder()
    builder.add_triple("a", "type_rel", "k.c")
    builder.add_triple("b", "type_rel", "k.c")
    builder.add_triple("a", "k.c.v", LiteralValue("float", 2.0))
    store = builder.freeze()
    assert evaluate(parse("(ARGMIN k.c k.c.v)"), store).entities == {"a"}
    # none left -> empty
    assert evaluate(parse("(ARGMIN k.c k.c.other)"), store).is_empty()


def test_argmin_returns_all_ties():
    builder = StoreBuilder()
    for e in ("a", "b", "c"):
        builder.add_triple(e, "type_rel", "k.c")
    builder.add_triple("a", "k.c.v", LiteralValue("float", 1.0))
    builder.add_triple("b", "k.c.v", LiteralValue("float", 1.0))
    builder.add_triple("c", "k.c.v", LiteralValue("float", 9.0))
    store = builder.freeze()
    assert evaluate(parse("(ARGMIN k.c k.c.v)"), store).entities == {"a", "b"}


def test_argmin_multivalued_uses_per_entity_minimum():
    builder = StoreBuilder()
    builder.add_triple("a", "type_rel", "k.c")
    builder.add_triple("b", "type_rel", "k.c")
    builder.add_triple("a", "k.c.v", LiteralValue("float", 5.0))
    builder.add_triple("a", "k.c.v", LiteralValue("float", 1.0))
    builder.add_triple("b", "k.c.v", LiteralValue("float", 2.0))
    store = builder.freeze()
    assert evaluate(parse("(ARGMIN k.c k.c.v)"), store).entities == {"a"}
    assert evaluate(parse("(ARGMAX k.c k.c.v)"), store).entities == {"a"}
    # a number and a datetime are incomparable, under one entity ...
    builder = StoreBuilder()
    builder.add_triple("a", "type_rel", "k.c")
    builder.add_triple("b", "type_rel", "k.c")
    builder.add_triple("a", "k.c.w", LiteralValue("float", 1.0))
    builder.add_triple("a", "k.c.w", parse_literal("2001-01-05^^datetime"))
    # ... and across two entities
    builder.add_triple("a", "k.c.x", LiteralValue("float", 1.0))
    builder.add_triple("b", "k.c.x", parse_literal("2001-01-05^^datetime"))
    store = builder.freeze()
    for form in ("(ARGMIN k.c k.c.w)", "(ARGMAX k.c k.c.x)"):
        with pytest.raises(EvalTypeError, match="mixed literal kinds"):
            evaluate(parse(form), store)


def test_compare_with_non_numeric_literal_is_type_error(toy):
    from kbqa.sexpr import Compare
    bad = Compare("lt", "sf.chamber_pressure", LiteralValue("string", "abc"))
    with pytest.raises(EvalTypeError):
        evaluate(bad, toy)


def test_nested_count_is_type_error(toy):
    with pytest.raises(EvalTypeError):
        evaluate(And(Count(ClassRef("sf.engine")), ClassRef("sf.engine")), toy)


def test_count_equals_cardinality_of_subexpression(toy):
    rng = random.Random(7)
    pools = StorePools(toy)
    for _ in range(200):
        ast = random_exec_ast(rng, toy, pools)
        if isinstance(ast, Count):
            inner = evaluate(ast.sub, toy)
            assert evaluate(ast, toy).number == len(inner.entities)


def test_and_commutativity_random():
    rng = random.Random(99)
    for _ in range(10):
        store = random_store(rng, max_entities=15)
        pools = StorePools(store)
        for _ in range(30):
            ast = random_exec_ast(rng, store, pools)
            for node in [ast] if isinstance(ast, And) else []:
                assert evaluate(And(node.left, node.right), store) == \
                    evaluate(And(node.right, node.left), store)


def test_monotonicity_adding_triples_never_shrinks():
    rng = random.Random(42)
    base = StoreBuilder()
    base.add_triple("a", "type_rel", "k.c")
    base.add_triple("a", "k.c.r", "b")
    base.add_triple("b", "k.c.v", LiteralValue("float", 3.0))
    small = base.freeze()
    base.add_triple("c", "type_rel", "k.c")
    base.add_triple("c", "k.c.r", "b")
    base.add_triple("c", "k.c.v", LiteralValue("float", 1.0))
    big = base.freeze()
    for text in ["(JOIN k.c.r b)", "(AND k.c (JOIN k.c.r b))",
                 "(lt k.c.v 5.0)", "(gt k.c.v 0.5)"]:
        before = evaluate(parse(text), small).entities
        after = evaluate(parse(text), big).entities
        assert before <= after


def test_argmin_subset_of_subexpression_attains_minimum(toy):
    answer = evaluate(parse("(ARGMIN sf.engine sf.chamber_pressure)"), toy)
    members = evaluate(parse("sf.engine"), toy).entities
    assert answer.entities <= members
    values = {}
    for e in members:
        vals = toy.out_edges(e).get("sf.chamber_pressure", ())
        if vals:
            values[e] = min(float(v.value) for v in vals)
    global_min = min(values.values())
    assert answer.entities == {e for e, v in values.items() if v == global_min}


def test_is_valid_prediction(toy):
    assert is_valid_prediction("(AND ms.system (JOIN ms.length_units e1))", toy)
    assert not is_valid_prediction(
        "(ARGMIN ms.resistance_unit sf.chamber_pressure)", toy)  # unknown class
    assert not is_valid_prediction("(JOIN sf.oxidizer e1)", toy)  # empty denotation
    assert not is_valid_prediction("(JOIN r", toy)  # parse error
    assert is_valid_prediction("(COUNT sf.engine)", toy)
    # a number answer is valid even when it is zero
    assert is_valid_prediction("(COUNT (JOIN sf.oxidizer e1))", toy)


def test_datetime_comparison():
    from kbqa.store import parse_literal
    builder = StoreBuilder()
    builder.add_triple("a", "type_rel", "k.c")
    builder.add_triple("a", "k.c.when", parse_literal("2001-01-05^^datetime"))
    store = builder.freeze()
    assert evaluate(parse("(lt k.c.when 2049-01-01^^datetime)"), store).entities == {"a"}
    assert evaluate(parse("(gt k.c.when 2049-01-01^^datetime)"), store).is_empty()


def test_datetimes_with_and_without_an_offset_are_incomparable():
    """A datetime with a UTC offset and one without compare as mixed
    kinds do: the comparison skips the pair and the superlative is a
    type error, in the evaluator and in the SPARQL subset evaluator."""
    from kbqa.executor import compile_sparql, evaluate_sparql_subset
    builder = StoreBuilder()
    for entity in ("a", "b"):
        builder.add_triple(entity, "type_rel", "k.c")
    builder.add_triple("a", "k.c.when", parse_literal("2001-01-05T10:00+00:00^^datetime"))
    builder.add_triple("b", "k.c.when", parse_literal("2001-01-07^^datetime"))
    store = builder.freeze()
    for text, want in (("(lt k.c.when 2049-01-01^^datetime)", {"b"}),
                       ("(lt k.c.when 2049-01-01T00:00+00:00^^datetime)", {"a"}),
                       ("(gt k.c.when 2001-01-06^^datetime)", {"b"})):
        form = parse(text)
        assert evaluate(form, store).entities == want, text
        assert evaluate_sparql_subset(compile_sparql(form), store).entities == want, text
        assert is_valid_prediction(text, store)
    with pytest.raises(EvalTypeError, match="mixed literal kinds"):
        evaluate(parse("(ARGMIN k.c k.c.when)"), store)
    assert not is_valid_prediction("(ARGMAX k.c k.c.when)", store)


def test_canonicalize_preserves_evaluation(toy):
    from kbqa.sexpr import canonicalize
    rng = random.Random(606)
    pools = StorePools(toy)
    for _ in range(300):
        ast = random_exec_ast(rng, toy, pools)
        assert evaluate(canonicalize(ast), toy) == evaluate(ast, toy)


def test_answer_set_invariants():
    answer = AnswerSet.of_entities(["b", "a", "a"])
    assert answer.entities == frozenset({"a", "b"})
    assert answer.strings() == ["a", "b"]
    number = AnswerSet.of_number(3)
    assert number.strings() == ["3"]
    assert not number.is_empty()
