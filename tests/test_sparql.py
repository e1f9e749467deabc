import random

import pytest

from kbqa.enumerator import EnumConfig, StartPoint, enumerate_elfs
from kbqa.errors import SparqlUnsupportedError, UnsupportedFormError
from kbqa.executor import (compile_sparql, evaluate, evaluate_sparql_subset)
from kbqa.sexpr import ArgMin, ClassRef, Count, parse

from randgen import StorePools, random_exec_ast, random_store


def differential(lf, store):
    direct = evaluate(lf, store)
    query = compile_sparql(lf, type_relation=store.type_relation)
    via_sparql = evaluate_sparql_subset(query, store)
    assert direct == via_sparql, (
        f"divergence on {lf!r}:\n{query.text}\n"
        f"direct={direct.strings()} sparql={via_sparql.strings()}")
    return query


def test_case_one_pattern_count(toy):
    query = differential(parse("(AND ms.system (JOIN ms.length_units e1))"), toy)
    assert query.shape == "select-distinct"
    assert query.text.count(" .") == 2  # type pattern + relation pattern


def test_count_shape(toy):
    query = differential(parse("(COUNT sf.engine)"), toy)
    assert query.shape == "count-aggregate"
    assert "COUNT(DISTINCT" in query.text


def test_argmin_shape_and_result(toy):
    query = differential(parse("(ARGMIN sf.engine sf.chamber_pressure)"), toy)
    assert query.shape == "superlative-subquery"
    assert "MIN(" in query.text
    assert evaluate_sparql_subset(query, toy).entities == {"eng1"}


def test_argmax_ties_returned():
    from kbqa.store import LiteralValue, StoreBuilder
    builder = StoreBuilder()
    for e in ("a", "b", "c"):
        builder.add_triple(e, "type_rel", "k.c")
        builder.add_triple(e, "k.c.v", LiteralValue("float", 7.0 if e != "c" else 1.0))
    store = builder.freeze()
    query = differential(parse("(ARGMAX k.c k.c.v)"), store)
    assert evaluate_sparql_subset(query, store).entities == {"a", "b"}


def test_comparative_filter(toy):
    query = differential(parse("(lt sf.chamber_pressure 257.0^^float)"), toy)
    assert "FILTER" in query.text and "<" in query.text


def test_reverse_join(toy):
    differential(parse("(JOIN (R ms.length_units) sys1)"), toy)
    differential(parse("(JOIN (R sf.chamber_pressure) eng1)"), toy)


def test_empty_result_is_not_an_error(toy):
    query = compile_sparql(parse("(JOIN sf.oxidizer e1)"),
                           type_relation=toy.type_relation)
    answer = evaluate_sparql_subset(query, toy)
    assert answer.kind == "entities" and not answer.entities


def test_unsupported_construct_rejected(toy):
    with pytest.raises(SparqlUnsupportedError):
        evaluate_sparql_subset(
            "SELECT DISTINCT ?x WHERE { OPTIONAL { ?x <r> ?y . } }", toy)
    with pytest.raises(SparqlUnsupportedError):
        evaluate_sparql_subset("ASK { ?x <r> ?y . }", toy)
    with pytest.raises(SparqlUnsupportedError):  # literal the store cannot parse
        evaluate_sparql_subset(
            'SELECT DISTINCT ?x WHERE { ?x <r> "12.5"^^<integer> . }', toy)


def test_nested_count_not_compilable(toy):
    with pytest.raises(UnsupportedFormError):
        compile_sparql(parse("(JOIN sf.oxidizer (COUNT sf.engine))"))


def test_nested_superlative_not_compilable(toy):
    inner = ArgMin(ClassRef("sf.engine"), "sf.chamber_pressure")
    with pytest.raises(UnsupportedFormError):
        compile_sparql(ArgMin(inner, "sf.chamber_pressure"))


def test_root_atoms_compile_to_values(toy):
    query = compile_sparql(parse("(COUNT sf.engine)"))
    assert "VALUES" not in query.text
    entity_query = compile_sparql(parse("(JOIN ms.length_units e1)"))
    assert "VALUES" not in entity_query.text
    # degenerate roots use VALUES
    from kbqa.sexpr import EntityRef
    values_query = compile_sparql(EntityRef("e1"))
    assert "VALUES ?x { <e1> }" in values_query.text
    assert evaluate_sparql_subset(values_query, toy).entities == {"e1"}


def test_differential_on_enumerator_outputs(toy):
    from kbqa.store import LiteralValue
    starts = [StartPoint.entity("e1"), StartPoint.entity("ox1"),
              StartPoint.literal(LiteralValue("float", 100.0, "float"))]
    elfs = enumerate_elfs(starts, toy, EnumConfig())
    assert elfs, "enumerator returned nothing on the toy store"
    for lf in elfs:
        differential(lf, toy)


def test_differential_on_random_asts_small():
    rng = random.Random(2024)
    for _ in range(5):
        store = random_store(rng, max_entities=20)
        pools = StorePools(store)
        for _ in range(60):
            differential(random_exec_ast(rng, store, pools), store)


def test_deterministic_emission(toy):
    lf = parse("(AND sf.engine (AND (JOIN sf.oxidizer ox1) "
               "(lt sf.chamber_pressure 257.0^^float)))")
    assert compile_sparql(lf).text == compile_sparql(lf).text
    assert compile_sparql(lf).text.startswith("SELECT DISTINCT ?x WHERE {")


def test_distinct_over_many_answers_is_linear():
    """SELECT DISTINCT over a two-pattern query with 20k answers."""
    import time
    from kbqa.store import StoreBuilder
    builder = StoreBuilder()
    for i in range(20_000):
        builder.add_triple(f"e{i}", "type_rel", "ns.thing")
        builder.add_triple(f"e{i}", "ns.thing.link", "target")
    store = builder.freeze()
    form = parse("(AND ns.thing (JOIN ns.thing.link target))")
    query = compile_sparql(form)
    t0 = time.perf_counter()
    answer = evaluate_sparql_subset(query, store)
    elapsed = time.perf_counter() - t0
    assert answer == evaluate(form, store) and len(answer.entities) == 20_000
    assert elapsed < 1.0, f"20k-answer DISTINCT took {elapsed:.2f} s"


@pytest.mark.parametrize("text", [
    "(JOIN r 2001-01-01^^gYear)",
    "(gt r 2001-06-01^^gYear)",
    "(lt r 1995^^gYear)",
    "(JOIN m 3^^myunit)",
    "(lt m 5^^myunit)",
])
def test_differential_on_store_literal_tags(text):
    """The subset evaluator reads a typed literal as the store does:
    gYear is a datetime, also as a bare year or year and month, and an
    unknown tag on a number keeps it a number."""
    import io
    from kbqa.store import StoreBuilder
    store = StoreBuilder().load_triples(io.StringIO(
        "a\tr\t2001-01-01^^gYear\nb\tr\t2002-01-01^^gYear\n"
        "f\tr\t1990^^gYear\ng\tr\t\"1990-05\"^^gYearMonth\n"
        "c\tm\t3^^myunit\nd\tm\t7^^myunit\ne\tm\t2.5^^myunit\n")).freeze()
    differential(parse(text), store)
    assert evaluate(parse(text), store).entities
