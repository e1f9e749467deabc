import io
import random

import pytest

from kbqa.errors import TripleParseError
from kbqa.fixtures import (TOY_TRIPLES, random_store, toy_aliases_tsv, toy_store,
                           toy_triples_tsv)
from kbqa.store import LiteralValue, StoreBuilder, parse_literal, reduce_iri


def fixture_scan(pred):
    """Independent oracle: raw scan over the fixture triple list."""
    return {t for t in TOY_TRIPLES if pred(t)}


def out_pairs(store, subject):
    return {(r, o) for r, leaf in store.out_edges(subject).items() for o in leaf}


def in_pairs(store, obj):
    return {(r, s) for r, leaf in store.in_edges(obj).items() for s in leaf}


def test_single_line_ingestion():
    store = StoreBuilder().load_triples(io.StringIO("sys1\tms.length_units\te1\n")).freeze()
    assert len(store) == 1
    assert "ms.length_units" in store.catalog
    assert store.catalog["ms.length_units"].kind == "relation"


def test_typed_literal_object():
    store = StoreBuilder().load_triples(
        io.StringIO("eng1\tsf.chamber_pressure\t257.0^^float\n")).freeze()
    (triple,) = list(store.triples())
    assert triple.object == LiteralValue("float", 257.0, "float")
    assert triple.object.kind == "float"
    assert triple.object.type_tag == "float"


def test_empty_stream():
    store = StoreBuilder().load_triples(io.StringIO("")).freeze()
    assert len(store) == 0
    assert out_pairs(store, "anything") == set()
    assert store.instances_of("no.such.class") == frozenset()
    assert store.alias_lookup("x") == []


def test_malformed_line_reports_line_number():
    with pytest.raises(TripleParseError) as err:
        StoreBuilder().load_triples(io.StringIO("a\tb\tc\nbad line without tabs\n"))
    assert err.value.line_no == 2


def test_mixed_literal_kind_rejected():
    with pytest.raises(TripleParseError):
        StoreBuilder().load_triples(io.StringIO("a\tr\t12.5^^integer\n"))


def test_ntriples_subset():
    lines = io.StringIO(
        '<http://kb/e/sys1> <http://kb/r#ms.length_units> <http://kb/e/e1> .\n'
        '<eng1> <sf.chamber_pressure> "257.0"^^<float> .\n')
    store = StoreBuilder().load_triples(lines, fmt="ntriples").freeze()
    assert out_pairs(store, "sys1") == {("ms.length_units", "e1")}
    assert ("sf.chamber_pressure", LiteralValue("float", 257.0, "float")) \
        in out_pairs(store, "eng1")


def test_reduce_iri():
    assert reduce_iri("http://kb/e/sys1") == "sys1"
    assert reduce_iri("http://kb/r#rel") == "rel"
    assert reduce_iri("bare") == "bare"


def test_neighbors_out_fixture(toy):
    expected = {(t[1], t[2]) for t in fixture_scan(lambda t: t[0] == "sys1")}
    assert out_pairs(toy, "sys1") == expected
    assert out_pairs(toy, "sys1") == {("ms.length_units", "e1"),
                                      ("type_rel", "ms.system")}
    assert out_pairs(toy, "e1") == set()
    assert out_pairs(toy, "unknown_id") == set()


def test_neighbors_in_fixture(toy):
    assert in_pairs(toy, "e1") == {("ms.length_units", "sys1")}
    assert toy.subjects_of("o", "absent_relation") == set()


def test_neighbors_in_literal_start_point():
    builder = StoreBuilder()
    builder.add_triple("x", "rel", LiteralValue("float", 13.9))
    store = builder.freeze()
    assert in_pairs(store, LiteralValue("float", 13.9)) == {("rel", "x")}
    # integer/float promotion: the same number matches either kind
    assert in_pairs(store, LiteralValue("integer", 13.9)) == {("rel", "x")}


def test_instances_of(toy):
    scan = {t[0] for t in fixture_scan(
        lambda t: t[1] == "type_rel" and t[2] == "ms.system")}
    assert toy.instances_of("ms.system") == scan == {"sys1"}
    assert toy.instances_of("sf.engine") == {"eng1", "eng2"}
    assert toy.instances_of("no.such.class") == frozenset()


def test_entity_relations(toy):
    assert toy.entity_relations("e1") == {"ms.length_units"}
    assert toy.entity_relations("sys1") == {"ms.length_units", "type_rel"}
    assert toy.entity_relations("isolated") == set()


def test_alias_case_folding():
    builder = StoreBuilder()
    builder.add_triple("e1", "r", "e2")
    builder.load_aliases(io.StringIO("decimetre\te1\t0.9\n"))
    store = builder.freeze()
    assert store.alias_lookup("Decimetre") == [("e1", 0.9)]
    assert store.alias_lookup("  DECIMETRE ") == [("e1", 0.9)]


def test_alias_popularity_sort():
    builder = StoreBuilder()
    builder.add_triple("a", "r", "b")
    builder.load_aliases(io.StringIO("dm\ta\t0.2\ndm\tb\t0.7\n"))
    store = builder.freeze()
    assert store.alias_lookup("dm") == [("b", 0.7), ("a", 0.2)]


def test_alias_popularity_tie_breaks_by_entity_id():
    builder = StoreBuilder()
    builder.add_triple("b", "r", "a")
    builder.load_aliases(io.StringIO("dm\tb\t0.5\ndm\ta\t0.5\n"))
    assert builder.freeze().alias_lookup("dm") == [("a", 0.5), ("b", 0.5)]


def test_alias_empty_file():
    builder = StoreBuilder()
    builder.add_triple("a", "r", "b")
    builder.load_aliases(io.StringIO(""))
    assert builder.freeze().alias_lookup("anything") == []


def test_alias_strict_rejects_unknown_entity():
    builder = StoreBuilder()
    builder.add_triple("a", "r", "b")
    with pytest.raises(TripleParseError):
        builder.load_aliases(io.StringIO("ghost\tzz\t0.1\n"), strict=True)
    # default keeps the row
    builder2 = StoreBuilder()
    builder2.add_triple("a", "r", "b")
    builder2.load_aliases(io.StringIO("ghost\tzz\t0.1\n"))
    assert builder2.freeze().alias_lookup("ghost") == [("zz", 0.1)]


def test_alias_negative_popularity_rejected():
    builder = StoreBuilder()
    with pytest.raises(TripleParseError):
        builder.load_aliases(io.StringIO("x\te\t-1\n"))


def test_duplicate_triples_deduplicated():
    store = StoreBuilder().load_triples(io.StringIO("a\tr\tb\na\tr\tb\n")).freeze()
    assert len(store) == 1


def test_index_round_trip(toy):
    for triple in toy.triples():
        assert (triple.relation, triple.object) in out_pairs(toy, triple.subject)
        assert (triple.relation, triple.subject) in in_pairs(toy, triple.object)


def test_edge_views_agree_with_neighbors(toy):
    """out_edges/in_edges hold exactly the edges a scan of the triples
    finds, on every node of the toy store and of seeded random stores,
    and on nodes the store lacks."""
    rng = random.Random(23)
    for store in [toy] + [random_store(rng, max_entities=20) for _ in range(6)]:
        nodes = set(store.all_entities()) | {t.object for t in store.triples()}
        for node in nodes | {"unknown_id", LiteralValue("float", -1.5)}:
            ins = {(t.relation, t.subject) for t in store.triples() if t.object == node}
            assert in_pairs(store, node) == ins
            if isinstance(node, str):
                outs = {(t.relation, t.object) for t in store.triples() if t.subject == node}
                assert out_pairs(store, node) == outs
    assert toy.out_edges("eng1")["sf.oxidizer"] == ("ox1",)
    assert toy.out_edges("eng1")["type_rel"] is toy.out_edges("eng1")["type_rel"]
    assert dict(toy.in_edges("unknown_id")) == {}


def test_edge_views_are_read_only(toy):
    for edges in (toy.out_edges("eng1"), toy.in_edges("sf.engine"), toy.out_edges("nobody")):
        with pytest.raises(TypeError):
            edges["type_rel"] = ("x",)
        with pytest.raises(TypeError):
            del edges["type_rel"]


def test_cotypes():
    builder = StoreBuilder()
    for subject, obj in [("a", "k.x"), ("a", "k.y"), ("b", "k.y"), ("c", "k.z"),
                         ("c", LiteralValue("float", 5.0)), ("d", LiteralValue("float", 6.0))]:
        builder.add_triple(subject, "type_rel", obj)
    store = builder.freeze()
    assert store.cotypes("k.x") == {"k.x", "k.y"}
    assert store.cotypes("k.y") == {"k.x", "k.y"}
    assert store.cotypes("k.z") == {"k.z"}
    assert store.cotypes(LiteralValue("integer", 5)) == {"k.z"}
    assert store.cotypes(LiteralValue("float", 6.0)) == frozenset()
    assert store.cotypes("a") == frozenset()


def test_degree_sums(toy):
    out_degree = sum(len(out_pairs(toy, s)) for s in toy.all_entities())
    assert out_degree == len(toy)
    objects = {t.object for t in toy.triples()}
    in_degree = sum(len(in_pairs(toy, o)) for o in objects)
    assert in_degree == len(toy)


def test_dump_reingest_round_trip(toy):
    dumped = list(toy.dump_triples_tsv())
    rebuilt = StoreBuilder().load_triples(iter(line + "\n" for line in dumped)).freeze()
    assert set(rebuilt.triples()) == set(toy.triples())
    assert set(rebuilt.catalog) == set(toy.catalog)
    assert {n: i.kind for n, i in rebuilt.catalog.items()} == \
        {n: i.kind for n, i in toy.catalog.items()}


def test_fixture_tsv_matches_programmatic_store(toy):
    builder = StoreBuilder()
    builder.load_triples(io.StringIO(toy_triples_tsv()))
    builder.load_aliases(io.StringIO(toy_aliases_tsv()))
    rebuilt = builder.freeze()
    assert set(rebuilt.triples()) == set(toy.triples())
    assert rebuilt.alias_lookup("decimetre") == toy.alias_lookup("decimetre")


def test_parse_literal_shapes():
    assert parse_literal("257.0^^float") == LiteralValue("float", 257.0, "float")
    assert parse_literal("13.9") == LiteralValue("float", 13.9)
    assert parse_literal("42") == LiteralValue("integer", 42)
    assert parse_literal('"hello world"') == LiteralValue("string", "hello world")
    assert parse_literal("plain_id") is None
    assert parse_literal("2001-01-05^^datetime").kind == "datetime"
    with pytest.raises(ValueError):
        parse_literal("abc^^float")


def test_literal_identity_promotes_numeric_kinds():
    a = LiteralValue("integer", 100)
    b = LiteralValue("float", 100.0, "float")
    assert a == b
    assert hash(a) == hash(b)
    assert a != LiteralValue("string", "100")


def test_entity_label_and_meta(toy):
    assert toy.entity_label("e1") == "decimetre"
    assert toy.entity_meta("ox1").popularity == 0.7
    assert toy.entity_label("nonexistent") == "nonexistent"
