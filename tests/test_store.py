import gc
import io
import random
import sys
import threading

import pytest

from kbqa.errors import DataError, TripleParseError
from kbqa.fixtures import TOY_ALIASES, TOY_LABELS, TOY_TRIPLES, synthetic_store, toy_store
from kbqa.retrieve import build_lexical_scorer
from kbqa.store import (LiteralValue, StoreBuilder, TripleStore, _classify_literal,
                        collector_paused, parse_literal, read_rows, reduce_iri)
from kbqa.vocab import build_vocabulary

from randgen import random_store
from references import (EntityText, ReferenceIndex, entity_text_store,
                        recording_entity_text, toy_aliases_tsv, toy_triples_tsv,
                        two_pass_idf, two_pass_vocabulary)


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
    assert toy.in_edges("o").get("absent_relation", ()) == ()


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


def _literal_outcome(parse, text):
    try:
        lit = parse(text)
    except ValueError as exc:
        return ("error", type(exc))
    if lit is None:
        return None
    return (lit.kind, type(lit.value), repr(lit.value), lit.type_tag)


def test_parse_literal_shortcut_agrees_with_the_classifier():
    """`parse_literal` returns None for an id-shaped token before any
    check; on every shape it gives what the full checks give."""
    shapes = [
        "257.0^^float", "13.9", "42", '"hello world"', "plain_id",
        "2001-01-05^^datetime", "abc^^float",
        # ids with `^^` or a quote after the first character
        "m.0^^x", "e1^^", "x^^float", 'a"b"', 'id"', 'say "hi"',
        # the sign alone and before other text
        "-", "-x", "-5", "-5.25", "--5", "-5^^integer", '-"q"',
        # quotes
        '"', '""', '"a"b"', '"3"', '"x"^^string',
        # any Unicode decimal digit starts a number, other digits do not
        "\u0663", "\u0663.\u0665", "\u00b2", "\u2163",
        "", " 5", "1.", ".5", "1e5", "^^float", "5^^", "1.5^^float^^integer",
    ]
    shapes += [d + tail for d in "0123456789" for tail in ("", "0", ".5", "x", "^^integer")]
    for text in shapes:
        assert _literal_outcome(parse_literal, text) == \
            _literal_outcome(_classify_literal, text), text


@pytest.mark.parametrize("enabled", [True, False])
def test_read_rows_pauses_the_collector_and_restores_its_state(enabled):
    """Every loader's rows are parsed with the collector off, and the
    caller's state comes back after a clean file and after a bad row."""
    during = []

    def parse_row(line):
        during.append(gc.isenabled())
        if line == "bad":
            raise DataError("bad row")

    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        read_rows(["a\n", "b\n"], "ok.tsv", parse_row)
        assert gc.isenabled() is enabled
        with pytest.raises(TripleParseError) as info:
            read_rows(["a\n", "bad\n", "c\n"], "bad.tsv", parse_row)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert (info.value.source, info.value.line_no) == ("bad.tsv", 2)
    assert during == [False] * 4


def test_read_rows_skips_blank_and_comment_lines():
    lines = ["a\n", "\n", "  \n", "\t\u00a0\n", "# c\n", "  # c\n", "b # not\n",
             "c\n\n", "#\n", " x\n", "last"]
    for comments in (True, False):
        seen = []
        read_rows(lines, None, seen.append, comments=comments)
        stripped = [line.rstrip("\n") for line in lines]
        assert seen == [line for line in stripped if line.strip() and not (
            comments and line.lstrip().startswith("#"))]


def _text_stores():
    """Stores, each with the entity text it was built from."""
    rng = random.Random(8)
    stores = []
    for make in [toy_store, entity_text_store] + [
            lambda: random_store(rng, alias_shapes=True)] * 20:
        with recording_entity_text() as text:
            stores.append((make(), text))
    return stores


def test_vocabulary_and_idf_match_the_two_pass_reference():
    """The store counts its entity words in the one pass that folds the
    aliases; the vocabulary and the IDF table built from those counts
    equal the ones built by splitting every label and alias again."""
    for store, text in _text_stores():
        for extra in ((), ("which route is 66 km", "ROUTE Alpha")):
            got = build_vocabulary(store, extra)
            want = two_pass_vocabulary(store, text, extra)
            assert got.tokens(range(got.size)) == want.tokens(range(want.size))
        scorer = build_lexical_scorer(store)
        idf, unseen = two_pass_idf(store, text)
        assert {t: w.hex() for t, w in scorer._idf.items()} == \
            {t: w.hex() for t, w in idf.items()}
        assert scorer._unseen.hex() == unseen.hex()


def test_entity_text_counts_of_hand_made_texts():
    documents, counts = entity_text_store().entity_text_counts()
    # e1: label + 2 aliases; e2: label + 3 distinct aliases; e3: none;
    # e4: the empty label falls back to the first alias, + 2 aliases;
    # e5 (known only by its alias): label from the alias + the alias.
    assert documents == 3 + 4 + 0 + 3 + 2
    assert dict(counts) == {"springfield": 3, "2": 2, "route": 6, "66": 4,
                            "3.5": 3, "km": 3, "road": 3}
    with pytest.raises(TypeError):
        counts["route"] = 0


def test_labels_of_hand_made_texts():
    """An entity without a label, or with an empty one, takes its first
    alias as its label; one with neither is named by its id."""
    store = entity_text_store()
    assert [store.entity_label(e) for e in ("e1", "e2", "e3", "e4", "e5")] == [
        "Springfield 2", "Route 66 route", "e3", "3.5 km road", "route route"]
    assert list(store.dump_labels_tsv()) == [
        "e1\tSpringfield 2", "e2\tRoute 66 route", "e4\t3.5 km road", "e5\troute route"]
    # An empty first alias is an empty label: the id names the entity,
    # and the alias is one document without words.
    builder = StoreBuilder()
    builder.load_aliases(io.StringIO("\te6\t0.5\nSix\te6\t0.4\n"))
    store = builder.freeze()
    assert store.entity_label("e6") == "e6" and list(store.dump_labels_tsv()) == []
    documents, counts = store.entity_text_counts()
    assert (documents, dict(counts)) == (2, {"six": 1})


def test_literal_identity_promotes_numeric_kinds():
    a = LiteralValue("integer", 100)
    b = LiteralValue("float", 100.0, "float")
    assert a == b
    assert hash(a) == hash(b)
    assert a != LiteralValue("string", "100")


def test_entity_label_and_meta(toy):
    assert toy.entity_label("e1") == "decimetre"
    assert toy.alias_lookup("lox") == [("ox1", 0.7)]
    assert toy.alias_lookup("decimetre") == [("e1", 0.9)]
    assert toy.entity_label("nonexistent") == "nonexistent"


@pytest.mark.parametrize("enabled", [True, False])
def test_freeze_pauses_the_collector_and_restores_its_state(monkeypatch, enabled):
    """The cyclic collector is off while the indexes are built, and the
    caller's state comes back after the build, also when it fails."""
    build = TripleStore._build
    during = []

    def recording_build(self, builder):
        during.append(gc.isenabled())
        if builder.type_relation == "fail":
            raise RuntimeError("build failed")
        build(self, builder)

    monkeypatch.setattr(TripleStore, "_build", recording_build)
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        store = StoreBuilder().load_triples(io.StringIO("s\tr\to\n")).freeze()
        assert len(store) == 1 and gc.isenabled() is enabled
        with pytest.raises(RuntimeError):
            StoreBuilder(type_relation="fail").freeze()
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert during == [False, False]


# ---------------------------------------------------------------------------
# the columns against a plain-dict index


def exact(obj):
    """A store object, with a literal's kind, tag, value type and text,
    which literal equality (by value) ignores."""
    if isinstance(obj, LiteralValue):
        return ("literal", obj.kind, obj.type_tag, type(obj.value).__name__, obj.text())
    return obj


def exact_triples(triples):
    return [tuple(map(exact, t)) for t in triples]


def exact_items(edges):
    """A view's items in its order, each leaf in its order."""
    return [(r, [exact(x) for x in leaf]) for r, leaf in edges.items()]


def assert_matches_reference(store, added=None, text=None):
    """Every triple query of the store against `ReferenceIndex`, and
    with `added`, the triples as added: the first of each (subject,
    relation, object) is kept, literals compared by value. `text` is the
    entity text the store was built from: a node it names is known."""
    text = text or EntityText()
    named = {*text.labels, *(entity for _, entity, _ in text.aliases)}
    ref = ReferenceIndex(store)
    if added is not None:
        assert exact_triples(ref.triples) == exact_triples(dict.fromkeys(added))
    assert len(store) == len(ref.triples)
    for node in [*ref.out, *ref.into, "no.such.node", LiteralValue("float", -0.125)]:
        assert exact_items(store.in_edges(node)) == exact_items(ref.into.get(node, {}))
        assert store.cotypes(node) == ref.cotypes.get(node, set())
        if isinstance(node, LiteralValue):
            assert store.has_node(node) == (node in ref.into)
        else:
            assert exact_items(store.out_edges(node)) == exact_items(ref.out.get(node, {}))
            assert store.has_node(node) == (node in ref.entities or node in named)
    assert ref.entities <= store.all_entities()
    for name in store.classes() + ["no.such.class"]:
        assert store.instances_of(name) == ref.members.get(name, set())
    for name in store.relations() + ["no.such.relation"]:
        want = exact_triples(t for t in ref.triples if t.relation == name)
        got = store.relation_triples(name)
        assert exact_triples(got) == want
        got.clear()  # each call returns a fresh list
        assert exact_triples(store.relation_triples(name)) == want
    assert list(store.dump_triples_tsv()) == [
        f"{s}\t{r}\t{o.text() if isinstance(o, LiteralValue) else o}"
        for s, r, o in ref.triples]
    rebuilt = StoreBuilder(store.type_relation)
    rebuilt.load_triples(store.dump_triples_tsv())
    rebuilt.load_schema(store.dump_schema_tsv())
    rebuilt.load_labels(store.dump_labels_tsv())
    rebuilt.load_aliases(store.dump_aliases_tsv())
    rebuilt = rebuilt.freeze()
    for dump in (TripleStore.dump_triples_tsv, TripleStore.dump_schema_tsv,
                 TripleStore.dump_labels_tsv, TripleStore.dump_aliases_tsv):
        assert list(dump(rebuilt)) == list(dump(store))


def tsv_store(text):
    """The store of a triples TSV, and the triples its lines add."""
    added = []
    for line in text.splitlines():
        s, r, token = line.split("\t")
        literal = parse_literal(token)
        added.append((s, r, token if literal is None else literal))
    return StoreBuilder().load_triples(io.StringIO(text)).freeze(), added


def test_columns_match_the_reference_index_on_random_stores(monkeypatch):
    added = []
    add_triple = StoreBuilder.add_triple

    def recording_add_triple(self, subject, relation, obj):
        added.append((subject, relation, obj))
        add_triple(self, subject, relation, obj)

    monkeypatch.setattr(StoreBuilder, "add_triple", recording_add_triple)
    rng = random.Random(31)
    for _ in range(25):
        added.clear()
        with recording_entity_text() as text:
            store = random_store(rng, alias_shapes=True)
        assert_matches_reference(store, list(added), text)
    monkeypatch.undo()
    assert_matches_reference(toy_store(), TOY_TRIPLES, EntityText(TOY_LABELS, TOY_ALIASES))


def test_xsd_year_and_year_month_literals_ingest_as_their_first_day():
    """A gYear payload YYYY reads as January 1 of the year, a gYearMonth
    payload YYYY-MM as the first of the month, quoted or not; full ISO
    dates keep their day; and the dump of such a store ingests back to
    the same dump."""
    from datetime import datetime
    year, month = datetime(1990, 1, 1), datetime(1990, 5, 1)
    assert parse_literal("1990^^gYear") == LiteralValue("datetime", year, "gYear")
    assert parse_literal('"1990"^^gYear') == LiteralValue("datetime", year, "gYear")
    assert parse_literal('"1990-05"^^gYearMonth') == \
        LiteralValue("datetime", month, "gYearMonth")
    assert parse_literal("1990-05^^gYearMonth").value == month
    assert parse_literal("2001-06-01^^gYear").value == datetime(2001, 6, 1)
    assert parse_literal("2001-01-05T10:30:00^^datetime").value == \
        datetime(2001, 1, 5, 10, 30)
    for bad in ("1990-13^^gYearMonth", "199^^gYear", "1990-5^^gYearMonth"):
        with pytest.raises(ValueError):
            parse_literal(bad)
    store, added = tsv_store('a\tr\t1990^^gYear\nb\tr\t"1990"^^gYear\n'
                             'c\tr\t"1990-05"^^gYearMonth\nd\tr\t2001-06-01^^gYear')
    assert_matches_reference(store, added)
    dumped = list(store.dump_triples_tsv())
    rebuilt = StoreBuilder().load_triples(line + "\n" for line in dumped).freeze()
    assert list(rebuilt.dump_triples_tsv()) == dumped


def test_datetime_literals_print_in_their_tags_lexical_form():
    """A gYear prints as YYYY, a gYearMonth as YYYY-MM and a date as
    YYYY-MM-DD when the value holds nothing finer; a finer value prints
    with isoformat, as does every `datetime`-tagged one. The printed
    forms reach logical forms and SPARQL, and a dump ingests back to
    the same bytes."""
    from kbqa.executor import compile_sparql
    from kbqa.sexpr import parse, print_canonical
    printed = {
        "1990^^gYear": "1990^^gYear",
        '"1990"^^gYear': "1990^^gYear",
        "2001-01-01^^gYear": "2001^^gYear",
        "0099^^gYear": "0099^^gYear",
        "2001-06-01^^gYear": "2001-06-01T00:00:00^^gYear",
        '"1990-05"^^gYearMonth': "1990-05^^gYearMonth",
        "1990-05-02^^gYearMonth": "1990-05-02T00:00:00^^gYearMonth",
        "2001-06-01^^date": "2001-06-01^^date",
        "2001-06-01T10:30:00^^date": "2001-06-01T10:30:00^^date",
        "2001-06-01^^datetime": "2001-06-01T00:00:00^^datetime",
        "2001-06-01T00:00+00:00^^gYear": "2001-06-01T00:00:00+00:00^^gYear",
    }
    for text, want in printed.items():
        literal = parse_literal(text)
        assert literal.text() == want, text
        assert parse_literal(want) == literal and parse_literal(want).text() == want
    form = "(lt r 1995^^gYear)"
    assert print_canonical(parse(form)) == form
    assert '"1995"^^<gYear>' in compile_sparql(parse(form)).text
    store, _ = tsv_store("\n".join(f"s{i}\tr\t{text}" for i, text in enumerate(printed)))
    dumped = list(store.dump_triples_tsv())
    assert "s0\tr\t1990^^gYear" in dumped and "s7\tr\t2001-06-01^^date" in dumped
    rebuilt = StoreBuilder().load_triples(line + "\n" for line in dumped).freeze()
    assert list(rebuilt.dump_triples_tsv()) == dumped


def test_equal_literals_under_one_subject_and_relation_keep_the_first():
    store, added = tsv_store("a\tr\t5^^integer\na\tr\t5.0^^float")
    assert len(store) == 1
    assert list(store.dump_triples_tsv()) == ["a\tr\t5^^integer"]
    assert_matches_reference(store, added)


def test_equal_literals_under_two_subjects_keep_their_text_and_share_a_node():
    store, added = tsv_store("a\tr\t5^^integer\nb\tr\t5.0^^float")
    assert list(store.dump_triples_tsv()) == ["a\tr\t5^^integer", "b\tr\t5.0^^float"]
    as_written = exact(LiteralValue("float", 5.0, "float"))
    assert exact_items(store.out_edges("b")) == [("r", [as_written])]
    for five in (LiteralValue("integer", 5), LiteralValue("float", 5.0, "float")):
        assert dict(store.in_edges(five)) == {"r": ("a", "b")}
        assert store.has_node(five)
    assert_matches_reference(store, added)


def test_duplicate_object_only_and_class_subject_nodes():
    store, added = tsv_store("a\tr\tb\na\tr\tb\nx\ttype_rel\tk.x\n"
                             "k.x\tr\ty\na\tq\tb\nc\tr\tb")
    assert len(store) == 5
    # b is only an object: no out-edges, in-edges in first-row order
    assert dict(store.out_edges("b")) == {}
    assert list(store.in_edges("b").items()) == [("r", ("a", "c")), ("q", ("a",))]
    assert store.has_node("b") and store.has_entity("b")
    # the class k.x is also a subject
    assert store.instances_of("k.x") == {"x"}
    assert dict(store.out_edges("k.x")) == {"r": ("y",)}
    assert dict(store.in_edges("k.x")) == {"type_rel": ("x",)}
    assert store.cotypes("k.x") == {"k.x"} and store.has_entity("k.x")
    assert_matches_reference(store, added)


def test_first_views_from_many_threads_are_the_same():
    """Threads that take the first views of a fresh store all get the
    views a single thread gets, holding the same leaf tuples."""
    want = synthetic_store(400, seed=3)
    nodes = sorted(want.all_entities()) + want.classes()
    expected = {n: (exact_items(want.out_edges(n)), exact_items(want.in_edges(n)))
                for n in nodes}
    store = synthetic_store(400, seed=3)
    n_threads = 6
    start = threading.Barrier(n_threads)
    seen = [None] * n_threads

    def take_views(i):
        start.wait()
        order = nodes[i * 37 % len(nodes):] + nodes[:i * 37 % len(nodes)]
        seen[i] = {n: (store.out_edges(n), store.in_edges(n)) for n in order}

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=take_views, args=(i,)) for i in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for views in seen:
        for n, (out, into) in views.items():
            assert (exact_items(out), exact_items(into)) == expected[n]
            for view, again in ((out, store.out_edges(n)), (into, store.in_edges(n))):
                assert all(leaf is again[r] for r, leaf in view.items())


def test_load_adds_few_collector_tracked_objects_per_triple():
    """Loading and freezing a store leaves few containers for the cyclic
    collector to walk: the triple indexes are arrays, entity text is a
    label map of strings, and the alias index holds a tuple of (entity,
    popularity) tuples per surface. With a tuple per triple in several
    dicts and an object per entity, this read 4.1 per triple; with a list
    per surface and one per entity's aliases, 0.78; now 0.56."""
    gc.collect()
    with collector_paused():
        before = len(gc.get_objects())
        store = synthetic_store(20_000)
        added = len(gc.get_objects()) - before
    assert len(store) == 90_000
    assert added / len(store) < 1.0


def test_entity_text_leaves_few_tracked_objects_per_alias_row():
    """After a collection, a store keeps no list per alias surface or
    per entity: the index's tuples hold only strings and floats, so the
    collector stops tracking them. With those lists this read 2.50 per
    alias row (`synthetic_store` has one alias per entity); now 0.50,
    the literal objects of its 10,000 float triples."""
    gc.collect()
    before = len(gc.get_objects())
    store = synthetic_store(20_000)
    gc.collect()
    added = len(gc.get_objects()) - before
    rows = len(list(store.dump_aliases_tsv()))
    assert rows == 20_000
    assert added / rows <= 1.0
