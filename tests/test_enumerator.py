import random
import time

import pytest

from kbqa.enumerator import EnumConfig, StartPoint, enumerate_elfs
from kbqa.executor import evaluate
from kbqa.sexpr import parse, print_canonical, relation_count, validate_schema
from kbqa.store import LiteralValue, StoreBuilder

from randgen import random_store
from references import completeness_oracle


def prints(forms):
    return {print_canonical(f) for f in forms}


def toy_starts():
    return [StartPoint.entity("e1"),
            StartPoint.literal(LiteralValue("float", 100.0, "float"))]


def test_entity_start_includes_expected_forms(toy):
    out = prints(enumerate_elfs([StartPoint.entity("e1")], toy))
    assert "(JOIN ms.length_units e1)" in out
    assert "(AND (JOIN ms.length_units e1) ms.system)" in out


def test_literal_start(toy):
    out = prints(enumerate_elfs(
        [StartPoint.literal(LiteralValue("float", 100.0, "float"))], toy))
    assert "(JOIN sf.chamber_pressure 100.0^^float)" in out
    target = parse("(JOIN sf.chamber_pressure 100.0^^float)")
    assert evaluate(target, toy).entities == {"eng1"}


def test_empty_starts(toy):
    assert enumerate_elfs([], toy) == []


def test_every_form_parses_validates_and_is_nonempty(toy):
    for lf in enumerate_elfs(toy_starts(), toy):
        text = print_canonical(lf)
        reparsed = parse(text)
        assert print_canonical(reparsed) == text
        assert validate_schema(reparsed, toy) == []
        assert not evaluate(lf, toy).is_empty()


def test_relation_budget_and_single_start(toy):
    starts = toy_starts()
    start_texts = {"e1", "100.0^^float"}
    for lf in enumerate_elfs(starts, toy):
        assert relation_count(lf) <= 2
        text = print_canonical(lf)
        assert sum(text.count(s) for s in start_texts) >= 1


def test_no_duplicate_canonical_prints(toy):
    out = [print_canonical(f) for f in enumerate_elfs(toy_starts(), toy)]
    assert len(out) == len(set(out))


def test_hop_limit_monotone(toy):
    one = prints(enumerate_elfs(toy_starts(), toy, EnumConfig(hop_limit=1)))
    two = prints(enumerate_elfs(toy_starts(), toy, EnumConfig(hop_limit=2)))
    assert one <= two


def test_truncation_deterministic(toy):
    # The hub's 1-relation forms alone exceed its cap.
    hub = hub_store(400, in_relations=40)
    hub_starts = [StartPoint.entity("hub")]
    hub_cap = sum(relation_count(f) == 1 for f in enumerate_elfs(hub_starts, hub)) - 5
    assert hub_cap >= 20
    for store, starts, cap in [(toy, toy_starts(), 3), (hub, hub_starts, hub_cap)]:
        full = enumerate_elfs(starts, store)
        capped = enumerate_elfs(starts, store, EnumConfig(max_candidates=cap))
        assert [print_canonical(f) for f in capped] == \
            [print_canonical(f) for f in full][:cap]


def test_matches_oracle_on_toy(toy):
    cfg = EnumConfig(max_candidates=100000)
    assert prints(enumerate_elfs(toy_starts(), toy, cfg)) == \
        prints(completeness_oracle(toy_starts(), toy, cfg))


def test_matches_oracle_hop1_on_toy(toy):
    cfg = EnumConfig(hop_limit=1, max_candidates=100000)
    assert prints(enumerate_elfs(toy_starts(), toy, cfg)) == \
        prints(completeness_oracle(toy_starts(), toy, cfg))


def test_matches_oracle_on_random_stores():
    rng = random.Random(55)
    cases = []
    for _ in range(8):
        store = random_store(rng, max_entities=14)
        entities = sorted(store.all_entities())
        starts = [StartPoint.entity(e) for e in entities[:3]]
        literals = [t.object for t in store.triples()
                    if isinstance(t.object, LiteralValue)]
        if literals:
            starts.append(StartPoint.literal(literals[0]))
        cases.append((store, starts))
    cases.append((hub_store(200, in_relations=3),
                  [StartPoint.entity("hub"), StartPoint.literal(LiteralValue("float", 3.0))]))
    cfg = EnumConfig(max_candidates=100000)
    for store, starts in cases:
        assert prints(enumerate_elfs(starts, store, cfg)) == \
            prints(completeness_oracle(starts, store, cfg))


def test_invalid_config():
    with pytest.raises(ValueError):
        EnumConfig(hop_limit=3)


def hub_store(degree, in_relations=1):
    """A typed hub with `degree` in-edges spread over `in_relations`
    relations; each source is typed, points on to one of 50 targets and
    carries a number."""
    builder = StoreBuilder()
    builder.add_triple("hub", "type_rel", "k.hub")
    builder.add_triple("hub", "k.home", "t0")
    for j in range(degree):
        source = f"s{j}"
        builder.add_triple(source, "type_rel", f"k.c{j % 5}")
        builder.add_triple(source, f"k.in{j % in_relations}", "hub")
        builder.add_triple(source, "k.next", f"t{j % 50}")
        builder.add_triple(source, "k.size", LiteralValue("float", float(j % 7)))
    return builder.freeze()


def test_degree_ten_thousand_hub_enumerates_quickly():
    store = hub_store(10_000)
    t0 = time.perf_counter()
    out = enumerate_elfs([StartPoint.entity("hub")], store)
    elapsed = time.perf_counter() - t0
    assert "(JOIN k.in0 hub)" in prints(out)
    assert elapsed < 2.0, f"degree-10^4 hub took {elapsed:.2f} s"


def typed_store(rng):
    """A small store with the type-edge shapes class wraps must get
    right: subjects with several type edges, type edges to literals,
    and class nodes at either end of other edges. Its own generator, so
    that `random_store`'s draws stay as they are."""
    builder = StoreBuilder()
    entities = [f"e{i}" for i in range(rng.randint(3, 7))]
    classes = [f"k.c{i}" for i in range(rng.randint(1, 3))]
    literals = [LiteralValue("float", float(i)) for i in range(2)]
    relations = [f"k.r{i}" for i in range(rng.randint(1, 2))]
    for entity in entities:
        for _ in range(rng.choice((0, 1, 1, 2, 3))):
            builder.add_triple(entity, "type_rel", rng.choice(classes + literals))
    nodes = entities + classes
    for _ in range(rng.randint(len(entities), 2 * len(entities))):
        builder.add_triple(rng.choice(nodes), rng.choice(relations),
                           rng.choice(nodes + literals))
    starts = [StartPoint.entity(e) for e in rng.sample(entities, 2)]
    starts += [StartPoint.entity(c) for c in classes]
    starts.append(StartPoint.literal(rng.choice(literals)))
    return builder.freeze(), starts


def test_matches_oracle_on_typed_stores():
    """Multi-typed subjects, literal type objects, class nodes on
    non-type edges and class-node starts, some of which are no node of
    the store and so denote nothing."""
    rng = random.Random(2024)
    cfg = EnumConfig(max_candidates=100000)
    for _ in range(40):
        store, starts = typed_store(rng)
        assert [print_canonical(f) for f in enumerate_elfs(starts, store, cfg)] == \
            [print_canonical(f) for f in completeness_oracle(starts, store, cfg)]
