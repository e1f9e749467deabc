"""Test references kept out of the engine: the brute-force enumeration
oracle that `enumerate_elfs` is checked against, the two-pass
vocabulary and IDF table that the store's one-pass entity-text counts
are checked against, read from the raw entity text a builder was given,
the plain-dict index that the store's columns are checked against, the
toy store's text files, and three question fixtures around known
failure modes (disconnected relation, missed comparative,
out-of-catalog name).
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from kbqa.enumerator import EnumConfig, StartPoint
from kbqa.executor import evaluate
from kbqa.fixtures import TOY_ALIASES, TOY_TRIPLES
from kbqa.sexpr import (And, ClassRef, Join, LogicalForm, Reverse,
                        print_canonical, relation_count)
from kbqa.store import LiteralValue, StoreBuilder, TripleStore, text_words
from kbqa.vocab import _NUMBER_WORD_RE, Vocabulary, tokenize_name


def completeness_oracle(starts: list[StartPoint], store: TripleStore,
                        cfg: EnumConfig = EnumConfig()) -> list[LogicalForm]:
    """Brute-force reference: try every relation from the catalog in
    every orientation at every hop, keep what evaluates non-empty.
    Checked against enumerate_elfs; quadratic in the catalog."""
    relations = store.relations()
    classes = store.classes()
    collected: dict[str, LogicalForm] = {}

    def keep_nonempty(form: LogicalForm) -> bool:
        answer = evaluate(form, store)
        if answer.is_empty():
            return False
        collected.setdefault(print_canonical(form), form)
        return True

    def wraps(form: LogicalForm) -> None:
        for class_name in classes:
            keep_nonempty(And(ClassRef(class_name), form))

    for start in dict.fromkeys(starts):
        anchor = start.ref()
        level1 = []
        for relation in relations:
            for candidate in (Join(relation, anchor), Join(Reverse(relation), anchor)):
                if keep_nonempty(candidate):
                    level1.append(candidate)
                    wraps(candidate)
        if cfg.hop_limit < 2:
            continue
        for base in level1:
            for relation in relations:
                for candidate in (Join(relation, base), Join(Reverse(relation), base)):
                    if keep_nonempty(candidate):
                        wraps(candidate)

    ordered = sorted(collected.values(),
                     key=lambda f: (relation_count(f), print_canonical(f)))
    return ordered[:cfg.max_candidates]


class ReferenceIndex:
    """A store's triple indexes as plain dicts of tuples, built from
    `store.triples()` in one pass: `out[subject][relation]` holds the
    objects and `into[object][relation]` the subjects, each relation
    keyed at its first triple and each tuple in triple order. Literal
    objects key `into` by value, as the store's nodes do."""

    def __init__(self, store: TripleStore):
        self.triples = list(store.triples())
        out: dict = {}
        into: dict = {}
        for s, r, o in self.triples:
            out.setdefault(s, {}).setdefault(r, []).append(o)
            into.setdefault(o, {}).setdefault(r, []).append(s)
        self.out = {s: {r: tuple(leaf) for r, leaf in leaves.items()}
                    for s, leaves in out.items()}
        self.into = {o: {r: tuple(leaf) for r, leaf in leaves.items()}
                     for o, leaves in into.items()}
        type_relation = store.type_relation
        self.members: dict[str, set] = {}
        self.cotypes: dict = {}
        for s, leaves in self.out.items():
            types = leaves.get(type_relation, ())
            classes = {t for t in types if isinstance(t, str)}
            for t in types:
                if isinstance(t, str):
                    self.members.setdefault(t, set()).add(s)
                self.cotypes.setdefault(t, set()).update(classes)
        self.entities = set(self.out) | {
            o for _, r, o in self.triples if r != type_relation and isinstance(o, str)}


@dataclass
class EntityText:
    """Entity text as a `StoreBuilder` was given it: the labels by
    entity, and the (alias, entity, popularity) rows in order."""
    labels: dict[str, str] = field(default_factory=dict)
    aliases: list[tuple[str, str, float]] = field(default_factory=list)

    def by_entity(self) -> dict[str, tuple[str, list[str]]]:
        """Each entity that has a label or an alias: its label, else its
        first alias, else "", and its distinct aliases in order."""
        aliases: dict[str, list[str]] = {}
        for alias, entity, _ in self.aliases:
            aliases.setdefault(entity, []).append(alias)
        texts = {}
        for entity in sorted({*self.labels, *aliases}):
            distinct = list(dict.fromkeys(aliases.get(entity, ())))
            label = self.labels.get(entity) or (distinct[0] if distinct else "")
            texts[entity] = (label, distinct)
        return texts


@contextmanager
def recording_entity_text() -> Iterator[EntityText]:
    """Record the labels and alias rows that the store builders inside
    the block are given."""
    text = EntityText()
    set_label, add_alias = StoreBuilder.set_entity_label, StoreBuilder.add_alias

    def record_label(self, entity, label):
        text.labels[entity] = label
        set_label(self, entity, label)

    def record_alias(self, alias, entity, popularity):
        text.aliases.append((alias, entity, popularity))
        add_alias(self, alias, entity, popularity)

    StoreBuilder.set_entity_label, StoreBuilder.add_alias = record_label, record_alias
    try:
        yield text
    finally:
        StoreBuilder.set_entity_label, StoreBuilder.add_alias = set_label, add_alias


def two_pass_vocabulary(store: TripleStore, text: EntityText,
                        extra_texts=()) -> Vocabulary:
    """`build_vocabulary` as it was before the store counted its entity
    words: each label and alias the store was built from is split into
    words again here."""
    vocab = Vocabulary()
    words: set[str] = set()
    for name in sorted(store.catalog):
        words.update(t for t in tokenize_name(name) if t not in "._")
    for word in sorted(words):
        vocab.add(word)
    for entity in sorted(store.all_entities()):
        vocab.add(entity)
    text_vocab: set[str] = set()
    for label, aliases in text.by_entity().values():
        text_vocab.update(text_words(label))
        for alias in aliases:
            text_vocab.update(text_words(alias))
    for extra in extra_texts:
        text_vocab.update(text_words(extra))
    for word in sorted(text_vocab):
        if not _NUMBER_WORD_RE.fullmatch(word):
            vocab.add(word)
    return vocab.freeze()


def two_pass_idf(store: TripleStore, text: EntityText) -> tuple[dict[str, float], float]:
    """The lexical scorer's IDF table and unseen-token weight, from the
    corpus `build_lexical_scorer` used before the store counted its
    entity words: the catalog names, then each entity's label when it
    has one and each of its distinct aliases, one document each."""
    corpus = list(store.catalog)
    for label, aliases in text.by_entity().values():
        if label:
            corpus.append(label)
        corpus.extend(aliases)
    df: dict[str, int] = {}
    for doc in corpus:
        for token in set(text_words(doc)):
            df[token] = df.get(token, 0) + 1
    n = len(corpus)
    idf = {token: math.log((1 + n) / (1 + count)) + 1.0 for token, count in df.items()}
    return idf, math.log(1 + n) + 1.0


def entity_text_store() -> TripleStore:
    """Entity texts at the edges of the document counts: an entity with
    no label or alias, a label set empty, a raw alias given twice,
    aliases that differ only in case, a label that is also an alias,
    and labels and aliases with numbers and repeated words."""
    builder = StoreBuilder()
    for s, r, o in [("e1", "type_rel", "geo.city"), ("e1", "geo.city.route", "e2"),
                    ("e2", "type_rel", "geo.road"), ("e3", "geo.city.route", "e2"),
                    ("e4", "geo.road.length_km", LiteralValue("float", 3.5, "float"))]:
        builder.add_triple(s, r, o)
    builder.set_entity_label("e1", "Springfield 2")
    builder.set_entity_label("e2", "Route 66 route")
    builder.set_entity_label("e4", "")
    for alias, entity, popularity in [
            ("Route 66", "e2", 0.9), ("Route 66", "e2", 0.4), ("route 66", "e2", 0.2),
            ("ROUTE-66", "e2", 0.1), ("Springfield 2", "e1", 0.5),
            ("springfield", "e1", 0.5), ("3.5 km road", "e4", 0.3),
            ("km road 3.5", "e4", 0.3), ("route route", "e5", 0.1)]:
        builder.add_alias(alias, entity, popularity)
    return builder.freeze()


def toy_triples_tsv() -> str:
    lines = []
    for subject, relation, obj in TOY_TRIPLES:
        text = obj.text() if isinstance(obj, LiteralValue) else obj
        lines.append(f"{subject}\t{relation}\t{text}")
    return "\n".join(lines) + "\n"


def toy_aliases_tsv() -> str:
    return "".join(f"{a}\t{e}\t{p}\n" for a, e, p in TOY_ALIASES)


# ---------------------------------------------------------------------------
# question fixtures around known failure modes


@dataclass(frozen=True)
class CaseFixture:
    name: str
    store: TripleStore
    question: str
    correct: str          # the form the pipeline should end up with
    error_variant: str    # the form a misled generator prefers
    answers: tuple[str, ...]
    extra_words: tuple[str, ...] = field(default=())  # vocab for the error variant


def case_disconnected_relation() -> CaseFixture:
    """The misled form names a catalog relation that is not connected to
    the mentioned entity, so it executes to an empty answer."""
    builder = StoreBuilder()
    builder.add_triple("m.0syst1", "type_rel", "measurement_unit.measurement_system")
    builder.add_triple("m.0syst1", "measurement_unit.measurement_system.length_units",
                       "m.01p5ld")
    builder.add_triple("m.0syst1", "measurement_unit.measurement_system.substance_units",
                       "m.0subst")
    builder.set_entity_label("m.01p5ld", "decimetre")
    builder.set_entity_label("m.0syst1", "metric system")
    builder.set_entity_label("m.0subst", "mole")
    builder.add_alias("decimetre", "m.01p5ld", 0.9)
    builder.add_alias("metric system", "m.0syst1", 0.4)
    return CaseFixture(
        name="disconnected-relation",
        store=builder.freeze(),
        question="name the system that has decimetre as a measurement unit.",
        correct="(AND measurement_unit.measurement_system "
                "(JOIN measurement_unit.measurement_system.length_units m.01p5ld))",
        error_variant="(AND measurement_unit.measurement_system "
                      "(JOIN measurement_unit.measurement_system.substance_units m.01p5ld))",
        answers=("m.0syst1",),
    )


def case_missed_comparative() -> CaseFixture:
    """The misled form joins the pressure relation directly onto the
    literal instead of comparing, and no triple carries that exact
    value, so it executes to an empty answer."""
    builder = StoreBuilder()
    cls = "spaceflight.bipropellant_rocket_engine"
    oxidizer = "spaceflight.bipropellant_rocket_engine.oxidizer"
    pressure = "spaceflight.bipropellant_rocket_engine.chamber_pressure"
    builder.add_triple("m.0eng1", "type_rel", cls)
    builder.add_triple("m.0eng2", "type_rel", cls)
    builder.add_triple("m.0eng1", oxidizer, "m.01tm_5")
    builder.add_triple("m.0eng2", oxidizer, "m.0n2o4")
    builder.add_triple("m.0eng1", pressure, LiteralValue("float", 100.0, "float"))
    builder.add_triple("m.0eng2", pressure, LiteralValue("float", 300.0, "float"))
    builder.set_entity_label("m.0eng1", "kestrel engine")
    builder.set_entity_label("m.0eng2", "viking engine")
    builder.set_entity_label("m.01tm_5", "lox")
    builder.set_entity_label("m.0n2o4", "nitrogen tetroxide")
    builder.add_alias("lox", "m.01tm_5", 0.8)
    builder.add_alias("kestrel engine", "m.0eng1", 0.5)
    builder.add_alias("viking engine", "m.0eng2", 0.5)
    return CaseFixture(
        name="missed-comparative",
        store=builder.freeze(),
        question="which bipropellant rocket engine has a chamber pressure of "
                 "less than 257.0 and uses an oxidizer of lox?",
        correct=f"(AND {cls} (AND (JOIN {oxidizer} m.01tm_5) "
                f"(lt {pressure} 257.0^^float)))",
        error_variant=f"(AND {cls} (JOIN {pressure} 257.0^^float))",
        answers=("m.0eng1",),
    )


def case_out_of_catalog() -> CaseFixture:
    """The misled form names a class that does not exist in the KB at
    all; with masking off it is emitted verbatim and fails validation."""
    builder = StoreBuilder()
    cls = "measurement_unit.unit_of_resistivity"
    rel = "measurement_unit.unit_of_resistivity.resistivity_in_ohm_meters"
    builder.add_triple("m.0ohmm", "type_rel", cls)
    builder.add_triple("m.0resu2", "type_rel", cls)
    builder.add_triple("m.0ohmm", rel, LiteralValue("float", 1.0, "float"))
    builder.add_triple("m.0resu2", rel, LiteralValue("float", 5.0, "float"))
    builder.set_entity_label("m.0ohmm", "ohm metre")
    builder.set_entity_label("m.0resu2", "statohm centimetre")
    return CaseFixture(
        name="out-of-catalog",
        store=builder.freeze(),
        question="find the smallest possible unit of resistivity.",
        correct=f"(ARGMIN {cls} {rel})",
        error_variant=f"(ARGMIN measurement_unit.unit_of_resistance_unit {rel})",
        answers=("m.0ohmm",),
        extra_words=("resistance",),
    )


def all_cases() -> list[CaseFixture]:
    return [case_disconnected_relation(), case_missed_comparative(),
            case_out_of_catalog()]
