"""Immutable, indexed in-memory knowledge base.

A store holds (subject, relation, object) triples, a schema catalog of
classes and relations, per-entity metadata (label, aliases), and an
alias index ranked by popularity. Ingestion goes through :class:`StoreBuilder`; `freeze()`
produces a :class:`TripleStore` that is read-only and safe to share
across threads.

Objects are either entity-id strings or :class:`LiteralValue`. Literal
identity (for indexing, deduplication, and equality) is by promoted
value within three categories (number, string, datetime); the exact
numeric kind and the optional type tag are kept only for printing.
"""

from __future__ import annotations

import gc
import math
import operator
import re
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Optional, Union

from .errors import DataError, TripleParseError

NUMBER_RE = re.compile(r"-?\d+(?:\.\d+)?")

_FLOAT_TAGS = {"float", "double", "decimal"}
_INT_TAGS = {"integer", "int", "long"}
_DATETIME_TAGS = {"datetime", "date", "gYear", "gYearMonth"}
_STRING_TAGS = {"string", "str", "text"}


@dataclass(frozen=True, eq=False)
class LiteralValue:
    kind: str  # "float" | "integer" | "string" | "datetime"
    value: object
    type_tag: Optional[str] = None

    def __post_init__(self):
        if self.kind not in ("float", "integer", "string", "datetime"):
            raise ValueError(f"unknown literal kind: {self.kind!r}")
        if self.kind in ("float", "integer") and not math.isfinite(float(self.value)):
            raise ValueError("numeric literals must be finite")

    def _identity(self):
        if self.kind in ("float", "integer"):
            return ("number", float(self.value))
        if self.kind == "datetime":
            return ("datetime", self.value)
        return ("string", self.value)

    def __eq__(self, other):
        if not isinstance(other, LiteralValue):
            return NotImplemented
        return self._identity() == other._identity()

    def __hash__(self):
        return hash(self._identity())

    def is_numeric(self) -> bool:
        return self.kind in ("float", "integer")

    def text(self) -> str:
        """Canonical rendering; `value^^tag` when a tag is present."""
        if self.kind == "float":
            base = repr(float(self.value))
        elif self.kind == "integer":
            base = str(int(self.value))
        elif self.kind == "datetime":
            base = self.value.isoformat()
        else:
            base = '"%s"' % str(self.value).replace('"', '\\"')
        if self.type_tag:
            return f"{base}^^{self.type_tag}"
        return base


def _strip_quotes(text: str) -> tuple[str, bool]:
    if len(text) >= 2 and text[0] == '"' and text[-1] == '"':
        return text[1:-1].replace('\\"', '"'), True
    return text, False


_LITERAL_HEADS = frozenset('"-0123456789')


def parse_literal(text: str) -> Optional[LiteralValue]:
    """Parse a literal token; return None when the token is not
    literal-shaped (and therefore an entity/class id).

    Raises ValueError when the token is literal-shaped but inconsistent,
    e.g. a payload that does not parse in its tag's kind.
    """
    # A literal holds a `^^` tag, or starts with the quote of a string
    # or the sign or (any Unicode decimal) digit of a number. Any other
    # token is an id, and most object tokens are, so they skip the
    # checks of `_classify_literal`, which would all fail.
    head = text[:1]
    if head not in _LITERAL_HEADS and "^^" not in text and not head.isdecimal():
        return None
    return _classify_literal(text)


def _classify_literal(text: str) -> Optional[LiteralValue]:
    """`parse_literal` without its shortcut for id-shaped tokens."""
    if "^^" in text:
        payload, tag = text.rsplit("^^", 1)
        payload, _ = _strip_quotes(payload)
        if not tag:
            raise ValueError(f"empty type tag in literal {text!r}")
        if tag in _INT_TAGS:
            return LiteralValue("integer", int(payload), tag)
        if tag in _FLOAT_TAGS:
            return LiteralValue("float", float(payload), tag)
        if tag in _DATETIME_TAGS:
            return LiteralValue("datetime", datetime.fromisoformat(payload), tag)
        if tag in _STRING_TAGS:
            return LiteralValue("string", payload, tag)
        # Unknown tag: infer the kind from the payload shape, keep the tag.
        if NUMBER_RE.fullmatch(payload):
            kind = "float" if "." in payload else "integer"
            value = float(payload) if kind == "float" else int(payload)
            return LiteralValue(kind, value, tag)
        return LiteralValue("string", payload, tag)
    stripped, quoted = _strip_quotes(text)
    if quoted:
        return LiteralValue("string", stripped)
    if NUMBER_RE.fullmatch(text):
        if "." in text:
            return LiteralValue("float", float(text))
        return LiteralValue("integer", int(text))
    return None


Object = Union[str, LiteralValue]


@dataclass(frozen=True)
class SchemaItem:
    kind: str  # "class" | "relation"
    name: str
    label: str = ""
    domain_class: Optional[str] = None
    range_class: Optional[str] = None

    def __post_init__(self):
        if self.kind not in ("class", "relation"):
            raise ValueError(f"unknown schema kind: {self.kind!r}")
        if not self.name:
            raise ValueError("schema item needs a non-empty name")
        if not self.label:
            object.__setattr__(self, "label", derive_label(self.name))


def derive_label(name: str) -> str:
    return name.replace(".", " ").replace("_", " ")


class Triple(NamedTuple):
    subject: str
    relation: str
    object: Object


# `_new_tuple(Triple, (s, r, o))` is `Triple(s, r, o)` without the
# Python-level `__new__` of a NamedTuple.
_new_tuple = tuple.__new__


@dataclass(frozen=True, slots=True)
class EntityMeta:
    label: str = ""
    aliases: tuple[str, ...] = ()


_WORD_RE = re.compile(r"[a-z]+|\d+(?:\.\d+)?")


def text_words(text: str) -> list[str]:
    """Lowercased word and number chunks; dots and underscores split
    names. Alias folding, mention detection and the vocabulary all split
    text with this, so that a question's words can find an alias."""
    return _WORD_RE.findall(text.lower())


def fold_surface(text: str) -> str:
    """Case-fold and whitespace/punctuation-normalize an alias surface."""
    return " ".join(text_words(text))


def reduce_iri(iri: str) -> str:
    """Local name of an IRI: the part after the last '#' or '/'."""
    for sep in ("#", "/"):
        if sep in iri:
            iri = iri.rsplit(sep, 1)[1]
    return iri


_NT_RE = re.compile(
    r"^<([^<>\s]+)>\s+<([^<>\s]+)>\s+(.+?)\s*\.\s*$"
)


@contextmanager
def collector_paused() -> Iterator[None]:
    """Run the block with the cyclic garbage collector off, and restore
    the caller's state after it, also when it raises. Loading and
    freezing a store make millions of containers and free none, so a
    collection during them is pure cost."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def read_rows(lines: Iterable[str], source: Optional[str],
              parse_row: Callable[[str], None], comments: bool = False) -> None:
    """The one loop over the lines of an input file, run with the
    collector paused. Lines are numbered from 1; blank lines are
    skipped, and so are `#` lines when the format allows comments. Each
    other line, without its newline, goes to `parse_row`; a ValueError,
    KeyError or DataError it raises becomes a TripleParseError that
    names the file and the line."""
    with collector_paused():
        for line_no, raw in enumerate(lines, start=1):
            line = raw.rstrip("\n")
            # lstrip() returns the line itself when nothing leads it.
            if not line or line.isspace() or comments and line.lstrip()[:1] == "#":
                continue
            try:
                parse_row(line)
            except (ValueError, KeyError, DataError) as exc:
                raise TripleParseError(str(exc), line_no, source) from exc


_split_tabs = operator.methodcaller("split", "\t")


def _tab_fields(line: str, count: int = 3) -> list[str]:
    parts = line.split("\t")
    if len(parts) != count:
        raise DataError(f"expected {count} tab-separated fields, got {len(parts)}")
    return parts


def _ntriples_fields(line: str) -> tuple[str, str, str]:
    match = _NT_RE.match(line.strip())
    if not match:
        raise DataError("malformed N-Triples line")
    obj_text = match.group(3)
    if obj_text.startswith("<") and obj_text.endswith(">"):
        obj_text = reduce_iri(obj_text[1:-1])
    elif "^^" in obj_text:
        payload, tag = obj_text.rsplit("^^", 1)
        obj_text = f"{payload}^^{reduce_iri(tag.strip('<>'))}"
    return reduce_iri(match.group(1)), reduce_iri(match.group(2)), obj_text


class StoreBuilder:
    """Single-writer ingestion state; call freeze() when done."""

    def __init__(self, type_relation: str = "type_rel"):
        self.type_relation = type_relation
        # Insertion-ordered; a literal object dedupes on its identity.
        self._triples: dict[Triple, None] = {}
        self._catalog: dict[str, SchemaItem] = {}
        self._labels: dict[str, str] = {}
        self._alias_rows: list[tuple[str, str, float]] = []

    # -- schema --------------------------------------------------------

    def add_schema_item(self, item: SchemaItem) -> None:
        existing = self._catalog.get(item.name)
        if existing is not None:
            if existing.kind != item.kind:
                raise DataError(
                    f"schema item {item.name!r} declared both as "
                    f"{existing.kind} and {item.kind}"
                )
            # More-specific declarations win over auto-registered stubs.
            if item.domain_class or item.range_class or item.label != derive_label(item.name):
                self._catalog[item.name] = item
            return
        self._catalog[item.name] = item

    # -- triples -------------------------------------------------------

    def add_triple(self, subject: str, relation: str, obj: Object) -> None:
        if not subject or not relation:
            raise DataError("triple needs non-empty subject and relation")
        triple = _new_tuple(Triple, (subject, relation, obj))
        triples = self._triples
        size = len(triples)
        triples.setdefault(triple)  # one hash, where `in` and a store make two
        if len(triples) == size:
            return
        catalog = self._catalog
        if relation not in catalog:
            catalog[relation] = SchemaItem("relation", relation)
        if relation == self.type_relation and isinstance(obj, str) and obj not in catalog:
            catalog[obj] = SchemaItem("class", obj)

    def load_triples(self, lines: Iterable[str], fmt: str = "tsv3",
                     source: Optional[str] = None) -> "StoreBuilder":
        if fmt not in ("tsv3", "ntriples"):
            raise DataError(f"unknown triple format: {fmt!r}")
        # A C-level split for TSV; the field count is checked below.
        split = _split_tabs if fmt == "tsv3" else _ntriples_fields
        add_triple = self.add_triple

        def parse_row(line: str) -> None:
            fields = split(line)
            if len(fields) != 3:
                raise DataError(f"expected 3 tab-separated fields, got {len(fields)}")
            subject, relation, obj_text = fields
            literal = parse_literal(obj_text)
            if literal is None and not obj_text:
                raise DataError("empty object field")
            add_triple(subject, relation, obj_text if literal is None else literal)

        read_rows(lines, source, parse_row, comments=True)
        return self

    def load_schema(self, lines: Iterable[str], source: Optional[str] = None) -> "StoreBuilder":
        """Schema TSV: kind \\t name [\\t label [\\t domain \\t range]]."""
        def parse_row(line: str) -> None:
            parts = line.split("\t")
            if len(parts) < 2:
                raise DataError("expected at least kind and name")
            kind, name, label, domain, range_ = (parts + [""] * 3)[:5]
            self.add_schema_item(SchemaItem(kind, name, label, domain or None, range_ or None))

        read_rows(lines, source, parse_row, comments=True)
        return self

    # -- entity metadata -----------------------------------------------

    def set_entity_label(self, entity: str, label: str) -> None:
        self._labels[entity] = label

    def load_labels(self, lines: Iterable[str],
                    source: Optional[str] = None) -> "StoreBuilder":
        """Label TSV: entity_id \\t label."""
        def parse_row(line: str) -> None:
            entity, tab, label = line.partition("\t")
            if not tab:
                raise DataError("expected entity id and label separated by a tab")
            self.set_entity_label(entity, label)

        read_rows(lines, source, parse_row)
        return self

    def add_alias(self, alias: str, entity: str, popularity: float) -> None:
        if popularity < 0:
            raise DataError(f"negative popularity for alias {alias!r}")
        self._alias_rows.append((alias, entity, popularity))

    def load_aliases(self, lines: Iterable[str], strict: bool = False,
                     source: Optional[str] = None) -> "StoreBuilder":
        """Alias TSV: alias \\t entity_id \\t popularity. An alias of an
        entity the store does not know is kept, or rejected under
        `strict`."""
        known = None
        if strict:
            known = set(self._labels)
            for t in self._triples:
                known.add(t.subject)
                if isinstance(t.object, str) and t.relation != self.type_relation:
                    known.add(t.object)

        def parse_row(line: str) -> None:
            alias, entity, pop_text = _tab_fields(line)
            try:
                popularity = float(pop_text)
            except ValueError:
                raise DataError(f"bad popularity {pop_text!r}") from None
            if popularity < 0 or not math.isfinite(popularity):
                raise DataError(f"popularity must be a non-negative real, got {pop_text}")
            if known is not None and entity not in known:
                raise DataError(f"alias {alias!r} names unknown entity {entity!r}")
            self.add_alias(alias, entity, popularity)

        read_rows(lines, source, parse_row)
        return self

    # -- freeze ----------------------------------------------------------

    def freeze(self) -> "TripleStore":
        return TripleStore(self)


_NO_EDGES: Mapping = MappingProxyType({})


class TripleStore:
    """Frozen, fully indexed store. All methods are read-only."""

    def __init__(self, builder: StoreBuilder):
        with collector_paused():
            self._build(builder)

    def _build(self, builder: StoreBuilder) -> None:
        type_relation = self.type_relation = builder.type_relation
        self._triples: tuple[Triple, ...] = tuple(builder._triples)
        self._catalog: dict[str, SchemaItem] = dict(builder._catalog)

        # Each index leaf starts as a 1-tuple, and most leaves stay one.
        # A leaf that grows becomes a list, noted in `grown` and frozen
        # to a tuple after the loop. The triples are distinct, so no
        # leaf repeats an entry. The two indexes are filled by the same
        # code, written out twice to save a call per triple.
        spo: dict[str, dict[str, tuple]] = {}
        ops: dict[Object, dict[str, tuple]] = {}
        grown: list[tuple[dict, str]] = []
        by_relation: dict[str, list[Triple]] = {}
        class_members: dict[str, set[str]] = {}
        multi_typed: list[str] = []
        entities: set[str] = set()
        for t in self._triples:
            s, r, o = t
            leaves = spo.get(s)
            if leaves is None:
                spo[s] = {r: (o,)}
            else:
                leaf = leaves.get(r)
                if leaf is None:
                    leaves[r] = (o,)
                elif leaf.__class__ is list:
                    leaf.append(o)
                else:
                    leaves[r] = [*leaf, o]
                    grown.append((leaves, r))
                    if r == type_relation:
                        multi_typed.append(s)
            leaves = ops.get(o)
            if leaves is None:
                ops[o] = {r: (s,)}
            else:
                leaf = leaves.get(r)
                if leaf is None:
                    leaves[r] = (s,)
                elif leaf.__class__ is list:
                    leaf.append(s)
                else:
                    leaves[r] = [*leaf, s]
                    grown.append((leaves, r))
            rows = by_relation.get(r)
            if rows is None:
                by_relation[r] = [t]
            else:
                rows.append(t)
            if r == type_relation:
                if isinstance(o, str):
                    members = class_members.get(o)
                    if members is None:
                        class_members[o] = {s}
                    else:
                        members.add(s)
            elif isinstance(o, str):
                entities.add(o)
        for leaves, r in grown:
            leaves[r] = tuple(leaves[r])
        entities.update(spo)
        entities.update(builder._labels)

        # cotypes[o]: the string classes of the subjects typed o. A
        # subject with one type edge adds o itself, so only the
        # multi-typed subjects need a second look.
        cotypes: dict[Object, set[str]] = {c: {c} for c in class_members}
        for subject in multi_typed:
            types = spo[subject][type_relation]
            classes = [o for o in types if isinstance(o, str)]
            for o in types:
                cotypes.setdefault(o, set()).update(classes)

        # Each raw alias is folded once. Its surface keys the alias index,
        # and, split at the spaces, gives its words for the counts below.
        alias_index: dict[str, list[tuple[str, float]]] = {}
        alias_lists: dict[str, list[str]] = {}
        folded: dict[str, str] = {}
        for alias, entity, popularity in builder._alias_rows:
            surface = folded.get(alias)
            if surface is None:
                surface = folded[alias] = fold_surface(alias)
            alias_index.setdefault(surface, []).append((entity, popularity))
            aliases = alias_lists.get(entity)
            if aliases is None:
                alias_lists[entity] = [alias]
            else:
                aliases.append(alias)
            entities.add(entity)
        for rows in alias_index.values():
            if len(rows) > 1:
                # popularity descending, ties by entity id for determinism
                rows.sort(key=lambda row: (-row[1], row[0]))

        labels = builder._labels
        meta: dict[str, EntityMeta] = {}
        for entity in entities:
            aliases = tuple(dict.fromkeys(alias_lists.get(entity, ())))
            label = labels.get(entity) or (aliases[0] if aliases else "")
            meta[entity] = EntityMeta(label, aliases)

        # The entity-text documents: each entity's label, when it has
        # one, and each of its distinct aliases, so that a label taken
        # from the first alias is two documents. A document's words are
        # its folded surface split at the spaces, and documents with the
        # same surface are counted together.
        surfaces: list[str] = []
        for m in meta.values():
            if m.label:
                surface = folded.get(m.label)
                surfaces.append(fold_surface(m.label) if surface is None else surface)
            surfaces.extend(map(folded.__getitem__, m.aliases))
        word_counts: dict[str, int] = {}
        for surface, count in Counter(surfaces).items():
            for word in set(surface.split()):
                word_counts[word] = word_counts.get(word, 0) + count

        self._spo = spo
        self._ops = ops
        self._by_relation = by_relation
        self._class_members = {c: frozenset(m) for c, m in class_members.items()}
        self._cotypes = {o: frozenset(c) for o, c in cotypes.items()}
        self._entities = frozenset(entities)
        self._alias_index = alias_index
        self._meta = meta
        self._entity_documents = len(surfaces)
        self._entity_word_counts: Mapping[str, int] = MappingProxyType(word_counts)

    # -- basic accessors -------------------------------------------------

    def __len__(self) -> int:
        return len(self._triples)

    def triples(self) -> Iterator[Triple]:
        return iter(self._triples)

    @property
    def catalog(self) -> dict[str, SchemaItem]:
        return self._catalog

    def classes(self) -> list[str]:
        return sorted(n for n, it in self._catalog.items() if it.kind == "class")

    def relations(self) -> list[str]:
        return sorted(n for n, it in self._catalog.items() if it.kind == "relation")

    def all_entities(self) -> frozenset[str]:
        return self._entities

    def has_entity(self, entity: str) -> bool:
        return entity in self._entities

    def has_node(self, node: Object) -> bool:
        """True when the entity or literal occurs anywhere in the store."""
        if isinstance(node, LiteralValue):
            return node in self._ops
        return node in self._entities

    # -- graph queries ---------------------------------------------------

    def out_edges(self, subject: str) -> Mapping[str, tuple]:
        """Read-only view of the subject's out-edges: relation -> the
        index's own tuple of objects."""
        leaves = self._spo.get(subject)
        return _NO_EDGES if leaves is None else MappingProxyType(leaves)

    def in_edges(self, obj: Object) -> Mapping[str, tuple]:
        """Read-only view of the node's in-edges: relation -> the index's
        own tuple of subjects."""
        leaves = self._ops.get(obj)
        return _NO_EDGES if leaves is None else MappingProxyType(leaves)

    def objects_of(self, subject: str, relation: str) -> set:
        return set(self.out_edges(subject).get(relation, ()))

    def subjects_of(self, obj: Object, relation: str) -> set[str]:
        return set(self.in_edges(obj).get(relation, ()))

    def relation_triples(self, relation: str) -> list[Triple]:
        return list(self._by_relation.get(relation, ()))

    def instances_of(self, class_name: str) -> frozenset[str]:
        return self._class_members.get(class_name, frozenset())

    def cotypes(self, type_object: Object) -> frozenset[str]:
        """The string classes of the subjects typed `type_object`: the
        object itself when it is a string, plus every string type of a
        subject that has it among two or more type edges."""
        return self._cotypes.get(type_object, frozenset())

    def entity_relations(self, entity: str) -> set[str]:
        rels = set(self.out_edges(entity))
        rels.update(self.in_edges(entity))
        return rels

    # -- entity metadata ---------------------------------------------------

    def alias_lookup(self, surface: str) -> list[tuple[str, float]]:
        return list(self._alias_index.get(fold_surface(surface), ()))

    def entity_label(self, entity: str) -> str:
        meta = self._meta.get(entity)
        return meta.label if meta and meta.label else entity

    def entity_meta(self, entity: str) -> EntityMeta:
        return self._meta.get(entity, EntityMeta())

    def entity_text_counts(self) -> tuple[int, Mapping[str, int]]:
        """The number of entity-text documents, and a read-only map from
        each word of them to the number of documents that hold it. The
        documents are each entity's label, when it has one, and each of
        its distinct aliases; their words are `text_words`'."""
        return self._entity_documents, self._entity_word_counts

    # -- dumps -------------------------------------------------------------

    def dump_triples_tsv(self) -> Iterator[str]:
        for t in self._triples:
            obj = t.object.text() if isinstance(t.object, LiteralValue) else t.object
            yield f"{t.subject}\t{t.relation}\t{obj}"

    def dump_schema_tsv(self) -> Iterator[str]:
        for name in sorted(self._catalog):
            item = self._catalog[name]
            yield "\t".join([
                item.kind, item.name, item.label,
                item.domain_class or "", item.range_class or "",
            ])

    def dump_aliases_tsv(self) -> Iterator[str]:
        rows = []
        for folded, entries in self._alias_index.items():
            for entity, popularity in entries:
                rows.append((folded, entity, popularity))
        for alias, entity, popularity in sorted(rows):
            yield f"{alias}\t{entity}\t{popularity!r}"

    def dump_labels_tsv(self) -> Iterator[str]:
        for entity in sorted(self._meta):
            meta = self._meta[entity]
            if meta.label:
                yield f"{entity}\t{meta.label}"
