"""Immutable, indexed in-memory knowledge base.

A store holds (subject, relation, object) triples, a schema catalog of
classes and relations, a label map, in which an entity without a label
has its first alias, and an alias index from each folded surface to a
tuple of (entity, popularity) entries, by popularity. Ingestion goes
through :class:`StoreBuilder`; `freeze()` produces a
:class:`TripleStore` that is read-only and safe to share across threads.

Objects are either entity-id strings or :class:`LiteralValue`. Literal
identity (for indexing, deduplication, and equality) is by promoted
value within three categories (number, string, datetime); the exact
numeric kind and the optional type tag are kept only for printing.

Triples are interned, not kept as objects. The builder gives every
string and every literal object a term id, and every relation a small
int, and appends each triple as one row of three int32 columns. A
literal's row keeps its own term, so a dump prints each literal as it
was written; its node, which indexes and deduplicates it, is the first
term equal to it. `freeze` drops each repeated (subject, relation,
node) row after its first, then orders the rows twice, stably: by
subject and by object node (compressed sparse rows, one offset array
each). `out_edges` and `in_edges` build a node's relation -> tuple view
from its run of rows on first use and memoise it, as `relation_triples`
does a relation's triples. Two threads that race on a first use build
equal results and both return the one stored first, and nothing else
changes after `freeze`, so the store is safe to share across threads.
"""

from __future__ import annotations

import gc
import math
import operator
import re
from array import array
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime, time
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Optional, Union

import numpy as np

from .errors import DataError, TripleParseError

NUMBER_RE = re.compile(r"-?\d+(?:\.\d+)?")

_FLOAT_TAGS = {"float", "double", "decimal"}
_INT_TAGS = {"integer", "int", "long"}
_DATETIME_TAGS = {"datetime", "date", "gYear", "gYearMonth"}
_STRING_TAGS = {"string", "str", "text"}
# XSD gYear and gYearMonth payloads, which datetime.fromisoformat refuses
_YEAR_MONTH_RE = re.compile(r"([0-9]{4})(?:-([0-9]{2}))?")


@dataclass(frozen=True, eq=False)
class LiteralValue:
    kind: str  # "float" | "integer" | "string" | "datetime"
    value: object
    type_tag: Optional[str] = None

    def __post_init__(self):
        if self.kind not in ("float", "integer", "string", "datetime"):
            raise ValueError(f"unknown literal kind: {self.kind!r}")
        if self.kind in ("float", "integer"):
            try:
                finite = math.isfinite(float(self.value))
            except OverflowError:  # an integer beyond float range
                finite = False
            if not finite:
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

    def lexical(self) -> str:
        """The value's lexical form, unquoted and untagged. A datetime
        prints in its tag's form (`YYYY` for gYear, `YYYY-MM` for
        gYearMonth, `YYYY-MM-DD` for date) when the value holds nothing
        finer than that form, and with `isoformat()` otherwise."""
        if self.kind == "float":
            return repr(float(self.value))
        if self.kind == "integer":
            return str(int(self.value))
        if self.kind == "datetime":
            return _datetime_lexical(self.value, self.type_tag)
        return str(self.value)

    def text(self) -> str:
        """Canonical rendering; `value^^tag` when a tag is present."""
        if self.kind == "string":
            base = '"%s"' % str(self.value).replace('"', '\\"')
        else:
            base = self.lexical()
        if self.type_tag:
            return f"{base}^^{self.type_tag}"
        return base


def _datetime_lexical(value: datetime, tag: Optional[str]) -> str:
    """`LiteralValue.lexical` of a datetime; `parse_literal` reads each
    form back to the same value."""
    if value.time() == time() and value.tzinfo is None:
        if tag == "gYear" and (value.month, value.day) == (1, 1):
            return f"{value.year:04d}"
        if tag == "gYearMonth" and value.day == 1:
            return f"{value.year:04d}-{value.month:02d}"
        if tag == "date":
            return value.date().isoformat()
    return value.isoformat()


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
            return LiteralValue("datetime", _parse_datetime(payload), tag)
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


def _parse_datetime(payload: str) -> datetime:
    """An ISO date or datetime; a year `YYYY` reads as its January 1,
    and a year and month `YYYY-MM` as the first of that month."""
    match = _YEAR_MONTH_RE.fullmatch(payload)
    if match:
        return datetime(int(match[1]), int(match[2] or 1), 1)
    return datetime.fromisoformat(payload)


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


_EMPTY_END = "triple needs non-empty subject and relation"


class StoreBuilder:
    """Single-writer ingestion state; call freeze() when done."""

    def __init__(self, type_relation: str = "type_rel"):
        self.type_relation = type_relation
        # One row per added triple, duplicates included: subject term,
        # relation id, object term.
        self._subjects = array("i")
        self._relations = array("i")
        self._objects = array("i")
        self._relation_ids: dict[str, int] = {}
        # term id -> the object as written, and -> its node id. A string
        # is its own node; a literal's node is the first term equal to it.
        self._terms: list[Object] = []
        self._nodes = array("i")
        # string or literal (by LiteralValue equality) -> node id
        self._ids: dict[Object, int] = {}
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

    def _term(self, obj: Object) -> int:
        """The term of `obj`: a string's own node, or for a literal a new
        term, so that each row keeps the literal it was written with."""
        term = self._ids.get(obj) if isinstance(obj, str) else None
        if term is None:
            term = len(self._terms)
            self._terms.append(obj)
            self._nodes.append(self._ids.setdefault(obj, term))
        return term

    def add_triple(self, subject: str, relation: str, obj: Object) -> None:
        if not subject or not relation:
            raise DataError(_EMPTY_END)
        self._add_row(subject, relation, self._term(obj))

    def _add_row(self, subject: str, relation: str, o: int) -> None:
        """Append a row whose object is the term `o`."""
        s = self._ids.get(subject)
        if s is None:
            s = self._term(subject)
        r = self._relation_ids.get(relation)
        if r is None:
            r = self._relation_ids[relation] = len(self._relation_ids)
            if relation not in self._catalog:
                self._catalog[relation] = SchemaItem("relation", relation)
        if relation == self.type_relation:
            obj = self._terms[o]
            if isinstance(obj, str) and obj not in self._catalog:
                self._catalog[obj] = SchemaItem("class", obj)
        self._subjects.append(s)
        self._relations.append(r)
        self._objects.append(o)

    def load_triples(self, lines: Iterable[str], fmt: str = "tsv3",
                     source: Optional[str] = None) -> "StoreBuilder":
        if fmt not in ("tsv3", "ntriples"):
            raise DataError(f"unknown triple format: {fmt!r}")
        # A C-level split for TSV; the field count is checked below.
        split = _split_tabs if fmt == "tsv3" else _ntriples_fields
        add_row, term = self._add_row, self._term
        # object token -> its term. A token parses the same way each
        # time, so a repeated one skips the parse, and the rows of a
        # literal token share one term.
        token_terms: dict[str, int] = {}

        def parse_row(line: str) -> None:
            fields = split(line)
            if len(fields) != 3:
                raise DataError(f"expected 3 tab-separated fields, got {len(fields)}")
            subject, relation, token = fields
            if not subject or not relation:
                raise DataError(_EMPTY_END)
            o = token_terms.get(token)
            if o is None:
                literal = parse_literal(token)
                if literal is None and not token:
                    raise DataError("empty object field")
                o = token_terms[token] = term(token if literal is None else literal)
            add_row(subject, relation, o)

        read_rows(lines, source, parse_row, comments=True)
        return self

    def _entity_terms(self, rows: "_Rows") -> set[Object]:
        """The subjects and the entity objects of non-type rows."""
        terms = self._terms
        subjects = np.zeros(len(terms), dtype=bool)
        subjects[rows.s] = True
        objects = np.zeros(len(terms), dtype=bool)
        objects[rows.o[rows.r != self._relation_ids.get(self.type_relation, -1)]] = True
        entities = set(map(terms.__getitem__, np.flatnonzero(subjects).tolist()))
        entities.update(obj for obj in map(
            terms.__getitem__, np.flatnonzero(objects & ~subjects).tolist())
            if isinstance(obj, str))
        return entities

    def _rows(self) -> "_Rows":
        """The rows as arrays, copied so that the builder can grow on."""
        o = np.array(self._objects, dtype=np.int32)
        return _Rows(np.array(self._subjects, dtype=np.int32),
                     np.array(self._relations, dtype=np.int32), o,
                     np.array(self._nodes, dtype=np.int32)[o])

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
            known = self._entity_terms(self._rows())
            known.update(self._labels)

        def parse_row(line: str) -> None:
            fields = line.split("\t")
            if len(fields) != 3:
                raise DataError(f"expected 3 tab-separated fields, got {len(fields)}")
            alias, entity, pop_text = fields
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


class _Rows(NamedTuple):
    """Triple rows as int32 columns: subject term, relation id, object
    term, and the object's node."""
    s: np.ndarray
    r: np.ndarray
    o: np.ndarray
    node: np.ndarray

    def take(self, which: np.ndarray) -> "_Rows":
        return _Rows(*(column[which] for column in self))


def _distinct(rows: _Rows) -> _Rows:
    """The rows whose (subject, relation, object node) no earlier row
    has, in row order. The stable lexsort puts each repeat right after
    the row it repeats; packing the three ids into one integer key would
    overflow at Freebase scale."""
    if len(rows.s) < 2:
        return rows
    order = np.lexsort((rows.node, rows.r, rows.s))
    repeat = np.ones(len(order) - 1, dtype=bool)
    for column in (rows.s, rows.r, rows.node):
        key = column[order]
        repeat &= key[1:] == key[:-1]
    if not repeat.any():
        return rows
    keep = np.ones(len(order), dtype=bool)
    keep[order[1:][repeat]] = False
    return rows.take(keep)


class _Edges:
    """The rows in a stable order by one end's node (compressed sparse
    rows): for each node, its rows' relations and the terms at their
    other end, in row order. A node's relation -> leaf view is built
    from its run on first use and memoised in `views`, keyed by the
    node's object."""

    def __init__(self, ids: dict, keys: np.ndarray, relations: np.ndarray,
                 others: np.ndarray, terms: list, names: list[str]):
        order = np.argsort(keys, kind="stable")
        starts = np.zeros(len(terms) + 1, dtype=np.int64)
        np.cumsum(np.bincount(keys, minlength=len(terms)), out=starts[1:])
        # A short run slices and iterates cheaper from an array.array,
        # whose items come out as Python ints.
        self._starts = array("q", starts.tobytes())
        self._relations = array("i", relations[order].tobytes())
        self._others = array("i", others[order].tobytes())
        self._ids = ids
        self._terms = terms
        self._names = names
        self.views: dict[Object, Mapping[str, tuple]] = {}

    def build(self, obj: Object) -> Mapping[str, tuple]:
        node = self._ids.get(obj)
        if node is None:
            return _NO_EDGES
        lo, hi = self._starts[node], self._starts[node + 1]
        terms = self._terms
        leaves: dict[int, list] = {}
        for rel, other in zip(self._relations[lo:hi], self._others[lo:hi]):
            leaf = leaves.get(rel)
            if leaf is None:
                leaves[rel] = [terms[other]]
            else:
                leaf.append(terms[other])
        names = self._names
        view = MappingProxyType({names[rel]: tuple(leaf) for rel, leaf in leaves.items()}) \
            if leaves else _NO_EDGES
        # Threads that build the same view at once build equal ones, and
        # all of them return the one stored first.
        return self.views.setdefault(obj, view)


class TripleStore:
    """Frozen, fully indexed store. All methods are read-only."""

    def __init__(self, builder: StoreBuilder):
        with collector_paused():
            self._build(builder)

    def _build(self, builder: StoreBuilder) -> None:
        self.type_relation = builder.type_relation
        self._catalog: dict[str, SchemaItem] = dict(builder._catalog)
        terms = self._terms = list(builder._terms)
        self._ids = dict(builder._ids)
        self._relation_ids = dict(builder._relation_ids)
        names = self._relation_names = list(self._relation_ids)
        rows = self._rows = _distinct(builder._rows())
        self._out = _Edges(self._ids, rows.s, rows.r, rows.o, terms, names)
        self._in = _Edges(self._ids, rows.node, rows.r, rows.s, terms, names)
        self._relation_triples: dict[str, tuple[Triple, ...]] = {}
        entities = builder._entity_terms(rows)

        # A type row's string object is a class, whose members are the
        # subjects of its type rows.
        type_relation = self.type_relation
        typed = rows.r == self._relation_ids.get(type_relation, -1)
        type_objects = np.bincount(rows.node[typed], minlength=len(terms))
        class_members: dict[str, frozenset[str]] = {}
        for node in np.flatnonzero(type_objects).tolist():
            if isinstance(terms[node], str):
                class_members[terms[node]] = frozenset(self.in_edges(terms[node])[type_relation])
        # cotypes[o]: the string classes of the subjects typed o. A
        # subject with one type edge adds o itself, so only the
        # multi-typed subjects need a second look.
        cotypes: dict[Object, set[str]] = {c: {c} for c in class_members}
        multi_typed = np.bincount(rows.s[typed], minlength=len(terms)) > 1
        for subject in np.flatnonzero(multi_typed).tolist():
            types = self.out_edges(terms[subject])[type_relation]
            classes = [o for o in types if isinstance(o, str)]
            for o in types:
                cotypes.setdefault(o, set()).update(classes)

        # Entity text, in one pass over the alias rows; each raw text is
        # folded once. The entity-text documents, counted by surface, are
        # each label and each distinct (entity, alias) row, so that a label
        # taken from an alias is two documents.
        folded: dict[str, str] = {}

        def fold(text: str) -> str:
            surface = folded.get(text)
            if surface is None:
                surface = folded[text] = fold_surface(text)
            return surface

        labels = {entity: label for entity, label in builder._labels.items() if label}
        documents = Counter(map(fold, labels.values()))
        # folded surface -> its alias rows, then the entries of the index
        alias_index: dict[str, list | tuple] = {}
        for row in builder._alias_rows:
            alias, entity, _ = row
            surface = fold(alias)
            group = alias_index.get(surface)
            if group is None:
                alias_index[surface] = [row]
            else:
                group.append(row)
            if entity not in labels:
                labels[entity] = alias
                if alias:
                    documents[surface] += 1
        entities.update(builder._labels, labels)
        for surface, group in alias_index.items():
            if len(group) == 1:
                alias_index[surface] = (group[0][1:],)  # (entity, popularity)
                documents[surface] += 1
            else:
                # popularity descending, ties by entity id for determinism
                alias_index[surface] = tuple(sorted(
                    [row[1:] for row in group], key=lambda entry: (-entry[1], entry[0])))
                documents[surface] += len({row[:2] for row in group})
        # A document's words are its folded surface split at the spaces.
        word_counts: dict[str, int] = {}
        for surface, count in documents.items():
            for word in set(surface.split()):
                word_counts[word] = word_counts.get(word, 0) + count

        self._class_members = class_members
        self._cotypes = {o: frozenset(c) for o, c in cotypes.items()}
        self._entities = frozenset(entities)
        self._alias_index: dict[str, tuple[tuple[str, float], ...]] = alias_index
        self._labels = labels
        self._entity_documents = documents.total()
        self._entity_word_counts: Mapping[str, int] = MappingProxyType(word_counts)

    # -- basic accessors -------------------------------------------------

    def __len__(self) -> int:
        return len(self._rows.s)

    def triples(self) -> Iterator[Triple]:
        return self._triples(self._rows)

    def _triples(self, rows: _Rows) -> Iterator[Triple]:
        terms, names = self._terms, self._relation_names
        for s, r, o in zip(memoryview(rows.s), memoryview(rows.r), memoryview(rows.o)):
            yield _new_tuple(Triple, (terms[s], names[r], terms[o]))

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
            return node in self._ids
        return node in self._entities

    # -- graph queries ---------------------------------------------------

    def out_edges(self, subject: str) -> Mapping[str, tuple]:
        """Read-only view of the subject's out-edges: relation -> tuple
        of objects, each as its row wrote it. Relations come in the order
        of their first row, and each tuple in row order."""
        view = self._out.views.get(subject)
        return self._out.build(subject) if view is None else view

    def in_edges(self, obj: Object) -> Mapping[str, tuple]:
        """Read-only view of the node's in-edges: relation -> tuple of
        subjects, ordered as in `out_edges`."""
        view = self._in.views.get(obj)
        return self._in.build(obj) if view is None else view

    def relation_triples(self, relation: str) -> list[Triple]:
        """The relation's triples in row order; built on first use and
        memoised like the edge views."""
        triples = self._relation_triples.get(relation)
        if triples is None:
            rel = self._relation_ids.get(relation)
            if rel is None:
                return []
            triples = self._relation_triples.setdefault(
                relation, tuple(self._triples(self._rows.take(self._rows.r == rel))))
        return list(triples)

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
        """The candidate entities of a mention's surface, case-folded:
        (entity, popularity), popularity descending, ties by entity id."""
        return list(self._alias_index.get(fold_surface(surface), ()))

    def entity_label(self, entity: str) -> str:
        """The entity's label, else its first alias, else its id."""
        return self._labels.get(entity) or entity

    def entity_text_counts(self) -> tuple[int, Mapping[str, int]]:
        """The number of entity-text documents, and a read-only map from
        each word of them to the number of documents that hold it. The
        documents are each entity's label, when it has one, and each of
        its distinct aliases; their words are `text_words`'."""
        return self._entity_documents, self._entity_word_counts

    # -- dumps -------------------------------------------------------------

    def dump_triples_tsv(self) -> Iterator[str]:
        for t in self.triples():
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
        for surface, entity, popularity in sorted(
                (surface, entity, popularity) for surface, entries in self._alias_index.items()
                for entity, popularity in entries):
            yield f"{surface}\t{entity}\t{popularity!r}"

    def dump_labels_tsv(self) -> Iterator[str]:
        for entity, label in sorted(self._labels.items()):
            if label:
                yield f"{entity}\t{label}"
