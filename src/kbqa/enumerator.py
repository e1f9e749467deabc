"""Exemplary-logical-form enumeration: exhaustive search of the KB
neighborhood of linked entities and literals up to two hops, converted
to s-expressions.

Only JOIN/AND chains are enumerated (no counting, comparatives, or
superlatives); a class constraint may wrap each form at the outermost
level. A class wrap is built join first, `And(join, ClassRef(c))`,
which is its print order: a name that `vocab.tokenize_name` accepts
starts with a letter or a digit, and both sort after the join's "(".
So a form's node encodes as its print. Every emitted form has a
non-empty denotation by construction, and the output is deduplicated
by canonical print and ordered by (relation count, canonical print)
before the candidate cap applies.

Cost model: `_joins` reads the in- and out-edges of a member set in one
pass and unions each member's index leaf (a tuple the store already
holds) into its relation's bucket in bulk, so each distinct
(form, relation) bucket is built once however many edges share its
relation, and no Python object is made per edge. Hop 1 starts from each
start's denotation, hop 2 from each hop-1 bucket, and no emitted form is
evaluated again. A class wrap reads only the type leaves of its form's
members, except on a type join (JOIN type_rel B): its members are the
subjects typed by B's members, so its classes are the union of the
store's co-types of B's members, read without touching a member of the
join. A hop-2 type join under a class node, whose members are all of
that class's instances, thus costs one table read per member of B.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .sexpr import (And, ClassRef, EntityRef, Join, LiteralRef, LogicalForm,
                    Reverse, print_canonical)
from .store import LiteralValue, TripleStore


@dataclass(frozen=True)
class StartPoint:
    kind: str  # "entity" | "literal"
    value: Union[str, LiteralValue]

    @staticmethod
    def entity(entity_id: str) -> "StartPoint":
        return StartPoint("entity", entity_id)

    @staticmethod
    def literal(value: LiteralValue) -> "StartPoint":
        return StartPoint("literal", value)

    def ref(self) -> LogicalForm:
        if self.kind == "entity":
            return EntityRef(self.value)
        return LiteralRef(self.value)


@dataclass(frozen=True)
class EnumConfig:
    hop_limit: int = 2
    max_candidates: int = 2000

    def __post_init__(self):
        if self.hop_limit not in (1, 2):
            raise ValueError("hop_limit must be 1 or 2")
        if self.max_candidates < 0:
            raise ValueError("max_candidates must be non-negative")


def _joins(base: LogicalForm, members, store: TripleStore) -> list[tuple[Join, set]]:
    """One pass over the members' in- and out-edges: every
    (JOIN r base), then every (JOIN (R r) base), each with its member
    set and each in sorted relation order."""
    ins: dict[str, set] = {}
    outs: dict[str, set] = {}
    for member in members:
        for relation, subjects in store.in_edges(member).items():
            ins.setdefault(relation, set()).update(subjects)
        if isinstance(member, str):
            for relation, objects in store.out_edges(member).items():
                outs.setdefault(relation, set()).update(objects)
    joins = [(Join(r, base), ins[r]) for r in sorted(ins)]
    joins.extend((Join(Reverse(r), base), outs[r]) for r in sorted(outs))
    return joins


def _class_wraps(join: Join, members, base_members, store: TripleStore) -> list[LogicalForm]:
    """(AND join c) for every string class c of the join's members, built
    join first as it prints; `base_members` is the denotation of the
    join's sub-form."""
    classes = set()
    if join.relation == store.type_relation:
        # The members are the subjects typed by a base member.
        for node in base_members:
            classes.update(store.cotypes(node))
    else:
        for member in members:
            if isinstance(member, str):
                classes.update(store.out_edges(member).get(store.type_relation, ()))
    return [And(join, ClassRef(c)) for c in sorted(c for c in classes if isinstance(c, str))]


def enumerate_elfs(starts: list[StartPoint], store: TripleStore,
                   cfg: EnumConfig = EnumConfig()) -> list[LogicalForm]:
    """Index-driven neighborhood walk; see the module docstring for the
    output contract and the cost model."""
    # print -> (hop, form). A form made at hop h has h relations, and a
    # class wrap adds none, so the hop is the form's relation count.
    collected: dict[str, tuple[int, LogicalForm]] = {}

    def keep(hop: int, base_members, joins: list[tuple[Join, set]]) -> None:
        for form, members in joins:
            collected.setdefault(print_canonical(form), (hop, form))
            # A class read from a member's type edge has that member
            # among its instances, so a wrap is never empty.
            for wrapped in _class_wraps(form, members, base_members, store):
                collected.setdefault(print_canonical(wrapped), (hop, wrapped))

    for start in dict.fromkeys(starts):
        if not store.has_node(start.value):
            continue  # the start denotes nothing, so every form on it is empty
        joins = _joins(start.ref(), [start.value], store)
        keep(1, [start.value], joins)
        if cfg.hop_limit == 2:
            for form, members in joins:
                keep(2, members, _joins(form, members, store))

    ordered = sorted(collected.items(), key=lambda kv: (kv[1][0], kv[0]))
    return [form for _key, (_hop, form) in ordered[:cfg.max_candidates]]
