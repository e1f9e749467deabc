"""Seeded random generators shared across the test modules: small
random stores, pseudo-random token scorer rows, logical forms for
round-trip checks (syntax-only) and store-grounded forms for
differential execution checks.

Generated atoms respect the positional category convention (classes in
expression slots, entities/literals in object slots), so every AST is
representable in text and survives print -> parse -> print.
"""

from __future__ import annotations

import math
import random

import numpy as np

from kbqa.fixtures import _WORDS
from kbqa.scorers import _stable_seed
from kbqa.sexpr import (And, ArgMax, ArgMin, ClassRef, Compare, Count,
                        EntityRef, Join, LiteralRef, Reverse)
from kbqa.store import LiteralValue, StoreBuilder, TripleStore


def random_store(rng: random.Random, max_entities: int = 30,
                 alias_shapes: bool = False) -> TripleStore:
    """Small random store: a few classes, relations with entity and
    float-literal ranges, alias rows for a sample of entities. With
    `alias_shapes`, also the entity-text shapes at the edges of the
    alias index: an entity named only by an alias, an empty label, an
    alias row given twice, and one surface shared by two entities. They
    are drawn after everything else, so without them the draws stay as
    they are."""
    builder = StoreBuilder()
    n_entities = rng.randint(4, max_entities)
    entities = [f"e{i}" for i in range(n_entities)]
    n_classes = rng.randint(1, 4)
    classes = []
    for i in range(n_classes):
        word = rng.choice(_WORDS)
        classes.append(f"ns{i}.{word}_kind")
    relations = []
    for i in range(rng.randint(2, 6)):
        left = rng.choice(_WORDS)
        right = rng.choice(_WORDS)
        relations.append(f"ns{i % n_classes}.{left}_kind.{right}_of")
    numeric_rel = f"ns0.{rng.choice(_WORDS)}_kind.amount_value"

    for entity in entities:
        if rng.random() < 0.8:
            builder.add_triple(entity, "type_rel", rng.choice(classes))
    n_edges = rng.randint(n_entities, n_entities * 3)
    for _ in range(n_edges):
        builder.add_triple(rng.choice(entities), rng.choice(relations),
                           rng.choice(entities))
    for entity in rng.sample(entities, k=max(1, n_entities // 3)):
        value = round(rng.uniform(0.0, 500.0), 1)
        builder.add_triple(entity, numeric_rel,
                           LiteralValue("float", value, "float"))
    labelled = rng.sample(entities, k=max(1, n_entities // 4))
    for entity in labelled:
        alias = f"{rng.choice(_WORDS)} {entity}"
        builder.set_entity_label(entity, alias)
        builder.add_alias(alias, entity, round(rng.random(), 2))
    if alias_shapes:
        unlabelled = [e for e in entities if e not in labelled]
        builder.add_alias(f"{rng.choice(_WORDS)} only", rng.choice(unlabelled),
                          round(rng.random(), 2))
        builder.set_entity_label(rng.choice(unlabelled), "")
        twice = (f"{rng.choice(_WORDS)} twice", rng.choice(entities), round(rng.random(), 2))
        builder.add_alias(*twice)
        builder.add_alias(*twice)
        shared = f"{rng.choice(_WORDS)} {rng.choice(_WORDS)}"
        for entity in rng.sample(entities, 2):
            builder.add_alias(shared, entity, round(rng.random(), 2))
    return builder.freeze()


class RandomTokenScorer:
    """Deterministic pseudo-random rows keyed by (seed, prefix); used to
    stress the constrained-validity guarantee."""

    reentrant = True

    def __init__(self, vocab_size: int, seed: int = 0):
        self.vocab_size = vocab_size
        self.seed = seed

    def next_log_probs(self, context, prefix) -> np.ndarray:
        rng = np.random.default_rng(_stable_seed(self.seed, *prefix))
        logits = rng.normal(size=self.vocab_size)
        logits -= logits.max()
        return logits - math.log(np.exp(logits).sum())


_NAME_WORDS = ("alpha", "beta", "core", "delta", "unit", "shade", "flux",
               "system", "value", "orbit")
_COMPARE_OPS = ("lt", "le", "gt", "ge")


def _name(rng: random.Random, segments: int) -> str:
    parts = []
    for _ in range(segments):
        n_words = rng.randint(1, 2)
        parts.append("_".join(rng.choice(_NAME_WORDS) for _ in range(n_words)))
    return ".".join(parts)


def _literal(rng: random.Random) -> LiteralValue:
    kind = rng.random()
    if kind < 0.5:
        return LiteralValue("float", round(rng.uniform(0, 999), 1))
    if kind < 0.8:
        return LiteralValue("float", round(rng.uniform(0, 999), 1), "float")
    return LiteralValue("integer", rng.randint(0, 999), "integer")


def random_syntax_ast(rng: random.Random, depth: int = 0):
    """Arbitrary well-positioned AST over made-up names (full grammar,
    any nesting the text parser accepts)."""
    max_depth = 4

    def expr(depth: int):
        if depth >= max_depth or rng.random() < 0.3:
            return LiteralRef(_literal(rng)) if rng.random() < 0.2 else ClassRef(_name(rng, 2))
        pick = rng.random()
        if pick < 0.3:
            return And(expr(depth + 1), expr(depth + 1))
        if pick < 0.6:
            return Join(relation(), obj(depth + 1))
        if pick < 0.7:
            return Count(expr(depth + 1))
        if pick < 0.8:
            return ArgMin(expr(depth + 1), _name(rng, 3))
        if pick < 0.9:
            return ArgMax(expr(depth + 1), _name(rng, 3))
        return Compare(rng.choice(_COMPARE_OPS), _name(rng, 3), _literal(rng))

    def relation():
        name = _name(rng, 3)
        return Reverse(name) if rng.random() < 0.3 else name

    def obj(depth: int):
        if depth >= max_depth or rng.random() < 0.5:
            if rng.random() < 0.3:
                return LiteralRef(_literal(rng))
            return EntityRef("m." + format(rng.randrange(16 ** 5), "05x"))
        return expr(depth)

    return expr(depth)


class StorePools:
    def __init__(self, store: TripleStore):
        self.classes = store.classes()
        self.relations = store.relations()
        self.entities = sorted(store.all_entities())
        self.literals = sorted(
            {t.object for t in store.triples() if isinstance(t.object, LiteralValue)},
            key=lambda lit: lit.text())


def random_exec_ast(rng: random.Random, store: TripleStore,
                    pools: StorePools | None = None):
    """Store-grounded AST in the executable/compilable fragment: COUNT
    at the root only, superlatives never nested inside another
    superlative's sub-expression, atoms drawn from the store."""
    pools = pools or StorePools(store)
    max_depth = 3

    def literal():
        if pools.literals and rng.random() < 0.6:
            return rng.choice(pools.literals)
        return LiteralValue("float", round(rng.uniform(0, 400), 1), "float")

    def set_expr(depth: int, allow_super: bool):
        if depth >= max_depth or rng.random() < 0.35:
            return ClassRef(rng.choice(pools.classes))
        pick = rng.random()
        if pick < 0.35:
            return And(set_expr(depth + 1, allow_super),
                       set_expr(depth + 1, False) if rng.random() < 0.5
                       else set_expr(depth + 1, allow_super and rng.random() < 0.5))
        if pick < 0.75:
            rel = rng.choice(pools.relations)
            rel = Reverse(rel) if rng.random() < 0.3 else rel
            return Join(rel, obj(depth + 1, allow_super))
        if pick < 0.9 and allow_super:
            return (ArgMin if rng.random() < 0.5 else ArgMax)(
                set_expr(depth + 1, False), rng.choice(pools.relations))
        return Compare(rng.choice(_COMPARE_OPS), rng.choice(pools.relations),
                       literal())

    def obj(depth: int, allow_super: bool):
        if depth >= max_depth or rng.random() < 0.55:
            if rng.random() < 0.3:
                return LiteralRef(literal())
            return EntityRef(rng.choice(pools.entities))
        return set_expr(depth, allow_super)

    if rng.random() < 0.15:
        return Count(set_expr(1, True))
    return set_expr(0, True)
