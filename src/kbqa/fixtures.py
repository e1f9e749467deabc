"""Bundled KB fixtures: the small hand-built toy store (`--kb toy:`),
and a seeded synthetic store at the scale the latency floor and the
benchmark are measured at.
"""

from __future__ import annotations

import random

from .store import LiteralValue, StoreBuilder, TripleStore

TOY_TRIPLES = [
    ("sys1", "type_rel", "ms.system"),
    ("sys1", "ms.length_units", "e1"),
    ("eng1", "type_rel", "sf.engine"),
    ("eng2", "type_rel", "sf.engine"),
    ("eng1", "sf.chamber_pressure", LiteralValue("float", 100.0, "float")),
    ("eng2", "sf.chamber_pressure", LiteralValue("float", 300.0, "float")),
    ("eng1", "sf.oxidizer", "ox1"),
]

TOY_LABELS = {
    "e1": "decimetre",
    "sys1": "metric system",
    "eng1": "engine A",
    "eng2": "engine B",
    "ox1": "lox",
}

TOY_ALIASES = [
    ("decimetre", "e1", 0.9),
    ("metric system", "sys1", 0.8),
    ("engine a", "eng1", 0.6),
    ("engine b", "eng2", 0.5),
    ("lox", "ox1", 0.7),
]


def toy_store() -> TripleStore:
    builder = StoreBuilder()
    for subject, relation, obj in TOY_TRIPLES:
        builder.add_triple(subject, relation, obj)
    for entity, label in TOY_LABELS.items():
        builder.set_entity_label(entity, label)
    for alias, entity, popularity in TOY_ALIASES:
        builder.add_alias(alias, entity, popularity)
    return builder.freeze()


# ---------------------------------------------------------------------------
# seeded generator

_WORDS = ("alpha", "beta", "gamma", "delta", "omega", "lumen", "terra",
          "nexus", "core", "shade", "pulse", "ridge", "flux", "orbit")


def synthetic_store(n_entities: int = 1000, seed: int = 7) -> TripleStore:
    """Deterministic store at the scale the latency floor is checked
    at: ~10 classes, ~20 relations, ~4 triples per entity, every entity
    aliased by its label."""
    rng = random.Random(seed)
    builder = StoreBuilder()
    classes = [f"cat{i}.{word}_kind" for i, word in enumerate(_WORDS[:10])]
    relations = [f"cat{i % 10}.{_WORDS[i % len(_WORDS)]}_kind.{word}_of"
                 for i, word in enumerate(_WORDS)]
    relations += [f"cat{i % 10}.{_WORDS[i % len(_WORDS)]}_kind.{word}_value"
                  for i, word in enumerate(_WORDS[:6])]
    entities = [f"m.{i:05d}" for i in range(n_entities)]
    for i, entity in enumerate(entities):
        builder.add_triple(entity, "type_rel", classes[i % len(classes)])
        label = f"{_WORDS[i % len(_WORDS)]} {_WORDS[(i // 3) % len(_WORDS)]} {i}"
        builder.set_entity_label(entity, label)
        builder.add_alias(label, entity, round(rng.random(), 3))
    for _ in range(n_entities * 3):
        builder.add_triple(rng.choice(entities), rng.choice(relations[:14]),
                           rng.choice(entities))
    for entity in rng.sample(entities, k=n_entities // 2):
        builder.add_triple(entity, rng.choice(relations[14:]),
                           LiteralValue("float", round(rng.uniform(0, 1000), 1), "float"))
    return builder.freeze()
