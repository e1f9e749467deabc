"""Seeded benchmark inputs: raw triple lists, the flat files that
`kbqa --kb <dir>` reads, and the questions asked of them.

Nothing here imports kbqa. Gold forms and expected answers come from
the generator and `reference.Graph`, so the answer checks stay
independent of the engine under test.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from reference import Graph, Node, Num, node_text

TYPE_REL = "type_rel"
WORDS = ("alpha", "beta", "gamma", "delta", "omega", "lumen", "terra",
         "nexus", "core", "shade", "pulse", "ridge", "flux", "orbit")


@dataclass
class KB:
    triples: list[tuple[str, str, Node]]
    labels: dict[str, str]
    aliases: list[tuple[str, str, float]]
    entities: list[str]            # the synthetic entities, in id order
    classes: list[str]             # entity i is an instance of classes[i % 10]
    relations: list[str]

    def write(self, directory: Path) -> None:
        """The dump layout `kbqa ingest` writes and `kbqa --kb` reads."""
        directory.mkdir(parents=True, exist_ok=True)
        with open(directory / "triples.tsv", "w", encoding="utf-8") as out:
            out.writelines(f"{s}\t{r}\t{node_text(o)}\n" for s, r, o in self.triples)
        with open(directory / "labels.tsv", "w", encoding="utf-8") as out:
            out.writelines(f"{e}\t{label}\n" for e, label in self.labels.items())
        with open(directory / "aliases.tsv", "w", encoding="utf-8") as out:
            out.writelines(f"{a}\t{e}\t{p!r}\n" for a, e, p in self.aliases)
        (directory / "meta.json").write_text(
            json.dumps({"type_relation": TYPE_REL}), encoding="utf-8")


def synthetic_kb(n_entities: int, seed: int) -> KB:
    """The triples, labels and aliases of
    `kbqa.fixtures.synthetic_store(n_entities, seed)`, drawn in the same
    order from the same generator: ~10 classes, 20 relations, ~4.5
    triples per entity, every entity aliased by its label."""
    rng = random.Random(seed)
    classes = [f"cat{i}.{word}_kind" for i, word in enumerate(WORDS[:10])]
    relations = [f"cat{i % 10}.{WORDS[i % len(WORDS)]}_kind.{word}_of"
                 for i, word in enumerate(WORDS)]
    relations += [f"cat{i % 10}.{WORDS[i % len(WORDS)]}_kind.{word}_value"
                  for i, word in enumerate(WORDS[:6])]
    entities = [f"m.{i:05d}" for i in range(n_entities)]
    triples: list[tuple[str, str, Node]] = []
    labels: dict[str, str] = {}
    aliases: list[tuple[str, str, float]] = []
    for i, entity in enumerate(entities):
        triples.append((entity, TYPE_REL, classes[i % len(classes)]))
        label = f"{WORDS[i % len(WORDS)]} {WORDS[(i // 3) % len(WORDS)]} {i}"
        labels[entity] = label
        aliases.append((label, entity, round(rng.random(), 3)))
    for _ in range(n_entities * 3):
        triples.append((rng.choice(entities), rng.choice(relations[:14]),
                        rng.choice(entities)))
    for entity in rng.sample(entities, k=n_entities // 2):
        triples.append((entity, rng.choice(relations[14:]),
                        Num(round(rng.uniform(0, 1000), 1))))
    return KB(triples, labels, aliases, entities, classes, relations)


@dataclass(frozen=True)
class Question:
    qid: str
    text: str
    entity: str                               # the entity the question names
    gold: Optional[str] = None                # form the oracle scorer targets
    expected: Optional[tuple[str, ...]] = None  # sorted answer strings
    oracle_seed: int = 0


@dataclass
class Inputs:
    kb: KB
    questions: list[Question]
    graph: Graph


def _relation_words(form: str) -> str:
    """Last name segment of each relation in a form, as plain words."""
    words = []
    for token in form.replace("(", " ").replace(")", " ").split():
        if token.count(".") == 2:
            words.append(token.rsplit(".", 1)[1].replace("_", " "))
    return " ".join(words)


def elf_fallback_inputs(seed: int, n_entities: int, n_questions: int) -> Inputs:
    """The criterion-9 question template over a synthetic store.

    Entities whose label number is also a literal value of the store
    are not asked about: the pipeline takes that number as a literal
    start point too, and on some seeds ranks a form anchored on the
    literal first, which then names no entity of the question."""
    kb = synthetic_kb(n_entities, seed)
    values = {o for _, _, o in kb.triples if isinstance(o, Num)}
    rng = random.Random(seed * 7919 + 1)
    entities = [e for e in rng.sample(kb.entities, 2 * n_questions)
                if float(kb.labels[e].rsplit(" ", 1)[1]) not in values][:n_questions]
    questions = [
        Question(f"ef{i}", f"which {kb.labels[e]} connects to something with a value", e)
        for i, e in enumerate(entities)]
    return Inputs(kb, questions, Graph(kb.triples, TYPE_REL))


def generated_inputs(seed: int, n_entities: int, n_questions: int) -> Inputs:
    """Each question names one entity; its gold form is drawn from that
    entity's one- and two-hop forms. Shapes cycle through one hop, one
    hop in a class, two hops, two hops in a class, so every seed asks
    the same mix."""
    kb = synthetic_kb(n_entities, seed)
    graph = Graph(kb.triples, TYPE_REL)
    rng = random.Random(seed * 7919 + 2)
    questions = []
    while len(questions) < n_questions:
        two_hops, in_class = divmod(len(questions) % 4, 2)
        entity = rng.choice(kb.entities)
        forms = graph.joins_onto(entity)
        if forms and two_hops:
            forms = graph.joins_onto(rng.choice(forms))
        if forms and in_class:
            forms = graph.class_wraps(rng.choice(forms))
        if not forms:
            continue
        form = rng.choice(forms)
        qid = f"gen{len(questions)}"
        text = f"what does {kb.labels[entity]} reach by {_relation_words(form)}"
        questions.append(Question(qid, text, entity, form, graph.answer_strings(form),
                                  oracle_seed=rng.randrange(1 << 30)))
    return Inputs(kb, questions, graph)


def hub_inputs(seed: int, n_entities: int, degrees: tuple[int, ...]) -> Inputs:
    """Hub entities whose in-degree along one relation follows `degrees`.

    Each in-edge comes from a source entity of the hub's own, typed and
    with two more edges to base entities, whose relations and classes
    follow the source's index. Only the ids at the far end depend on
    the seed, so the neighbourhood a hub's enumeration walks has the
    same shape on every seed. A question names a hub and targets
    (JOIN relation hub); its answers are the sources."""
    kb = synthetic_kb(n_entities, seed)
    rng = random.Random(seed * 7919 + 3)
    relation = kb.relations[0]
    by_class = [kb.entities[c::len(kb.classes)] for c in range(len(kb.classes))]
    words = relation.rsplit(".", 1)[1].replace("_", " ")
    questions = []
    for k, degree in enumerate(degrees):
        hub = f"m.hub{k:02d}"
        label = f"hub {WORDS[k % len(WORDS)]} {WORDS[k // len(WORDS)]}"
        kb.triples.append((hub, TYPE_REL, kb.classes[0]))
        kb.labels[hub] = label
        kb.aliases.append((label, hub, 1.0))
        sources = [f"{hub}.{j:03d}" for j in range(degree)]
        for j, source in enumerate(sources):
            kb.triples.append((source, TYPE_REL, kb.classes[j % len(kb.classes)]))
            kb.triples.append((source, relation, hub))
            for t in (1, 2):
                kb.triples.append((source, kb.relations[(j + t) % 14],
                                   rng.choice(by_class[(j + t) % len(kb.classes)])))
        questions.append(Question(f"hub{k}", f"which entities are {words} {label}",
                                  hub, f"(JOIN {relation} {hub})", tuple(sorted(sources))))
    return Inputs(kb, questions, Graph(kb.triples, TYPE_REL))
