"""End-to-end orchestration: entity linking, logical-form enumeration
and ranking, schema retrieval, context assembly, constrained beam
decoding, and execution-validated prediction with exemplary-logical-form
fallback.
"""

from __future__ import annotations

import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence, Union

from . import vocab as vocab_mod
from .beam import Hypothesis, TokenScorer, beam_search
from .enumerator import EnumConfig, StartPoint, enumerate_elfs
from .errors import DataError, KbqaError
from .executor import evaluate, is_valid_prediction
from .grammar import DecodeContext, render_tokens
from .retrieve import (LinkedEntity, Question, ScoredCandidate, Scorer,
                       build_lexical_scorer, link_question, rank_elfs,
                       retrieve_schema)
from .scorers import UniformScorer
from .sexpr import canonicalize, parse, print_canonical
from .store import NUMBER_RE, LiteralValue, TripleStore
from .trie import SchemaTrie, build_trie
from .vocab import (SECTION_ELFS, SECTION_ENTITIES, SECTION_SCHEMA, Vocabulary,
                    build_vocabulary, encode_logical_form, encode_text,
                    raw_join, tokenize_name)


@dataclass(frozen=True)
class QAExample:
    qid: str
    question: str
    sexpr: Optional[str] = None
    answers: Optional[tuple[str, ...]] = None

    @staticmethod
    def from_json(record: dict) -> "QAExample":
        answers = record.get("answers")
        return QAExample(
            qid=str(record["qid"]),
            question=record["question"],
            sexpr=record.get("sexpr"),
            answers=tuple(answers) if answers is not None else None,
        )


def load_dataset(lines: Iterable[str]) -> list[QAExample]:
    examples = []
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            examples.append(QAExample.from_json(json.loads(line)))
        except (KeyError, ValueError) as exc:
            raise DataError(f"bad dataset record on line {line_no}: {exc}") from exc
    return examples


@dataclass(frozen=True)
class AssembledContext:
    question: str
    entities: tuple[tuple[str, str], ...]   # (label, id) pairs
    elf_prints: tuple[str, ...]
    schema_names: tuple[str, ...]
    token_ids: tuple[int, ...]


def assemble_context(vocab: Vocabulary, question: Question,
                     links: Sequence[LinkedEntity],
                     elfs: Sequence[ScoredCandidate],
                     schema: tuple[Sequence[ScoredCandidate], Sequence[ScoredCandidate]],
                     budget: int = 1000,
                     store: Optional[TripleStore] = None) -> AssembledContext:
    """Deterministic flattened context: question, then sentinel-headed
    entity, logical-form, and schema sections. When the budget is
    exceeded, whole items drop from the tail of the sequence (never
    mid-item); the three sentinels always survive."""
    entities = tuple(
        (store.entity_label(link.entity) if store is not None else link.mention.surface,
         link.entity)
        for link in links)
    elf_prints = tuple(cand.text() for cand in elfs)
    schema_names = tuple(cand.text() for cand in schema[0]) + tuple(
        cand.text() for cand in schema[1])

    question_ids = encode_text(vocab, question.text)
    sentinel_count = 3
    if len(question_ids) > budget - sentinel_count:
        question_ids = question_ids[:max(0, budget - sentinel_count)]

    def entity_chunk(label: str, entity: str) -> list[int]:
        ids = [vocab.id("(")]
        ids.extend(encode_text(vocab, label))
        ids.append(vocab.id(vocab_mod.COMMA))
        ids.append(vocab.id_or_unk(entity))
        ids.append(vocab.id(")"))
        return ids

    def elf_chunk(text: str) -> list[int]:
        try:
            return encode_logical_form(vocab, text)
        except Exception:
            return encode_text(vocab, text)

    def schema_chunk(name: str) -> list[int]:
        try:
            return [vocab.id(tok) for tok in tokenize_name(name)]
        except Exception:
            return encode_text(vocab, name)

    # section index, payload item, token chunk
    items: list[tuple[int, object, list[int]]] = []
    for label, entity in entities:
        items.append((0, (label, entity), entity_chunk(label, entity)))
    for text in elf_prints:
        items.append((1, text, elf_chunk(text)))
    for name in schema_names:
        items.append((2, name, schema_chunk(name)))

    total = len(question_ids) + sentinel_count + sum(len(c) for _, _, c in items)
    while items and total > budget:
        total -= len(items[-1][2])
        items.pop()

    sentinels = (vocab.id(SECTION_ENTITIES), vocab.id(SECTION_ELFS),
                 vocab.id(SECTION_SCHEMA))
    token_ids: list[int] = list(question_ids)
    kept: tuple[list, list, list] = ([], [], [])
    for section in range(3):
        token_ids.append(sentinels[section])
        for item_section, payload, chunk in items:
            if item_section == section:
                token_ids.extend(chunk)
                kept[section].append(payload)
    return AssembledContext(
        question=question.text,
        entities=tuple(kept[0]),
        elf_prints=tuple(kept[1]),
        schema_names=tuple(kept[2]),
        token_ids=tuple(token_ids),
    )


@dataclass(frozen=True)
class Prediction:
    qid: str
    logical_form: Optional[str]
    answers: Optional[tuple[str, ...]]
    provenance: str  # "generated" | "elf-fallback" | "none"
    beam_rank: Optional[int]
    timing: dict = field(default_factory=dict, compare=False)
    context: Optional[dict] = None
    stage_errors: dict = field(default_factory=dict, compare=False)

    def to_json(self) -> dict:
        record = {
            "qid": self.qid,
            "logical_form": self.logical_form,
            "answers": list(self.answers) if self.answers is not None else None,
            "provenance": self.provenance,
            "beam_rank": self.beam_rank,
            "timing": self.timing,
        }
        if self.stage_errors:
            record["stage_errors"] = self.stage_errors
        if self.context is not None:
            record["context"] = self.context
        return record

    @staticmethod
    def from_json(record: dict) -> "Prediction":
        answers = record.get("answers")
        return Prediction(
            qid=str(record["qid"]),
            logical_form=record.get("logical_form"),
            answers=tuple(answers) if answers is not None else None,
            provenance=record.get("provenance", "none"),
            beam_rank=record.get("beam_rank"),
            timing=record.get("timing", {}),
            context=record.get("context"),
            stage_errors=record.get("stage_errors", {}),
        )


@dataclass(frozen=True)
class PipelineConfig:
    beam_size: int = 10
    max_output_tokens: int = 128
    input_budget: int = 1000
    top_schema: int = 10
    top_elf: int = 5
    constrained: bool = True
    max_mention_len: int = 15
    enum: EnumConfig = field(default_factory=EnumConfig)
    dump_context: bool = False


def start_points(question: Question,
                 links: Sequence[LinkedEntity]) -> list[StartPoint]:
    """Enumeration start points: the linked entities, then the numbers
    mentioned in the question outside every linked entity's mention."""
    starts = [StartPoint.entity(link.entity) for link in links]
    linked = {i for link in links for i in range(link.mention.start, link.mention.end)}
    for i, token in enumerate(question.tokens):
        if i not in linked and NUMBER_RE.fullmatch(token):
            starts.append(StartPoint.literal(LiteralValue("float", float(token))))
    return starts


def _timed_stage(timing: dict[str, float], name: str, run: Callable,
                 errors: Optional[dict[str, str]] = None, empty=None):
    """Runs one stage and records its wall time as timing[name]. With
    `errors`, a KbqaError degrades the stage to `empty` and its message
    is kept as errors[name]; without, the error escapes."""
    t0 = time.perf_counter()
    try:
        return run()
    except KbqaError as exc:
        if errors is None:
            raise
        errors[name] = str(exc)
        return empty
    finally:
        timing[name] = time.perf_counter() - t0


@dataclass(frozen=True)
class Prepared:
    """One question's decoder input, with the timing and stage errors of
    the stages run so far (decode adds its own)."""
    links: list[LinkedEntity]
    ranked_elfs: list[ScoredCandidate]
    context: AssembledContext
    timing: dict[str, float]
    stage_errors: dict[str, str]


class Pipeline:
    """Prebuilds the vocabulary, tries, and scorers for one store; then
    answers questions. Safe for concurrent predict() calls; decoding is
    serialized while the token scorer is not reentrant."""

    def __init__(self, store: TripleStore, cfg: PipelineConfig = PipelineConfig(),
                 text_scorer: Optional[Scorer] = None,
                 token_scorer: Union[TokenScorer, Callable[[Vocabulary], TokenScorer], None] = None,
                 extra_vocab_texts: Iterable[str] = ()):
        self.store = store
        self.cfg = cfg
        self.vocab = build_vocabulary(store, extra_vocab_texts)
        self.class_trie: SchemaTrie = build_trie(store.classes(), self.vocab)
        self.rel_trie: SchemaTrie = build_trie(store.relations(), self.vocab)
        self.text_scorer = text_scorer or build_lexical_scorer(store)
        if token_scorer is None:
            self.token_scorer: TokenScorer = UniformScorer(self.vocab.size)
        elif callable(token_scorer) and not hasattr(token_scorer, "next_log_probs"):
            self.token_scorer = token_scorer(self.vocab)  # factory
        else:
            self.token_scorer = token_scorer
        # token_scorer may be reassigned later, so whether to take the
        # lock is decided at decode time.
        self._scorer_lock = threading.Lock()

    # -- stages ----------------------------------------------------------

    def link(self, question: Question) -> list[LinkedEntity]:
        return link_question(question, self.store, self.text_scorer,
                             self.cfg.max_mention_len)

    def prepare(self, question_text: str) -> Prepared:
        """Link, enumerate, retrieve and assemble. A failed stage before
        assembly degrades to its empty result, recorded under its stage
        label, so the fallback chain still runs."""
        timing: dict[str, float] = {}
        errors: dict[str, str] = {}
        question = Question.of(question_text)
        links = _timed_stage(timing, "link", lambda: self.link(question), errors, [])
        elfs = _timed_stage(timing, "enumerate", lambda: enumerate_elfs(
            start_points(question, links), self.store, self.cfg.enum), errors, [])

        def retrieve():
            ranked = rank_elfs(question, elfs, self.text_scorer, self.cfg.top_elf)
            return ranked, retrieve_schema(question, self.store, self.text_scorer,
                                           self.cfg.top_schema)
        ranked_elfs, schema = _timed_stage(timing, "retrieve", retrieve, errors,
                                           ([], ([], [])))
        context = _timed_stage(timing, "assemble", lambda: assemble_context(
            self.vocab, question, links, ranked_elfs, schema, self.cfg.input_budget,
            store=self.store))
        return Prepared(links, ranked_elfs, context, timing, errors)

    def decode(self, prepared: Prepared) -> list[tuple[Hypothesis, str]]:
        """Beam hypotheses in rank order, each with its rendered text; a
        failed decode degrades to none, recorded under "decode"."""
        decode_ctx = DecodeContext(
            self.vocab, self.class_trie, self.rel_trie,
            [link.entity for link in prepared.links])

        def search():
            scorer = self.token_scorer
            reentrant = getattr(scorer, "reentrant", True)
            with nullcontext() if reentrant else self._scorer_lock:
                hypotheses = beam_search(
                    scorer, prepared.context.token_ids, decode_ctx,
                    constrained=self.cfg.constrained, beam_size=self.cfg.beam_size,
                    max_len=self.cfg.max_output_tokens)
            return [(hyp, render_tokens(hyp.tokens, decode_ctx)
                     or raw_join(self.vocab, hyp.tokens, skip={self.vocab.end_id}))
                    for hyp in hypotheses]
        return _timed_stage(prepared.timing, "decode", search,
                            prepared.stage_errors, [])

    # -- end to end --------------------------------------------------------

    def predict(self, question_text: str, qid: str = "q0") -> Prediction:
        """The first candidate that passes the execution check wins:
        generated hypotheses in beam order, then the ranked exemplary
        forms. Only errors with no fallback escape."""
        clock = time.perf_counter
        t_start = clock()
        prepared = self.prepare(question_text)
        decoded = self.decode(prepared)

        t0 = clock()
        candidates = [(text, "generated", rank) for rank, (_, text) in enumerate(decoded)]
        candidates += [(cand.candidate, "elf-fallback", None)
                       for cand in prepared.ranked_elfs]
        chosen_form: Optional[str] = None
        answers: Optional[tuple[str, ...]] = None
        provenance, beam_rank = "none", None
        for form, source, rank in candidates:
            if is_valid_prediction(form, self.store):
                parsed = canonicalize(parse(form) if isinstance(form, str) else form)
                chosen_form = print_canonical(parsed)
                answers = tuple(evaluate(parsed, self.store).strings())
                provenance, beam_rank = source, rank
                break
        timing = prepared.timing
        timing["validate"] = clock() - t0
        timing["total"] = clock() - t_start

        context_dump = None
        if self.cfg.dump_context:
            context = prepared.context
            context_dump = {
                "entities": [list(pair) for pair in context.entities],
                "elfs": list(context.elf_prints),
                "schema": list(context.schema_names),
                "token_count": len(context.token_ids),
            }
        return Prediction(qid, chosen_form, answers, provenance, beam_rank,
                          timing, context_dump, prepared.stage_errors)

    def predict_batch(self, examples: Sequence[QAExample],
                      workers: int = 1) -> list[Prediction]:
        """Results in input order regardless of worker count."""
        if workers <= 1:
            return [self.predict(ex.question, ex.qid) for ex in examples]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(lambda ex: self.predict(ex.question, ex.qid),
                                 examples))
