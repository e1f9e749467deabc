"""End-to-end orchestration: entity linking, logical-form enumeration
and ranking, schema retrieval, context assembly, constrained beam
decoding, and execution-validated prediction with exemplary-logical-form
fallback.
"""

from __future__ import annotations

import json
import math
import threading
import time
from array import array
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing, nullcontext
from dataclasses import dataclass, field
from itertools import chain
from types import MappingProxyType
from typing import (Callable, ClassVar, Iterable, Iterator, Mapping, Optional, Sequence,
                    Union)

from . import vocab as vocab_mod
# beam_search is read here by name when benchmarks/run.py traces a run.
from .beam import Hypothesis, TokenScorer, beam_search, iter_beam_search  # noqa: F401
from .enumerator import EnumConfig, StartPoint, enumerate_elfs
from .errors import DataError, KbqaError, TokenizeError
from .executor import evaluate, is_valid_prediction
from .grammar import DecodeContext, DecodeTables, render_tokens
from .retrieve import (LinkedEntity, Question, ScoredCandidate, Scorer,
                       build_lexical_scorer, link_question, rank_elfs,
                       retrieve_schema)
from .scorers import UniformScorer
from .sexpr import parse, print_canonical
from .store import NUMBER_RE, LiteralValue, TripleStore, read_rows
from .vocab import (SECTION_ELFS, SECTION_ENTITIES, SECTION_SCHEMA, Vocabulary,
                    build_vocabulary, encode_logical_form, encode_text,
                    raw_join)


@dataclass(frozen=True)
class QAExample:
    qid: str
    question: str
    sexpr: Optional[str] = None
    answers: Optional[tuple[str, ...]] = None

    @staticmethod
    def from_json(record: dict) -> "QAExample":
        return QAExample(
            qid=str(record["qid"]),
            question=_checked("question", record["question"], str, nullable=False),
            sexpr=_checked("sexpr", record.get("sexpr"), str),
            answers=_answers(record),
        )


_KIND_NAMES = {str: "a string", int: "an integer"}


def _checked(name: str, value, kind: type, nullable: bool = True):
    """`value` when it is a `kind` (a bool is not an integer), or when
    it is None and `nullable`; TypeError otherwise."""
    if value is None and nullable:
        return None
    if not isinstance(value, kind) or isinstance(value, bool):
        raise TypeError(f"{name} must be {_KIND_NAMES[kind]}, got {type(value).__name__}")
    return value


def _answers(record: dict) -> Optional[tuple[str, ...]]:
    """The record's `answers`: a list of strings, or absent or null."""
    answers = record.get("answers")
    if answers is None:
        return None
    if not (isinstance(answers, list) and all(isinstance(a, str) for a in answers)):
        raise TypeError("answers must be a list of strings")
    return tuple(answers)


def load_records(lines: Iterable[str], source: Optional[str],
                 from_json: Callable[[dict], object], what: str) -> list:
    """`from_json` of each JSONL row; errors name a bad `what` record."""
    records = []

    def parse_row(line: str) -> None:
        try:
            record = json.loads(line)
            if not isinstance(record, dict):
                raise ValueError(f"expected a JSON object, got {type(record).__name__}")
            records.append(from_json(record))
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"bad {what} record: {exc}") from exc

    read_rows(lines, source, parse_row)
    return records


def load_dataset(lines: Iterable[str], source: Optional[str] = None) -> list[QAExample]:
    return load_records(lines, source, QAExample.from_json, "dataset")


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
                     budget: int = 1000, *, store: TripleStore) -> AssembledContext:
    """Deterministic flattened context: question, then sentinel-headed
    entity, logical-form, and schema sections. When the budget is
    exceeded, whole items drop from the tail of the sequence (never
    mid-item); the three sentinels always survive."""
    entities = tuple((store.entity_label(link.entity), link.entity) for link in links)

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

    def elf_chunk(cand: ScoredCandidate) -> list[int]:
        try:
            return encode_logical_form(vocab, cand.candidate)
        except TokenizeError:
            return encode_text(vocab, cand.text())

    def schema_chunk(name: str) -> list[int]:
        try:
            return list(vocab.name_ids(name))
        except TokenizeError:
            return encode_text(vocab, name)

    # section index, payload item, token chunk
    items: list[tuple[int, object, list[int]]] = []
    for label, entity in entities:
        items.append((0, (label, entity), entity_chunk(label, entity)))
    for cand in elfs:
        items.append((1, cand.text(), elf_chunk(cand)))
    for cand in (*schema[0], *schema[1]):
        name = cand.text()
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


# The stages `Pipeline.predict` times, in the order it times them.
_STAGES = ("link", "enumerate", "retrieve", "assemble", "decode", "validate", "total")


class StageTimes(Mapping):
    """Seconds per stage, read-only, for the stages in `_STAGES` and in
    that order: one array of doubles. A batch of predictions is held in
    memory at once, and this is about 180 B against 440 B for a dict of
    seven floats."""

    __slots__ = ("_seconds",)

    def __init__(self, seconds: Mapping[str, float]):
        self._seconds = array("d", (seconds[stage] for stage in _STAGES))

    def __getitem__(self, stage: str) -> float:
        try:
            return self._seconds[_STAGES.index(stage)]
        except ValueError:
            raise KeyError(stage) from None

    def __iter__(self) -> Iterator[str]:
        return iter(_STAGES)

    def __len__(self) -> int:
        return len(_STAGES)

    def __repr__(self) -> str:
        return f"StageTimes({dict(self)!r})"


# Slotted, which saves about 50 B per instance: a batch of predictions
# is held in memory at once.
@dataclass(frozen=True, slots=True)
class Prediction:
    qid: str
    logical_form: Optional[str]
    answers: Optional[tuple[str, ...]]
    provenance: str  # "generated" | "elf-fallback" | "none"
    beam_rank: Optional[int]
    timing: Mapping[str, float] = field(default_factory=dict, compare=False)
    context: Optional[dict] = None
    stage_errors: dict = field(default_factory=dict, compare=False)

    def to_json(self) -> dict:
        record = {
            "qid": self.qid,
            "logical_form": self.logical_form,
            "answers": list(self.answers) if self.answers is not None else None,
            "provenance": self.provenance,
            "beam_rank": self.beam_rank,
            "timing": dict(self.timing),
        }
        if self.stage_errors:
            record["stage_errors"] = self.stage_errors
        if self.context is not None:
            record["context"] = self.context
        return record

    @staticmethod
    def from_json(record: dict) -> "Prediction":
        return Prediction(
            qid=str(record["qid"]),
            logical_form=_checked("logical_form", record.get("logical_form"), str),
            answers=_answers(record),
            provenance=_checked("provenance", record.get("provenance", "none"), str,
                                nullable=False),
            beam_rank=_checked("beam_rank", record.get("beam_rank"), int),
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
    # The least value of each numeric field; the CLI's flags take these ranges.
    MINIMUMS: ClassVar[Mapping[str, int]] = MappingProxyType({
        "beam_size": 1, "max_output_tokens": 1, "input_budget": 0,
        "top_schema": 0, "top_elf": 0, "max_mention_len": 1})

    def __post_init__(self):
        for name, low in self.MINIMUMS.items():
            value = getattr(self, name)
            if value < low:
                raise ValueError(f"{name} must be at least {low}, got {value}")


def start_points(question: Question,
                 links: Sequence[LinkedEntity]) -> list[StartPoint]:
    """Enumeration start points: the linked entities, then the numbers
    mentioned in the question outside every linked entity's mention. A
    number beyond float range equals no store node, so it starts none."""
    starts = [StartPoint.entity(link.entity) for link in links]
    linked = {i for link in links for i in range(link.mention.start, link.mention.end)}
    for i, token in enumerate(question.tokens):
        if i not in linked and NUMBER_RE.fullmatch(token) and math.isfinite(float(token)):
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
    """Prebuilds the vocabulary, the decode tables and the scorers for
    one store; then answers questions. Safe for concurrent predict()
    calls: the tables are read-only once built, and decoding is
    serialized while the token scorer is not reentrant."""

    def __init__(self, store: TripleStore, cfg: PipelineConfig = PipelineConfig(),
                 text_scorer: Optional[Scorer] = None,
                 token_scorer: Union[TokenScorer, Callable[[Vocabulary], TokenScorer], None] = None,
                 extra_vocab_texts: Iterable[str] = ()):
        self.store = store
        self.cfg = cfg
        self.vocab = build_vocabulary(store, extra_vocab_texts)
        self.tables = DecodeTables(self.vocab, store.classes(), store.relations())
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

    def _search(self, prepared: Prepared) -> tuple[Iterator[Hypothesis], DecodeContext]:
        """Beam hypotheses in rank order, each as soon as its rank is
        final, and the question's decode context that renders them.
        Time spent inside the search adds up as timing["decode"]; a
        failed search ends the hypotheses, recorded under "decode". A
        non-reentrant scorer's lock is held from the first hypothesis
        asked for until the iterator ends or is closed."""
        decode_ctx = DecodeContext(self.tables, [link.entity for link in prepared.links])
        timing, errors = prepared.timing, prepared.stage_errors
        timing["decode"] = 0.0

        def search() -> Iterator[Hypothesis]:
            clock = time.perf_counter
            t0 = clock()
            scorer = self.token_scorer
            reentrant = getattr(scorer, "reentrant", True)
            with nullcontext() if reentrant else self._scorer_lock:
                hypotheses = iter_beam_search(
                    scorer, prepared.context.token_ids, decode_ctx,
                    constrained=self.cfg.constrained, beam_size=self.cfg.beam_size,
                    max_len=self.cfg.max_output_tokens)
                while True:
                    try:
                        hyp = next(hypotheses)
                    except StopIteration:
                        return
                    except KbqaError as exc:
                        errors["decode"] = str(exc)
                        return
                    finally:
                        timing["decode"] += clock() - t0
                    yield hyp
                    t0 = clock()
        return search(), decode_ctx

    def _render(self, hyp: Hypothesis, decode_ctx: DecodeContext) -> str:
        """The hypothesis's logical-form text, or its raw tokens joined
        when it is not grammatical."""
        return (render_tokens(hyp.tokens, decode_ctx)
                or raw_join(self.vocab, hyp.tokens, skip={self.vocab.end_id}))

    def decode(self, prepared: Prepared) -> list[tuple[Hypothesis, str]]:
        """The whole beam in rank order, each hypothesis with its
        rendered text, all timed as "decode"; a failed decode degrades
        to none, recorded under "decode". `predict` instead stops the
        search at its winner and renders lazily."""
        t0 = time.perf_counter()
        hypotheses, decode_ctx = self._search(prepared)
        hypotheses = list(hypotheses)
        if "decode" in prepared.stage_errors:
            hypotheses = []
        decoded = [(hyp, self._render(hyp, decode_ctx)) for hyp in hypotheses]
        prepared.timing["decode"] = time.perf_counter() - t0
        return decoded

    # -- end to end --------------------------------------------------------

    def predict(self, question_text: str, qid: str = "q0") -> Prediction:
        """The first candidate that passes the execution check wins:
        generated hypotheses in beam order, then the ranked exemplary
        forms. The search yields each hypothesis as soon as its rank is
        final and is closed at the winner, so timing["decode"] counts
        only the rows asked for. A hypothesis is rendered only when the
        check reaches it, within timing["validate"]. Only errors with
        no fallback escape."""
        clock = time.perf_counter
        t_start = clock()
        prepared = self.prepare(question_text)
        timing = prepared.timing
        hypotheses, decode_ctx = self._search(prepared)

        t0 = clock()
        candidates = chain(
            ((self._render(hyp, decode_ctx), "generated", rank)
             for rank, hyp in enumerate(hypotheses)),
            ((cand.candidate, "elf-fallback", None) for cand in prepared.ranked_elfs))
        chosen_form: Optional[str] = None
        answers: Optional[tuple[str, ...]] = None
        provenance, beam_rank = "none", None
        with closing(hypotheses):
            for form, source, rank in candidates:
                if is_valid_prediction(form, self.store):
                    parsed = parse(form) if isinstance(form, str) else form
                    chosen_form = print_canonical(parsed)
                    answers = tuple(evaluate(parsed, self.store).strings())
                    provenance, beam_rank = source, rank
                    break
        timing["validate"] = clock() - t0 - timing["decode"]
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
                          StageTimes(timing), context_dump, prepared.stage_errors)

    def predict_batch(self, examples: Sequence[QAExample],
                      workers: int = 1) -> list[Prediction]:
        """Results in input order regardless of worker count."""
        if workers <= 1:
            return [self.predict(ex.question, ex.qid) for ex in examples]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(lambda ex: self.predict(ex.question, ex.qid),
                                 examples))
