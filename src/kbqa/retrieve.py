"""Entity linking (mention detection, candidate generation,
disambiguation), schema retrieval, and exemplary-logical-form ranking,
all over a pluggable question/candidate scorer.

The scorer interface is a single text pair -> real number contract so a
neural scorer can be swapped in (including via a child process) without
code changes. The built-in baseline is deterministic lexical overlap:
IDF-weighted token Jaccard plus a character-trigram tie-breaker.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from typing import Optional, Protocol, Sequence, Union, runtime_checkable

from .errors import NoCandidateError, ScorerProtocolError
from .scorers import LineProcess
from .sexpr import LogicalForm, print_canonical
from .store import TripleStore, text_words


@dataclass(frozen=True)
class Question:
    text: str
    tokens: tuple[str, ...]

    @staticmethod
    def of(text: str) -> "Question":
        return Question(text, tuple(text_words(text)))


@dataclass(frozen=True)
class Mention:
    start: int  # token index, inclusive
    end: int    # token index, exclusive
    surface: str

    def __post_init__(self):
        if self.start < 0 or self.end <= self.start:
            raise ValueError("mention span must be non-empty and in bounds")


@dataclass(frozen=True)
class LinkedEntity:
    mention: Mention
    entity: str
    score: float

    def to_json(self, question_id: Optional[str] = None) -> dict:
        return {
            "question_id": question_id,
            "mention": {"start": self.mention.start, "end": self.mention.end,
                        "surface": self.mention.surface},
            "entity": self.entity,
            "score": self.score,
        }


@dataclass(frozen=True)
class ScoredCandidate:
    candidate: Union[str, LogicalForm]
    score: float

    def text(self) -> str:
        if isinstance(self.candidate, str):
            return self.candidate
        return print_canonical(self.candidate)


@runtime_checkable
class Scorer(Protocol):
    def score(self, question: Question, candidate_text: str) -> float: ...


# ---------------------------------------------------------------------------
# baseline scorers


def _trigrams(text: str) -> set[str]:
    return {text[i:i + 3] for i in range(len(text) - 2)}


class LexicalScorer:
    """IDF-weighted token overlap plus 0.1 * character-trigram Jaccard.

    IDF weights come from a document corpus given at construction time
    (each document one string); without a corpus all tokens weigh 1.
    """

    def __init__(self, corpus: Optional[Sequence[str]] = None):
        self._idf: dict[str, float] = {}
        self._n_docs = 0
        if corpus:
            df: dict[str, int] = {}
            for doc in corpus:
                for token in set(text_words(doc)):
                    df[token] = df.get(token, 0) + 1
            self._n_docs = len(corpus)
            for token, count in df.items():
                self._idf[token] = math.log((1 + self._n_docs) / (1 + count)) + 1.0

    def idf(self, token: str) -> float:
        if not self._n_docs:
            return 1.0
        return self._idf.get(token, math.log(1 + self._n_docs) + 1.0)

    def score(self, question: Question, candidate_text: str) -> float:
        q_tokens = set(question.tokens)
        c_tokens = set(text_words(candidate_text))
        union = q_tokens | c_tokens
        overlap = 0.0
        if union:
            common_weight = sum(self.idf(t) for t in q_tokens & c_tokens)
            union_weight = sum(self.idf(t) for t in union)
            overlap = common_weight / union_weight if union_weight else 0.0
        q_tri = _trigrams(" ".join(question.tokens))
        c_tri = _trigrams(" ".join(text_words(candidate_text)))
        tri = len(q_tri & c_tri) / len(q_tri | c_tri) if (q_tri or c_tri) else 0.0
        return overlap + 0.1 * tri


def lexical_score(question: Question, candidate_text: str) -> float:
    """Corpus-free baseline scorer (all IDF weights 1)."""
    return LexicalScorer().score(question, candidate_text)


def build_lexical_scorer(store: TripleStore) -> LexicalScorer:
    corpus = list(store.catalog)
    for entity in sorted(store.all_entities()):
        meta = store.entity_meta(entity)
        if meta.label:
            corpus.append(meta.label)
        corpus.extend(meta.aliases)
    return LexicalScorer(corpus)


class ConstantScorer:
    def __init__(self, value: float = 0.0):
        self.value = value

    def score(self, question: Question, candidate_text: str) -> float:
        return self.value


class TableScorer:
    """Fixed candidate-text -> score table; the retrieval oracle."""

    def __init__(self, scores: dict[str, float], default: float = 0.0):
        self.scores = dict(scores)
        self.default = default

    def score(self, question: Question, candidate_text: str) -> float:
        return self.scores.get(candidate_text, self.default)

    @staticmethod
    def from_json_file(path: str) -> "TableScorer":
        with open(path, encoding="utf-8") as handle:
            return TableScorer(json.load(handle))


class ExternalTextScorer:
    """Child-process text-pair scorer.

    Request:  SCORE \\t <question> \\t <candidate>
    Response: one real number per line.
    Tabs and newlines inside the texts are replaced by spaces.
    """

    def __init__(self, command: str, timeout: float = 10.0):
        self._proc = LineProcess(command, timeout)

    @staticmethod
    def _clean(text: str) -> str:
        return re.sub(r"[\t\n\r]", " ", text)

    def score(self, question: Question, candidate_text: str) -> float:
        reply = self._proc.request(
            "SCORE\t%s\t%s" % (self._clean(question.text), self._clean(candidate_text)))
        try:
            return float(reply)
        except ValueError as exc:
            raise ScorerProtocolError(f"malformed score reply {reply!r}") from exc

    def close(self) -> None:
        self._proc.close()


# ---------------------------------------------------------------------------
# entity linking


def detect_mentions(question: Question, store: TripleStore,
                    max_mention_len: int = 15) -> list[Mention]:
    """All alias-index hits up to the length cap; overlaps resolved
    longest-match-first, ties leftmost. Returned in question order."""
    tokens = question.tokens
    hits: list[Mention] = []
    for length in range(min(max_mention_len, len(tokens)), 0, -1):
        for start in range(0, len(tokens) - length + 1):
            surface = " ".join(tokens[start:start + length])
            if store.alias_lookup(surface):
                hits.append(Mention(start, start + length, surface))
    hits.sort(key=lambda m: (-(m.end - m.start), m.start))
    chosen: list[Mention] = []
    taken: set[int] = set()
    for mention in hits:
        span = set(range(mention.start, mention.end))
        if span & taken:
            continue
        taken |= span
        chosen.append(mention)
    chosen.sort(key=lambda m: m.start)
    return chosen


def generate_candidates(mention: Mention, store: TripleStore) -> list[tuple[str, float]]:
    """Alias-index lookup, already popularity-descending."""
    return store.alias_lookup(mention.surface)


def entity_context_text(store: TripleStore, entity: str) -> str:
    """Disambiguation context: the label followed by the linked
    relation names."""
    relations = " ".join(sorted(store.entity_relations(entity)))
    label = store.entity_label(entity)
    return f"{label} {relations}".strip()


def disambiguate(question: Question, mention: Mention,
                 candidates: Sequence[tuple[str, float]], store: TripleStore,
                 scorer: Scorer) -> LinkedEntity:
    """Highest-scoring candidate; ties go to higher popularity, then to
    entity-id order."""
    if not candidates:
        raise NoCandidateError(f"no candidates for mention {mention.surface!r}")
    scored = []
    for entity, popularity in candidates:
        value = scorer.score(question, entity_context_text(store, entity))
        scored.append((-value, -popularity, entity))
    scored.sort()
    neg_score, _, entity = scored[0]
    return LinkedEntity(mention, entity, -neg_score)


def link_question(question: Question, store: TripleStore, scorer: Scorer,
                  max_mention_len: int = 15) -> list[LinkedEntity]:
    links = []
    for mention in detect_mentions(question, store, max_mention_len):
        candidates = generate_candidates(mention, store)
        if candidates:
            links.append(disambiguate(question, mention, candidates, store, scorer))
    return links


# ---------------------------------------------------------------------------
# schema retrieval and logical-form ranking


def retrieve_schema(question: Question, store: TripleStore, scorer: Scorer,
                    k: int = 10) -> tuple[list[ScoredCandidate], list[ScoredCandidate]]:
    """Top-k classes and top-k relations, scored independently over the
    full catalog; ties break by name."""

    def top(names: list[str]) -> list[ScoredCandidate]:
        scored = [(-scorer.score(question, name), name) for name in names]
        scored.sort()
        return [ScoredCandidate(name, -neg) for neg, name in scored[:k]]

    return top(store.classes()), top(store.relations())


def rank_elfs(question: Question, elfs: Sequence[LogicalForm], scorer: Scorer,
              k: int) -> list[ScoredCandidate]:
    """Top-k candidate logical forms by scorer value over their
    canonical prints; ties break by print."""
    texts = [print_canonical(lf) for lf in elfs]
    scored = [(-scorer.score(question, text), text, lf) for text, lf in zip(texts, elfs)]
    scored.sort(key=lambda item: (item[0], item[1]))
    return [ScoredCandidate(lf, -neg) for neg, _, lf in scored[:k]]


def ranker_loss(scores: Sequence[float], target_index: int) -> float:
    """Negative softmax probability of the target among the candidates,
    computed in log-space; in [-1, 0)."""
    if not 0 <= target_index < len(scores):
        raise IndexError("target_index out of range")
    peak = max(scores)
    log_denominator = peak + math.log(sum(math.exp(s - peak) for s in scores))
    return -math.exp(scores[target_index] - log_denominator)
