"""Counting scorer wrappers and a span tracer, all applied from outside
the engine.

The counting wrappers sit between `Pipeline` and its two scorers: each
retrieval pair would be a cross-encoder call in TIARA, and each token
row a T5 decoder step, so their counts are the model cost of a question.

The tracer records spans around calls into the engine's modules by
replacing names in the module that calls them (say
`kbqa.pipeline.enumerate_elfs`, which `Pipeline.predict` looks up at
call time). `Tracer.installed()` puts the wrappers in and takes them
out again, so untraced rounds run the engine unchanged.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Iterator, Optional


class CountingTextScorer:
    """Counts (question, candidate) pairs sent to the retrieval scorer."""

    def __init__(self, inner):
        self.inner = inner
        self.pairs = 0

    def score(self, question, candidate_text: str) -> float:
        self.pairs += 1
        return self.inner.score(question, candidate_text)


class CountingTokenScorer:
    """Counts next-token rows requested from the token scorer. `inner`
    may be replaced between questions (one oracle per question)."""

    reentrant = True  # the benchmark drives the pipeline from one thread

    def __init__(self, inner=None):
        self.inner = inner
        self.rows = 0

    def next_log_probs(self, context, prefix):
        self.rows += 1
        return self.inner.next_log_probs(context, prefix)


class Tracer:
    """Spans (name, parent, start, end) kept in memory; parent is the
    index of the enclosing span, -1 at the top."""

    def __init__(self):
        self.spans: list[Optional[tuple]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._wraps: list[tuple[object, str, str, Optional[Callable]]] = []

    def wrap(self, owner: object, attr: str, name: str,
             on_result: Optional[Callable] = None) -> None:
        """Register `owner.attr` to be traced as span `name`;
        `on_result(tracer, result)` may add counts."""
        self._wraps.append((owner, attr, name, on_result))

    def _traced(self, original: Callable, name: str,
                on_result: Optional[Callable]) -> Callable:
        clock = time.perf_counter
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, parent, start, end)
            if on_result is not None:
                on_result(self, result)
            return result

        return traced

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        saved = []
        try:
            for owner, attr, name, on_result in self._wraps:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self._traced(original, name, on_result))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    @contextmanager
    def top_span(self, name: str) -> Iterator[None]:
        """A span opened by the caller, at the top of the stack."""
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, -1, start, end)

    def totals(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Per span name: total seconds, self seconds (total minus the
        time covered by child spans), and call count."""
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for name, _, start, end in self.spans:
            total[name] += end - start
            own[name] += end - start
            calls[name] += 1
        for _, parent, start, end in self.spans:
            if parent >= 0:
                own[self.spans[parent][0]] -= end - start
        return dict(total), dict(own), dict(calls)
