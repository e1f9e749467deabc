"""Grammar- and trie-constrained beam search over a pluggable
autoregressive token scorer, plus the teacher-forced sequence-NLL
diagnostic.

Scorers return one log-probability per vocabulary id, log-normalized,
conditioned on (context, generated prefix); the begin token is implicit
and never part of a prefix. A row is an array, or a `SparseRow` whose
entries the constrained beam gathers with `values_at(ids)`, so that a
wide vocabulary costs nothing beyond the allowed ids. In constrained mode,
log-probs outside the grammar's allowed set are treated as -inf before
expansion, so every finished hypothesis spells a parseable,
catalog-valid logical form, and the search stops once no live
hypothesis can finish in the steps left. In unconstrained mode any
token may follow any prefix, a hypothesis finishes on the first end
token, grammatical or not, and no grammar state is kept. The search
returns finished hypotheses only, each its tokens and its score; the
live beam's grammar states stay inside it.

`iter_beam_search` yields them one at a time, each as soon as its rank
is final: after a step, the best finished hypothesis not yet yielded is
certain once every live hypothesis sorts after it, since a path's score
never rises and its tokens only sort later. A caller that stops at the
first hypothesis it accepts spends no rows past that point;
`beam_search` is the whole of it, as a list.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite
from typing import Iterator, Optional, Protocol, Sequence, Union, runtime_checkable

import numpy as np

from .grammar import (DecodeContext, GrammarState, advance, allowed_next,
                      completion, initial_state, mask_key)
from .scorers import SparseRow


@runtime_checkable
class TokenScorer(Protocol):
    """`next_log_probs` returns a row of vocabulary width: anything
    `np.asarray` turns into floats, or a `SparseRow`, which the beam
    reads without densifying. It is called once per live hypothesis per
    step, and `reentrant = False` serialises calls across threads.

    Every value is a log-probability, at most 0 (-inf allowed): the exact
    early stops of the search assume that a path's score never rises.
    `ExternalTokenScorer` rejects a row with a value above 0 or a NaN;
    in-process scorers are trusted, and their rows are not checked."""

    reentrant: bool

    def next_log_probs(self, context: Sequence[int],
                       prefix: Sequence[int]) -> Union[np.ndarray, SparseRow]: ...


def _quantize(score):
    """Collapse float-accumulation noise so that mathematically equal
    path scores compare as ties (which then break by token sequence).
    Always numpy's rounding, for a scalar or an array alike."""
    return np.round(score, 9)


@dataclass(frozen=True)
class Hypothesis:
    """A finished hypothesis: its generated ids, the end token last, and
    its path score."""
    tokens: tuple[int, ...]
    log_prob: float

    def sort_key(self):
        return (-_quantize(self.log_prob), self.tokens)


def _allowed_ids(state: GrammarState, ctx: DecodeContext) -> tuple[int, ...]:
    """allowed_next as a sorted tuple: read from the shared tables, or,
    for a mask that reaches the obj slot, from the question's memo."""
    key = mask_key(state)
    ids = ctx.tables.mask_ids.get(key)
    if ids is None:
        ids = ctx.obj_ids.get(key)
        if ids is None:
            ids = ctx.obj_ids[key] = tuple(sorted(allowed_next(state, ctx)))
    return ids


def _top_ids(row: np.ndarray, k: int) -> np.ndarray:
    """The k best tokens of a row by (score descending, token
    ascending), cut at the first non-finite one in that order."""
    order = np.argsort(-row, kind="stable")[:k]
    finite = np.isfinite(row[order])
    return order if finite.all() else order[:int(finite.argmin())]


def iter_beam_search(scorer: TokenScorer, context: Sequence[int], ctx: DecodeContext,
                     constrained: bool = True, beam_size: int = 10,
                     max_len: int = 128) -> Iterator[Hypothesis]:
    """`beam_search`'s hypotheses one at a time, in rank order, each as
    soon as its rank is final; a caller that stops asking spends no
    more scorer rows.

    After each step, the best finished hypothesis not yet yielded is
    yielded once every live hypothesis sorts after it: along a path the
    score never rises and the tokens only sort later, so no hypothesis
    still to finish can sort before it. The search returns once
    beam_size hypotheses have been yielded, which is exactly when the
    k-th best finished one sorts before every live one. It also stops
    when the beam has no live hypothesis, after max_len steps, or, in
    constrained mode, after a step in which every live hypothesis needs
    more tokens to finish (`grammar.completion`, which is exact) than
    steps are left; then the rest are yielded in rank order."""
    if beam_size < 1:
        raise ValueError("beam_size must be >= 1")
    end_id = ctx.tables.end_id
    # The live beam as (tokens, log_prob, state), kept in token order;
    # unconstrained, the state stays None, as nothing reads it.
    live = [((), 0.0, initial_state() if constrained else None)]
    # Finished hypotheses not yet yielded, and how many may still be.
    pending: list[Hypothesis] = []
    left = beam_size

    for step in range(max_len):
        # Every child of the live beam, in (parent, token) order.
        parents, tokens, scores = [], [], []
        for i, (prefix, log_prob, state) in enumerate(live):
            row = scorer.next_log_probs(context, prefix)
            if constrained:
                ids = _allowed_ids(state, ctx)
                values = (row.values_at(ids) if isinstance(row, SparseRow)
                          else np.asarray(row, dtype=float).take(ids).tolist())
            else:
                # Per-hypothesis top beam_size suffices for the global top-k.
                row = np.asarray(row, dtype=float)
                ids = sorted(_top_ids(row, beam_size).tolist())
                values = row.take(ids).tolist()
            for token, value in zip(ids, values):
                if isfinite(value):
                    parents.append(i)
                    tokens.append(token)
                    scores.append(log_prob + value)
        if not scores:
            break
        # Live hypotheses are distinct, equally long and kept in token
        # order, so (parent, token) order is token-sequence order, and a
        # stable sort on the quantised score breaks ties by it.
        quantized = _quantize(np.array(scores))
        ranked = np.argsort(-quantized, kind="stable")[:beam_size].tolist()
        # Kept in (parent, token) order, the next beam is in token order.
        next_live = []
        for j in sorted(ranked):
            prefix, _, state = live[parents[j]]
            token = tokens[j]
            if token == end_id:
                pending.append(Hypothesis(prefix + (token,), scores[j]))
            else:
                if constrained:
                    state = advance(state, token, ctx)
                next_live.append((prefix + (token,), scores[j], state))
        if pending and next_live:
            # The first child in rank order that does not finish sorts
            # before every other live hypothesis.
            first = next(j for j in ranked if tokens[j] != end_id)
            first_live = (-quantized[first], live[parents[first]][0] + (tokens[first],))
            pending.sort(key=Hypothesis.sort_key)
            while pending and pending[0].sort_key() < first_live:
                yield pending.pop(0)
                left -= 1
                if not left:
                    return
        live = next_live
        if not live:
            break
        steps_left = max_len - step - 1
        if constrained and all(completion(state, ctx) > steps_left for _, _, state in live):
            break

    pending.sort(key=Hypothesis.sort_key)
    yield from pending[:left]


def beam_search(scorer: TokenScorer, context: Sequence[int], ctx: DecodeContext,
                constrained: bool = True, beam_size: int = 10,
                max_len: int = 128) -> list[Hypothesis]:
    """Top finished hypotheses, score-descending, ties broken by token
    sequence; at most beam_size results. Empty when every path
    dead-ends before finishing. The whole of `iter_beam_search`, whose
    stops change nothing in the list."""
    return list(iter_beam_search(scorer, context, ctx, constrained, beam_size, max_len))


def sequence_nll(scorer: TokenScorer, context: Sequence[int],
                 target: Sequence[int], end_id: Optional[int] = None) -> float:
    """Teacher-forced negative log-likelihood of the target (which must
    terminate in the end token); >= 0, +inf when a step has zero mass."""
    target = tuple(target)
    if end_id is not None and (not target or target[-1] != end_id):
        raise ValueError("target must end with the end token")
    total = 0.0
    prefix: tuple[int, ...] = ()
    for token in target:
        row = scorer.next_log_probs(context, prefix)
        if not isinstance(row, SparseRow):
            row = np.asarray(row, dtype=float)
        log_prob = float(row[token])
        total -= log_prob
        prefix += (token,)
    return total
