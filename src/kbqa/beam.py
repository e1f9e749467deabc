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
token may follow any prefix and a hypothesis finishes on the first end
token, grammatical or not.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite
from typing import Optional, Protocol, Sequence, Union, runtime_checkable

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
    early stop of `beam_search` assumes that a path's score never rises.
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
    tokens: tuple[int, ...]  # generated ids, end token included when finished
    log_prob: float
    state: Optional[GrammarState]  # None once the sequence left the grammar
    finished: bool = False

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


def beam_search(scorer: TokenScorer, context: Sequence[int], ctx: DecodeContext,
                constrained: bool = True, beam_size: int = 10,
                max_len: int = 128) -> list[Hypothesis]:
    """Top finished hypotheses, score-descending, ties broken by token
    sequence; at most beam_size results. Empty when every path
    dead-ends before finishing.

    Two rules stop the search before `max_len` steps, and neither
    changes what it returns. Once beam_size hypotheses have finished,
    it stops when no live one can sort before the k-th of them. In
    constrained mode, it also stops after a step when every live
    hypothesis needs more tokens to finish (`grammar.completion`, which
    is exact) than steps are left: none of them can add a finished
    hypothesis any more."""
    if beam_size < 1:
        raise ValueError("beam_size must be >= 1")
    end_id = ctx.tables.end_id
    # The live beam as (tokens, log_prob, state), kept in token order.
    live = [((), 0.0, initial_state())]
    finished: list[Hypothesis] = []

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
        order = np.argsort(-_quantize(np.array(scores)), kind="stable")[:beam_size]
        # Kept in (parent, token) order, the next beam is in token order.
        next_live = []
        for j in sorted(order.tolist()):
            prefix, _, state = live[parents[j]]
            token = tokens[j]
            if constrained or state is not None:
                state = advance(state, token, ctx)
            path = (prefix + (token,), scores[j], state)
            if token == end_id and (not constrained or state is not None):
                finished.append(Hypothesis(*path, True))
            else:
                next_live.append(path)
        live = next_live
        if not live:
            break
        steps_left = max_len - step - 1
        if constrained and all(completion(state, ctx) > steps_left for _, _, state in live):
            break
        if len(finished) >= beam_size:
            # Along a path the score never rises and the tokens only
            # sort later, so once every live hypothesis sorts after the
            # k-th best finished one, none of its children can enter.
            kth = sorted(finished, key=Hypothesis.sort_key)[beam_size - 1]
            if min((-_quantize(lp), prefix) for prefix, lp, _ in live) > kth.sort_key():
                break

    finished.sort(key=Hypothesis.sort_key)
    return finished[:beam_size]


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
