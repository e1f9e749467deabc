"""Grammar- and trie-constrained beam search over a pluggable
autoregressive token scorer, plus the teacher-forced sequence-NLL
diagnostic.

Scorers return one log-probability per vocabulary id, log-normalized,
conditioned on (context, generated prefix); the begin token is implicit
and never part of a prefix. In constrained mode, log-probs outside the
grammar's allowed set are treated as -inf before expansion, so every
finished hypothesis spells a parseable, catalog-valid logical form. In
unconstrained mode any token may follow any prefix and a hypothesis
finishes on the first end token, grammatical or not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Protocol, Sequence, runtime_checkable

import numpy as np

from .grammar import (DecodeContext, GrammarState, advance, allowed_next,
                      initial_state, mask_key)


@runtime_checkable
class TokenScorer(Protocol):
    reentrant: bool

    def next_log_probs(self, context: Sequence[int],
                       prefix: Sequence[int]) -> np.ndarray: ...


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


def _allowed_ids(state: GrammarState, ctx: DecodeContext) -> np.ndarray:
    """allowed_next as a sorted index array, memoised under its key."""
    key = mask_key(state)
    ids = ctx.mask_ids.get(key)
    if ids is None:
        ids = np.array(sorted(allowed_next(state, ctx)), dtype=np.intp)
        ctx.mask_ids[key] = ids
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
    dead-ends before finishing."""
    if beam_size < 1:
        raise ValueError("beam_size must be >= 1")
    end_id = ctx.end_id
    live: list[Hypothesis] = [Hypothesis((), 0.0, initial_state())]
    finished: list[Hypothesis] = []

    for _ in range(max_len):
        # Each live hypothesis's children: token ids and path scores.
        ids_of, scores_of = [], []
        for hyp in live:
            row = np.asarray(scorer.next_log_probs(context, hyp.tokens), dtype=float)
            if constrained:
                ids = _allowed_ids(hyp.state, ctx)
                ids = ids[np.isfinite(row[ids])]
            else:
                # Per-hypothesis top beam_size suffices for the global top-k.
                ids = _top_ids(row, beam_size)
            ids_of.append(ids)
            scores_of.append(hyp.log_prob + row[ids])
        n_children = sum(len(ids) for ids in ids_of)
        if not n_children:
            break
        child_ids = np.concatenate(ids_of)
        scores = np.concatenate(scores_of)
        parents = np.repeat(np.arange(len(live)), [len(ids) for ids in ids_of])
        # Live hypotheses are distinct, equally long and kept in token
        # order, so ordering children by token sequence is ordering them
        # by (parent, token).
        order = np.lexsort((child_ids, parents, -_quantize(scores)))[:beam_size]
        next_live: list[Hypothesis] = []
        for j in order.tolist():
            hyp, token, log_prob = live[parents[j]], int(child_ids[j]), scores[j]
            if constrained or hyp.state is not None:
                state = advance(hyp.state, token, ctx)
            else:
                state = None
            done = token == end_id and (not constrained or state is not None)
            (finished if done else next_live).append(
                Hypothesis(hyp.tokens + (token,), log_prob, state, done))
        live = sorted(next_live, key=lambda h: h.tokens)
        if not live:
            break
        if len(finished) >= beam_size:
            # Scores never increase along a path, so once no live
            # hypothesis can beat the k-th best finished one, stop.
            kth_best = sorted(h.log_prob for h in finished)[-beam_size]
            if max(h.log_prob for h in live) <= kth_best:
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
        row = np.asarray(scorer.next_log_probs(context, prefix), dtype=float)
        log_prob = float(row[token])
        total -= log_prob
        prefix += (token,)
    return total
