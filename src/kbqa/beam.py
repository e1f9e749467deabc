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

import math
from dataclasses import dataclass
from typing import Optional, Protocol, Sequence, runtime_checkable

import numpy as np

from .grammar import DecodeContext, GrammarState, advance, allowed_next, initial_state


@runtime_checkable
class TokenScorer(Protocol):
    reentrant: bool

    def next_log_probs(self, context: Sequence[int],
                       prefix: Sequence[int]) -> np.ndarray: ...


def _quantize(score: float) -> float:
    """Collapse float-accumulation noise so that mathematically equal
    path scores compare as ties (which then break by token sequence)."""
    return round(score, 9)


@dataclass(frozen=True)
class Hypothesis:
    tokens: tuple[int, ...]  # generated ids, end token included when finished
    log_prob: float
    state: Optional[GrammarState]  # None once the sequence left the grammar
    finished: bool = False

    def sort_key(self):
        return (-_quantize(self.log_prob), self.tokens)


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
        candidates: list[tuple[float, tuple[int, ...], Hypothesis, int]] = []
        for hyp in live:
            row = np.asarray(scorer.next_log_probs(context, hyp.tokens), dtype=float)
            if constrained:
                allowed = allowed_next(hyp.state, ctx)
                for token in sorted(allowed):
                    log_prob = row[token]
                    if not math.isfinite(log_prob):
                        continue
                    candidates.append(
                        (hyp.log_prob + log_prob, hyp.tokens + (token,), hyp, token))
            else:
                # Per-hypothesis top beam_size suffices for the global top-k.
                finite = np.isfinite(row)
                order = np.argsort(-row, kind="stable")
                taken = 0
                for token in order:
                    if not finite[token]:
                        break
                    candidates.append(
                        (hyp.log_prob + float(row[token]),
                         hyp.tokens + (int(token),), hyp, int(token)))
                    taken += 1
                    if taken >= beam_size:
                        break
        if not candidates:
            break
        candidates.sort(key=lambda c: (-_quantize(c[0]), c[1]))
        next_live: list[Hypothesis] = []
        for log_prob, tokens, hyp, token in candidates[:beam_size]:
            if constrained:
                state = advance(hyp.state, token, ctx)
            else:
                state = advance(hyp.state, token, ctx) if hyp.state is not None else None
            if token == end_id and (not constrained or state is not None):
                finished.append(Hypothesis(tokens, log_prob, state, True))
            else:
                next_live.append(Hypothesis(tokens, log_prob, state, False))
        live = next_live
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
