"""Drop-in token scorers for the beam decoder: uniform, add-one
smoothed n-gram, peaked oracle (with optional fallback targets and a
seeded noise spread), pseudo-random (for robustness sweeps), and a
child-process scorer speaking a line protocol.

Every scorer returns log-normalized rows: exp(row) sums to 1. A row is
a float array of vocabulary width, or a `SparseRow`: a constant row
with a few overrides, which the constrained beam reads through
`take(ids)` without ever building its dense form.
"""

from __future__ import annotations

import math
import operator
import shlex
import subprocess
import threading
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from .errors import ScorerProtocolError
from .vocab import Vocabulary, encode_target


def _stable_seed(*parts) -> int:
    # Tuples of ints hash deterministically across processes (PYTHONHASHSEED
    # only randomizes str/bytes), so this is reproducible.
    return hash(tuple(parts)) & 0x7FFFFFFF


class SparseRow:
    """An immutable row of `size` log-probs, equal to `fill` everywhere
    except at the ids in `values`. `np.asarray(row)` builds the dense
    row, fresh on each call; `take(ids)` reads entries without it."""

    __slots__ = ("size", "fill", "_values")

    def __init__(self, size: int, fill: float, values: Mapping[int, float] = {}):
        if any(not 0 <= token < size for token in values):
            raise IndexError(f"row ids must lie in [0, {size})")
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "fill", float(fill))
        object.__setattr__(self, "_values", dict(values))

    def __setattr__(self, *_):
        raise AttributeError("SparseRow is immutable")

    __delattr__ = __setattr__

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        if copy is False:
            raise ValueError("a SparseRow has no dense array to share")
        row = np.full(self.size, self.fill)
        if self._values:
            row[list(self._values)] = list(self._values.values())
        return row if dtype is None else row.astype(dtype, copy=False)

    def take(self, ids: np.ndarray) -> np.ndarray:
        """The entries at an integer array of ids, each in [0, size), as
        a new float array; O(len(ids))."""
        if not self._values:
            return np.full(len(ids), self.fill)
        get, fill = self._values.get, self.fill
        return np.array([get(i, fill) for i in ids.tolist()], dtype=float)

    def __getitem__(self, token: int) -> float:
        """The entry at one id in [0, size); `take` gathers an id array."""
        token = operator.index(token)
        if not 0 <= token < self.size:
            raise IndexError(f"row ids must lie in [0, {self.size})")
        return self._values.get(token, self.fill)


class UniformScorer:
    reentrant = True

    def __init__(self, vocab_size: int):
        self.vocab_size = vocab_size
        self._row = SparseRow(vocab_size, -math.log(vocab_size))

    def next_log_probs(self, context, prefix) -> SparseRow:
        return self._row


class NgramScorer:
    """Add-one smoothed order-n model over token sequences (sequences
    exclude the begin token and include the end token)."""

    reentrant = True

    def __init__(self, corpus: Sequence[Sequence[int]], vocab_size: int,
                 order: int = 3, begin_id: int = 0):
        if order < 1:
            raise ValueError("order must be >= 1")
        self.vocab_size = vocab_size
        self.order = order
        self.begin_id = begin_id
        self._counts: dict[tuple[int, ...], dict[int, int]] = {}
        totals: dict[tuple[int, ...], int] = {}
        pad = (begin_id,) * (order - 1)
        for seq in corpus:
            padded = pad + tuple(seq)
            for i in range(order - 1, len(padded)):
                history = padded[i - (order - 1):i]
                token = padded[i]
                by_tok = self._counts.setdefault(history, {})
                by_tok[token] = by_tok.get(token, 0) + 1
                totals[history] = totals.get(history, 0) + 1
        self._rows: dict[tuple[int, ...], SparseRow] = {}
        for history, by_tok in self._counts.items():
            denom = totals[history] + vocab_size
            self._rows[history] = SparseRow(vocab_size, -math.log(denom), {
                token: math.log((count + 1) / denom) for token, count in by_tok.items()})
        self._unseen = SparseRow(vocab_size, -math.log(vocab_size))

    def next_log_probs(self, context, prefix) -> SparseRow:
        history = ((self.begin_id,) * (self.order - 1) + tuple(prefix))
        history = history[len(history) - (self.order - 1):] if self.order > 1 else ()
        return self._rows.get(history, self._unseen)


class OracleScorer:
    """Puts mass 1-eps on the next token of the first target whose
    prefix matches what has been generated so far; eps spreads over the
    rest (uniformly, or by seeded weights when rng_seed is given so
    repeated runs can vary). Off-target prefixes score uniformly."""

    reentrant = True

    def __init__(self, target: Sequence[int], vocab_size: int, eps: float = 0.0,
                 fallback_targets: Sequence[Sequence[int]] = (),
                 rng_seed: Optional[int] = None):
        if not 0.0 <= eps < 1.0:
            raise ValueError("eps must be in [0, 1)")
        self.targets = [tuple(target)] + [tuple(t) for t in fallback_targets]
        self.vocab_size = vocab_size
        self.eps = eps
        self.rng_seed = rng_seed
        self._off_target = SparseRow(vocab_size, -math.log(vocab_size))

    def _desired(self, prefix: tuple[int, ...]) -> Optional[int]:
        for target in self.targets:
            if len(prefix) < len(target) and target[:len(prefix)] == prefix:
                return target[len(prefix)]
        return None

    def next_log_probs(self, context, prefix) -> Union[np.ndarray, SparseRow]:
        prefix = tuple(prefix)
        desired = self._desired(prefix)
        if desired is None:
            return self._off_target
        if self.eps == 0.0:
            return SparseRow(self.vocab_size, -math.inf, {desired: 0.0})
        # The eps spread stays dense: a seeded one draws all vocab_size
        # weights, and an unseeded one is logged by np.log.
        if self.rng_seed is None:
            spread = np.full(self.vocab_size, self.eps / (self.vocab_size - 1))
        else:
            rng = np.random.default_rng(_stable_seed(self.rng_seed, *prefix))
            weights = rng.random(self.vocab_size)
            weights[desired] = 0.0
            spread = weights * (self.eps / weights.sum())
        probs = spread
        probs[desired] = 1.0 - self.eps
        with np.errstate(divide="ignore"):
            return np.log(probs)


class RandomTokenScorer:
    """Deterministic pseudo-random rows keyed by (seed, prefix); used to
    stress the constrained-validity guarantee."""

    reentrant = True

    def __init__(self, vocab_size: int, seed: int = 0):
        self.vocab_size = vocab_size
        self.seed = seed

    def next_log_probs(self, context, prefix) -> np.ndarray:
        rng = np.random.default_rng(_stable_seed(self.seed, *prefix))
        logits = rng.normal(size=self.vocab_size)
        logits -= logits.max()
        return logits - math.log(np.exp(logits).sum())


class LineProcess:
    """One request line in, one response line out, against a child
    process; calls are serialized with a lock."""

    def __init__(self, command: str, timeout: float = 10.0):
        self.command = command
        self.timeout = timeout
        self._proc: Optional[subprocess.Popen] = None
        self._reader: Optional[threading.Thread] = None
        self._lock = threading.Lock()

    def _ensure(self) -> subprocess.Popen:
        # A failed request leaves its child killed and reaped, so poll()
        # sees it; close its pipes before starting another.
        if self._proc is not None and self._proc.poll() is not None:
            self.close()
        if self._proc is None:
            self._proc = subprocess.Popen(
                shlex.split(self.command), stdin=subprocess.PIPE,
                stdout=subprocess.PIPE, text=True, bufsize=1)
        return self._proc

    def request(self, line: str) -> str:
        with self._lock:
            proc = self._ensure()
            try:
                proc.stdin.write(line + "\n")
                proc.stdin.flush()
            except (BrokenPipeError, OSError) as exc:
                proc.kill()
                proc.wait()
                raise ScorerProtocolError(f"scorer process died: {exc}") from exc
            response: list[str] = []

            def read():
                response.append(proc.stdout.readline())

            self._reader = threading.Thread(target=read, daemon=True)
            self._reader.start()
            self._reader.join(self.timeout)
            if self._reader.is_alive() or not response or not response[0]:
                proc.kill()
                proc.wait()
                raise ScorerProtocolError(
                    f"no response from scorer process within {self.timeout}s")
            return response[0].rstrip("\n")

    def close(self) -> None:
        """Close the child's pipes and wait for it to exit; closing its
        stdin ends a well-behaved child, and one that lingers is killed.
        A stdout that a timed-out read still blocks on (a grandchild holds
        it open) is left to that read, since closing it would wait too."""
        proc, self._proc = self._proc, None
        if proc is None:
            return
        pipes = [proc.stdin]
        if self._reader is None or not self._reader.is_alive():
            pipes.append(proc.stdout)
        for pipe in pipes:
            try:
                pipe.close()
            except OSError:  # flushing into a dead child's stdin
                pass
        try:
            proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


class ExternalTokenScorer:
    """Child-process token scorer.

    Request:  NEXT \\t <context ids comma-joined> \\t <prefix ids comma-joined>
    Response: one line of vocab-size space-separated log-probs.
    """

    reentrant = False

    def __init__(self, command: str, vocab_size: int, timeout: float = 10.0):
        self.vocab_size = vocab_size
        self._proc = LineProcess(command, timeout)

    def next_log_probs(self, context, prefix) -> np.ndarray:
        line = "NEXT\t%s\t%s" % (",".join(map(str, context)),
                                 ",".join(map(str, prefix)))
        reply = self._proc.request(line)
        try:
            row = np.array([float(x) for x in reply.split()], dtype=float)
        except ValueError as exc:
            raise ScorerProtocolError(f"malformed scorer reply: {reply[:80]!r}") from exc
        if row.shape != (self.vocab_size,):
            raise ScorerProtocolError(
                f"expected {self.vocab_size} log-probs, got {row.shape[0]}")
        return row

    def close(self) -> None:
        self._proc.close()


def ngram_scorer_from_forms(forms: Sequence[str], vocab: Vocabulary,
                            order: int = 3) -> NgramScorer:
    """Train an n-gram scorer on logical-form strings (end token
    appended to each sequence)."""
    corpus = [encode_target(vocab, form) for form in forms]
    return NgramScorer(corpus, vocab.size, order=order, begin_id=vocab.begin_id)
