import math
import sys

import numpy as np
import pytest

from kbqa.errors import ScorerProtocolError
from kbqa.fixtures import toy_store
from kbqa.scorers import (ExternalTokenScorer, NgramScorer, OracleScorer,
                          RandomTokenScorer, SparseRow, UniformScorer,
                          _stable_seed, ngram_scorer_from_forms)
from kbqa.vocab import build_vocabulary, encode_logical_form


@pytest.fixture(scope="module")
def vocab():
    return build_vocabulary(toy_store())


def assert_normalized(row):
    assert np.isclose(np.exp(row).sum(), 1.0, atol=1e-9)


def test_rows_sum_to_one(vocab):
    target = tuple(encode_logical_form(vocab, "(COUNT sf.engine)")) + (vocab.end_id,)
    scorers = [
        UniformScorer(vocab.size),
        NgramScorer([target], vocab.size, begin_id=vocab.begin_id),
        OracleScorer(target, vocab.size, eps=0.0),
        OracleScorer(target, vocab.size, eps=0.25),
        OracleScorer(target, vocab.size, eps=0.25, rng_seed=3),
        RandomTokenScorer(vocab.size, seed=0),
    ]
    for scorer in scorers:
        for prefix in ((), target[:1], target[:4], (vocab.id("("),) * 3):
            assert_normalized(np.asarray(scorer.next_log_probs((), prefix),
                                         dtype=float))


def test_ngram_argmax_follows_training_sequence(vocab):
    # every length-2 history in this sequence is unambiguous
    seq = tuple(encode_logical_form(vocab, "(COUNT sf.engine)")) + (vocab.end_id,)
    scorer = NgramScorer([seq], vocab.size, order=3, begin_id=vocab.begin_id)
    for i in range(len(seq)):
        row = scorer.next_log_probs((), seq[:i])
        assert int(np.argmax(row)) == seq[i]


def test_ngram_ambiguous_history_stays_in_observed_set(vocab):
    seq = tuple(encode_logical_form(
        vocab, "(AND ms.system (JOIN ms.length_units e1))")) + (vocab.end_id,)
    scorer = NgramScorer([seq], vocab.size, order=3, begin_id=vocab.begin_id)
    for i in range(len(seq)):
        row = scorer.next_log_probs((), seq[:i])
        history = ((vocab.begin_id,) * 2 + seq[:i])[-2:]
        observed = set(scorer._counts[tuple(history)])
        assert int(np.argmax(row)) in observed


def test_ngram_hand_counts():
    # corpus: single sequence [5, 6, 5, 7]; order 2
    scorer = NgramScorer([(5, 6, 5, 7)], vocab_size=10, order=2, begin_id=0)
    row = scorer.next_log_probs((), (5,))
    # after 5: counts {6:1, 7:1}, total 2, V=10 -> p(6) = (1+1)/12
    assert math.exp(row[6]) == pytest.approx(2 / 12)
    assert math.exp(row[7]) == pytest.approx(2 / 12)
    assert math.exp(row[0]) == pytest.approx(1 / 12)


def test_oracle_eps_zero_masks_everything_else(vocab):
    target = (vocab.id("("), vocab.end_id)
    scorer = OracleScorer(target, vocab.size, eps=0.0)
    row = scorer.next_log_probs((), ())
    assert row[vocab.id("(")] == 0.0
    assert np.isneginf(np.delete(row, vocab.id("("))).all()


def test_oracle_off_target_is_uniform(vocab):
    target = (vocab.id("("), vocab.end_id)
    scorer = OracleScorer(target, vocab.size, eps=0.1)
    row = scorer.next_log_probs((), (vocab.id(")"),))
    assert np.allclose(row, -math.log(vocab.size))


def test_oracle_fallback_targets(vocab):
    primary = tuple(encode_logical_form(vocab, "(COUNT sf.engine)")) + (vocab.end_id,)
    secondary = tuple(encode_logical_form(
        vocab, "(COUNT ms.system)")) + (vocab.end_id,)
    scorer = OracleScorer(primary, vocab.size, eps=0.1,
                          fallback_targets=[secondary])
    # prefix on the secondary path (diverged from primary at position 2)
    prefix = secondary[:3]
    row = scorer.next_log_probs((), prefix)
    assert int(np.argmax(row)) == secondary[3]


def test_oracle_seeded_noise_is_deterministic(vocab):
    target = (vocab.id("("), vocab.end_id)
    a = OracleScorer(target, vocab.size, eps=0.2, rng_seed=7)
    b = OracleScorer(target, vocab.size, eps=0.2, rng_seed=7)
    c = OracleScorer(target, vocab.size, eps=0.2, rng_seed=8)
    row_a = a.next_log_probs((), ())
    assert np.array_equal(row_a, b.next_log_probs((), ()))
    assert not np.array_equal(row_a, c.next_log_probs((), ()))
    assert int(np.argmax(row_a)) == vocab.id("(")


def test_random_scorer_deterministic(vocab):
    a = RandomTokenScorer(vocab.size, seed=5)
    b = RandomTokenScorer(vocab.size, seed=5)
    assert np.array_equal(a.next_log_probs((), (1, 2)), b.next_log_probs((), (1, 2)))
    assert not np.array_equal(a.next_log_probs((), (1, 2)),
                              a.next_log_probs((), (2, 1)))


def test_ngram_from_forms_end_token(vocab):
    scorer = ngram_scorer_from_forms(["(COUNT sf.engine)"], vocab)
    seq = tuple(encode_logical_form(vocab, "(COUNT sf.engine)"))
    row = scorer.next_log_probs((), seq)
    assert int(np.argmax(row)) == vocab.end_id


def _child(script: str) -> str:
    return f'{sys.executable} -u -c "{script}"'


def dense_reference(scorer, prefix):
    """The row as each scorer built it densely: np.full, then assignment."""
    size = scorer.vocab_size
    prefix = tuple(prefix)
    if isinstance(scorer, UniformScorer):
        return np.full(size, -math.log(size))
    if isinstance(scorer, NgramScorer):
        history = ((scorer.begin_id,) * (scorer.order - 1) + prefix)
        history = history[len(history) - (scorer.order - 1):] if scorer.order > 1 else ()
        counts = scorer._counts.get(history, {})
        denom = sum(counts.values()) + size
        row = np.full(size, -math.log(denom))
        for token, count in counts.items():
            row[token] = math.log((count + 1) / denom)
        return row
    if isinstance(scorer, OracleScorer):
        desired = scorer._desired(prefix)
        if desired is None:
            return np.full(size, -math.log(size))
        if scorer.eps == 0.0:
            row = np.full(size, -np.inf)
            row[desired] = 0.0
            return row
        if scorer.rng_seed is None:
            probs = np.full(size, scorer.eps / (size - 1))
        else:
            rng = np.random.default_rng(_stable_seed(scorer.rng_seed, *prefix))
            weights = rng.random(size)
            weights[desired] = 0.0
            probs = weights * (scorer.eps / weights.sum())
        probs[desired] = 1.0 - scorer.eps
        with np.errstate(divide="ignore"):
            return np.log(probs)
    assert isinstance(scorer, RandomTokenScorer)
    rng = np.random.default_rng(_stable_seed(scorer.seed, *prefix))
    logits = rng.normal(size=size)
    logits -= logits.max()
    return logits - math.log(np.exp(logits).sum())


def hexes(values):
    return [float(v).hex() for v in np.asarray(values).tolist()]


def test_rows_match_dense_reference(vocab):
    """take(ids) and np.asarray(row)[ids] agree by float.hex, with each
    other and with the dense reference, for every built-in
    scorer over random prefixes and id arrays: unsorted, repeated and
    empty ones included."""
    size = vocab.size
    forms = ["(COUNT sf.engine)", "(AND ms.system (JOIN ms.length_units e1))",
             "(JOIN ms.length_units e1)"]
    targets = [tuple(encode_logical_form(vocab, f)) + (vocab.end_id,) for f in forms]
    script = (
        "import sys\n"
        "for line in sys.stdin:\n"
        "    n = len(line.rstrip(chr(10)).split(chr(9))[2])\n"
        f"    print(' '.join(str(-1.0 - ((i * 7 + n) % 11)) for i in range({size})))\n"
        "    sys.stdout.flush()"
    )
    external = ExternalTokenScorer(_child(script), size)
    scorers = [
        UniformScorer(size),
        NgramScorer(targets, size, begin_id=vocab.begin_id),
        NgramScorer(targets, size, order=1, begin_id=vocab.begin_id),
        OracleScorer(targets[0], size, eps=0.0, fallback_targets=targets[1:]),
        OracleScorer(targets[0], size, eps=0.25),
        OracleScorer(targets[1], size, eps=0.25, rng_seed=3),
        RandomTokenScorer(size, seed=0),
    ]
    rng = np.random.default_rng(11)
    try:
        for scorer in scorers + [external]:
            prefixes = [t[:i] for t in targets for i in range(len(t))]
            prefixes += [tuple(rng.integers(0, size, rng.integers(1, 6)).tolist())
                         for _ in range(10)]
            for prefix in prefixes:
                row = scorer.next_log_probs((), prefix)
                dense = np.asarray(row)
                assert dense.shape == (size,)
                reference = None if scorer is external else dense_reference(scorer, prefix)
                for n_ids in (0, 1, 3, 17, 2 * size):
                    ids = rng.integers(0, size, n_ids)  # unsorted, repeats likely
                    want = hexes(dense[ids])
                    assert hexes(row.take(ids)) == want
                    if reference is not None:
                        assert hexes(reference[ids]) == want
                for token in (0, size - 1, int(rng.integers(size))):
                    assert hexes([row[token]]) == hexes([dense[token]])
    finally:
        external.close()


def test_uniform_rows_are_not_shared():
    scorer = UniformScorer(5)
    np.asarray(scorer.next_log_probs((), ()))[:] = 0.0
    assert np.array_equal(np.asarray(scorer.next_log_probs((), (1,))),
                          np.full(5, -math.log(5)))


def test_sparse_row_is_immutable_and_checks_ids():
    row = SparseRow(4, -2.0, {2: -0.5})
    assert hexes(np.asarray(row)) == hexes([-2.0, -2.0, -0.5, -2.0])
    assert np.asarray(row, dtype=np.float32).dtype == np.float32
    assert np.asarray(row) is not np.asarray(row)
    with pytest.raises(AttributeError):
        row.fill = 0.0
    with pytest.raises(AttributeError):
        del row.size
    with pytest.raises(ValueError):
        row.__array__(copy=False)
    with pytest.raises(IndexError):
        SparseRow(4, -2.0, {4: 0.0})
    assert row[np.int64(2)] == -0.5
    for key in (4, -1):
        with pytest.raises(IndexError):
            row[key]
    for key in (np.array([0, 2]), 2.0):
        with pytest.raises(TypeError):
            row[key]


def test_external_token_scorer():
    vocab_size = 7
    script = (
        "import sys\n"
        "for line in sys.stdin:\n"
        "    kind, ctx, prefix = line.rstrip(chr(10)).split(chr(9))\n"
        "    n = len([p for p in prefix.split(',') if p])\n"
        f"    row = [(-1.0 - i - n) for i in range({vocab_size})]\n"
        "    print(' '.join(str(x) for x in row))\n"
        "    sys.stdout.flush()"
    )
    scorer = ExternalTokenScorer(_child(script), vocab_size)
    try:
        row = scorer.next_log_probs((1, 2), (3,))
        assert row.shape == (vocab_size,)
        assert row[0] == -2.0  # n=1 prefix token
        assert scorer.reentrant is False
    finally:
        scorer.close()


def test_external_token_scorer_wrong_arity():
    script = (
        "import sys\n"
        "for line in sys.stdin:\n"
        "    print('0.0 0.0')\n"
        "    sys.stdout.flush()"
    )
    scorer = ExternalTokenScorer(_child(script), vocab_size=5)
    try:
        with pytest.raises(ScorerProtocolError):
            scorer.next_log_probs((), ())
    finally:
        scorer.close()


def test_dead_child_is_reaped_before_restart(popen_children):
    scorer = ExternalTokenScorer(f"{sys.executable} -c pass", vocab_size=5)
    for _ in range(3):
        with pytest.raises(ScorerProtocolError):
            scorer.next_log_probs((), ())
    scorer.close()  # reaches only the third child; a restart reaps the others
    assert len(popen_children) == 3
    for child in popen_children:
        assert child.stdin.closed and child.stdout.closed
        assert child.returncode is not None


def test_external_token_scorer_timeout():
    script = (
        "import sys, time\n"
        "for line in sys.stdin:\n"
        "    time.sleep(60)"
    )
    scorer = ExternalTokenScorer(_child(script), vocab_size=5, timeout=0.3)
    try:
        with pytest.raises(ScorerProtocolError):
            scorer.next_log_probs((), ())
    finally:
        scorer.close()
