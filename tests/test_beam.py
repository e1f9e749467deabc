import math
import random

import numpy as np
import pytest

from kbqa.beam import Hypothesis, beam_search, sequence_nll
from kbqa.fixtures import random_store, toy_store
from kbqa.grammar import DecodeContext, advance, allowed_next, initial_state, render_tokens
from kbqa.scorers import (NgramScorer, OracleScorer, RandomTokenScorer,
                          SparseRow, UniformScorer, ngram_scorer_from_forms)
from kbqa.sexpr import parse, print_canonical, validate_schema
from kbqa.trie import build_trie
from kbqa.vocab import build_vocabulary, encode_logical_form


def make_ctx(store=None, linked=("e1", "ox1", "eng1"), extra=()):
    store = store or toy_store()
    vocab = build_vocabulary(store, extra)
    ctx = DecodeContext(vocab, build_trie(store.classes(), vocab),
                        build_trie(store.relations(), vocab), linked)
    return ctx, store


def encode_target(ctx, text):
    return tuple(encode_logical_form(ctx.vocab, text)) + (ctx.end_id,)


def test_oracle_decodes_target_exactly():
    ctx, store = make_ctx()
    target = encode_target(ctx, "(ARGMIN sf.engine sf.chamber_pressure)")
    hyps = beam_search(OracleScorer(target, ctx.vocab.size, eps=0.0), (), ctx,
                       beam_size=10)
    assert len(hyps) == 1
    assert hyps[0].tokens == target
    assert hyps[0].finished
    assert render_tokens(hyps[0].tokens, ctx) == \
        "(ARGMIN sf.engine sf.chamber_pressure)"


def test_constraints_force_catalog_names():
    """A scorer biased toward an out-of-catalog name is forced onto a
    catalog path when constrained; unconstrained it reproduces the
    invalid form."""
    ctx, store = make_ctx(extra=("bogus",))
    bad_text = "(ARGMIN sf.bogus sf.chamber_pressure)"
    good_text = "(ARGMIN sf.engine sf.chamber_pressure)"
    target = encode_target(ctx, bad_text)

    constrained = beam_search(OracleScorer(target, ctx.vocab.size, eps=0.1),
                              (), ctx, constrained=True, beam_size=10, max_len=48)
    assert constrained
    for hyp in constrained:
        text = render_tokens(hyp.tokens, ctx)
        assert validate_schema(parse(text), store) == []

    unconstrained = beam_search(OracleScorer(target, ctx.vocab.size, eps=0.0),
                                (), ctx, constrained=False, beam_size=4, max_len=48)
    assert unconstrained
    raw = [ctx.vocab.token(t) for t in unconstrained[0].tokens[:-1]]
    assert "bogus" in raw
    assert good_text != bad_text


def test_uniform_scorer_constrained_outputs_validate():
    """With every row flat, score ties resolve lexicographically and the
    beam keeps opening parentheses, so it may return nothing within the
    length budget; whatever does come back must parse and validate, and
    the pipeline treats an empty beam as a fallback trigger."""
    ctx, store = make_ctx()
    hyps = beam_search(UniformScorer(ctx.vocab.size), (), ctx,
                       constrained=True, beam_size=4, max_len=64)
    for hyp in hyps:
        text = render_tokens(hyp.tokens, ctx)
        assert text is not None
        assert validate_schema(parse(text), store) == []


def test_constrained_outputs_always_valid_random_scorers():
    ctx, store = make_ctx()
    checked = 0
    for seed in range(30):
        hyps = beam_search(RandomTokenScorer(ctx.vocab.size, seed=seed), (), ctx,
                           constrained=True, beam_size=6, max_len=64)
        for hyp in hyps:
            text = render_tokens(hyp.tokens, ctx)
            assert text is not None
            assert validate_schema(parse(text), store) == []
            checked += 1
    assert checked > 20


def test_score_dominance_unconstrained_at_least_constrained():
    ctx, _ = make_ctx()
    target = encode_target(ctx, "(COUNT sf.engine)")
    for eps in (0.05, 0.2):
        scorer = OracleScorer(target, ctx.vocab.size, eps=eps)
        con = beam_search(scorer, (), ctx, constrained=True, beam_size=5)
        unc = beam_search(scorer, (), ctx, constrained=False, beam_size=5)
        if con and unc:
            assert unc[0].log_prob >= con[0].log_prob - 1e-12


def test_beam_width_monotonicity_oracle_and_ngram():
    ctx, _ = make_ctx()
    target = encode_target(ctx, "(AND ms.system (JOIN ms.length_units e1))")
    corpus_forms = ["(JOIN ms.length_units e1)", "(COUNT sf.engine)",
                    "(AND ms.system (JOIN ms.length_units e1))"]
    scorers = [OracleScorer(target, ctx.vocab.size, eps=0.15),
               ngram_scorer_from_forms(corpus_forms, ctx.vocab)]
    for scorer in scorers:
        best = None
        for width in (1, 2, 3, 5, 8):
            hyps = beam_search(scorer, (), ctx, beam_size=width, max_len=64)
            if hyps:
                score = hyps[0].log_prob
                if best is not None:
                    assert score >= best - 1e-12
                best = score


def test_masking_replay_audit():
    """No hypothesis contains a token outside allowed_next at its step."""
    from kbqa.grammar import advance, allowed_next, initial_state
    ctx, _ = make_ctx()
    hyps = beam_search(RandomTokenScorer(ctx.vocab.size, seed=4), (), ctx,
                       constrained=True, beam_size=5, max_len=48)
    for hyp in hyps:
        state = initial_state()
        for token in hyp.tokens:
            assert token in allowed_next(state, ctx)
            state = advance(state, token, ctx)


def test_deterministic_tie_break():
    ctx, _ = make_ctx()
    a = beam_search(RandomTokenScorer(ctx.vocab.size, seed=9), (), ctx,
                    beam_size=4, max_len=48)
    b = beam_search(RandomTokenScorer(ctx.vocab.size, seed=9), (), ctx,
                    beam_size=4, max_len=48)
    assert [h.tokens for h in a] == [h.tokens for h in b]


class ScriptedScorer:
    """Fixed log-probs after each scripted prefix; -inf everywhere else."""
    reentrant = True

    def __init__(self, size, script):
        self.size = size
        self.script = script

    def next_log_probs(self, context, prefix):
        row = np.full(self.size, -np.inf)
        for token, log_prob in self.script.get(tuple(prefix), {}).items():
            row[token] = log_prob
        return row


def test_cross_parent_tie_breaks_by_token_sequence():
    """(40, 50) and (30, 52) tie at -2.5 for the last beam slot. The one
    whose tokens sort first survives, not the child of the better-scored
    parent (40,)."""
    ctx, _ = make_ctx()
    end = ctx.end_id
    assert end not in (30, 40, 50, 52) and ctx.vocab.size > 52
    script = {(): {40: -1.0, 30: -1.2},
              (40,): {end: -0.1, 50: -1.5},
              (30,): {52: -1.3},
              (30, 52): {end: 0.0},
              (40, 50): {end: 0.0}}
    hyps = beam_search(ScriptedScorer(ctx.vocab.size, script), (), ctx,
                       constrained=False, beam_size=2, max_len=8)
    assert [h.tokens for h in hyps] == [(40, end), (30, 52, end)]


def test_dead_end_gives_empty_result():
    ctx, _ = make_ctx(extra=("bogus",))
    target = encode_target(ctx, "(ARGMIN sf.bogus sf.chamber_pressure)")
    hyps = beam_search(OracleScorer(target, ctx.vocab.size, eps=0.0), (), ctx,
                       constrained=True, beam_size=5, max_len=48)
    assert hyps == []


def test_max_results_capped_at_beam_size():
    ctx, _ = make_ctx()
    hyps = beam_search(RandomTokenScorer(ctx.vocab.size, seed=12), (), ctx,
                       beam_size=3, max_len=64)
    assert len(hyps) <= 3
    assert all(isinstance(h, Hypothesis) for h in hyps)
    assert sorted([-h.log_prob for h in hyps]) == [-h.log_prob for h in hyps]


def test_sequence_nll_oracle_is_zero():
    ctx, _ = make_ctx()
    target = encode_target(ctx, "(COUNT sf.engine)")
    scorer = OracleScorer(target, ctx.vocab.size, eps=0.0)
    assert sequence_nll(scorer, (), target, ctx.end_id) == pytest.approx(0.0)


def test_sequence_nll_uniform_closed_form():
    ctx, _ = make_ctx()
    target = encode_target(ctx, "(COUNT sf.engine)")
    scorer = UniformScorer(ctx.vocab.size)
    expected = len(target) * math.log(ctx.vocab.size)
    assert sequence_nll(scorer, (), target, ctx.end_id) == pytest.approx(expected)


def test_sequence_nll_requires_end_token():
    ctx, _ = make_ctx()
    with pytest.raises(ValueError):
        sequence_nll(UniformScorer(ctx.vocab.size), (), (1, 2, 3), ctx.end_id)


def test_sequence_nll_ngram_prefers_in_corpus_forms():
    ctx, _ = make_ctx()
    forms = ["(JOIN ms.length_units e1)",
             "(AND ms.system (JOIN ms.length_units e1))",
             "(COUNT sf.engine)"]
    scorer = ngram_scorer_from_forms(forms, ctx.vocab)
    in_corpus = encode_target(ctx, forms[0])
    shuffled = encode_target(ctx, "(JOIN sf.chamber_pressure 911.0)")
    assert sequence_nll(scorer, (), in_corpus, ctx.end_id) < \
        sequence_nll(scorer, (), shuffled, ctx.end_id)


def test_sequence_nll_additivity_order_one():
    ctx, _ = make_ctx()
    corpus = [encode_target(ctx, "(COUNT sf.engine)"),
              encode_target(ctx, "(JOIN ms.length_units e1)")]
    scorer = NgramScorer(corpus, ctx.vocab.size, order=1, begin_id=ctx.vocab.begin_id)
    seg_a = corpus[0][:3]
    seg_b = corpus[0][3:]
    whole = sequence_nll(scorer, (), corpus[0])
    parts = sequence_nll(scorer, (), seg_a) + sequence_nll(scorer, (), seg_b)
    assert whole == pytest.approx(parts)


def test_log_prob_non_increasing_along_path():
    ctx, _ = make_ctx()
    target = encode_target(ctx, "(COUNT sf.engine)")
    scorer = OracleScorer(target, ctx.vocab.size, eps=0.3)
    hyps = beam_search(scorer, (), ctx, beam_size=3, max_len=48)
    for hyp in hyps:
        assert hyp.log_prob <= 1e-12


def reference_beam_search(scorer, context, ctx, constrained=True, beam_size=10,
                          max_len=128):
    """The beam step as a Python sort over every allowed child, kept as
    the reference for the array-level step."""
    def quantize(score):
        return round(score, 9)

    end_id = ctx.end_id
    live = [Hypothesis((), 0.0, initial_state())]
    finished = []
    for _ in range(max_len):
        candidates = []
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
        candidates.sort(key=lambda c: (-quantize(c[0]), c[1]))
        next_live = []
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
            kth_best = sorted(h.log_prob for h in finished)[-beam_size]
            if max(h.log_prob for h in live) <= kth_best:
                break
    finished.sort(key=lambda h: (-quantize(h.log_prob), h.tokens))
    return finished[:beam_size]


def test_array_step_matches_reference_loop():
    """Same hypotheses, log_prob included, as the per-candidate loop,
    constrained and unconstrained, on the toy store and random stores."""
    rng = random.Random(20241018)
    stores = [toy_store()] + [random_store(rng, max_entities=20) for _ in range(8)]
    compared = 0
    for n, store in enumerate(stores):
        entities = sorted(store.all_entities())
        ctx, _ = make_ctx(store, linked=entities[:1 + n % 3])
        size = ctx.vocab.size
        scorers = {seed: RandomTokenScorer(size, seed=100 * n + seed) for seed in range(3)}
        # An n-gram model of forms the grammar accepts, so that its sparse
        # rows have overrides on the allowed ids.
        corpus = [h.tokens for h in beam_search(RandomTokenScorer(size, seed=n), (), ctx,
                                                beam_size=10, max_len=40)]
        scorers["ngram"] = NgramScorer(corpus, size, begin_id=ctx.vocab.begin_id)
        for seed, scorer in scorers.items():
            for constrained in (True, False):
                for beam_size in (1, 3, 10):
                    got = beam_search(scorer, (), ctx, constrained=constrained,
                                      beam_size=beam_size, max_len=40)
                    want = reference_beam_search(scorer, (), ctx, constrained=constrained,
                                                 beam_size=beam_size, max_len=40)
                    assert got == want, (n, seed, constrained, beam_size)
                    assert [h.log_prob.hex() for h in got] == \
                        [h.log_prob.hex() for h in want]
                    compared += len(got)
    assert compared > 100


class PassThroughScorer:
    """Forwards next_log_probs and nothing else, as a counting wrapper
    does."""
    reentrant = True

    def __init__(self, inner):
        self.inner = inner

    def next_log_probs(self, context, prefix):
        return self.inner.next_log_probs(context, prefix)


def test_sparse_rows_survive_a_pass_through_wrapper(monkeypatch):
    """Constrained search through a wrapper never densifies a SparseRow,
    and finds what the bare scorer finds."""
    ctx, _ = make_ctx()
    size = ctx.vocab.size
    forms = ["(JOIN ms.length_units e1)",
             "(AND ms.system (JOIN ms.length_units e1))",
             "(COUNT sf.engine)"]
    scorers = [UniformScorer(size), ngram_scorer_from_forms(forms, ctx.vocab),
               OracleScorer(encode_target(ctx, forms[1]), size, eps=0.0)]
    bare = [beam_search(scorer, (), ctx, beam_size=5, max_len=48) for scorer in scorers]
    assert all(bare[1:])  # flat uniform rows may finish nothing

    def no_dense_row(self, dtype=None, copy=None):
        raise AssertionError("a SparseRow was densified")

    monkeypatch.setattr(SparseRow, "__array__", no_dense_row)
    for scorer, want in zip(scorers, bare):
        got = beam_search(PassThroughScorer(scorer), (), ctx, beam_size=5, max_len=48)
        assert got == want


def test_scores_that_tie_only_under_numpy_rounding():
    """-14.3851361025 rounds to -14.385136102 under numpy and to
    -14.385136103 under Python's round. Quantised with numpy it ties
    with -14.3851361022, so the token sequence decides: (COUNT ms.system)
    before (COUNT sf.engine)."""
    a, b = -14.3851361025, -14.3851361022
    assert np.round(a, 9) == np.round(b, 9) and round(a, 9) != round(b, 9)
    ctx, _ = make_ctx()
    first = encode_target(ctx, "(COUNT ms.system)")
    second = encode_target(ctx, "(COUNT sf.engine)")
    branch = 2
    assert first[:branch] == second[:branch] and first[branch] < second[branch]
    script = {}
    for target, score in ((first, a), (second, b)):
        for i, token in enumerate(target):
            script.setdefault(target[:i], {})[token] = score if i == branch else 0.0
    scorer = ScriptedScorer(ctx.vocab.size, script)
    for beam_size, expected in ((1, [first]), (2, [first, second])):
        hyps = beam_search(scorer, (), ctx, beam_size=beam_size)
        assert [h.tokens for h in hyps] == expected
        assert hyps == reference_beam_search(scorer, (), ctx, beam_size=beam_size)
