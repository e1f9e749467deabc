import random

from kbqa.fixtures import toy_store
from kbqa.grammar import (DecodeContext, advance, allowed_next, initial_state,
                          render_tokens)
from kbqa.sexpr import parse, print_canonical, validate_schema
from kbqa.trie import build_trie
from kbqa.vocab import build_vocabulary, encode_logical_form


def make_ctx(store=None, linked=("e1", "ox1")):
    store = store or toy_store()
    vocab = build_vocabulary(store)
    return DecodeContext(vocab, build_trie(store.classes(), vocab),
                         build_trie(store.relations(), vocab), linked), store


def replay(ctx, ids):
    state = initial_state()
    for token in ids:
        state = advance(state, token, ctx)
        if state is None:
            return None
    return state


def test_start_expects_open_paren():
    ctx, _ = make_ctx()
    assert allowed_next(initial_state(), ctx) == frozenset((ctx.open_id,))


def test_after_open_paren_operators_only():
    ctx, _ = make_ctx()
    state = advance(initial_state(), ctx.open_id, ctx)
    allowed = allowed_next(state, ctx)
    assert allowed == ctx.root_op_ids
    assert ctx.open_id not in allowed


def test_nested_operators_exclude_functions():
    ctx, _ = make_ctx()
    vocab = ctx.vocab
    ids = [vocab.id(t) for t in ["(", "AND"]]
    state = replay(ctx, ids)
    state = advance(state, ctx.open_id, ctx)  # nested open
    allowed = allowed_next(state, ctx)
    assert allowed == ctx.nested_op_ids
    assert vocab.id("COUNT") not in allowed
    assert vocab.id("ARGMIN") not in allowed


def test_trie_cursor_children():
    ctx, store = make_ctx()
    vocab = ctx.vocab
    # (JOIN ms . -> children of the relation trie node after "ms."
    ids = [vocab.id(t) for t in ["(", "JOIN", "ms", "."]]
    state = replay(ctx, ids)
    allowed = {vocab.token(t) for t in allowed_next(state, ctx)}
    # only ms.length_units lives under the "ms." prefix of the relation trie
    assert allowed == {"length"}


def test_terminal_exit_tokens():
    ctx, _ = make_ctx()
    vocab = ctx.vocab
    # complete relation name inside JOIN: next can only start the object
    ids = [vocab.id(t) for t in ["(", "JOIN", "ms", ".", "length", "_", "units"]]
    state = replay(ctx, ids)
    allowed = allowed_next(state, ctx)
    names = {vocab.token(t) for t in allowed}
    assert "(" in names
    assert ctx.linked <= allowed
    assert ctx.digit_ids <= allowed
    assert vocab.id("_") not in allowed  # name cannot continue


def test_entity_slot_restricted_to_linked():
    ctx, _ = make_ctx(linked=("e1",))
    vocab = ctx.vocab
    ids = [vocab.id(t) for t in ["(", "JOIN", "ms", ".", "length", "_", "units"]]
    state = replay(ctx, ids)
    allowed = allowed_next(state, ctx)
    assert vocab.id("e1") in allowed
    assert vocab.id("ox1") not in allowed


def test_done_state_accepts_only_end():
    ctx, _ = make_ctx()
    ids = encode_logical_form(ctx.vocab, "(COUNT sf.engine)")
    state = replay(ctx, ids)
    assert state.slot == "done"
    assert allowed_next(state, ctx) == frozenset((ctx.end_id,))
    finished = advance(state, ctx.end_id, ctx)
    assert finished.finished
    assert allowed_next(finished, ctx) == frozenset()


def test_dead_end_returns_none():
    ctx, _ = make_ctx()
    state = advance(initial_state(), ctx.close_id, ctx)
    assert state is None


def test_literal_machine():
    ctx, _ = make_ctx()
    vocab = ctx.vocab
    prefix = ["(", "lt", "sf", ".", "chamber", "_", "pressure"]
    ids = [vocab.id(t) for t in prefix]
    state = replay(ctx, ids)
    assert allowed_next(state, ctx) == ctx.digit_ids  # literal must start
    ids += [vocab.id("2")]
    state = replay(ctx, ids)
    allowed = allowed_next(state, ctx)
    assert ctx.dot_id in allowed and ctx.caret_id in allowed
    assert ctx.close_id in allowed  # integer may end here
    ids += [vocab.id(".")]
    state = replay(ctx, ids)
    assert allowed_next(state, ctx) == ctx.digit_ids  # fraction needs a digit
    ids += [vocab.id("5"), vocab.id("^^")]
    state = replay(ctx, ids)
    # fractional payload: only the float tag keeps the literal parseable
    assert allowed_next(state, ctx) == ctx.float_tag_ids
    ids += [vocab.id("float")]
    state = replay(ctx, ids)
    assert allowed_next(state, ctx) == frozenset((ctx.close_id,))


def test_integer_literal_allows_both_tags():
    ctx, _ = make_ctx()
    vocab = ctx.vocab
    ids = [vocab.id(t) for t in ["(", "lt", "sf", ".", "chamber", "_",
                                 "pressure", "7", "^^"]]
    state = replay(ctx, ids)
    assert allowed_next(state, ctx) == ctx.tag_ids


def test_every_encoded_form_replays(toy):
    ctx, store = make_ctx(linked=("e1", "ox1", "eng1", "sys1"))
    forms = [
        "(AND ms.system (JOIN ms.length_units e1))",
        "(COUNT sf.engine)",
        "(ARGMIN sf.engine sf.chamber_pressure)",
        "(AND sf.engine (AND (JOIN sf.oxidizer ox1) "
        "(lt sf.chamber_pressure 257.0^^float)))",
        "(JOIN (R sf.oxidizer) eng1)",
        "(gt sf.chamber_pressure 5.0)",
    ]
    for text in forms:
        ids = encode_logical_form(ctx.vocab, text)
        state = replay(ctx, ids)
        assert state is not None and state.slot == "done", text
        rendered = render_tokens(list(ids) + [ctx.end_id], ctx)
        assert rendered is not None
        assert print_canonical(parse(rendered)) == print_canonical(parse(text))


def test_replay_check_over_random_walks():
    """At every state of a grammar-guided random walk, allowed_next is
    exactly the set of tokens advance accepts (masking semantics), and
    finished walks parse."""
    ctx, store = make_ctx(linked=("e1", "ox1"))
    vocabulary = range(ctx.vocab.size)
    rng = random.Random(8)
    finished = 0
    for _ in range(300):
        state = initial_state()
        ids = []
        for _ in range(60):
            allowed = allowed_next(state, ctx)
            assert allowed == {t for t in vocabulary if advance(state, t, ctx) is not None}
            if not allowed:
                break
            token = rng.choice(sorted(allowed))
            ids.append(token)
            new_state = advance(state, token, ctx)
            assert new_state is not None  # allowed implies legal
            state = new_state
            if state.finished:
                break
        if state is not None and state.finished:
            finished += 1
            text = render_tokens(ids, ctx)
            form = parse(text)
            assert validate_schema(form, store) == []
    assert finished > 50


def test_renders_tokens_rejects_ungrammatical():
    ctx, _ = make_ctx()
    vocab = ctx.vocab
    junk = [vocab.id(")"), vocab.id("AND")]
    assert render_tokens(junk, ctx) is None
    partial = [vocab.id("("), vocab.id("COUNT")]
    assert render_tokens(partial, ctx) is None  # not in done state
