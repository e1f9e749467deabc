import random

from kbqa.beam import _allowed_ids
from kbqa.fixtures import toy_store
from kbqa.grammar import (_FOLLOW, _MAY_END, _SLOTS, _TRIE_SLOTS, NEVER, DecodeContext,
                          DecodeTables, advance, allowed_next, completion, initial_state,
                          render_tokens)
from kbqa.pipeline import Pipeline
from kbqa.sexpr import parse, print_canonical, validate_schema
from kbqa.store import LiteralValue, StoreBuilder
from kbqa.vocab import build_vocabulary, encode_logical_form

from randgen import random_store


def make_ctx(store=None, linked=("e1", "ox1")):
    store = store or toy_store()
    vocab = build_vocabulary(store)
    tables = DecodeTables(vocab, store.classes(), store.relations())
    return DecodeContext(tables, linked), store


def replay(ctx, ids):
    state = initial_state()
    for token in ids:
        state = advance(state, token, ctx)
        if state is None:
            return None
    return state


def test_start_expects_open_paren():
    ctx, _ = make_ctx()
    assert allowed_next(initial_state(), ctx) == frozenset((ctx.tables.open_id,))


def test_after_open_paren_operators_only():
    ctx, _ = make_ctx()
    state = advance(initial_state(), ctx.tables.open_id, ctx)
    allowed = allowed_next(state, ctx)
    assert allowed == ctx.tables.root_op_ids
    assert ctx.tables.open_id not in allowed


def test_nested_operators_exclude_functions():
    ctx, _ = make_ctx()
    vocab = ctx.tables.vocab
    ids = [vocab.id(t) for t in ["(", "AND"]]
    state = replay(ctx, ids)
    state = advance(state, ctx.tables.open_id, ctx)  # nested open
    allowed = allowed_next(state, ctx)
    assert allowed == ctx.tables.nested_op_ids
    assert vocab.id("COUNT") not in allowed
    assert vocab.id("ARGMIN") not in allowed


def test_trie_cursor_children():
    ctx, store = make_ctx()
    vocab = ctx.tables.vocab
    # (JOIN ms . -> children of the relation trie node after "ms."
    ids = [vocab.id(t) for t in ["(", "JOIN", "ms", "."]]
    state = replay(ctx, ids)
    allowed = {vocab.token(t) for t in allowed_next(state, ctx)}
    # only ms.length_units lives under the "ms." prefix of the relation trie
    assert allowed == {"length"}


def test_terminal_exit_tokens():
    ctx, _ = make_ctx()
    vocab = ctx.tables.vocab
    # complete relation name inside JOIN: next can only start the object
    ids = [vocab.id(t) for t in ["(", "JOIN", "ms", ".", "length", "_", "units"]]
    state = replay(ctx, ids)
    allowed = allowed_next(state, ctx)
    names = {vocab.token(t) for t in allowed}
    assert "(" in names
    assert ctx.linked <= allowed
    assert ctx.tables.digit_ids <= allowed
    assert vocab.id("_") not in allowed  # name cannot continue


def test_entity_slot_restricted_to_linked():
    ctx, _ = make_ctx(linked=("e1",))
    vocab = ctx.tables.vocab
    ids = [vocab.id(t) for t in ["(", "JOIN", "ms", ".", "length", "_", "units"]]
    state = replay(ctx, ids)
    allowed = allowed_next(state, ctx)
    assert vocab.id("e1") in allowed
    assert vocab.id("ox1") not in allowed


def test_done_state_accepts_only_end():
    ctx, _ = make_ctx()
    ids = encode_logical_form(ctx.tables.vocab, "(COUNT sf.engine)")
    state = replay(ctx, ids)
    assert state.slot == "done"
    assert allowed_next(state, ctx) == frozenset((ctx.tables.end_id,))
    finished = advance(state, ctx.tables.end_id, ctx)
    assert finished.finished
    assert allowed_next(finished, ctx) == frozenset()


def test_dead_end_returns_none():
    ctx, _ = make_ctx()
    state = advance(initial_state(), ctx.tables.close_id, ctx)
    assert state is None


def test_literal_machine():
    ctx, _ = make_ctx()
    vocab = ctx.tables.vocab
    prefix = ["(", "lt", "sf", ".", "chamber", "_", "pressure"]
    ids = [vocab.id(t) for t in prefix]
    state = replay(ctx, ids)
    assert allowed_next(state, ctx) == ctx.tables.digit_ids  # literal must start
    ids += [vocab.id("2")]
    state = replay(ctx, ids)
    allowed = allowed_next(state, ctx)
    assert ctx.tables.dot_id in allowed and ctx.tables.caret_id in allowed
    assert ctx.tables.close_id in allowed  # integer may end here
    ids += [vocab.id(".")]
    state = replay(ctx, ids)
    assert allowed_next(state, ctx) == ctx.tables.digit_ids  # fraction needs a digit
    ids += [vocab.id("5"), vocab.id("^^")]
    state = replay(ctx, ids)
    # fractional payload: only the float tag keeps the literal parseable
    assert allowed_next(state, ctx) == ctx.tables.float_tag_ids
    ids += [vocab.id("float")]
    state = replay(ctx, ids)
    assert allowed_next(state, ctx) == frozenset((ctx.tables.close_id,))


def test_integer_literal_allows_both_tags():
    ctx, _ = make_ctx()
    vocab = ctx.tables.vocab
    ids = [vocab.id(t) for t in ["(", "lt", "sf", ".", "chamber", "_",
                                 "pressure", "7", "^^"]]
    state = replay(ctx, ids)
    assert allowed_next(state, ctx) == ctx.tables.tag_ids


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
        ids = encode_logical_form(ctx.tables.vocab, text)
        state = replay(ctx, ids)
        assert state is not None and state.slot == "done", text
        rendered = render_tokens(list(ids) + [ctx.tables.end_id], ctx)
        assert rendered is not None
        assert print_canonical(parse(rendered)) == print_canonical(parse(text))


def prefix_store():
    """A store where the complete names r.a and c.x are each a prefix of
    another name, so their trie nodes are terminal and have children."""
    builder = StoreBuilder()
    builder.add_triple("e1", "type_rel", "c.x")
    builder.add_triple("e2", "type_rel", "c.x_y")
    builder.add_triple("e1", "r.a", "e2")
    builder.add_triple("e2", "r.a_b", "e1")
    builder.add_triple("e2", "r.a_b", LiteralValue("float", 3.0))
    return builder.freeze()


def shortest_completion(state, ctx, limit):
    """The fewest tokens that take the state to accepted, by a
    breadth-first search over advance that goes at most `limit` tokens
    deep; None when it takes more. Each state tries the tokens of its
    shared mask, which the caller checks against advance at every state
    it visits. A state is cut when even one token per unfilled slot and
    per close cannot finish in time, a bound that reads only the
    operators' arities."""
    def lower_bound(s):
        return 1 + sum(max(len(_SLOTS[op]) - pos, 1) for op, pos in s.stack)

    if state.finished:
        return 0
    frontier, seen = [state], {state}
    for depth in range(1, limit + 1):
        reached = []
        for s in frontier:
            for token in _allowed_ids(s, ctx):
                child = advance(s, token, ctx)
                if child.finished:
                    return depth
                if child not in seen and depth + lower_bound(child) <= limit:
                    seen.add(child)
                    reached.append(child)
        frontier = reached
    return None


def test_replay_check_over_random_walks():
    """At every state of a grammar-guided random walk, on the toy store,
    prefix_store() and 8 random stores:
    - allowed_next is exactly the set of tokens advance accepts (masking
      semantics), and the mask read from a Pipeline's shared tables
      equals it (the tables are exact), or from the question's memo for
      the masks that reach the obj slot, and only for those;
    - the tables' completion equals a breadth-first search over
      advance, and each child's completion is at least its parent's
      minus 1;
    and finished walks parse and validate."""
    rng = random.Random(20261021)
    stores = [(toy_store(), ("e1", "ox1")), (prefix_store(), ("e1", "e2"))]
    for n in range(8):
        store = random_store(rng, max_entities=20)
        stores.append((store, sorted(store.all_entities())[:1 + n % 3]))
    open_terminals = []  # per store, visits to a complete name that can go on
    for store, linked in stores:
        ctx = DecodeContext(Pipeline(store).tables, linked)
        vocabulary = range(ctx.tables.vocab.size)
        walks = random.Random(8)
        finished = 0
        open_terminals.append(0)
        checked = set()
        for _ in range(300):
            state = initial_state()
            ids = []
            for _ in range(60):
                allowed = allowed_next(state, ctx)
                if state not in checked:  # each check's outcome depends on the state only
                    checked.add(state)
                    assert allowed == {t for t in vocabulary
                                       if advance(state, t, ctx) is not None}
                    assert _allowed_ids(state, ctx) == tuple(sorted(allowed))
                    need = completion(state, ctx)
                    assert need < NEVER
                    assert shortest_completion(state, ctx, need) == need, (state, need)
                    for token in allowed:
                        assert completion(advance(state, token, ctx), ctx) >= need - 1
                if state.cursor is not None and state.cursor.terminal and state.cursor.children:
                    open_terminals[-1] += 1
                if not allowed:
                    break
                token = walks.choice(sorted(allowed))
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
        # the question's own memo holds only the masks that reach the obj
        # slot: the slot itself, or a complete name whose frame goes on to it
        assert ctx.obj_ids
        assert all(key[0] == "obj" or key[0] == "relname" and key[2] == "obj"
                   for key in ctx.obj_ids)
    assert open_terminals[1] > 0  # prefix_store()


def test_no_child_starts_where_a_child_may_end():
    """allowed_next and mask_key take the mask of the slot that a frame's
    next child starts in to be that slot's mask: the slot has no cursor
    and no child may end in it."""
    assert not set(_FOLLOW.values()) & (_MAY_END | set(_TRIE_SLOTS))


def test_renders_tokens_rejects_ungrammatical():
    ctx, _ = make_ctx()
    vocab = ctx.tables.vocab
    junk = [vocab.id(")"), vocab.id("AND")]
    assert render_tokens(junk, ctx) is None
    partial = [vocab.id("("), vocab.id("COUNT")]
    assert render_tokens(partial, ctx) is None  # not in done state
