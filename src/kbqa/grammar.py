"""Incremental recognizer for the logical-form token language, used to
mask illegal next tokens during beam search.

The language is written once, in the move table `_MOVES`. A state is a
slot, a stack of open constructs (operator, argument position) and, in
a schema-name slot, a cursor into a prefix trie. Each slot lists its
moves in the order `advance` tries them: a token set and the successor
of a token in that set. `allowed_next` is the union of a slot's move
sets; `continues_lexeme` asks whether a name or literal slot's own move
takes the token.

A slot in `_MAY_END` also lets a complete name (a terminal trie node)
or number end: a token that none of its moves takes then starts the
next child of the top frame. That exit is always unambiguous, because
a complete name can only continue with a separator token while follow
sets never contain one.

Nested expression slots admit AND/JOIN and the comparatives; COUNT,
ARGMIN, and ARGMAX are root-only. Entity slots are restricted to the
linked entities supplied in the decode context; literal slots are
constrained syntactically (digits, one point, optional float/integer
tag) but not to values present in the KB.

A mask reads only the slot, the trie cursor and the top stack frame, so
`allowed_next` is memoised on the DecodeContext under that key.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from .trie import SchemaTrie, TrieNode
from .vocab import DIGITS, TYPE_TAGS, Vocabulary

NESTED_OPERATORS = ("AND", "JOIN", "lt", "le", "gt", "ge")
ROOT_OPERATORS = NESTED_OPERATORS + ("COUNT", "ARGMIN", "ARGMAX")

_SLOTS = {
    "AND": ("expr", "expr"),
    "JOIN": ("rel", "obj"),
    "COUNT": ("expr",),
    "ARGMIN": ("expr", "rel_bare"),
    "ARGMAX": ("expr", "rel_bare"),
    "lt": ("rel_bare", "lit_start"),
    "le": ("rel_bare", "lit_start"),
    "gt": ("rel_bare", "lit_start"),
    "ge": ("rel_bare", "lit_start"),
    "R": ("rel_bare",),
}


class GrammarState(NamedTuple):
    slot: str = "root"
    stack: tuple[tuple[str, int], ...] = ()
    cursor: Optional[TrieNode] = None

    @property
    def finished(self) -> bool:
        return self.slot == "accepted"


def initial_state() -> GrammarState:
    return GrammarState()


def _end_child(stack: tuple, _=None) -> GrammarState:
    """State after the current child of the top frame has finished."""
    if not stack:
        return GrammarState("done")
    op, pos = stack[-1]
    pos += 1
    stack = stack[:-1] + ((op, pos),)
    if pos >= len(_SLOTS[op]):
        return GrammarState("close", stack)
    return GrammarState(_SLOTS[op][pos], stack)


def _push(stack: tuple, op: str) -> GrammarState:
    return GrammarState(_SLOTS[op][0], stack + ((op, 0),))


def _close(stack: tuple, _) -> GrammarState:
    return _end_child(stack[:-1])


# The token language. A move is (token set, successor). The set names a
# DecodeContext set, a trie root ("classes", "relations") or "cursor",
# the children of the current trie node. The successor is a slot,
# entered with the same stack and, from a trie set, the child as cursor;
# or it is _push (open the operator the token names), _close (close the
# top frame) or _end_child (the top frame's current child is complete).
_MOVES = {
    "root": (("open", "root_op"),),
    "root_op": (("root_ops", _push),),
    "op": (("nested_ops", _push),),
    "op_r": (("r", _push),),
    "expr": (("open", "op"), ("classes", "class")),
    "obj": (("open", "op"), ("linked", _end_child), ("digits", "lit_int")),
    "rel": (("open", "op_r"), ("relations", "relname")),
    "rel_bare": (("relations", "relname"),),
    "class": (("cursor", "class"),),
    "relname": (("cursor", "relname"),),
    "lit_start": (("digits", "lit_int"),),
    "lit_int": (("digits", "lit_int"), ("dot", "lit_frac0"), ("caret", "lit_tag")),
    "lit_frac0": (("digits", "lit_frac"),),
    # a fractional payload only parses under a float tag
    "lit_frac": (("digits", "lit_frac"), ("caret", "lit_tag_frac")),
    "lit_tag": (("tags", _end_child),),
    "lit_tag_frac": (("float_tag", _end_child),),
    "close": (("close", _close),),
    "done": (("end", "accepted"),),
    "accepted": (),
}
# Slots inside a schema name or literal: each of their moves extends it.
_LEXEME = frozenset(("class", "relname", "lit_int", "lit_frac0", "lit_frac",
                     "lit_tag", "lit_tag_frac"))
# Slots where a complete name or number may end.
_MAY_END = frozenset(("class", "relname", "lit_int", "lit_frac"))

_MISS = object()


class DecodeContext:
    """Vocabulary-resolved token sets, the two schema tries, the
    linked-entity constraint, the move table resolved against them, and
    the allowed_next memo."""

    def __init__(self, vocab: Vocabulary, class_trie: SchemaTrie,
                 rel_trie: SchemaTrie,
                 linked_entities: Sequence[str] = ()):
        self.vocab = vocab
        self.class_trie = class_trie
        self.rel_trie = rel_trie
        self.open_id = vocab.id("(")
        self.close_id = vocab.id(")")
        self.end_id = vocab.end_id
        self.dot_id = vocab.id(".")
        self.caret_id = vocab.id("^^")
        self.digit_ids = frozenset(vocab.id(d) for d in DIGITS)
        self.tag_ids = frozenset(vocab.id(t) for t in TYPE_TAGS)
        self.float_tag_ids = frozenset((vocab.id("float"),))
        self.root_op_ids = frozenset(vocab.id(op) for op in ROOT_OPERATORS)
        self.nested_op_ids = frozenset(vocab.id(op) for op in NESTED_OPERATORS)
        self.linked = frozenset(vocab.id(e) for e in linked_entities)
        # Each set maps a token id to its payload: the trie child for a
        # trie set, the operator for an operator set, else None.
        sets = {
            "open": {self.open_id: None},
            "close": {self.close_id: None},
            "end": {self.end_id: None},
            "dot": {self.dot_id: None},
            "caret": {self.caret_id: None},
            "r": {vocab.id("R"): "R"},
            "root_ops": {vocab.id(op): op for op in ROOT_OPERATORS},
            "nested_ops": {vocab.id(op): op for op in NESTED_OPERATORS},
            "digits": dict.fromkeys(self.digit_ids),
            "tags": dict.fromkeys(self.tag_ids),
            "float_tag": dict.fromkeys(self.float_tag_ids),
            "linked": dict.fromkeys(self.linked),
            "classes": class_trie.root.children,
            "relations": rel_trie.root.children,
            "cursor": None,
        }
        self.moves = {slot: tuple((sets[name], then) for name, then in moves)
                      for slot, moves in _MOVES.items()}
        # per slot, the union of its move sets but the trie cursor's
        self.slot_masks = {
            slot: frozenset().union(*(tokens for tokens, _ in moves if tokens is not None))
            for slot, moves in self.moves.items()}
        self.masks: dict[tuple, frozenset[int]] = {}


def _may_end(state: GrammarState) -> bool:
    return state.slot in _MAY_END and (state.cursor is None or state.cursor.terminal)


def advance(state: GrammarState, token: int,
            ctx: DecodeContext) -> Optional[GrammarState]:
    """Next state, or None when the token is illegal here."""
    for tokens, then in ctx.moves[state.slot]:
        hit = (state.cursor.children if tokens is None else tokens).get(token, _MISS)
        if hit is not _MISS:
            if then.__class__ is str:
                return GrammarState(then, state.stack, hit)
            return then(state.stack, hit)
    if _may_end(state):
        return advance(_end_child(state.stack), token, ctx)
    return None


def allowed_next(state: GrammarState, ctx: DecodeContext) -> frozenset[int]:
    """Exactly the token ids advance() accepts in this state."""
    key = (state.slot, state.cursor, state.stack[-1:])
    mask = ctx.masks.get(key)
    if mask is None:
        mask = ctx.slot_masks[state.slot]
        if state.cursor is not None:
            mask = mask.union(state.cursor.children)
        if _may_end(state):
            mask = mask.union(allowed_next(_end_child(state.stack), ctx))
        ctx.masks[key] = mask
    return mask


def continues_lexeme(state: GrammarState, token: int, ctx: DecodeContext) -> bool:
    """True when the token extends the schema name or literal currently
    being spelled (used to rebuild text without inserting spaces)."""
    return state.slot in _LEXEME and (
        token in ctx.slot_masks[state.slot]
        or state.cursor is not None and token in state.cursor.children)


def render_tokens(ids: Sequence[int], ctx: DecodeContext) -> Optional[str]:
    """Rebuild logical-form text from a token sequence by replaying the
    grammar; None when the sequence is not grammatical. A trailing end
    token is accepted (and required to sit in the done state)."""
    state = initial_state()
    lexemes: list[str] = []
    for token in ids:
        if token == ctx.end_id:
            return " ".join(_respace(lexemes)) if state.slot == "done" else None
        if continues_lexeme(state, token, ctx):
            lexemes[-1] += ctx.vocab.token(token)
        else:
            lexemes.append(ctx.vocab.token(token))
        state = advance(state, token, ctx)
        if state is None:
            return None
    if state.slot != "done":
        return None
    return " ".join(_respace(lexemes))


def _respace(lexemes: list[str]) -> list[str]:
    """Join lexemes with lisp spacing: no space after '(' or before ')'."""
    out: list[str] = []
    for lex in lexemes:
        if lex == ")":
            out[-1] += ")"
        elif out and out[-1].endswith("("):
            out[-1] += lex
        else:
            out.append(lex)
    return out
