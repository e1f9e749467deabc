"""Incremental recognizer for the logical-form token language, used to
mask illegal next tokens during beam search.

The language is written once, in the move table `_MOVES` and the token
sets `_SETS` that it names. A state is a slot, a stack of open
constructs (operator, argument position) and, in a schema-name slot, a
cursor into a prefix trie. Each slot lists its moves in the order
`advance` tries them: a token set and the successor of a token in it.
`allowed_next` is the union of a slot's move sets; `continues_lexeme`
asks whether a name or literal slot's own move takes the token.

A slot in `_MAY_END` also lets a complete name (a terminal trie node)
or number end: a token that none of its moves takes then starts the
next child of the top frame. That exit is unambiguous because of the
shape `vocab.NAME_RE` of every name, word(sep word)*: a complete name
can only continue with a separator token, and follow sets never hold one.

Nested expression slots admit AND/JOIN and the comparatives; COUNT,
ARGMIN, and ARGMAX are root-only. Entity slots are restricted to the
linked entities supplied in the decode context; literal slots are
constrained syntactically (digits, one point, optional float/integer
tag) but not to values present in the KB.

What does not depend on the question is built once per vocabulary and
catalog, in `DecodeTables`, and is read-only afterwards: the prefix
tries over the catalog's class and relation names, the move table and
slot masks resolved to token ids, and every allowed set as a sorted
tuple under its `mask_key` (a mask reads only the slot, the trie cursor
and, where the current child may end, the slot that the top frame's
next child starts in). Only the `obj` slot reads the question, through
its linked entities, so a `DecodeContext` holds just those, the `obj`
slot resolved against them, and a memo of the masks that reach that
slot.

The tables also hold the shortest completion. A state carries `tail`,
the tokens its open frames need once the current child is complete:
their remaining slots, their closes and the end token. The moves keep
it up to date in O(1), and `completion` adds the current child's
remainder, so it is exact: the fewest tokens that take the state to
`accepted`.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import TokenizeError
from .vocab import DIGITS, END, TYPE_TAGS, Vocabulary

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

# Per frame (op, pos), the slot its next child starts in, or "close".
# No such slot is one where a child may end (`_MAY_END`).
_FOLLOW = {(op, pos): slots[pos + 1] if pos + 1 < len(slots) else "close"
           for op, slots in _SLOTS.items() for pos in range(len(slots))}

# A completion of at least this many tokens means that none exists.
NEVER = 1 << 30


class TrieNode:
    """A node of a prefix trie over schema names' token ids: a terminal
    node ends the path of a complete name."""
    __slots__ = ("children", "terminal")

    def __init__(self):
        self.children: dict[int, TrieNode] = {}
        self.terminal = False


def _trie(names: Iterable[str], vocab: Vocabulary) -> list[TrieNode]:
    """The prefix trie over the names' token ids, as its nodes, each
    before its children; the root first. Insertion order is irrelevant
    to the names it holds."""
    nodes = [TrieNode()]
    for name in names:
        try:
            ids = vocab.name_ids(name)
        except TokenizeError as exc:
            raise TokenizeError(f"cannot build trie entry for {name!r}: {exc}") from exc
        node = nodes[0]
        for token_id in ids:
            child = node.children.get(token_id)
            if child is None:
                child = node.children[token_id] = TrieNode()
                nodes.append(child)
            node = child
        node.terminal = True
    return nodes


class GrammarState(NamedTuple):
    slot: str = "root"
    stack: tuple[tuple[str, int], ...] = ()
    cursor: Optional[TrieNode] = None
    # tokens the open frames need once the current child is complete:
    # their remaining slots and closes, and the end token
    tail: int = 1

    @property
    def finished(self) -> bool:
        return self.slot == "accepted"


def initial_state() -> GrammarState:
    return GrammarState()


def _next_child(stack: tuple, tail: int, rest: dict) -> GrammarState:
    """State after the current child of the top frame has finished."""
    if not stack:
        return GrammarState("done", (), None, tail)
    top = stack[-1]
    op, pos = top
    pos += 1
    stack = stack[:-1] + ((op, pos),)
    return GrammarState(_FOLLOW[top], stack, None, tail + rest[op, pos] - rest[top])


def _end_child(state: GrammarState, _, rest: dict) -> GrammarState:
    return _next_child(state.stack, state.tail, rest)


def _push(state: GrammarState, op: str, rest: dict) -> GrammarState:
    return GrammarState(_SLOTS[op][0], state.stack + ((op, 0),), None,
                        state.tail + rest[op, 0])


def _close(state: GrammarState, _, rest: dict) -> GrammarState:
    stack = state.stack
    return _next_child(stack[:-1], state.tail - rest[stack[-1]], rest)


def _accept(state: GrammarState, _, rest: dict) -> GrammarState:
    return GrammarState("accepted", (), None, 0)


# The token language. A move is (token set, successor). The set names a
# set of `_SETS`, a trie root ("classes", "relations") or "cursor", the
# children of the current trie node. The successor is a slot,
# entered with the same stack and, from a trie set, the child as cursor;
# or it is _push (open the operator the token names), _close (close the
# top frame), _end_child (the top frame's current child is complete) or
# _accept (the end token).
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
    "done": (("end", _accept),),
    "accepted": (),
}
# The tokens of each set that `_MOVES` names, but the linked entities'
# and the tries'. The operator sets hold the operators' own tokens.
_SETS = {"open": ("(",), "close": (")",), "end": (END,), "dot": (".",), "caret": ("^^",),
         "r": ("R",), "root_ops": ROOT_OPERATORS, "nested_ops": NESTED_OPERATORS,
         "digits": DIGITS, "tags": TYPE_TAGS, "float_tag": ("float",)}
# Slots inside a schema name or literal: each of their moves extends it.
_LEXEME = frozenset(("class", "relname", "lit_int", "lit_frac0", "lit_frac",
                     "lit_tag", "lit_tag_frac"))
# Slots where a complete name or number may end.
_MAY_END = frozenset(("class", "relname", "lit_int", "lit_frac"))
# Slots whose state carries a trie cursor.
_TRIE_SLOTS = frozenset(("class", "relname"))


_MISS = object()


class DecodeTables:
    """What decoding reads that the question does not change, for one
    vocabulary and its catalog's class and relation names; read-only
    once built, so any number of questions may share it:
    - a prefix trie over each kind of name, whose root's children are
      the sets "classes" and "relations";
    - `sets`, the token sets of `_SETS` and the tries' roots as ids,
      the move table resolved against them for a question with no
      linked entities, and per slot the union of its move sets;
    - `mask_ids`: every allowed set that does not read the linked
      entities, as a sorted tuple under its `mask_key`;
    - `dist`: per trie node, the tokens to its nearest terminal;
    - `fill`: per slot without a cursor, the fewest tokens that complete
      the current child from it;
    - `rest`: per frame (op, pos), the fewest tokens that fill the
      frame's slots after pos and close it."""

    def __init__(self, vocab: Vocabulary, classes: Iterable[str], relations: Iterable[str]):
        self.vocab = vocab
        # per trie slot, the trie's nodes, each before its children
        nodes = {"class": _trie(classes, vocab), "relname": _trie(relations, vocab)}
        self.end_id = vocab.end_id
        # Each set maps a token id to its payload: the trie child for a
        # trie set, the operator for an operator set, else None.
        self.sets = {
            **{name: {vocab.id(token): token if token in _SLOTS else None for token in tokens}
               for name, tokens in _SETS.items()},
            "classes": nodes["class"][0].children,
            "relations": nodes["relname"][0].children,
            "cursor": None,
        }
        # the move table of a question with no linked entities
        self.moves = {slot: self._resolve(slot, {}) for slot in _MOVES}
        # per slot, the union of its move sets but the trie cursor's
        self.slot_masks = {
            slot: frozenset().union(*(tokens for tokens, _ in moves if tokens is not None))
            for slot, moves in self.moves.items()}
        self.dist = _distances(*nodes.values())
        self.fill, self.rest = _fills(self.moves, self.dist)
        self.mask_ids = self._shared_masks(nodes)

    def _resolve(self, slot: str, linked: dict) -> tuple:
        """The slot's moves with each set name resolved: "linked" to the
        given linked entities, any other to its set here."""
        return tuple((linked if name == "linked" else self.sets[name], then)
                     for name, then in _MOVES[slot])

    def _shared_masks(self, nodes: dict[str, list[TrieNode]]) -> dict[tuple, tuple[int, ...]]:
        """allowed_next under its mask_key, for every key whose mask does
        not read the linked entities: the obj slot's, and a complete
        name's whose frame goes on to the obj slot, are left out. Each
        mask is that of one state with the key: with no frame or, where
        the current child may end, under one frame per slot that a
        frame's next child starts in, reachable from this slot or not."""
        ctx = DecodeContext(self)
        # per slot that a frame's next child starts in, but obj, one
        # such frame: the inverse of _FOLLOW
        frames = {then: frame for frame, then in _FOLLOW.items() if then != "obj"}.values()
        masks: dict[tuple, tuple[int, ...]] = {}
        for slot in _MOVES:
            if slot == "obj":
                continue
            # no cursor stands for every trie leaf (see mask_key); the
            # root is never a cursor
            inner = ([node for node in nodes[slot][1:] if node.children]
                     if slot in _TRIE_SLOTS else ())
            for cursor in (None, *inner):
                if cursor is not None and not cursor.terminal:
                    # inside a name, the slot's one move is the cursor's
                    masks[slot, cursor] = tuple(sorted(cursor.children))
                    continue
                state = GrammarState(slot, (), cursor)
                for state in ([GrammarState(slot, (frame,), cursor) for frame in frames]
                              if _may_end(state) else (state,)):
                    masks[mask_key(state)] = tuple(sorted(allowed_next(state, ctx)))
        return masks


def _distances(*tries: list[TrieNode]) -> dict[TrieNode, int]:
    """Per trie node, the tokens to its nearest terminal node; each trie
    given as its nodes, each before its children."""
    dist: dict[TrieNode, int] = {}
    for nodes in tries:
        for node in reversed(nodes):  # children before their parent
            children = node.children
            dist[node] = (0 if node.terminal
                          else 1 + min(map(dist.__getitem__, children.values())) if children
                          else NEVER)
    return dist


def _fills(moves: dict, dist: dict) -> tuple[dict[str, int], dict[tuple, int]]:
    """`fill` per slot without a cursor and `rest` per frame, as the
    least fixpoint of the move table: a slot costs one token more than
    the cheapest state a move takes it to."""
    fill = dict.fromkeys(moves, NEVER)
    fill.update(close=0, done=0, accepted=0)  # counted by `rest` and `tail`
    while True:
        rest = {}
        opened = {}  # per operator, the tokens its frame needs once opened
        for op, slots in _SLOTS.items():
            total = rest[op, len(slots)] = 1
            for pos in range(len(slots) - 1, -1, -1):
                rest[op, pos] = total
                total += fill[slots[pos]]
            opened[op] = total
        changed = False
        for slot, slot_moves in moves.items():
            if slot in _TRIE_SLOTS or fill[slot] == 0:
                continue
            best = 0 if slot in _MAY_END else NEVER
            for tokens, then in slot_moves:
                if not tokens:
                    continue
                if then is _push:
                    after = min(map(opened.__getitem__, tokens.values()))
                elif then is _end_child:
                    after = 0
                elif then in _TRIE_SLOTS:
                    after = min(map(dist.__getitem__, tokens.values()))
                else:
                    after = fill[then]
                best = min(best, 1 + after)
            if best < fill[slot]:
                fill[slot] = best
                changed = True
        if not changed:
            return fill, rest


class DecodeContext:
    """One question's view of the shared `tables`: its linked entities,
    the move table and slot masks with the `obj` slot resolved against
    them, and `obj_ids`, the memo of the masks that reach the `obj`
    slot. All else is read from `tables`."""

    def __init__(self, tables: DecodeTables, linked_entities: Sequence[str] = ()):
        self.tables = tables
        self.linked = frozenset(tables.vocab.id(e) for e in linked_entities)
        self.moves = {**tables.moves, "obj": tables._resolve("obj", dict.fromkeys(self.linked))}
        self.slot_masks = {**tables.slot_masks,
                           "obj": tables.slot_masks["obj"] | self.linked}
        self.obj_ids: dict[tuple, tuple[int, ...]] = {}


def _may_end(state: GrammarState) -> bool:
    return state.slot in _MAY_END and (state.cursor is None or state.cursor.terminal)


def advance(state: GrammarState, token: int,
            ctx: DecodeContext) -> Optional[GrammarState]:
    """Next state, or None when the token is illegal here."""
    for tokens, then in ctx.moves[state.slot]:
        hit = (state.cursor.children if tokens is None else tokens).get(token, _MISS)
        if hit is not _MISS:
            if then.__class__ is str:
                return GrammarState(then, state.stack, hit, state.tail)
            return then(state, hit, ctx.tables.rest)
    if _may_end(state):
        return advance(_end_child(state, None, ctx.tables.rest), token, ctx)
    return None


def completion(state: GrammarState, ctx: DecodeContext) -> int:
    """The fewest tokens, the end token included, that take the state to
    `accepted`; NEVER or more when no tokens do."""
    cursor, tables = state.cursor, ctx.tables
    return (tables.fill[state.slot] if cursor is None else tables.dist[cursor]) + state.tail


def mask_key(state: GrammarState) -> tuple:
    """What the allowed set depends on: the slot; the trie cursor, but
    for a leaf, a complete name with no tokens of its own to allow,
    whose key has no cursor; and where the current child may end, the
    slot the top frame's next child starts in, since that slot's tokens
    are then allowed too."""
    cursor = state.cursor
    if cursor is not None and not cursor.children:
        cursor = None
    if _may_end(state):
        return (state.slot, cursor, _FOLLOW[state.stack[-1]])
    return (state.slot, cursor)


def allowed_next(state: GrammarState, ctx: DecodeContext) -> frozenset[int]:
    """Exactly the token ids advance() accepts in this state, computed
    afresh from the slot masks (the tables keep them memoised). Where
    the current child may end, the tokens of the slot that the top
    frame's next child starts in are allowed too; that slot has no
    cursor and never may end, so its mask is its slot mask."""
    mask = ctx.slot_masks[state.slot]
    if state.cursor is not None:
        mask = mask.union(state.cursor.children)
    if _may_end(state):
        mask = mask.union(ctx.slot_masks[_FOLLOW[state.stack[-1]]])
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
    vocab = ctx.tables.vocab
    state = initial_state()
    lexemes: list[str] = []
    for token in ids:
        if token == vocab.end_id:
            return " ".join(_respace(lexemes)) if state.slot == "done" else None
        if continues_lexeme(state, token, ctx):
            lexemes[-1] += vocab.token(token)
        else:
            lexemes.append(vocab.token(token))
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
