"""Token vocabulary and the built-in deterministic tokenizer.

Tokenization rules (documented so external scorers can conform):
  * structural tokens "(" and ")" and the operator words are atomic;
  * a schema name has the shape `NAME_RE` and splits on "." and "_",
    keeping the separators as tokens, so it rebuilds by concatenation;
  * entity ids are atomic tokens;
  * a numeric literal's lexical form splits into single digits and an
    optional ".", then an optional "^^" followed by a type-tag word;
  * free text (questions, labels) splits into lowercase word/number
    chunks; unknown words map to the <unk> token.

Ids are dense from 0. Specials come first so their ids are stable
across stores of the same build recipe.
"""

from __future__ import annotations

import re
from typing import Container, Iterable, Optional, Sequence, Union

from .errors import TokenizeError
from .sexpr import (OPERATORS, And, ArgMax, ArgMin, ClassRef, Compare, Count,
                    EntityRef, Join, LiteralRef, LogicalForm, Reverse, parse)
from .store import LiteralValue, TripleStore, text_words

BEGIN = "<s>"
END = "</s>"
UNK = "<unk>"
SECTION_ENTITIES = "<entities>"
SECTION_ELFS = "<elfs>"
SECTION_SCHEMA = "<schema>"
COMMA = ","

SPECIALS = (BEGIN, END, UNK, SECTION_ENTITIES, SECTION_ELFS, SECTION_SCHEMA, COMMA)
STRUCTURAL = ("(", ")")
SEPARATORS = (".", "_", "^^")
DIGITS = tuple("0123456789")
TYPE_TAGS = ("float", "integer")

# The one shape of a schema name, word(sep word)*
NAME_RE = re.compile(r"[A-Za-z0-9]+(?:[._][A-Za-z0-9]+)*")
_NAME_SEPARATOR_RE = re.compile(r"([._])")
_NUMBER_WORD_RE = re.compile(r"\d+(?:\.\d+)?")


class Vocabulary:
    """Bidirectional token-id map; append-only until frozen. The ids of
    the schema names in `catalog` are memoised as they are asked for."""

    def __init__(self, catalog: Container[str] = ()):
        self._tok_to_id: dict[str, int] = {}
        self._id_to_tok: list[str] = []
        self.frozen = False
        self._catalog = catalog
        self._name_ids: dict[str, tuple[int, ...]] = {}
        for token in SPECIALS + STRUCTURAL + OPERATORS + SEPARATORS + DIGITS + TYPE_TAGS:
            self.add(token)

    def add(self, token: str) -> int:
        existing = self._tok_to_id.get(token)
        if existing is not None:
            return existing
        if self.frozen:
            raise TokenizeError(f"vocabulary is frozen; unknown token {token!r}")
        token_id = len(self._id_to_tok)
        self._tok_to_id[token] = token_id
        self._id_to_tok.append(token)
        return token_id

    def freeze(self) -> "Vocabulary":
        self.frozen = True
        return self

    def __len__(self) -> int:
        return len(self._id_to_tok)

    @property
    def size(self) -> int:
        return len(self._id_to_tok)

    def __contains__(self, token: str) -> bool:
        return token in self._tok_to_id

    def id(self, token: str) -> int:
        try:
            return self._tok_to_id[token]
        except KeyError:
            raise TokenizeError(f"token not in vocabulary: {token!r}") from None

    def id_or_unk(self, token: str) -> int:
        return self._tok_to_id.get(token, self._tok_to_id[UNK])

    def token(self, token_id: int) -> str:
        return self._id_to_tok[token_id]

    def tokens(self, ids: Iterable[int]) -> list[str]:
        return [self._id_to_tok[i] for i in ids]

    def name_ids(self, name: str) -> tuple[int, ...]:
        """The ids of `tokenize_name(name)`. Only a catalog name's ids are
        kept, so the memo is bounded by the catalog."""
        ids = self._name_ids.get(name)
        if ids is None:
            ids = tuple(self.id(token) for token in tokenize_name(name))
            if name in self._catalog:
                self._name_ids[name] = ids
        return ids

    # Frequently used ids, resolved once.
    @property
    def begin_id(self) -> int:
        return self._tok_to_id[BEGIN]

    @property
    def end_id(self) -> int:
        return self._tok_to_id[END]


def tokenize_name(name: str) -> list[str]:
    """Split a schema name on "." and "_", keeping separators.

    The shape `NAME_RE`, word(sep word)*, is enforced: it is what makes
    trie terminals unambiguous during constrained decoding (a complete
    name can only continue with a separator token).
    """
    if not NAME_RE.fullmatch(name):
        raise TokenizeError(f"schema name {name!r} does not have the shape word(sep word)*, "
                            "words of ASCII letters and digits, separators '.' and '_'")
    return _NAME_SEPARATOR_RE.split(name)


def tokenize_literal(lit: LiteralValue) -> list[str]:
    if not lit.is_numeric():
        raise TokenizeError(f"literal kind {lit.kind!r} is not decodable")
    text = lit.lexical()
    if not _NUMBER_WORD_RE.fullmatch(text):
        raise TokenizeError(f"literal {text!r} is not decodable "
                            "(negative or non-positional notation)")
    tokens = list(text)
    if lit.type_tag:
        if lit.type_tag not in TYPE_TAGS:
            raise TokenizeError(f"literal tag {lit.type_tag!r} is not decodable")
        tokens.extend(["^^", lit.type_tag])
    return tokens


def build_vocabulary(store: TripleStore,
                     extra_texts: Iterable[str] = ()) -> Vocabulary:
    """Vocabulary covering the store's catalog, entities, labels and
    aliases, plus any extra free text (e.g. a question corpus)."""
    vocab = Vocabulary(store.catalog)
    words: set[str] = set()
    for name in sorted(store.catalog):
        for token in tokenize_name(name):
            if token not in "._":
                words.add(token)
    for word in sorted(words):
        vocab.add(word)
    for entity in sorted(store.all_entities()):
        vocab.add(entity)
    _, entity_words = store.entity_text_counts()
    text_vocab = set(entity_words)  # the words of every label and alias
    for text in extra_texts:
        text_vocab.update(text_words(text))
    for word in sorted(text_vocab):
        if _NUMBER_WORD_RE.fullmatch(word):
            continue  # numbers encode through digit tokens
        vocab.add(word)
    return vocab.freeze()


def encode_text(vocab: Vocabulary, text: str) -> list[int]:
    """Free-text encoding for context assembly; numbers become digit
    sequences, unknown words become <unk>."""
    ids: list[int] = []
    for word in text_words(text):
        if _NUMBER_WORD_RE.fullmatch(word):
            ids.extend(vocab.id(ch) for ch in word)
        else:
            ids.append(vocab.id_or_unk(word))
    return ids


def encode_logical_form(vocab: Vocabulary,
                        lf: Union[str, LogicalForm]) -> list[int]:
    """Exact token encoding of a logical form, with a node's arguments in
    the order it was built in; raises TokenizeError when any name,
    entity, or literal is outside the vocabulary."""
    if isinstance(lf, str):
        lf = parse(lf)
    ids: list[int] = []
    open_, close = vocab.id("("), vocab.id(")")

    def emit(node: LogicalForm) -> None:
        if isinstance(node, EntityRef):
            ids.append(vocab.id(node.entity))
        elif isinstance(node, ClassRef):
            ids.extend(vocab.name_ids(node.name))
        elif isinstance(node, LiteralRef):
            ids.extend(map(vocab.id, tokenize_literal(node.value)))
        elif isinstance(node, And):
            ids.extend((open_, vocab.id("AND")))
            emit(node.left)
            emit(node.right)
            ids.append(close)
        elif isinstance(node, Join):
            ids.extend((open_, vocab.id("JOIN")))
            if isinstance(node.relation, Reverse):
                ids.extend((open_, vocab.id("R")))
                ids.extend(vocab.name_ids(node.relation.relation))
                ids.append(close)
            else:
                ids.extend(vocab.name_ids(node.relation))
            emit(node.sub)
            ids.append(close)
        elif isinstance(node, Count):
            ids.extend((open_, vocab.id("COUNT")))
            emit(node.sub)
            ids.append(close)
        elif isinstance(node, (ArgMin, ArgMax)):
            ids.extend((open_, vocab.id("ARGMIN" if isinstance(node, ArgMin) else "ARGMAX")))
            emit(node.sub)
            ids.extend(vocab.name_ids(node.relation))
            ids.append(close)
        elif isinstance(node, Compare):
            ids.extend((open_, vocab.id(node.op)))
            ids.extend(vocab.name_ids(node.relation))
            ids.extend(map(vocab.id, tokenize_literal(node.literal)))
            ids.append(close)
        else:
            raise TokenizeError(f"cannot encode node {node!r}")

    emit(lf)
    return ids


def encode_target(vocab: Vocabulary,
                  lf: Union[str, LogicalForm]) -> tuple[int, ...]:
    """A logical form as the id sequence a token scorer generates: its
    exact encoding followed by the end token."""
    return tuple(encode_logical_form(vocab, lf)) + (vocab.end_id,)


def raw_join(vocab: Vocabulary, ids: Sequence[int],
             skip: Optional[set[int]] = None) -> str:
    """Space-joined token strings: a debugging fallback, not guaranteed
    to parse."""
    skip = skip or set()
    return " ".join(vocab.token(i) for i in ids if i not in skip)
