"""Prefix trees over tokenized schema names, one per schema kind.

Edges are labeled with token ids; a terminal marker on a node means the
root-to-node path spells a complete catalog name. Because names have
the shape word(sep word)*, a terminal node's outgoing edges are always
separator tokens, which keeps constrained decoding deterministic: a
word-class token after a complete name always starts the next slot.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import TokenizeError
from .vocab import SEPARATORS, Vocabulary, tokenize_name


class TrieNode:
    __slots__ = ("children", "terminal")

    def __init__(self):
        self.children: dict[int, TrieNode] = {}
        self.terminal = False


class SchemaTrie:
    def __init__(self):
        self.root = TrieNode()

    def insert(self, token_ids: Iterable[int]) -> None:
        node = self.root
        for token_id in token_ids:
            node = node.children.setdefault(token_id, TrieNode())
        node.terminal = True

    def walk(self, token_ids: Iterable[int]) -> TrieNode | None:
        node = self.root
        for token_id in token_ids:
            node = node.children.get(token_id)
            if node is None:
                return None
        return node

    def terminal_paths(self) -> Iterator[tuple[int, ...]]:
        stack: list[tuple[TrieNode, tuple[int, ...]]] = [(self.root, ())]
        while stack:
            node, path = stack.pop()
            if node.terminal:
                yield path
            for token_id in sorted(node.children, reverse=True):
                stack.append((node.children[token_id], path + (token_id,)))


def build_trie(items: Iterable[str], vocab: Vocabulary) -> SchemaTrie:
    """Membership-exact trie over the given schema names; insertion
    order is irrelevant."""
    trie = SchemaTrie()
    separator_ids = {vocab.id(sep) for sep in SEPARATORS}
    for item in items:
        try:
            ids = [vocab.id(token) for token in tokenize_name(item)]
        except TokenizeError as exc:
            raise TokenizeError(f"cannot build trie entry for {item!r}: {exc}") from exc
        trie.insert(ids)
    # Guard the determinism property the module relies on.
    for path in trie.terminal_paths():
        node = trie.walk(path)
        for child in node.children:
            if child not in separator_ids:
                raise TokenizeError(
                    "trie terminal continues with a non-separator token; "
                    "schema names must have the shape word(sep word)*")
    return trie

