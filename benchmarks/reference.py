"""Reference evaluator for the JOIN / R / AND / class fragment of the
logical-form language, over a raw triple list.

It shares no code with `kbqa.executor` or `kbqa.sexpr`: the benchmark
checks the engine's answers against it, so a fault in the engine cannot
also hide in the check. It indexes triples by relation only, and scans
a relation's pairs for each JOIN, so it stays small next to a
100k-entity store.

Triples are (subject, relation, object) where the object is an entity
id (`str`) or a `Num`. A bare atom is a literal when it carries `^^`
or is number-shaped; otherwise it is a class in an expression slot and
an entity in a JOIN object slot.
"""

from __future__ import annotations

import re
from typing import Iterable, Union

_TOKEN_RE = re.compile(r"\(|\)|[^\s()]+")
_NUMBER_RE = re.compile(r"-?\d+(?:\.\d+)?")


class Num(float):
    """A float literal; prints the way the store's triple files spell it."""

    def text(self) -> str:
        return f"{float(self)!r}^^float"


Node = Union[str, Num]


def node_text(node: Node) -> str:
    return node.text() if isinstance(node, Num) else node


def form_tokens(form: str) -> list[str]:
    return _TOKEN_RE.findall(form)


class Graph:
    """Per-relation pair lists over raw triples."""

    def __init__(self, triples: Iterable[tuple[str, str, Node]],
                 type_relation: str = "type_rel"):
        self.type_relation = type_relation
        self.by_rel: dict[str, list[tuple[str, Node]]] = {}
        self.entities: set[str] = set()
        for subject, relation, obj in triples:
            self.by_rel.setdefault(relation, []).append((subject, obj))
            self.entities.add(subject)
            if relation != type_relation and isinstance(obj, str):
                self.entities.add(obj)

    def evaluate(self, form: str) -> frozenset:
        """Denotation of a form as a set of nodes; ValueError outside
        the fragment."""
        tokens = form_tokens(form)
        value, end = self._expr(tokens, 0, obj_slot=False)
        if end != len(tokens):
            raise ValueError(f"trailing tokens in {form!r}")
        return frozenset(value)

    def answer_strings(self, form: str) -> tuple[str, ...]:
        return tuple(sorted(node_text(n) for n in self.evaluate(form)))

    def _expr(self, tokens: list[str], i: int, obj_slot: bool) -> tuple[set, int]:
        token = tokens[i]
        if token != "(":
            if "^^" in token or _NUMBER_RE.fullmatch(token):
                payload = token.split("^^", 1)[0]
                if not _NUMBER_RE.fullmatch(payload):
                    raise ValueError(f"unsupported literal {token!r}")
                return {Num(float(payload))}, i + 1
            if obj_slot:
                return ({token} if token in self.entities else set()), i + 1
            return {s for s, o in self.by_rel.get(self.type_relation, ())
                    if o == token}, i + 1
        op = tokens[i + 1]
        if op == "AND":
            left, i = self._expr(tokens, i + 2, obj_slot=False)
            right, i = self._expr(tokens, i, obj_slot=False)
            return left & right, self._close(tokens, i)
        if op == "JOIN":
            i += 2
            reverse = tokens[i] == "("
            if reverse:
                if tokens[i + 1] != "R":
                    raise ValueError("expected (R relation)")
                relation = tokens[i + 2]
                i = self._close(tokens, i + 3)
            else:
                relation, i = tokens[i], i + 1
            sub, i = self._expr(tokens, i, obj_slot=True)
            pairs = self.by_rel.get(relation, ())
            if reverse:
                result = {o for s, o in pairs if s in sub}
            else:
                result = {s for s, o in pairs if o in sub}
            return result, self._close(tokens, i)
        raise ValueError(f"operator {op!r} is outside the reference fragment")

    @staticmethod
    def _close(tokens: list[str], i: int) -> int:
        if tokens[i] != ")":
            raise ValueError("expected ')'")
        return i + 1

    # -- neighbourhood forms, for drawing gold forms --------------------------

    def _members(self, sub: str) -> frozenset:
        return self.evaluate(sub) if sub.startswith("(") else frozenset([sub])

    def joins_onto(self, sub: str) -> list[str]:
        """JOINs onto `sub` (a form or an entity id) along the non-type
        edges of its members."""
        members = self._members(sub)
        forms: set[str] = set()
        for relation, pairs in self.by_rel.items():
            if relation == self.type_relation:
                continue
            if any(o in members for _, o in pairs):
                forms.add(f"(JOIN {relation} {sub})")
            if any(s in members for s, _ in pairs):
                forms.add(f"(JOIN (R {relation}) {sub})")
        return sorted(forms)

    def class_wraps(self, sub: str) -> list[str]:
        members = self._members(sub)
        classes = {o for s, o in self.by_rel.get(self.type_relation, ())
                   if s in members}
        return sorted(f"(AND {c} {sub})" for c in classes)
