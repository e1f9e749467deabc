"""Parser, canonical printer, and structural analyzers for the
s-expression logical-form language.

Grammar (tokens are whitespace/parenthesis-delimited):

    expr  := atom | "(" form ")"
    form  := AND expr expr
           | JOIN rel-or-R obj
           | COUNT expr
           | ARGMIN expr relation
           | ARGMAX expr relation
           | (lt|le|gt|ge) relation literal
    rel-or-R := relation | "(" R relation ")"
    obj   := atom | "(" form ")"

A bare atom is a literal when it is number-shaped or carries a `^^tag`
suffix. Otherwise its category depends on position: in an expression
slot (root, AND arguments, COUNT/ARGMIN/ARGMAX sub-expression) it is a
class reference; in a JOIN object slot it is an entity reference. Bare
numbers are float literals.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Iterator, Optional, Union

from .errors import SexprParseError
from .store import NUMBER_RE, LiteralValue, TripleStore, parse_literal

OPERATORS = ("AND", "JOIN", "R", "COUNT", "ARGMIN", "ARGMAX", "lt", "le", "gt", "ge")
COMPARE_OPS = ("lt", "le", "gt", "ge")


@dataclass(frozen=True)
class EntityRef:
    entity: str


@dataclass(frozen=True)
class LiteralRef:
    value: LiteralValue


@dataclass(frozen=True)
class ClassRef:
    name: str


@dataclass(frozen=True)
class Reverse:
    relation: str


@dataclass(frozen=True)
class And:
    left: "LogicalForm"
    right: "LogicalForm"


@dataclass(frozen=True)
class Join:
    relation: Union[str, Reverse]
    sub: "LogicalForm"


@dataclass(frozen=True)
class Count:
    sub: "LogicalForm"


@dataclass(frozen=True)
class ArgMin:
    sub: "LogicalForm"
    relation: str


@dataclass(frozen=True)
class ArgMax:
    sub: "LogicalForm"
    relation: str


@dataclass(frozen=True)
class Compare:
    op: str  # lt | le | gt | ge
    relation: str
    literal: LiteralValue

    def __post_init__(self):
        if self.op not in COMPARE_OPS:
            raise ValueError(f"unknown comparison operator {self.op!r}")


LogicalForm = Union[EntityRef, LiteralRef, ClassRef, And, Join, Count,
                    ArgMin, ArgMax, Compare]
_COMPOUND = (And, Join, Count, ArgMin, ArgMax, Compare)


class FunctionClass(enum.Enum):
    NONE = "none"
    COUNT = "count"
    COMPARATIVE = "comparative"
    SUPERLATIVE = "superlative"


# ---------------------------------------------------------------------------
# lexing / parsing


# What `_lex` reads as one token other than a parenthesis: a maximal run
# of characters that are neither whitespace nor a parenthesis.
TOKEN_RE = re.compile(r"[^\s()]+")
_LEX_RE = re.compile(r"[()]|" + TOKEN_RE.pattern)


def _lex(text: str) -> list[tuple[str, int]]:
    """The tokens of the text, each with its position."""
    return [(match.group(), match.start()) for match in _LEX_RE.finditer(text)]


def _looks_like_literal(token: str) -> bool:
    return "^^" in token or NUMBER_RE.fullmatch(token) is not None


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _lex(text)
        self.i = 0

    def _peek(self) -> Optional[tuple[str, int]]:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def _next(self, what: str) -> tuple[str, int]:
        tok = self._peek()
        if tok is None:
            raise SexprParseError(f"unexpected end of input, expected {what}",
                                  len(self.text))
        self.i += 1
        return tok

    def _expect(self, token: str) -> None:
        tok, pos = self._next(repr(token))
        if tok != token:
            raise SexprParseError(f"expected {token!r}, got {tok!r}", pos)

    def _literal(self, token: str, pos: int) -> LiteralValue:
        try:
            lit = parse_literal(token)
        except ValueError as exc:
            raise SexprParseError(f"malformed literal {token!r}: {exc}", pos) from exc
        if lit is None:
            raise SexprParseError(f"expected a literal, got {token!r}", pos)
        if lit.kind == "string":
            raise SexprParseError(
                f"string literals are not part of the logical-form language: {token!r}", pos)
        if lit.kind == "integer" and lit.type_tag is None:
            # bare numbers default to float
            lit = LiteralValue("float", float(lit.value))
        return lit

    def _atom(self, token: str, pos: int, obj_slot: bool) -> LogicalForm:
        if _looks_like_literal(token):
            return LiteralRef(self._literal(token, pos))
        if token in OPERATORS:
            raise SexprParseError(f"operator {token!r} outside parentheses", pos)
        if obj_slot:
            return EntityRef(token)
        return ClassRef(token)

    def _relation_name(self) -> str:
        tok, pos = self._next("a relation name")
        if tok in "()" or tok in OPERATORS or _looks_like_literal(tok):
            raise SexprParseError(f"expected a relation name, got {tok!r}", pos)
        return tok

    def _rel_or_reverse(self) -> Union[str, Reverse]:
        tok, pos = self._peek() or (None, len(self.text))
        if tok == "(":
            self._expect("(")
            head, hpos = self._next("R")
            if head != "R":
                raise SexprParseError(f"expected R, got {head!r}", hpos)
            rel = self._relation_name()
            self._expect(")")
            return Reverse(rel)
        return self._relation_name()

    def parse_expr(self, obj_slot: bool = False) -> LogicalForm:
        tok, pos = self._next("an expression")
        if tok == ")":
            raise SexprParseError("unexpected ')'", pos)
        if tok != "(":
            return self._atom(tok, pos, obj_slot)
        head, hpos = self._next("an operator")
        if head == "AND":
            left = self.parse_expr()
            right = self.parse_expr()
            node: LogicalForm = And(left, right)
        elif head == "JOIN":
            rel = self._rel_or_reverse()
            sub = self.parse_expr(obj_slot=True)
            node = Join(rel, sub)
        elif head == "COUNT":
            node = Count(self.parse_expr())
        elif head in ("ARGMIN", "ARGMAX"):
            sub = self.parse_expr()
            rel = self._relation_name()
            node = ArgMin(sub, rel) if head == "ARGMIN" else ArgMax(sub, rel)
        elif head in COMPARE_OPS:
            rel = self._relation_name()
            lt_tok, lt_pos = self._next("a literal")
            node = Compare(head, rel, self._literal(lt_tok, lt_pos))
        elif head == "R":
            raise SexprParseError("(R ...) is only valid as a JOIN relation", hpos)
        else:
            raise SexprParseError(f"unknown operator {head!r}", hpos)
        self._expect(")")
        return node

    def parse(self) -> LogicalForm:
        node = self.parse_expr()
        trailing = self._peek()
        if trailing is not None:
            raise SexprParseError(f"trailing input {trailing[0]!r}", trailing[1])
        return node


def parse(text: str) -> LogicalForm:
    if not text or not text.strip():
        raise SexprParseError("empty logical form", 0)
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# printing / canonicalization


def print_canonical(lf: LogicalForm) -> str:
    """Deterministic text; AND arguments are emitted in sorted order.

    A compound node keeps its print, so each node is printed once however
    often it is asked for: the enumerator's dedup key is the print that
    ranking, context assembly and the answer reuse, and a form's print
    reuses those of its sub-forms. Nodes are immutable, so a kept print
    never goes stale; it is not a field, so equality ignores it.
    """
    if isinstance(lf, _COMPOUND):
        text = lf.__dict__.get("_print")
        if text is None:
            text = lf.__dict__["_print"] = _print_compound(lf)
        return text
    if isinstance(lf, EntityRef):
        return lf.entity
    if isinstance(lf, ClassRef):
        return lf.name
    if isinstance(lf, LiteralRef):
        return lf.value.text()
    raise TypeError(f"not a logical form node: {lf!r}")


def _print_compound(lf: LogicalForm) -> str:
    if isinstance(lf, And):
        left, right = sorted((print_canonical(lf.left), print_canonical(lf.right)))
        return f"(AND {left} {right})"
    if isinstance(lf, Join):
        rel = (f"(R {lf.relation.relation})" if isinstance(lf.relation, Reverse)
               else lf.relation)
        return f"(JOIN {rel} {print_canonical(lf.sub)})"
    if isinstance(lf, Count):
        return f"(COUNT {print_canonical(lf.sub)})"
    if isinstance(lf, ArgMin):
        return f"(ARGMIN {print_canonical(lf.sub)} {lf.relation})"
    if isinstance(lf, ArgMax):
        return f"(ARGMAX {print_canonical(lf.sub)} {lf.relation})"
    return f"({lf.op} {lf.relation} {lf.literal.text()})"


def canonicalize(lf: LogicalForm) -> LogicalForm:
    """Sort AND argument pairs by their canonical print; idempotent."""
    if isinstance(lf, And):
        left = canonicalize(lf.left)
        right = canonicalize(lf.right)
        if print_canonical(right) < print_canonical(left):
            left, right = right, left
        return And(left, right)
    if isinstance(lf, Join):
        return Join(lf.relation, canonicalize(lf.sub))
    if isinstance(lf, Count):
        return Count(canonicalize(lf.sub))
    if isinstance(lf, ArgMin):
        return ArgMin(canonicalize(lf.sub), lf.relation)
    if isinstance(lf, ArgMax):
        return ArgMax(canonicalize(lf.sub), lf.relation)
    return lf


def iter_nodes(lf: LogicalForm) -> Iterator[LogicalForm]:
    yield lf
    if isinstance(lf, And):
        yield from iter_nodes(lf.left)
        yield from iter_nodes(lf.right)
    elif isinstance(lf, (Join, Count, ArgMin, ArgMax)):
        yield from iter_nodes(lf.sub)


# ---------------------------------------------------------------------------
# validation / classification


@dataclass(frozen=True)
class SchemaViolation:
    kind: str  # unknown-class | unknown-relation | not-a-class | not-a-relation
    name: str

    def __str__(self):
        return f"{self.kind}: {self.name}"


def schema_names(lf: LogicalForm) -> list[tuple[str, str]]:
    """All (role, name) schema references, role in {class, relation}."""
    out: list[tuple[str, str]] = []
    for node in iter_nodes(lf):
        if isinstance(node, ClassRef):
            out.append(("class", node.name))
        elif isinstance(node, Join):
            rel = node.relation.relation if isinstance(node.relation, Reverse) else node.relation
            out.append(("relation", rel))
        elif isinstance(node, (ArgMin, ArgMax)):
            out.append(("relation", node.relation))
        elif isinstance(node, Compare):
            out.append(("relation", node.relation))
    return out


def validate_schema(lf: LogicalForm, store: TripleStore) -> list[SchemaViolation]:
    violations = []
    for role, name in schema_names(lf):
        item = store.catalog.get(name)
        if item is None:
            violations.append(SchemaViolation(f"unknown-{role}", name))
        elif item.kind != role:
            violations.append(SchemaViolation(f"not-a-{role}", name))
    return violations


def function_class(lf: LogicalForm) -> FunctionClass:
    has_super = False
    has_cmp = False
    for node in iter_nodes(lf):
        if isinstance(node, (ArgMin, ArgMax)):
            has_super = True
        elif isinstance(node, Compare):
            has_cmp = True
    if has_super:
        return FunctionClass.SUPERLATIVE
    if has_cmp:
        return FunctionClass.COMPARATIVE
    if isinstance(lf, Count):
        return FunctionClass.COUNT
    return FunctionClass.NONE


def relation_count(lf: LogicalForm) -> int:
    """Number of relation-name occurrences; (R rel) counts its inner
    relation once."""
    return len([1 for role, _ in schema_names(lf) if role == "relation"])
