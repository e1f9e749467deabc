"""Set-semantics evaluation of logical forms, compilation to SPARQL
text, and an in-process evaluator for the emitted SPARQL subset used
for differential testing.

Denotations:
    entity e          -> {e} when e occurs in the store, else {}
    literal v         -> {v} when v occurs in the store, else {}
    class c           -> instances_of(c)
    (JOIN r X)        -> {s : exists o in [[X]] with (s, r, o)}
    (JOIN (R r) X)    -> {o : exists s in [[X]] with (s, r, o)}
    (AND a b)         -> [[a]] & [[b]]
    (cmp r v)         -> {s : exists literal o with (s, r, o) and o cmp v}
    (COUNT X)         -> |[[X]]|
    (ARGMIN X r)      -> members of [[X]] whose minimum r-value attains
                         the global minimum (ARGMAX symmetrically); all
                         ties returned, entities without an r-value skipped
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Optional, Union

from . import sexpr
from .errors import EvalError, EvalTypeError, SexprParseError, SparqlUnsupportedError, UnsupportedFormError
from .sexpr import (And, ArgMax, ArgMin, ClassRef, Compare, Count, EntityRef,
                    Join, LiteralRef, LogicalForm, Reverse)
from .store import LiteralValue, Object, TripleStore, parse_literal

Node = Object  # answer-set members: entity ids or literal values


@dataclass(frozen=True)
class AnswerSet:
    kind: str  # "entities" | "number"
    entities: frozenset = frozenset()
    number: int = 0

    @staticmethod
    def of_entities(members) -> "AnswerSet":
        return AnswerSet("entities", frozenset(members))

    @staticmethod
    def of_number(n: int) -> "AnswerSet":
        return AnswerSet("number", number=int(n))

    def is_empty(self) -> bool:
        return self.kind == "entities" and not self.entities

    def strings(self) -> list[str]:
        if self.kind == "number":
            return [str(self.number)]
        out = []
        for member in self.entities:
            out.append(member.text() if isinstance(member, LiteralValue) else member)
        return sorted(out)


# ---------------------------------------------------------------------------
# direct evaluation


def _cmp_values(a: LiteralValue, b: LiteralValue) -> Optional[int]:
    """-1/0/1 when comparable, None when the kinds are incomparable, or
    when one datetime has a UTC offset and the other has none."""
    if a.is_numeric() and b.is_numeric():
        x, y = float(a.value), float(b.value)
    elif (a.kind == "datetime" and b.kind == "datetime"
          and (a.value.utcoffset() is None) == (b.value.utcoffset() is None)):
        x, y = a.value, b.value
    else:
        return None
    return (x > y) - (x < y)


_CMP_ACCEPT = {"lt": (-1,), "le": (-1, 0), "gt": (1,), "ge": (1, 0)}


def _extremum(lf: Union[ArgMin, ArgMax],
              values: Iterable[LiteralValue]) -> Optional[LiteralValue]:
    """The first least (ARGMIN) or greatest (ARGMAX) of the values, None
    when there are none; EvalTypeError when two are incomparable."""
    best: Optional[LiteralValue] = None
    for value in values:
        if best is None:
            best = value
            continue
        sign = _cmp_values(value, best)
        if sign is None:
            raise EvalTypeError(f"mixed literal kinds under relation {lf.relation}")
        if (sign < 0) == isinstance(lf, ArgMin) and sign != 0:
            best = value
    return best


def _eval_set(lf: LogicalForm, store: TripleStore) -> frozenset:
    if isinstance(lf, EntityRef):
        return frozenset([lf.entity]) if store.has_entity(lf.entity) else frozenset()
    if isinstance(lf, LiteralRef):
        return frozenset([lf.value]) if store.has_node(lf.value) else frozenset()
    if isinstance(lf, ClassRef):
        return store.instances_of(lf.name)
    if isinstance(lf, And):
        return _eval_set(lf.left, store) & _eval_set(lf.right, store)
    if isinstance(lf, Join):
        members = _eval_set(lf.sub, store)
        result: set = set()
        if isinstance(lf.relation, Reverse):
            rel = lf.relation.relation
            for member in members:
                if isinstance(member, str):
                    result.update(store.out_edges(member).get(rel, ()))
        else:
            for member in members:
                result.update(store.in_edges(member).get(lf.relation, ()))
        return frozenset(result)
    if isinstance(lf, Compare):
        if not (lf.literal.is_numeric() or lf.literal.kind == "datetime"):
            raise EvalTypeError("comparison against a non-numeric literal")
        accept = _CMP_ACCEPT[lf.op]
        result = set()
        for subject, _, obj in store.relation_triples(lf.relation):
            if isinstance(obj, LiteralValue):
                sign = _cmp_values(obj, lf.literal)
                if sign is not None and sign in accept:
                    result.add(subject)
        return frozenset(result)
    if isinstance(lf, (ArgMin, ArgMax)):
        members = _eval_set(lf.sub, store)
        per_entity: dict[str, LiteralValue] = {}
        for member in members:
            if not isinstance(member, str):
                continue
            best = _extremum(lf, (
                obj for obj in store.out_edges(member).get(lf.relation, ())
                if isinstance(obj, LiteralValue)
                and (obj.is_numeric() or obj.kind == "datetime")))
            if best is not None:
                per_entity[member] = best
        if not per_entity:
            return frozenset()
        extremum = _extremum(lf, per_entity.values())
        return frozenset(
            e for e, v in per_entity.items() if _cmp_values(v, extremum) == 0)
    if isinstance(lf, Count):
        raise EvalTypeError("COUNT used where a set is required")
    raise EvalError(f"cannot evaluate node {lf!r}")


def evaluate(lf: LogicalForm, store: TripleStore) -> AnswerSet:
    if isinstance(lf, Count):
        return AnswerSet.of_number(len(_eval_set(lf.sub, store)))
    return AnswerSet.of_entities(_eval_set(lf, store))


def is_valid_prediction(lf: Union[str, LogicalForm], store: TripleStore) -> bool:
    """True iff the form parses, names only catalog schema items,
    executes without error, and denotes a non-empty set or any number."""
    if isinstance(lf, str):
        try:
            lf = sexpr.parse(lf)
        except SexprParseError:
            return False
    if sexpr.validate_schema(lf, store):
        return False
    try:
        answer = evaluate(lf, store)
    except EvalError:
        return False
    return not answer.is_empty()


# ---------------------------------------------------------------------------
# SPARQL compilation


@dataclass(frozen=True)
class SparqlQuery:
    text: str
    shape: str  # select-distinct | count-aggregate | superlative-subquery


def _sparql_literal(lit: LiteralValue) -> str:
    if lit.kind == "string" and lit.type_tag is None:
        return '"%s"' % str(lit.value).replace('"', '\\"')
    return f'"{lit.lexical()}"^^<{lit.type_tag or lit.kind}>'


_CMP_SYMBOL = {"lt": "<", "le": "<=", "gt": ">", "ge": ">="}


class _SparqlCompiler:
    def __init__(self, type_relation: str):
        self.type_relation = type_relation
        self.counter = 0
        self.has_superlative = False

    def fresh(self) -> str:
        var = f"?y{self.counter}"
        self.counter += 1
        return var

    def term(self, lf: LogicalForm) -> Optional[str]:
        if isinstance(lf, EntityRef):
            return f"<{lf.entity}>"
        if isinstance(lf, LiteralRef):
            return _sparql_literal(lf.value)
        return None

    def compile_set(self, lf: LogicalForm, var: str, lines: list[str],
                    in_superlative: bool = False) -> None:
        if isinstance(lf, EntityRef):
            lines.append(f"FILTER ({var} = <{lf.entity}>)")
        elif isinstance(lf, LiteralRef):
            lines.append(f"FILTER ({var} = {_sparql_literal(lf.value)})")
        elif isinstance(lf, ClassRef):
            lines.append(f"{var} <{self.type_relation}> <{lf.name}> .")
        elif isinstance(lf, And):
            self.compile_set(lf.left, var, lines, in_superlative)
            self.compile_set(lf.right, var, lines, in_superlative)
        elif isinstance(lf, Join):
            direct = self.term(lf.sub)
            if isinstance(lf.relation, Reverse):
                rel = lf.relation.relation
                if direct is not None:
                    lines.append(f"{direct} <{rel}> {var} .")
                else:
                    sub_var = self.fresh()
                    self.compile_set(lf.sub, sub_var, lines, in_superlative)
                    lines.append(f"{sub_var} <{rel}> {var} .")
            else:
                if direct is not None:
                    lines.append(f"{var} <{lf.relation}> {direct} .")
                else:
                    sub_var = self.fresh()
                    self.compile_set(lf.sub, sub_var, lines, in_superlative)
                    lines.append(f"{var} <{lf.relation}> {sub_var} .")
        elif isinstance(lf, Compare):
            value_var = self.fresh()
            lines.append(f"{var} <{lf.relation}> {value_var} .")
            lines.append(
                f"FILTER ({value_var} {_CMP_SYMBOL[lf.op]} {_sparql_literal(lf.literal)})")
        elif isinstance(lf, (ArgMin, ArgMax)):
            if in_superlative:
                raise UnsupportedFormError(
                    "superlative nested inside a superlative needs a two-level "
                    "subquery, outside the supported subset")
            self.has_superlative = True
            agg = "MIN" if isinstance(lf, ArgMin) else "MAX"
            self.compile_set(lf.sub, var, lines, in_superlative=True)
            value_var = self.fresh()
            lines.append(f"{var} <{lf.relation}> {value_var} .")
            inner_value = self.fresh()
            alias = self.fresh()
            inner_subject = self.fresh()
            inner_lines: list[str] = []
            self.compile_set(lf.sub, inner_subject, inner_lines, in_superlative=True)
            inner_lines.append(f"{inner_subject} <{lf.relation}> {inner_value} .")
            body = "\n".join(inner_lines)
            lines.append(
                "{ SELECT (%s(%s) AS %s) WHERE {\n%s\n} }" % (agg, inner_value, alias, body))
            lines.append(f"FILTER ({value_var} = {alias})")
        elif isinstance(lf, Count):
            raise UnsupportedFormError("COUNT is only supported at the root")
        else:
            raise UnsupportedFormError(f"cannot compile node {lf!r}")


def compile_sparql(lf: LogicalForm, type_relation: str = "type_rel") -> SparqlQuery:
    """Compile to the supported SPARQL subset. Class membership becomes a
    triple pattern on `type_relation` (must match the target store)."""
    compiler = _SparqlCompiler(type_relation)
    lines: list[str] = []
    if isinstance(lf, Count):
        inner = lf.sub
        if isinstance(inner, (EntityRef, LiteralRef)):
            term = compiler.term(inner)
            lines.append("VALUES ?x { %s }" % term)
        else:
            compiler.compile_set(inner, "?x", lines)
        body = "\n".join(lines)
        text = "SELECT (COUNT(DISTINCT ?x) AS ?count) WHERE {\n%s\n}" % body
        return SparqlQuery(text, "count-aggregate")
    if isinstance(lf, (EntityRef, LiteralRef)):
        term = compiler.term(lf)
        text = "SELECT DISTINCT ?x WHERE {\nVALUES ?x { %s }\n}" % term
        return SparqlQuery(text, "select-distinct")
    compiler.compile_set(lf, "?x", lines)
    body = "\n".join(lines)
    text = "SELECT DISTINCT ?x WHERE {\n%s\n}" % body
    shape = "superlative-subquery" if compiler.has_superlative else "select-distinct"
    return SparqlQuery(text, shape)


# ---------------------------------------------------------------------------
# subset SPARQL evaluation (naive joins over the store indexes)


_SPARQL_TOKEN = re.compile(
    r"""\s*(?:
        (?P<iri><[^<>\s]+>)
      | (?P<lit>"(?:[^"\\]|\\.)*"(?:\^\^<[^<>\s]+>)?)
      | (?P<var>\?[A-Za-z_][A-Za-z0-9_]*)
      | (?P<punct>[(){}.])
      | (?P<op><=|>=|!=|=|<|>)
      | (?P<word>[A-Za-z]+)
    )""",
    re.X,
)

_KEYWORDS = {"SELECT", "DISTINCT", "WHERE", "FILTER", "COUNT", "MIN", "MAX",
             "AS", "VALUES"}


def _sparql_lex(text: str) -> list[str]:
    tokens = []
    i = 0
    while i < len(text):
        if text[i].isspace():
            i += 1
            continue
        match = _SPARQL_TOKEN.match(text, i)
        if not match:
            raise SparqlUnsupportedError(f"cannot tokenize query near {text[i:i+20]!r}")
        tokens.append(match.group().strip())
        i = match.end()
    return tokens


def _parse_term(token: str):
    """('ent', id) | ('lit', LiteralValue) | ('var', name)"""
    if token.startswith("?"):
        return ("var", token)
    if token.startswith("<"):
        return ("ent", token[1:-1])
    if token.startswith('"'):
        if "^^" in token:
            payload, tag = token.rsplit("^^", 1)
            try:
                lit = parse_literal(f"{payload}^^{tag.strip('<>')}")
            except ValueError as exc:
                raise SparqlUnsupportedError(f"bad literal {token}") from exc
        else:
            lit = LiteralValue("string", token[1:-1].replace('\\"', '"'))
        return ("lit", lit)
    raise SparqlUnsupportedError(f"unsupported term {token!r}")


class _SparqlParser:
    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> Optional[str]:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self) -> str:
        tok = self.peek()
        if tok is None:
            raise SparqlUnsupportedError("unexpected end of query")
        self.i += 1
        return tok

    def expect(self, token: str) -> None:
        tok = self.next()
        if tok.upper() != token.upper():
            raise SparqlUnsupportedError(f"expected {token!r}, got {tok!r}")

    def parse_query(self) -> dict:
        self.expect("SELECT")
        header = self.parse_header()
        self.expect("WHERE")
        items = self.parse_block()
        return {"header": header, "items": items}

    def parse_header(self) -> dict:
        tok = self.peek()
        if tok is not None and tok.upper() == "DISTINCT":
            self.next()
            var = self.next()
            if not var.startswith("?"):
                raise SparqlUnsupportedError("expected a variable after DISTINCT")
            return {"kind": "distinct", "var": var}
        if tok == "(":
            self.next()
            func = self.next().upper()
            if func == "COUNT":
                self.expect("(")
                self.expect("DISTINCT")
                var = self.next()
                self.expect(")")
                self.expect("AS")
                alias = self.next()
                self.expect(")")
                return {"kind": "count", "var": var, "alias": alias}
            if func in ("MIN", "MAX"):
                self.expect("(")
                var = self.next()
                self.expect(")")
                self.expect("AS")
                alias = self.next()
                self.expect(")")
                return {"kind": func.lower(), "var": var, "alias": alias}
            raise SparqlUnsupportedError(f"unsupported aggregate {func!r}")
        raise SparqlUnsupportedError(f"unsupported SELECT header near {tok!r}")

    def parse_block(self) -> list:
        self.expect("{")
        items: list = []
        while True:
            tok = self.peek()
            if tok is None:
                raise SparqlUnsupportedError("unterminated block")
            if tok == "}":
                self.next()
                return items
            if tok.upper() == "FILTER":
                self.next()
                self.expect("(")
                left = _parse_term(self.next())
                op = self.next()
                if op not in ("<", "<=", ">", ">=", "="):
                    raise SparqlUnsupportedError(f"unsupported comparison {op!r}")
                right = _parse_term(self.next())
                self.expect(")")
                items.append(("filter", left, op, right))
            elif tok.upper() == "VALUES":
                self.next()
                var = self.next()
                self.expect("{")
                terms = []
                while self.peek() != "}":
                    terms.append(_parse_term(self.next()))
                self.expect("}")
                items.append(("values", var, terms))
            elif tok == "{":
                self.next()
                sub = self.parse_query()
                self.expect("}")
                if sub["header"]["kind"] not in ("min", "max"):
                    raise SparqlUnsupportedError(
                        "only MIN/MAX subqueries are supported")
                items.append(("subquery", sub))
            elif tok.upper() in _KEYWORDS:
                raise SparqlUnsupportedError(f"unsupported construct {tok!r}")
            elif tok.upper() in ("OPTIONAL", "UNION", "GRAPH", "BIND", "SERVICE"):
                raise SparqlUnsupportedError(f"unsupported construct {tok!r}")
            else:
                subject = _parse_term(self.next())
                rel = self.next()
                if not rel.startswith("<"):
                    raise SparqlUnsupportedError("predicate must be a concrete IRI")
                obj = _parse_term(self.next())
                self.expect(".")
                items.append(("pattern", subject, rel[1:-1], obj))
        raise AssertionError("unreachable")


def _resolve(term, row):
    kind, value = term
    if kind == "var":
        return row.get(value)
    if kind == "ent":
        return value
    return value  # LiteralValue


def _match_pattern(store: TripleStore, rows: list[dict], subject, relation, obj) -> list[dict]:
    out: list[dict] = []
    for row in rows:
        s_val = _resolve(subject, row)
        o_val = _resolve(obj, row)
        if s_val is not None and o_val is not None:
            if not isinstance(s_val, str):
                continue
            if o_val in store.out_edges(s_val).get(relation, ()):
                out.append(row)
        elif s_val is not None:
            if not isinstance(s_val, str):
                continue
            for candidate in sorted(set(store.out_edges(s_val).get(relation, ())),
                                    key=lambda x: repr(x)):
                new_row = dict(row)
                new_row[obj[1]] = candidate
                out.append(new_row)
        elif o_val is not None:
            for candidate in sorted(set(store.in_edges(o_val).get(relation, ()))):
                new_row = dict(row)
                new_row[subject[1]] = candidate
                out.append(new_row)
        else:
            for s_cand, _, o_cand in store.relation_triples(relation):
                new_row = dict(row)
                new_row[subject[1]] = s_cand
                if obj[1] in new_row and new_row[obj[1]] != o_cand:
                    continue
                new_row[obj[1]] = o_cand
                out.append(new_row)
    return out


def _filter_rows(rows: list[dict], left, op, right) -> list[dict]:
    out = []
    for row in rows:
        a = _resolve(left, row)
        b = _resolve(right, row)
        if a is None or b is None:
            continue
        if op == "=":
            keep = a == b
        else:
            if not (isinstance(a, LiteralValue) and isinstance(b, LiteralValue)):
                continue
            sign = _cmp_values(a, b)
            if sign is None:
                continue
            keep = {"<": sign < 0, "<=": sign <= 0,
                    ">": sign > 0, ">=": sign >= 0}[op]
        if keep:
            out.append(row)
    return out


def _exec_query(query: dict, store: TripleStore):
    rows: list[dict] = [{}]
    for item in query["items"]:
        if item[0] == "pattern":
            _, subject, relation, obj = item
            rows = _match_pattern(store, rows, subject, relation, obj)
        elif item[0] == "filter":
            _, left, op, right = item
            rows = _filter_rows(rows, left, op, right)
        elif item[0] == "values":
            _, var, terms = item
            new_rows = []
            for row in rows:
                for term in terms:
                    new_row = dict(row)
                    new_row[var] = term[1]
                    new_rows.append(new_row)
            rows = new_rows
        elif item[0] == "subquery":
            sub = item[1]
            header = sub["header"]
            values = _exec_query(sub, store)
            if not values:
                rows = []
                continue
            best = None
            for value in values:
                if not isinstance(value, LiteralValue):
                    continue
                if best is None:
                    best = value
                    continue
                sign = _cmp_values(value, best)
                if sign is None:
                    continue
                if (header["kind"] == "min" and sign < 0) or (
                        header["kind"] == "max" and sign > 0):
                    best = value
            if best is None:
                rows = []
                continue
            alias = header["alias"]
            rows = [dict(row, **{alias: best}) for row in rows]
        if not rows:
            break

    header = query["header"]
    if header["kind"] in ("distinct", "min", "max"):
        # First-seen order; a literal hashes on the identity its == uses.
        values = (row.get(header["var"]) for row in rows)
        return list(dict.fromkeys(v for v in values if v is not None))
    if header["kind"] == "count":
        var = header["var"]
        seen = set()
        for row in rows:
            value = row.get(var)
            if value is not None:
                seen.add(value)
        return len(seen)
    raise SparqlUnsupportedError(f"unsupported header {header!r}")


def evaluate_sparql_subset(query: Union[str, SparqlQuery], store: TripleStore) -> AnswerSet:
    text = query.text if isinstance(query, SparqlQuery) else query
    parser = _SparqlParser(_sparql_lex(text))
    parsed = parser.parse_query()
    if parser.peek() is not None:
        raise SparqlUnsupportedError(f"trailing tokens near {parser.peek()!r}")
    result = _exec_query(parsed, store)
    if isinstance(result, int):
        return AnswerSet.of_number(result)
    return AnswerSet.of_entities(result)
