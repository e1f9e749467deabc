"""Exact match, answer-set F1, sampled hits@1, and the dataset report
with per-bucket breakdowns by function type and relation count.

Conventions (documented, isolated here): EM is string equality of
canonical prints; F1 with both sets empty is (1, 1, 1) and with exactly
one empty is (0, 0, 0).
"""

from __future__ import annotations

import json
import random
from typing import Optional, Sequence, Union

from .errors import SexprParseError
from .executor import AnswerSet
from .pipeline import Prediction, QAExample
from .sexpr import (LogicalForm, function_class, parse, print_canonical,
                    relation_count)

FormLike = Union[str, LogicalForm, None]


def _canonical(form: FormLike) -> Optional[str]:
    if form is None:
        return None
    if isinstance(form, str):
        try:
            form = parse(form)
        except SexprParseError:
            return None
    return print_canonical(form)


def exact_match(pred_lf: FormLike, gold_lf: FormLike) -> bool:
    pred = _canonical(pred_lf)
    gold = _canonical(gold_lf)
    if pred is None or gold is None:
        return False
    return pred == gold


def _answer_strings(answers) -> frozenset[str]:
    if answers is None:
        return frozenset()
    if isinstance(answers, AnswerSet):
        return frozenset(answers.strings())
    return frozenset(answers)


def answer_f1(pred, gold) -> tuple[float, float, float]:
    pred_set = _answer_strings(pred)
    gold_set = _answer_strings(gold)
    if not pred_set and not gold_set:
        return (1.0, 1.0, 1.0)
    if not pred_set or not gold_set:
        return (0.0, 0.0, 0.0)
    common = len(pred_set & gold_set)
    precision = common / len(pred_set)
    recall = common / len(gold_set)
    if common == 0:
        return (0.0, 0.0, 0.0)
    return (precision, recall, 2 * precision * recall / (precision + recall))


def hits_at_1(pred, gold, trials: int = 100, rng_seed: int = 0) -> float:
    """Mean over trials of drawing one predicted answer uniformly and
    checking membership in the gold set; 0.0 for an empty prediction."""
    pred_list = sorted(_answer_strings(pred))
    gold_set = _answer_strings(gold)
    if not pred_list:
        return 0.0
    rng = random.Random(rng_seed)
    hits = sum(1 for _ in range(trials) if rng.choice(pred_list) in gold_set)
    return hits / trials


# ---------------------------------------------------------------------------
# dataset-level report


def _gold_buckets(example: QAExample) -> tuple[Optional[str], Optional[str]]:
    if not example.sexpr:
        return None, None
    try:
        form = parse(example.sexpr)
    except SexprParseError:
        return None, None
    return function_class(form).value, str(relation_count(form))


def evaluate_dataset(examples: Sequence[QAExample],
                     predictions: Sequence[Prediction],
                     hits_trials: int = 100, rng_seed: int = 0) -> dict:
    """Overall and per-bucket macro averages. EM averages over examples
    with a gold form, F1/hits over examples with gold answers."""
    by_qid = {p.qid: p for p in predictions}
    rows = []
    for example in examples:
        pred = by_qid.get(example.qid)
        em: Optional[bool] = None
        if example.sexpr:
            em = exact_match(pred.logical_form if pred else None, example.sexpr)
        f1: Optional[float] = None
        hits: Optional[float] = None
        if example.answers is not None:
            f1 = answer_f1(pred.answers if pred else None, example.answers)[2]
            hits = hits_at_1(pred.answers if pred else None, example.answers,
                             hits_trials, rng_seed)
        function_bucket, relation_bucket = _gold_buckets(example)
        rows.append((example, em, f1, hits, function_bucket, relation_bucket))

    def aggregate(selected) -> dict:
        ems = [em for _, em, _, _, _, _ in selected if em is not None]
        f1s = [f1 for _, _, f1, _, _, _ in selected if f1 is not None]
        hit_rates = [h for _, _, _, h, _, _ in selected if h is not None]
        return {
            "count": len(selected),
            "em": 100.0 * sum(ems) / len(ems) if ems else None,
            "f1": 100.0 * sum(f1s) / len(f1s) if f1s else None,
            "hits_at_1": 100.0 * sum(hit_rates) / len(hit_rates) if hit_rates else None,
        }

    report = {"overall": aggregate(rows), "by_function": {}, "by_relation_count": {}}
    for bucket in sorted({r[4] for r in rows if r[4] is not None}):
        report["by_function"][bucket] = aggregate([r for r in rows if r[4] == bucket])
    for bucket in sorted({r[5] for r in rows if r[5] is not None}):
        report["by_relation_count"][bucket] = aggregate(
            [r for r in rows if r[5] == bucket])
    return report


def render_report(report: dict) -> str:
    """Aligned-text rendering of evaluate_dataset output."""

    def fmt(value) -> str:
        return f"{value:6.1f}" if value is not None else "     -"

    lines = []
    header = f"{'bucket':<18} {'n':>5} {'EM':>6} {'F1':>6} {'hits@1':>6}"
    lines.append(header)
    lines.append("-" * len(header))

    def row(name: str, stats: dict) -> str:
        return (f"{name:<18} {stats['count']:>5} {fmt(stats['em'])} "
                f"{fmt(stats['f1'])} {fmt(stats['hits_at_1'])}")

    lines.append(row("overall", report["overall"]))
    for bucket, stats in report.get("by_function", {}).items():
        lines.append(row(f"function={bucket}", stats))
    for bucket, stats in report.get("by_relation_count", {}).items():
        lines.append(row(f"#relation={bucket}", stats))
    return "\n".join(lines)


def report_to_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True)
