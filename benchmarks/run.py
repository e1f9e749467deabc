"""KBQA benchmark: one closed-loop client thread drives the public API
(`StoreBuilder` loaders, `Pipeline`, `Pipeline.predict`) over seeded
inputs, checks every answer against an independent reference, and
prints one JSON result line.

    python3 benchmarks/run.py --workload generated --seed 1 --seconds 20 --trace 0

Workloads (see README.md): `elf-fallback`, `generated`, `hub`. With
`--trace 0` the result holds the end-to-end metrics; with `--trace 1`
untraced and traced rounds alternate and the result holds the
per-layer metrics and the tracing overhead. Generated KB files and a
full report go under `.kbqa_bench/` in the working directory.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Optional

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if not (SRC / "kbqa" / "__init__.py").is_file():
    # Only the checkout's own source is benchmarked, never an installed copy.
    print(f"benchmark: no engine source at {SRC}", file=sys.stderr)
    sys.exit(2)
sys.path[:0] = [str(HERE), str(SRC)]

import numpy  # noqa: E402

import kbgen  # noqa: E402
import kbqa  # noqa: E402
from instruments import CountingTextScorer, CountingTokenScorer, Tracer  # noqa: E402
from kbqa import (EnumConfig, LiteralValue, OracleScorer, Pipeline,  # noqa: E402
                  PipelineConfig, StartPoint, StoreBuilder, TripleStore,
                  encode_logical_form, enumerate_elfs, print_canonical)
from kbqa import beam as kbqa_beam  # noqa: E402
from kbqa import cli as kbqa_cli  # noqa: E402
from kbqa import pipeline as kbqa_pipeline  # noqa: E402
from kbqa.fixtures import synthetic_store  # noqa: E402
from kbqa.retrieve import build_lexical_scorer  # noqa: E402
from kbqa.scorers import ngram_scorer_from_forms  # noqa: E402
from reference import form_tokens  # noqa: E402

# setup_s is the median of the set-ups of a run, made in two batches:
# one before the timed phase and one after it, so that they sample the
# machine at two times. Each batch has
SETUP_MIN_REPEATS = 1      # at least this many set-ups,
SETUP_MIN_SECONDS = 3.0    # and takes at least this long,
SETUP_MAX_REPEATS = 60     # but has no more than this many
WARMUP_QUESTIONS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable[[int], kbgen.Inputs]
    scorer: str               # "ngram" (one trigram model) or "oracle" (one per question)
    oracle_eps: float = 0.0


WORKLOADS = {w.name: w for w in (
    Workload("elf-fallback", lambda seed: kbgen.elf_fallback_inputs(seed, 100_000, 160),
             "ngram"),
    Workload("generated", lambda seed: kbgen.generated_inputs(seed, 1_000, 720),
             "oracle", 0.1),
    Workload("hub", lambda seed: kbgen.hub_inputs(
        seed, 10_000, (5, 10, 15, 20, 25, 30, 35, 40, 45, 50, 60)), "oracle", 0.0),
)}


# ---------------------------------------------------------------------------
# set-up: files -> store -> pipeline, as `kbqa --kb <dir>` does


@dataclass
class Engine:
    pipe: Pipeline
    text: CountingTextScorer
    tokens: CountingTokenScorer
    phases: dict[str, float]     # seconds: load, init, scorer
    triples: int
    load_rss_growth: int         # bytes the peak RSS grew by while the store loaded


def build_store(kb: kbgen.KB) -> TripleStore:
    """A store of the generator's raw data, built in memory."""
    builder = StoreBuilder(kbgen.TYPE_REL)
    for s, r, o in kb.triples:
        builder.add_triple(s, r, o if isinstance(o, str)
                           else LiteralValue("float", float(o), "float"))
    for entity, label in kb.labels.items():
        builder.set_entity_label(entity, label)
    for alias, entity, popularity in kb.aliases:
        builder.add_alias(alias, entity, popularity)
    return builder.freeze()


def generator_matches_fixture(n_entities: int = 200, seed: int = 7) -> bool:
    """Whether `kbgen.synthetic_kb` still makes the store that
    `kbqa.fixtures.synthetic_store` makes, which the README's reference
    figures rely on."""
    ours = build_store(kbgen.synthetic_kb(n_entities, seed))
    fixture = synthetic_store(n_entities, seed)
    return all(list(dump(ours)) == list(dump(fixture)) for dump in (
        TripleStore.dump_triples_tsv, TripleStore.dump_labels_tsv,
        TripleStore.dump_aliases_tsv))


def ngram_corpus(store) -> list[str]:
    """The criterion-9 training corpus: enumerated forms around the
    first ten entities, 40 per entity, 200 in all."""
    corpus = []
    for entity in sorted(store.all_entities())[:10]:
        corpus.extend(print_canonical(f) for f in enumerate_elfs(
            [StartPoint.entity(entity)], store, EnumConfig(max_candidates=40)))
    return corpus[:200]


def set_up(workload: Workload, kb_dir: Path) -> Engine:
    clock = time.perf_counter
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    t0 = clock()
    store = kbqa_cli.load_store(SimpleNamespace(kb=str(kb_dir), type_relation=kbgen.TYPE_REL))
    t1 = clock()
    rss_growth = 1024 * (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss)
    text = CountingTextScorer(build_lexical_scorer(store))
    tokens = CountingTokenScorer()
    pipe = Pipeline(store, PipelineConfig(), text_scorer=text, token_scorer=tokens)
    t2 = clock()
    if workload.scorer == "ngram":
        tokens.inner = ngram_scorer_from_forms(ngram_corpus(store), pipe.vocab)
    t3 = clock()
    return Engine(pipe, text, tokens,
                  {"load": t1 - t0, "init": t2 - t1, "scorer": t3 - t2}, len(store),
                  rss_growth)


def set_up_batch(workload: Workload, kb_dir: Path) -> tuple[Engine, list[dict], int]:
    """One batch of set-ups; returns the last engine, the phases of each
    set-up, and the peak-RSS growth of the batch's first store load."""
    phases: list[dict] = []
    engine = rss_growth = None
    while len(phases) < SETUP_MAX_REPEATS and (
            len(phases) < SETUP_MIN_REPEATS
            or sum(sum(p.values()) for p in phases) < SETUP_MIN_SECONDS):
        engine = None  # free the last store before loading the next
        gc.collect()
        engine = set_up(workload, kb_dir)
        phases.append(engine.phases)
        if rss_growth is None:
            rss_growth = engine.load_rss_growth
    return engine, phases, rss_growth


def oracles(workload: Workload, engine: Engine, questions) -> list:
    if workload.scorer != "oracle":
        return [engine.tokens.inner] * len(questions)
    vocab = engine.pipe.vocab
    return [OracleScorer(tuple(encode_logical_form(vocab, q.gold)) + (vocab.end_id,),
                         vocab.size, eps=workload.oracle_eps, rng_seed=q.oracle_seed)
            for q in questions]


# ---------------------------------------------------------------------------
# answer checks against the reference evaluator and the generator's edges


class Checker:
    def __init__(self, inputs: kbgen.Inputs):
        self.graph = inputs.graph
        self._memo: dict[tuple, Optional[str]] = {}

    def problem(self, question: kbgen.Question, pred) -> Optional[str]:
        """None when the prediction passes, else why it fails."""
        if isinstance(pred, Exception):
            return f"predict raised {type(pred).__name__}: {pred}"
        if pred.provenance == "none":
            return "no answer"
        if pred.stage_errors:
            return f"stage errors {pred.stage_errors}"
        key = (question.qid, pred.logical_form, pred.answers)
        if key not in self._memo:
            self._memo[key] = self._check_answer(question, pred)
        return self._memo[key]

    def _check_answer(self, question, pred) -> Optional[str]:
        answers = tuple(pred.answers)
        if question.expected is not None:
            if answers != question.expected:
                return f"answers differ from the expected {len(question.expected)}"
            return None
        form = pred.logical_form
        if question.entity not in form_tokens(form):
            return f"form {form} does not name {question.entity}"
        try:
            reference = self.graph.answer_strings(form)
        except ValueError as exc:
            return f"form {form} is outside the reference fragment: {exc}"
        if not reference:
            return f"form {form} is empty in the reference"
        if answers != reference:
            return f"answers of {form} differ from the reference"
        return None


# ---------------------------------------------------------------------------
# the timed phase


def install_tracing(tracer: Tracer, engine: Engine) -> None:
    def count(name: str, value: Callable) -> Callable:
        def on_result(t: Tracer, result) -> None:
            t.counts[name] += value(result)
        return on_result

    p = kbqa_pipeline
    tracer.wrap(p, "link_question", "retrieve.link")
    tracer.wrap(p, "enumerate_elfs", "enumerator.enumerate", count("forms", len))
    tracer.wrap(p, "rank_elfs", "retrieve.rank")
    tracer.wrap(p, "retrieve_schema", "retrieve.schema")
    tracer.wrap(p, "assemble_context", "pipeline.assemble")
    tracer.wrap(p, "beam_search", "beam.decode", count("finished", len))
    tracer.wrap(p, "is_valid_prediction", "executor.validate", count("accepted", bool))
    tracer.wrap(p, "evaluate", "executor.evaluate")
    tracer.wrap(kbqa_beam, "allowed_next", "grammar.mask")
    tracer.wrap(kbqa_beam, "advance", "grammar.mask")
    tracer.wrap(engine.tokens, "next_log_probs", "scorers.row")


@dataclass
class Phase:
    latencies: list[float]
    elapsed: float
    questions: int


def run_round(engine: Engine, questions, scorers, outputs: list,
              latencies: list, tracer: Optional[Tracer] = None,
              costs: Optional[list] = None) -> None:
    """One pass over the questions; `costs`, when given, receives each
    question's latency and scorer counts."""
    clock = time.perf_counter
    rows, pairs = engine.tokens.rows, engine.text.pairs
    for question, scorer in zip(questions, scorers):
        engine.tokens.inner = scorer
        t0 = clock()
        try:
            if tracer is None:
                pred = engine.pipe.predict(question.text, question.qid)
            else:
                with tracer.top_span("predict"):
                    pred = engine.pipe.predict(question.text, question.qid)
        except Exception as exc:  # counted as a failed question
            pred = exc
        latencies.append(clock() - t0)
        outputs.append((question, pred))
        if costs is not None:
            costs.append({"qid": question.qid, "ms": 1000.0 * latencies[-1],
                          "rows": engine.tokens.rows - rows,
                          "pairs": engine.text.pairs - pairs,
                          "provenance": getattr(pred, "provenance", None)})
            rows, pairs = engine.tokens.rows, engine.text.pairs


def measure(engine: Engine, questions, scorers, seconds: float,
            tracer: Optional[Tracer]) -> tuple[Phase, Optional[Phase], list, list]:
    """Whole rounds of the question list, at least one, for about
    `seconds`. With a tracer, untraced and traced rounds alternate and
    each side is timed on its own. Also returns the per-question costs
    of the first round."""
    outputs: list = []
    costs: list = []
    plain = Phase([], 0.0, 0)
    traced = Phase([], 0.0, 0) if tracer is not None else None
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        run_round(engine, questions, scorers, outputs, plain.latencies,
                  costs=costs if not plain.questions else None)
        plain.elapsed += time.perf_counter() - t0
        plain.questions += len(questions)
        if traced is not None:
            t0 = time.perf_counter()
            with tracer.installed():
                run_round(engine, questions, scorers, outputs, traced.latencies, tracer)
            traced.elapsed += time.perf_counter() - t0
            traced.questions += len(questions)
        elapsed = time.perf_counter() - start
        rounds = plain.questions // len(questions)
        if elapsed + elapsed / rounds / 2 >= seconds:
            # stop at the round boundary nearest to `seconds`
            return plain, traced, outputs, costs


# ---------------------------------------------------------------------------
# metrics


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(phase: Phase, per_round: int, engine: Engine, peak_rss_kb: int) -> dict:
    """The end-to-end metrics but `setup_s`. Latency percentiles are
    taken over the questions of a round, each at its median over the
    rounds, so that a question asked many times counts once."""
    ms = [1000.0 * statistics.median(phase.latencies[i::per_round]) for i in range(per_round)]
    quartiles = statistics.quantiles(ms, n=4, method="inclusive")
    n = phase.questions
    return {
        "questions_per_s": metric(n / phase.elapsed, "1/s"),
        "predict_p50_ms": metric(quartiles[1], "ms"),
        "predict_p75_ms": metric(quartiles[2], "ms"),
        "peak_rss_mb": metric(peak_rss_kb / 1024, "MB"),
        "token_rows_per_q": metric(engine.tokens.rows / n, "count"),
        "text_pairs_per_q": metric(engine.text.pairs / n, "count"),
    }


def setup_metrics(setups: list[dict], trace: bool, triples: int, rss_growth: int) -> dict:
    """`setup_s`, or with `trace` the store and pipeline set-up metrics."""
    if not trace:
        return {"setup_s": metric(statistics.median(sum(s.values()) for s in setups), "s")}
    load = statistics.median(s["load"] for s in setups)
    return {
        "store.load_s": metric(load, "s"),
        "store.triples_per_s": metric(triples / load, "1/s"),
        "store.bytes_per_triple": metric(rss_growth / triples, "B"),
        "pipeline.init_s": metric(statistics.median(s["init"] for s in setups), "s"),
    }


def per_layer(plain: Phase, traced: Phase, tracer: Tracer, outputs: list) -> dict:
    """The per-layer metrics of the timed phase."""
    total, own, calls = tracer.totals()
    n = traced.questions
    ms_per_q = lambda name: 1000.0 * total.get(name, 0.0) / n  # noqa: E731
    checks = calls.get("executor.validate", 0)
    generated = sum(1 for _, pred in outputs
                    if not isinstance(pred, Exception) and pred.provenance == "generated")
    return {
        "pipeline.assemble_ms": metric(ms_per_q("pipeline.assemble"), "ms"),
        "enumerator.enumerate_ms": metric(ms_per_q("enumerator.enumerate"), "ms"),
        "enumerator.forms_per_q": metric(tracer.counts["forms"] / n, "count"),
        "retrieve.link_ms": metric(ms_per_q("retrieve.link"), "ms"),
        "retrieve.rank_ms": metric(ms_per_q("retrieve.rank"), "ms"),
        "retrieve.schema_ms": metric(ms_per_q("retrieve.schema"), "ms"),
        "beam.decode_ms": metric(ms_per_q("beam.decode"), "ms"),
        "beam.select_ms": metric(1000.0 * own.get("beam.decode", 0.0) / n, "ms"),
        "beam.finished_per_q": metric(tracer.counts["finished"] / n, "count"),
        "beam.answered_ratio": metric(generated / len(outputs), "ratio"),
        "scorers.row_ms": metric(1000.0 * total.get("scorers.row", 0.0)
                                 / max(1, calls.get("scorers.row", 0)), "ms"),
        "grammar.mask_ms": metric(ms_per_q("grammar.mask"), "ms"),
        "executor.validate_ms": metric(
            1000.0 * (total.get("executor.validate", 0.0)
                      + total.get("executor.evaluate", 0.0)) / n, "ms"),
        "executor.checks_per_q": metric(checks / n, "count"),
        "executor.accept_ratio": metric(tracer.counts["accepted"] / max(1, checks), "ratio"),
        "trace.overhead_pct": metric(
            100.0 * ((plain.questions / plain.elapsed)
                     / (traced.questions / traced.elapsed) - 1.0), "%"),
    }


# ---------------------------------------------------------------------------


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    work = Path(".kbqa_bench")
    kb_dir = work / "kb" / f"{workload.name}-{args.seed}"
    matches_fixture = generator_matches_fixture()
    if not matches_fixture:
        print("benchmark: kbgen.synthetic_kb no longer makes the store of "
              "kbqa.fixtures.synthetic_store; the README's reference figures "
              "no longer describe the workloads' stores", file=sys.stderr)
    inputs = workload.make_inputs(args.seed)
    inputs.kb.write(kb_dir)
    questions = inputs.questions
    try:
        engine, setups, rss_growth = set_up_batch(workload, kb_dir)
        triples = engine.triples
        scorers = oracles(workload, engine, questions)
        run_round(engine, questions[:WARMUP_QUESTIONS], scorers, [], [])
        engine.tokens.rows = engine.text.pairs = 0

        tracer = None
        if args.trace:
            tracer = Tracer()
            install_tracing(tracer, engine)
        plain, traced, outputs, costs = measure(engine, questions, scorers, args.seconds,
                                                tracer)
        if args.trace:
            metrics = per_layer(plain, traced, tracer, outputs)
        else:
            metrics = end_to_end(plain, len(questions), engine,
                                 resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        engine = scorers = None
        setups += set_up_batch(workload, kb_dir)[1]
    finally:
        shutil.rmtree(kb_dir, ignore_errors=True)
    metrics = {**setup_metrics(setups, args.trace, triples, rss_growth), **metrics}

    checker = Checker(inputs)
    problems = [(q.qid, why) for q, pred in outputs
                if (why := checker.problem(q, pred)) is not None]
    result = {"correct": not problems, "attempted": len(outputs),
              "failed": len(problems), "metrics": metrics}

    report = dict(result, workload=workload.name, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, rounds=len(outputs) // len(questions),
                  questions_per_round=len(questions), setups=setups,
                  problems=problems[:20], first_round=costs,
                  generator_matches_fixture=matches_fixture,
                  python=platform.python_version(), numpy=numpy.__version__,
                  kbqa=kbqa.__version__, machine=platform.machine())
    results = work / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        total, own, calls = tracer.totals()
        report["spans"] = {name: {"calls": calls[name], "total_s": total[name],
                                  "self_s": own[name]} for name in total}
    (results / f"{stem}.json").write_text(json.dumps(report, indent=1), encoding="utf-8")
    for qid, why in problems[:5]:
        print(f"FAILED {qid}: {why}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
