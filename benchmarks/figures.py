"""Reference figures behind ROADMAP's baseline, measured through the
public API:

* `predict` medians per stage at 1k, 10k and 100k entities, on the
  criterion-9 workload (20 questions on `synthetic_store(n, seed=7)`,
  a trigram scorer, beam size 10), with store build and `Pipeline`
  set-up times and the answer provenance;
* enumeration time from a hub as its in-degree along one relation
  grows, on a 10k-entity store (sources are random base entities);
* the SPARQL subset evaluator against direct evaluation, on a query of
  two triple patterns with n answers.

    python3 benchmarks/figures.py

Prints Markdown tables and writes `.kbqa_bench/results/figures.json`.
Single runs on a shared machine: expect ten to twenty per cent of
drift between invocations.
"""

from __future__ import annotations

import collections
import json
import random
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import kbgen  # noqa: E402
from kbqa import (Pipeline, PipelineConfig, StartPoint, StoreBuilder,  # noqa: E402
                  compile_sparql, enumerate_elfs, evaluate, evaluate_sparql_subset,
                  parse)
from kbqa.fixtures import synthetic_store  # noqa: E402
from kbqa.scorers import ngram_scorer_from_forms  # noqa: E402
from run import build_store, ngram_corpus  # noqa: E402

STAGES = ("total", "link", "enumerate", "retrieve", "assemble", "decode", "validate")
SCALES = (1000, 10_000, 100_000)    # entities of the stores per-stage medians are taken on
HUB_DEGREES = (20, 40, 60, 100)     # in-degrees of the hubs enumerated from
SUBSET_ANSWERS = (2000, 8000)       # answers of the subset evaluator's query


def stage_medians(n_entities: int) -> dict:
    t0 = time.perf_counter()
    store = synthetic_store(n_entities, seed=7)
    t1 = time.perf_counter()
    pipe = Pipeline(store, PipelineConfig())
    t2 = time.perf_counter()
    entities = sorted(store.all_entities())
    pipe.token_scorer = ngram_scorer_from_forms(ngram_corpus(store), pipe.vocab)
    timings = collections.defaultdict(list)
    provenance = collections.Counter()
    for i, entity in enumerate(entities[:20]):
        question = f"which {store.entity_label(entity)} connects to something with a value"
        pred = pipe.predict(question, f"perf{i}")
        provenance[pred.provenance] += 1
        for stage in STAGES:
            timings[stage].append(1000.0 * pred.timing[stage])
    return {"entities": n_entities, "triples": len(store),
            "build_s": t1 - t0, "pipeline_s": t2 - t1,
            "median_ms": {s: statistics.median(v) for s, v in timings.items()},
            "provenance": dict(provenance)}


def hub_sweep(degrees: tuple[int, ...], n_entities: int = 10_000) -> dict:
    kb = kbgen.synthetic_kb(n_entities, seed=7)
    rng = random.Random(1)
    for degree in degrees:
        kb.triples.extend((source, kb.relations[0], f"m.hub{degree}")
                          for source in rng.sample(kb.entities, degree))
    store = build_store(kb)
    seconds = {}
    for degree in degrees:
        t0 = time.perf_counter()
        forms = enumerate_elfs([StartPoint.entity(f"m.hub{degree}")], store)
        seconds[degree] = (time.perf_counter() - t0, len(forms))
    return seconds


def subset_evaluator(answers: tuple[int, ...]) -> dict:
    results = {}
    for n in answers:
        builder = StoreBuilder()
        for i in range(n):
            builder.add_triple(f"e{i}", "type_rel", "ns.thing")
            builder.add_triple(f"e{i}", "ns.thing.link", "target")
        store = builder.freeze()
        form = parse("(AND ns.thing (JOIN ns.thing.link target))")
        query = compile_sparql(form)
        t0 = time.perf_counter()
        subset = evaluate_sparql_subset(query, store)
        t1 = time.perf_counter()
        direct = evaluate(form, store)
        t2 = time.perf_counter()
        assert subset.strings() == direct.strings() and len(direct.entities) == n
        results[n] = (1000.0 * (t1 - t0), 1000.0 * (t2 - t1))
    return results


def main() -> int:
    report = {}

    print("| entities | total | link | enumerate | retrieve | assemble | decode "
          "| validate | build (s) | Pipeline (s) | provenance |")
    print("|---|---|---|---|---|---|---|---|---|---|---|")
    report["stages"] = []
    for n in SCALES:
        row = stage_medians(n)
        report["stages"].append(row)
        med = row["median_ms"]
        print(f"| {n} | " + " | ".join(f"{med[s]:.1f}" for s in STAGES)
              + f" | {row['build_s']:.2f} | {row['pipeline_s']:.2f} | {row['provenance']} |")

    sweep = hub_sweep(HUB_DEGREES)
    report["hub_sweep"] = {d: {"seconds": s, "forms": f} for d, (s, f) in sweep.items()}
    print("\n| hub in-degree | " + " | ".join(str(d) for d in sweep) + " |")
    print("|---|" + "---|" * len(sweep))
    print("| enumerate (ms) | " + " | ".join(f"{1000 * s:.0f}" for s, _ in sweep.values()) + " |")
    print("| forms | " + " | ".join(str(f) for _, f in sweep.values()) + " |")

    subset = subset_evaluator(SUBSET_ANSWERS)
    report["subset_evaluator_ms"] = subset
    print("\n| answers | subset evaluator (ms) | direct evaluation (ms) |")
    print("|---|---|---|")
    for n, (sub, direct) in subset.items():
        print(f"| {n} | {sub:.1f} | {direct:.1f} |")

    out = Path(".kbqa_bench/results")
    out.mkdir(parents=True, exist_ok=True)
    (out / "figures.json").write_text(json.dumps(report, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
