"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with -s to see them alongside pytest's own report).

The desk suite is twenty questions over the toy store and the three
case-fixture stores, each with a scripted generation target, covering
all three provenance outcomes.
"""

import functools
import math
import random
import statistics
import time
from dataclasses import dataclass, replace

from kbqa.beam import beam_search
from kbqa.enumerator import EnumConfig, StartPoint, enumerate_elfs
from kbqa.executor import compile_sparql, evaluate, evaluate_sparql_subset, is_valid_prediction
from kbqa.fixtures import synthetic_store, toy_store
from kbqa.grammar import DecodeContext, DecodeTables, render_tokens
from kbqa.metrics import answer_f1, evaluate_dataset, exact_match, hits_at_1
from kbqa.pipeline import Pipeline, PipelineConfig, QAExample
from kbqa.retrieve import ranker_loss
from kbqa.scorers import OracleScorer, ngram_scorer_from_forms
from kbqa.sexpr import canonicalize, parse, print_canonical, validate_schema
from kbqa.store import LiteralValue
from kbqa.vocab import build_vocabulary, encode_logical_form

from randgen import (RandomTokenScorer, StorePools, random_exec_ast, random_store,
                     random_syntax_ast)
from references import all_cases, completeness_oracle


def criterion(number, description):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n[ACCEPTANCE {number}] FAIL  {description}")
                raise
            print(f"\n[ACCEPTANCE {number}] PASS  {description}")
        return run
    return wrap


# ---------------------------------------------------------------------------
# the desk suite

TOY = toy_store()
CASES = all_cases()


@dataclass(frozen=True)
class DeskItem:
    qid: str
    store: object
    question: str
    target: str                    # what the generation scorer is biased toward
    fallbacks: tuple = ()
    eps: float = 0.0
    gold_form: str = None          # the right answer for metrics
    gold_answers: tuple = ()
    expect_provenance: str = "generated"
    expect_form: str = None        # canonical print expected from predict()
    expect_answers: tuple = None
    extra_words: tuple = ()


def _canon(text):
    return print_canonical(canonicalize(parse(text)))


def desk_suite():
    items = []

    def toy_gold(qid, question, form, answers):
        items.append(DeskItem(qid, TOY, question, form,
                              gold_form=form, gold_answers=answers,
                              expect_provenance="generated",
                              expect_form=_canon(form), expect_answers=answers))

    toy_gold("g01", "name the system that has decimetre as a measurement unit",
             "(AND ms.system (JOIN ms.length_units e1))", ("sys1",))
    toy_gold("g02", "which engine uses lox as its oxidizer",
             "(AND sf.engine (JOIN sf.oxidizer ox1))", ("eng1",))
    toy_gold("g03", "which engine has the smallest chamber pressure",
             "(ARGMIN sf.engine sf.chamber_pressure)", ("eng1",))
    toy_gold("g04", "how many engines are there",
             "(COUNT sf.engine)", ("2",))
    toy_gold("g05", "which engine has a chamber pressure under 257.0",
             "(AND sf.engine (lt sf.chamber_pressure 257.0^^float))", ("eng1",))
    toy_gold("g06", "what does engine a use as oxidizer",
             "(JOIN (R sf.oxidizer) eng1)", ("ox1",))
    toy_gold("g07", "which system has decimetre for length units",
             "(JOIN ms.length_units e1)", ("sys1",))
    toy_gold("g08", "which engine runs a chamber pressure of exactly 100.0",
             "(JOIN sf.chamber_pressure 100.0^^float)", ("eng1",))
    toy_gold("g09", "what are the length units of the metric system",
             "(JOIN (R ms.length_units) sys1)", ("e1",))
    toy_gold("g10", "which engine has a chamber pressure above 200.0",
             "(AND sf.engine (gt sf.chamber_pressure 200.0^^float))", ("eng2",))
    toy_gold("g11", "how many engines use lox",
             "(COUNT (JOIN sf.oxidizer ox1))", ("1",))
    toy_gold("g12", "which engine has a chamber pressure of at least 300.0",
             "(AND sf.engine (ge sf.chamber_pressure 300.0^^float))", ("eng2",))

    for i, case in enumerate(CASES, start=13):
        items.append(DeskItem(
            f"c{i}", case.store, case.question, case.error_variant,
            fallbacks=(case.correct,), eps=0.1,
            gold_form=case.correct, gold_answers=case.answers,
            expect_provenance="generated", expect_form=_canon(case.correct),
            expect_answers=case.answers, extra_words=case.extra_words))

    # valid-but-empty generation targets: the ranked exemplary forms take over
    items.append(DeskItem(
        "f16", TOY, "name the system that has decimetre as a measurement unit",
        "(JOIN sf.oxidizer e1)",
        gold_form="(AND ms.system (JOIN ms.length_units e1))",
        gold_answers=("sys1",),
        expect_provenance="elf-fallback",
        expect_form="(AND (JOIN ms.length_units e1) ms.system)",
        expect_answers=("sys1",)))
    items.append(DeskItem(
        "f17", TOY, "which engine uses lox as its oxidizer",
        "(JOIN ms.length_units ox1)",
        gold_form="(AND sf.engine (JOIN sf.oxidizer ox1))",
        gold_answers=("eng1",),
        expect_provenance="elf-fallback",
        expect_form="(AND (JOIN sf.oxidizer ox1) sf.engine)",
        expect_answers=("eng1",)))
    case2 = CASES[1]
    items.append(DeskItem(
        "f18", case2.store, case2.question, case2.error_variant,
        gold_form=case2.correct, gold_answers=case2.answers,
        expect_provenance="elf-fallback",
        expect_form="(JOIN (R spaceflight.bipropellant_rocket_engine."
                    "chamber_pressure) (JOIN spaceflight."
                    "bipropellant_rocket_engine.oxidizer m.01tm_5))",
        expect_answers=("100.0^^float",)))

    # no entities, no numbers: nothing links, nothing enumerates
    items.append(DeskItem(
        "n19", TOY, "who wrote the iliad", "(JOIN sf.oxidizer e1)",
        gold_form=None, gold_answers=("zz_unanswerable",),
        expect_provenance="none", expect_form=None, expect_answers=None))
    items.append(DeskItem(
        "n20", TOY, "list all planets in the belt", "(JOIN ms.length_units e1)",
        gold_form=None, gold_answers=("zz_unanswerable",),
        expect_provenance="none", expect_form=None, expect_answers=None))
    return items


_PIPELINES = {}


def pipeline_for(item, constrained=True):
    key = (id(item.store), constrained)
    if key not in _PIPELINES:
        extra = [i.question for i in desk_suite() if i.store is item.store]
        extra.extend(" ".join(i.extra_words) for i in desk_suite()
                     if i.store is item.store and i.extra_words)
        cfg = PipelineConfig(constrained=constrained)
        _PIPELINES[key] = Pipeline(item.store, cfg, extra_vocab_texts=extra)
    return _PIPELINES[key]


def scripted_scorer(pipe, item, eps=None, rng_seed=None):
    vocab = pipe.vocab
    target = tuple(encode_logical_form(vocab, item.target)) + (vocab.end_id,)
    fallbacks = [tuple(encode_logical_form(vocab, f)) + (vocab.end_id,)
                 for f in item.fallbacks]
    return OracleScorer(target, vocab.size, eps=item.eps if eps is None else eps,
                        fallback_targets=fallbacks, rng_seed=rng_seed)


def run_item(item, constrained=True, eps=None, rng_seed=None):
    pipe = pipeline_for(item, constrained)
    pipe.token_scorer = scripted_scorer(pipe, item, eps, rng_seed)
    return pipe.predict(item.question, item.qid)


# ---------------------------------------------------------------------------
# criteria


@criterion(1, "constrained-validity guarantee and constrained >= unconstrained F1")
def test_criterion_1_constrained_validity_and_direction():
    t_start = time.perf_counter()

    # (a) 1,000 beam runs with randomized scorers: every finished
    # hypothesis parses and passes schema validation
    rng = random.Random(20240303)
    stores = [TOY] + [random_store(rng, max_entities=20) for _ in range(50)]
    prepared = []
    for store in stores:
        vocab = build_vocabulary(store)
        tables = DecodeTables(vocab, store.classes(), store.relations())
        entities = sorted(store.all_entities())
        prepared.append((store, vocab, tables, entities))
    finished_total = 0
    for run in range(1000):
        store, vocab, tables, entities = prepared[run % len(prepared)]
        linked = entities[:1 + (run % 3)]
        ctx = DecodeContext(tables, linked)
        hyps = beam_search(RandomTokenScorer(vocab.size, seed=run), (), ctx,
                           constrained=True, beam_size=4, max_len=48)
        for hyp in hyps:
            text = render_tokens(hyp.tokens, ctx)
            assert text is not None, f"run {run}: unrenderable hypothesis"
            form = parse(text)
            assert validate_schema(form, store) == [], f"run {run}: {text}"
            finished_total += 1
    assert finished_total >= 500, f"only {finished_total} finished hypotheses"

    # (b) constraints off + bias toward an out-of-catalog name emits the
    # invalid form verbatim (as tokens); it never validates
    case = CASES[2]
    extra = [case.question, " ".join(case.extra_words)]
    vocab = build_vocabulary(case.store, extra)
    ctx = DecodeContext(DecodeTables(vocab, case.store.classes(), case.store.relations()))
    error_target = tuple(encode_logical_form(vocab, case.error_variant)) + (vocab.end_id,)
    hyps = beam_search(OracleScorer(error_target, vocab.size, eps=0.0), (), ctx,
                       constrained=False, beam_size=4, max_len=64)
    assert hyps and hyps[0].tokens == error_target
    rendered = render_tokens(hyps[0].tokens, ctx)
    assert rendered is None  # the out-of-catalog name has no grammar path
    invalid_count = sum(
        1 for hyp in hyps
        if (render_tokens(hyp.tokens, ctx) is None
            or not is_valid_prediction(render_tokens(hyp.tokens, ctx), case.store)))
    assert invalid_count >= 1

    # (c) noisy-oracle direction: 20-seed average F1, constrained beats
    # or ties unconstrained at both noise levels
    items = desk_suite()
    for eps in (0.1, 0.3):
        means = {}
        for constrained in (True, False):
            per_seed = []
            for seed in range(20):
                f1s = []
                for item in items:
                    prediction = run_item(item, constrained, eps=eps, rng_seed=seed)
                    f1s.append(answer_f1(prediction.answers, item.gold_answers)[2])
                per_seed.append(statistics.mean(f1s))
            means[constrained] = statistics.mean(per_seed)
        assert means[True] >= means[False], (
            f"eps={eps}: constrained {means[True]:.4f} < "
            f"unconstrained {means[False]:.4f}")
        print(f"  eps={eps}: constrained F1 {means[True]:.4f} vs "
              f"unconstrained {means[False]:.4f}")

    elapsed = time.perf_counter() - t_start
    assert elapsed < 120, f"criterion 1 took {elapsed:.1f}s"


@criterion(2, "differential compiler correctness on enumerator outputs and 5,000 random forms")
def test_criterion_2_differential_compiler():
    t_start = time.perf_counter()
    rng = random.Random(777)
    stores = [TOY] + [random_store(rng, max_entities=30) for _ in range(50)]

    def check(lf, store):
        direct = evaluate(lf, store)
        query = compile_sparql(lf, type_relation=store.type_relation)
        assert evaluate_sparql_subset(query, store) == direct, \
            f"divergence on {print_canonical(lf)}"

    checked_elfs = 0
    for store in stores:
        entities = sorted(store.all_entities())
        starts = [StartPoint.entity(e) for e in entities[:2]]
        for lf in enumerate_elfs(starts, store, EnumConfig(max_candidates=400)):
            check(lf, store)
            checked_elfs += 1

    per_store = 100
    for store in stores[1:]:  # the 50 random ones
        pools = StorePools(store)
        for _ in range(per_store):
            check(random_exec_ast(rng, store, pools), store)
    assert checked_elfs > 100
    elapsed = time.perf_counter() - t_start
    assert elapsed < 120, f"criterion 2 took {elapsed:.1f}s"
    print(f"  {checked_elfs} enumerated forms + {50 * per_store} random forms checked "
          f"in {elapsed:.1f}s")


@criterion(3, "enumeration completeness equals the brute-force oracle")
def test_criterion_3_enumeration_completeness():
    rng = random.Random(31337)
    stores = [TOY] + [random_store(rng, max_entities=16) for _ in range(50)]
    for store in stores:
        entities = sorted(store.all_entities())
        starts = [StartPoint.entity(e) for e in entities[:3]]
        literals = sorted(
            {t.object for t in store.triples() if isinstance(t.object, LiteralValue)},
            key=lambda lit: lit.text())
        if literals:
            starts.append(StartPoint.literal(literals[0]))
        cfg = EnumConfig(max_candidates=10 ** 9)
        fast = {print_canonical(f) for f in enumerate_elfs(starts, store, cfg)}
        brute = {print_canonical(f) for f in completeness_oracle(starts, store, cfg)}
        assert fast == brute, (
            f"enumerator mismatch: only-fast={sorted(fast - brute)[:3]} "
            f"only-brute={sorted(brute - fast)[:3]}")


@criterion(4, "fallback semantics: all three provenance outcomes, exact predictions")
def test_criterion_4_fallback_semantics():
    items = desk_suite()
    assert len(items) == 20
    seen = set()
    for item in items:
        prediction = run_item(item, constrained=True)
        seen.add(prediction.provenance)
        assert prediction.provenance == item.expect_provenance, (
            f"{item.qid}: got {prediction.provenance}, "
            f"wanted {item.expect_provenance} ({prediction.logical_form})")
        assert prediction.logical_form == item.expect_form, (
            f"{item.qid}: got {prediction.logical_form!r}")
        got_answers = prediction.answers
        want_answers = (tuple(sorted(item.expect_answers))
                        if item.expect_answers is not None else None)
        assert got_answers == want_answers, f"{item.qid}: answers {got_answers}"
    assert seen == {"generated", "elf-fallback", "none"}


@criterion(5, "known failure modes corrected: all three cases recover the right form")
def test_criterion_5_case_reproduction():
    for case in CASES:
        item = next(i for i in desk_suite()
                    if i.target == case.error_variant and i.fallbacks)
        prediction = run_item(item, constrained=True)
        assert prediction.provenance == "generated"
        assert prediction.logical_form == _canon(case.correct), (
            f"{case.name}: got {prediction.logical_form!r}")
        assert prediction.answers == tuple(sorted(case.answers))
        # constraints off, the misled form escapes as an invalid prediction
        loose = run_item(item, constrained=False, eps=0.0)
        assert loose.logical_form != _canon(case.error_variant)


@criterion(6, "metric fidelity: EM/F1 match hand computation; hits@1 converges to 0.50")
def test_criterion_6_metric_fidelity():
    # ten hand-labeled examples; per-example (EM, F1) computed by hand
    rows = [
        # (gold_form, gold_answers, pred_form, pred_answers, em, f1)
        ("(COUNT zz.c)", ("a",), "(COUNT zz.c)", ("a",), True, 1.0),
        ("(JOIN r.s.t e1)", ("b", "c"), "(JOIN r.s.x e1)", ("a", "b"), False, 0.5),
        ("(JOIN r.s.t e1)", ("x",), None, None, False, 0.0),
        ("(JOIN r.s.t e1)", ("a", "x"), "(JOIN r.s.t e2)",
         ("a", "b", "c", "d"), False, 1 / 3),
        ("(COUNT zz.c)", (), "(COUNT zz.d)", (), False, 1.0),
        ("(JOIN r.s.t e1)", ("a", "b", "c", "d"), "(JOIN r.s.t e9)", ("a",),
         False, 0.4),
        ("(JOIN r.s.t e1)", ("y",), "(JOIN r.s.t e2)", ("x",), False, 0.0),
        ("(COUNT zz.c)", ("3",), "(COUNT zz.c)", ("3",), True, 1.0),
        ("(JOIN r.s.t e1)", ("a",), "(JOIN r.s.q e1)", ("a", "b"), False, 2 / 3),
        ("(AND zz.c (JOIN r.s.t e1))", ("q", "r", "s"),
         "(AND (JOIN r.s.t e1) zz.c)", ("q", "r", "s"), True, 1.0),
    ]
    for i, (gold_form, gold, pred_form, pred, want_em, want_f1) in enumerate(rows):
        assert exact_match(pred_form, gold_form) == want_em, f"row {i}"
        got_f1 = answer_f1(pred, gold)[2]
        assert abs(got_f1 - want_f1) < 1e-9, f"row {i}: {got_f1} != {want_f1}"

    examples = [QAExample(str(i), "q", row[0], row[1])
                for i, row in enumerate(rows)]
    from kbqa.pipeline import Prediction
    predictions = [Prediction(str(i), row[2], row[3],
                              "generated" if row[2] else "none", 0)
                   for i, row in enumerate(rows)]
    report = evaluate_dataset(examples, predictions)
    want_overall_f1 = 100 * statistics.mean(row[5] for row in rows)
    assert abs(report["overall"]["f1"] - want_overall_f1) < 1e-9
    assert abs(report["overall"]["em"] - 30.0) < 1e-9

    mean_hits = statistics.mean(
        hits_at_1({"a", "b"}, {"a"}, trials=100, rng_seed=seed)
        for seed in range(100))
    assert abs(mean_hits - 0.50) <= 0.02, f"hits@1 mean {mean_hits}"
    for seed in range(25):
        assert hits_at_1({"a", "b"}, {"a", "b", "z"}, rng_seed=seed) == 1.0
        assert hits_at_1({"a", "b"}, {"z"}, rng_seed=seed) == 0.0


@criterion(7, "parser round-trip: 10,000 random forms reach a print fixed point")
def test_criterion_7_parser_round_trip():
    rng = random.Random(424242)
    for _ in range(10000):
        ast = random_syntax_ast(rng)
        printed = print_canonical(ast)
        assert print_canonical(parse(printed)) == printed
    published = [
        "(AND measurement_unit.measurement_system "
        "(JOIN measurement_unit.measurement_system.length_units m.01p5ld))",
        "(AND spaceflight.bipropellant_rocket_engine "
        "(AND (JOIN spaceflight.bipropellant_rocket_engine.oxidizer m.01tm_5) "
        "(lt spaceflight.bipropellant_rocket_engine.chamber_pressure "
        "257.0^^float)))",
        "(ARGMIN measurement_unit.unit_of_resistivity "
        "measurement_unit.unit_of_resistivity.resistivity_in_ohm_meters)",
    ]
    for text in published:
        printed = print_canonical(parse(text))
        assert print_canonical(parse(printed)) == printed


@criterion(8, "ranking-loss closed forms to 1e-12 and strict monotonicity")
def test_criterion_8_ranking_loss():
    assert abs(ranker_loss([0.0, 0.0], 0) - (-0.5)) < 1e-12
    assert abs(ranker_loss([math.log(3), 0.0], 0) - (-0.75)) < 1e-12
    assert abs(ranker_loss([1.7], 0) - (-1.0)) < 1e-12
    rng = random.Random(8888)
    for _ in range(1000):
        n = rng.randint(2, 10)
        scores = [rng.uniform(-8, 8) for _ in range(n)]
        target = rng.randrange(n)
        base = ranker_loss(scores, target)
        assert -1.0 <= base < 0.0
        scores[target] += rng.uniform(0.01, 2.0)
        assert ranker_loss(scores, target) < base


@criterion(9, "performance floor: < 250 ms median predict on a 1,000-entity store")
def test_criterion_9_performance_floor():
    store = synthetic_store(1000, seed=7)
    pipe = Pipeline(store, PipelineConfig())  # lexical retrieval by default
    corpus = []
    for entity in sorted(store.all_entities())[:10]:
        corpus.extend(print_canonical(f) for f in enumerate_elfs(
            [StartPoint.entity(entity)], store, EnumConfig(max_candidates=40)))
    pipe.token_scorer = ngram_scorer_from_forms(corpus[:200], pipe.vocab)
    questions = [
        f"which {store.entity_label(e)} connects to something with a value"
        for e in sorted(store.all_entities())[:20]
    ]
    timings = []
    for i, question in enumerate(questions):
        t0 = time.perf_counter()
        pipe.predict(question, f"perf{i}")
        timings.append(time.perf_counter() - t0)
    median = statistics.median(timings)
    print(f"  median {1000 * median:.1f} ms over {len(questions)} questions "
          f"(max {1000 * max(timings):.1f} ms)")
    assert median < 0.250, f"median {1000 * median:.1f} ms"
