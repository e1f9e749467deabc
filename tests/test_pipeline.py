import json

import pytest

from kbqa.enumerator import EnumConfig
from kbqa.fixtures import case_disconnected_relation, toy_store
from kbqa.pipeline import (Pipeline, PipelineConfig, Prediction, QAExample,
                           assemble_context, load_dataset, start_points)
from kbqa.retrieve import LexicalScorer, LinkedEntity, Mention, Question, rank_elfs
from kbqa.scorers import OracleScorer, UniformScorer
from kbqa.sexpr import canonicalize, parse, print_canonical
from kbqa.vocab import SECTION_ELFS, SECTION_ENTITIES, SECTION_SCHEMA, build_vocabulary


def oracle_factory(text, eps=0.0, fallbacks=()):
    def factory(vocab):
        from kbqa.vocab import encode_logical_form
        target = tuple(encode_logical_form(vocab, text)) + (vocab.end_id,)
        fb = [tuple(encode_logical_form(vocab, f)) + (vocab.end_id,)
              for f in fallbacks]
        return OracleScorer(target, vocab.size, eps=eps, fallback_targets=fb)
    return factory


GOLD_CASE_ONE = "(AND ms.system (JOIN ms.length_units e1))"
QUESTION_ONE = "name the system that has decimetre as a measurement unit"


def test_generated_provenance(toy):
    pipe = Pipeline(toy, PipelineConfig(),
                    token_scorer=oracle_factory(GOLD_CASE_ONE))
    prediction = pipe.predict(QUESTION_ONE, "q1")
    assert prediction.provenance == "generated"
    assert prediction.beam_rank == 0
    assert prediction.logical_form == print_canonical(canonicalize(parse(GOLD_CASE_ONE)))
    assert prediction.answers == ("sys1",)


def test_elf_fallback_provenance(toy):
    # valid grammar, valid schema, but empty denotation -> rejected;
    # the ranked exemplary forms take over
    empty_form = "(JOIN sf.oxidizer e1)"
    pipe = Pipeline(toy, PipelineConfig(),
                    token_scorer=oracle_factory(empty_form))
    prediction = pipe.predict(QUESTION_ONE, "q2")
    assert prediction.provenance == "elf-fallback"
    assert prediction.beam_rank is None
    assert prediction.logical_form is not None
    assert prediction.answers  # non-empty by construction
    # and it is the top-ranked exemplary form for this question
    question = Question.of(QUESTION_ONE)
    from kbqa.enumerator import enumerate_elfs
    elfs = enumerate_elfs(start_points(question, pipe.link(question)), toy,
                          pipe.cfg.enum)
    ranked = rank_elfs(question, elfs, pipe.text_scorer, pipe.cfg.top_elf)
    assert prediction.logical_form == print_canonical(canonicalize(
        ranked[0].candidate))


def test_none_provenance_no_entities(toy):
    pipe = Pipeline(toy, PipelineConfig(),
                    token_scorer=lambda v: UniformScorer(v.size))
    prediction = pipe.predict("completely unrelated question", "q3")
    assert prediction.provenance == "none"
    assert prediction.logical_form is None
    assert prediction.answers is None


def test_none_provenance_empty_kb():
    from kbqa.store import StoreBuilder
    empty = StoreBuilder().freeze()
    pipe = Pipeline(empty, PipelineConfig())
    prediction = pipe.predict("anything at all", "q4")
    assert prediction.provenance == "none"


def test_beam_order_respected(toy):
    """The chosen hypothesis is the first valid one in beam order."""
    empty_form = "(JOIN sf.oxidizer e1)"      # valid but empty
    good_form = "(JOIN ms.length_units e1)"   # non-empty
    pipe = Pipeline(toy, PipelineConfig(beam_size=10),
                    token_scorer=oracle_factory(empty_form, eps=0.1,
                                                fallbacks=[good_form]))
    prediction = pipe.predict(QUESTION_ONE, "q5")
    assert prediction.provenance == "generated"
    assert prediction.beam_rank >= 1  # rank 0 was the empty-denotation form
    assert prediction.logical_form == print_canonical(canonicalize(parse(good_form)))


def test_predict_deterministic(toy):
    pipe = Pipeline(toy, PipelineConfig(),
                    token_scorer=oracle_factory(GOLD_CASE_ONE, eps=0.2))
    a = pipe.predict(QUESTION_ONE, "q")
    b = pipe.predict(QUESTION_ONE, "q")
    a_record = {k: v for k, v in a.to_json().items() if k != "timing"}
    b_record = {k: v for k, v in b.to_json().items() if k != "timing"}
    assert json.dumps(a_record, sort_keys=True) == json.dumps(b_record, sort_keys=True)


def test_timing_recorded(toy):
    pipe = Pipeline(toy, PipelineConfig())
    prediction = pipe.predict(QUESTION_ONE)
    for stage in ("link", "enumerate", "retrieve", "assemble", "decode",
                  "validate", "total"):
        assert stage in prediction.timing
        assert prediction.timing[stage] >= 0.0


def test_assemble_context_sections_and_order(toy):
    vocab = build_vocabulary(toy)
    question = Question.of(QUESTION_ONE)
    links = [LinkedEntity(Mention(5, 6, "decimetre"), "e1", 1.0)]
    elfs = rank_elfs(question, [parse(GOLD_CASE_ONE)], LexicalScorer(), 5)
    from kbqa.retrieve import retrieve_schema
    schema = retrieve_schema(question, toy, LexicalScorer(), 10)
    ctx = assemble_context(vocab, question, links, elfs, schema, 1000, store=toy)
    tokens = vocab.tokens(ctx.token_ids)
    for sentinel in (SECTION_ENTITIES, SECTION_ELFS, SECTION_SCHEMA):
        assert tokens.count(sentinel) == 1
    order = [tokens.index(SECTION_ENTITIES), tokens.index(SECTION_ELFS),
             tokens.index(SECTION_SCHEMA)]
    assert order == sorted(order)
    assert ctx.entities == (("decimetre", "e1"),)
    # label then id inside the entity pair
    ent_section = tokens[tokens.index(SECTION_ENTITIES):tokens.index(SECTION_ELFS)]
    assert ent_section[1:6] == ["(", "decimetre", ",", "e1", ")"]


def test_assemble_context_empty_sections(toy):
    vocab = build_vocabulary(toy)
    question = Question.of("no entities here")
    from kbqa.retrieve import retrieve_schema
    schema = retrieve_schema(question, toy, LexicalScorer(), 10)
    ctx = assemble_context(vocab, question, [], [], schema, 1000, store=toy)
    tokens = vocab.tokens(ctx.token_ids)
    assert tokens.index(SECTION_ENTITIES) + 1 == tokens.index(SECTION_ELFS)
    assert ctx.schema_names  # schema still present


def test_assemble_context_budget_drops_whole_items(toy):
    vocab = build_vocabulary(toy)
    question = Question.of(QUESTION_ONE)
    forms = [parse(GOLD_CASE_ONE)] * 1 + [parse("(JOIN ms.length_units e1)"),
                                          parse("(COUNT sf.engine)")]
    elfs = rank_elfs(question, forms, LexicalScorer(), 50)
    from kbqa.retrieve import retrieve_schema
    schema = retrieve_schema(question, toy, LexicalScorer(), 10)
    full = assemble_context(vocab, question, [], elfs, schema, 1000, store=toy)
    budget = len(full.token_ids) - 1
    trimmed = assemble_context(vocab, question, [], elfs, schema, budget, store=toy)
    assert len(trimmed.token_ids) <= budget
    # the tail schema item went first
    assert trimmed.schema_names == full.schema_names[:-1]
    assert trimmed.elf_prints == full.elf_prints
    # squeeze hard: whole elf items drop, never partial ones
    tiny = assemble_context(vocab, question, [], elfs, schema,
                            len(vocab.tokens(full.token_ids)) // 3, store=toy)
    assert set(tiny.elf_prints) <= set(full.elf_prints)


def test_context_token_budget_respected(toy):
    vocab = build_vocabulary(toy)
    question = Question.of(QUESTION_ONE)
    forms = [parse("(JOIN ms.length_units e1)")] * 1
    elfs = rank_elfs(question, forms, LexicalScorer(), 50)
    from kbqa.retrieve import retrieve_schema
    schema = retrieve_schema(question, toy, LexicalScorer(), 10)
    for budget in (20, 40, 80, 1000):
        ctx = assemble_context(vocab, question, [], elfs, schema, budget, store=toy)
        assert len(ctx.token_ids) <= budget


def test_load_dataset_and_prediction_json_round_trip(tmp_path):
    lines = [
        json.dumps({"qid": "a", "question": "q one", "sexpr": "(COUNT c)",
                    "answers": ["2"]}),
        json.dumps({"qid": "b", "question": "q two"}),
    ]
    examples = load_dataset(lines)
    assert examples[0].answers == ("2",)
    assert examples[1].sexpr is None

    prediction = Prediction("a", "(COUNT c)", ("2",), "generated", 0, {"total": 0.1})
    record = json.loads(json.dumps(prediction.to_json()))
    assert Prediction.from_json(record).logical_form == "(COUNT c)"


def test_predict_batch_order_and_workers(toy):
    pipe = Pipeline(toy, PipelineConfig(),
                    token_scorer=oracle_factory(GOLD_CASE_ONE))
    examples = [QAExample(f"q{i}", QUESTION_ONE) for i in range(6)]
    serial = pipe.predict_batch(examples, workers=1)
    threaded = pipe.predict_batch(examples, workers=3)
    assert [p.qid for p in serial] == [p.qid for p in threaded] == \
        [f"q{i}" for i in range(6)]
    assert all(s.logical_form == t.logical_form
               for s, t in zip(serial, threaded))


def test_generated_predictions_revalidate(toy):
    from kbqa.executor import is_valid_prediction
    pipe = Pipeline(toy, PipelineConfig(),
                    token_scorer=oracle_factory(GOLD_CASE_ONE, eps=0.2))
    prediction = pipe.predict(QUESTION_ONE, "q")
    assert prediction.provenance == "generated"
    assert is_valid_prediction(prediction.logical_form, toy)


def test_decode_stage_error_triggers_fallback(toy):
    from kbqa.errors import ScorerProtocolError

    class Exploding:
        reentrant = True

        def next_log_probs(self, context, prefix):
            raise ScorerProtocolError("child process went away")

    pipe = Pipeline(toy, PipelineConfig(), token_scorer=Exploding())
    prediction = pipe.predict(QUESTION_ONE, "qerr")
    assert prediction.provenance == "elf-fallback"
    assert "decode" in prediction.stage_errors
    assert "child process" in prediction.stage_errors["decode"]
    assert "stage_errors" in prediction.to_json()


def test_link_and_retrieve_stage_errors_degrade(toy):
    from kbqa.errors import ScorerProtocolError

    class Failing:
        def score(self, question, candidate_text):
            raise ScorerProtocolError("retrieval scorer went away")

    pipe = Pipeline(toy, PipelineConfig(), text_scorer=Failing())
    prediction = pipe.predict(QUESTION_ONE, "qerr")
    assert set(prediction.stage_errors) == {"link", "retrieve"}
    assert set(prediction.timing) == {"link", "enumerate", "retrieve", "assemble",
                                      "decode", "validate", "total"}


def test_non_reentrant_scorer_is_serialized(toy):
    import time as time_mod

    class GuardedScorer(UniformScorer):
        reentrant = False

        def __init__(self, size):
            super().__init__(size)
            self.inside = 0

        def next_log_probs(self, context, prefix):
            assert self.inside == 0, "concurrent entry into a non-reentrant scorer"
            self.inside += 1
            try:
                time_mod.sleep(0.0005)
                return super().next_log_probs(context, prefix)
            finally:
                self.inside -= 1

    cfg = PipelineConfig(beam_size=2, max_output_tokens=12)
    built = Pipeline(toy, cfg, token_scorer=lambda v: GuardedScorer(v.size))
    # a scorer assigned after construction is serialized too
    assigned = Pipeline(toy, cfg)
    assigned.token_scorer = GuardedScorer(assigned.vocab.size)
    examples = [QAExample(f"q{i}", QUESTION_ONE) for i in range(4)]
    for pipe in (built, assigned):
        predictions = pipe.predict_batch(examples, workers=3)
        assert [p.qid for p in predictions] == [f"q{i}" for i in range(4)]


def test_case_fixture_pipeline_end_to_end():
    case = case_disconnected_relation()
    pipe = Pipeline(case.store, PipelineConfig(),
                    token_scorer=oracle_factory(case.error_variant, eps=0.1,
                                                fallbacks=[case.correct]))
    prediction = pipe.predict(case.question, "case1")
    assert prediction.provenance == "generated"
    assert prediction.logical_form == print_canonical(canonicalize(
        parse(case.correct)))
    assert prediction.answers == case.answers


def test_number_inside_a_linked_mention_is_not_a_literal_start():
    """An entity labelled "flux orbit 880" next to an unrelated literal
    880.0: the number belongs to the mention, so only the entity
    anchors enumeration, and the fallback answer names it."""
    from kbqa.store import LiteralValue, StoreBuilder
    builder = StoreBuilder()
    for entity, label, target, value in (("m.00880", "flux orbit 880", "m.00005", 12.5),
                                         ("m.00042", "ridge pulse 42", "m.00017", 880.0)):
        builder.add_triple(entity, "type_rel", "cat3.orbit_kind")
        builder.add_triple(entity, "cat3.orbit_kind.orbit_of", target)
        builder.add_triple(target, "cat2.gamma_kind.gamma_value",
                           LiteralValue("float", value))
        builder.set_entity_label(entity, label)
        builder.add_alias(label, entity, 1.0)
    store = builder.freeze()
    text = "which flux orbit 880 connects to something with a value"
    empty_form = "(JOIN cat2.gamma_kind.gamma_value m.00880)"  # valid but empty
    pipe = Pipeline(store, PipelineConfig(), token_scorer=oracle_factory(empty_form))
    question = Question.of(text)
    links = pipe.link(question)
    assert [link.entity for link in links] == ["m.00880"]
    assert all(start.kind == "entity" for start in start_points(question, links))
    prediction = pipe.predict(text, "ef880")
    assert prediction.provenance == "elf-fallback"
    assert "m.00880" in prediction.logical_form
