import json
import random
import sys

import pytest

from kbqa import pipeline as pipeline_mod
from kbqa.enumerator import EnumConfig, StartPoint, enumerate_elfs
from kbqa.errors import TokenizeError
from kbqa.fixtures import toy_store
from kbqa.pipeline import (Pipeline, PipelineConfig, Prediction, QAExample,
                           assemble_context, load_dataset, start_points)
from kbqa.retrieve import (LexicalScorer, LinkedEntity, Mention, Question, ScoredCandidate,
                           rank_elfs)
from kbqa.scorers import OracleScorer, UniformScorer
from kbqa.sexpr import EntityRef, Join, Reverse, canonicalize, parse, print_canonical
from kbqa.store import LiteralValue, StoreBuilder
from kbqa.vocab import (SECTION_ELFS, SECTION_ENTITIES, SECTION_SCHEMA, build_vocabulary,
                        encode_logical_form, encode_target)

from randgen import random_store
from references import case_disconnected_relation


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
    assert "beam" not in prediction.timing
    with pytest.raises(KeyError):
        prediction.timing["beam"]
    record = prediction.to_json()["timing"]
    assert type(record) is dict and list(record) == list(prediction.timing)
    assert record == {stage: prediction.timing[stage] for stage in prediction.timing}
    json.dumps(record)


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


def test_undecodable_elf_is_text_encoded_and_still_answers():
    """A 20-digit number anchors ELFs on a literal that has no decodable
    token form; assembly encodes such an ELF as text, and the ELF
    fallback still answers with it."""
    builder = StoreBuilder()
    builder.add_triple("x1", "k.size", LiteralValue("float", 12345678901234567890.0))
    store = builder.freeze()
    pipe = Pipeline(store, PipelineConfig(dump_context=True))
    question = "what has size 12345678901234567890"
    prepared = pipe.prepare(question)
    form = "(JOIN k.size 1.2345678901234567e+19)"
    assert form in [cand.text() for cand in prepared.ranked_elfs]
    with pytest.raises(TokenizeError):
        encode_logical_form(pipe.vocab, form)
    prediction = pipe.predict(question)
    assert form in prediction.context["elfs"]
    assert (prediction.provenance, prediction.logical_form, prediction.answers) == \
        ("elf-fallback", form, ("x1",))


def test_assemble_context_lets_unexpected_errors_escape(toy, monkeypatch):
    """Only a TokenizeError falls back to text encoding; any other error
    from encoding an ELF is a fault and is not swallowed."""
    vocab = build_vocabulary(toy)
    question = Question.of(QUESTION_ONE)
    elfs = rank_elfs(question, [parse(GOLD_CASE_ONE)], LexicalScorer(), 5)

    def broken(vocab, form):
        raise RuntimeError("encoder bug")

    monkeypatch.setattr(pipeline_mod, "encode_logical_form", broken)
    with pytest.raises(RuntimeError, match="encoder bug"):
        assemble_context(vocab, question, [], elfs, ([], []), 1000, store=toy)


def _elf_section(vocab, ctx) -> list[str]:
    tokens = vocab.tokens(ctx.token_ids)
    return tokens[tokens.index(SECTION_ELFS) + 1:tokens.index(SECTION_SCHEMA)]


def test_assemble_context_encodes_a_string_elf_candidate(toy):
    """A candidate given as text is parsed and encoded as its form."""
    vocab = build_vocabulary(toy)
    text = "(JOIN sf.oxidizer e1)"
    ctx = assemble_context(vocab, Question.of(QUESTION_ONE), [],
                           [ScoredCandidate(text, 1.0)], ([], []), store=toy)
    assert ctx.elf_prints == (text,)
    assert _elf_section(vocab, ctx) == vocab.tokens(encode_logical_form(vocab, text))


def test_relation_named_like_an_operator_falls_back_to_its_elf():
    """A relation named AND prints as a form that does not parse back;
    assembly encodes the node, and the ELF fallback answers with it."""
    builder = StoreBuilder()
    builder.add_triple("e1", "AND", "e2")
    builder.add_alias("alpha", "e1", 1.0)
    pipe = Pipeline(builder.freeze())
    prediction = pipe.predict("what does alpha and")
    assert (prediction.provenance, prediction.logical_form, prediction.answers) == \
        ("elf-fallback", "(JOIN (R AND) e1)", ("e2",))
    assert prediction.stage_errors == {}


def test_number_shaped_entity_enters_the_context_as_its_token():
    """An entity named 7 is the token 7 in its ELF's chunk, the token
    the decoder's object slot emits, not the digits of the literal 7.0
    that its print reads back as."""
    builder = StoreBuilder()
    builder.add_triple("7", "ms.length_units", "e1")
    store = builder.freeze()
    vocab = build_vocabulary(store)
    form = Join(Reverse("ms.length_units"), EntityRef("7"))
    assert form in enumerate_elfs([StartPoint.entity("7")], store)
    ctx = assemble_context(vocab, Question.of("7"), [], [ScoredCandidate(form, 1.0)],
                           ([], []), store=store)
    assert _elf_section(vocab, ctx) == ["(", "JOIN", "(", "R", "ms", ".", "length", "_",
                                        "units", ")", "7", ")"]


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


def multi_entity_case(n_questions):
    """A random store, questions that each name one to three of its
    labelled entities, and a pipeline whose token scorer is an eps-0.2
    oracle over forms around those entities, so that some answers come
    from the beam and some from the exemplary forms."""
    rng = random.Random(5)
    store = random_store(rng, max_entities=30)
    labelled = [e for e in sorted(store.all_entities()) if store.entity_label(e) not in ("", e)]
    forms = [f for e in labelled for f in enumerate_elfs([StartPoint.entity(e)], store)][::7]

    def factory(vocab):
        targets = [encode_target(vocab, form) for form in forms]
        return OracleScorer(targets[0], vocab.size, eps=0.2, fallback_targets=targets[1:],
                            rng_seed=1)
    pipe = Pipeline(store, PipelineConfig(beam_size=4, max_output_tokens=48),
                    token_scorer=factory)
    examples = [QAExample(f"q{i}", "which " + " and ".join(
        store.entity_label(e) for e in rng.sample(labelled, 1 + i % 3)))
        for i in range(n_questions)]
    return pipe, examples


def without_timing(prediction):
    record = prediction.to_json()
    del record["timing"]
    return record


def test_predict_batch_threads_match_serial_with_several_links():
    """Four threads share the pipeline's decode tables, each question
    with its own linked entities, and answer exactly as one thread; the
    threads switch every microsecond, so that their decodes interleave."""
    pipe, examples = multi_entity_case(40)
    assert max(len(pipe.prepare(ex.question).links) for ex in examples) >= 3
    serial = pipe.predict_batch(examples, workers=1)
    assert {p.provenance for p in serial} == {"generated", "elf-fallback"}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = pipe.predict_batch(examples, workers=4)
    finally:
        sys.setswitchinterval(interval)
    assert [without_timing(p) for p in threaded] == [without_timing(p) for p in serial]


def table_contents(tables):
    """Every attribute of the tables, each dict and each token set, of
    `sets` and of the moves, copied."""
    contents = {name: dict(value) if isinstance(value, dict) else value
                for name, value in vars(tables).items()}
    contents["sets"] = {name: None if tokens is None else dict(tokens)
                        for name, tokens in tables.sets.items()}
    contents["moves"] = {slot: [(None if tokens is None else dict(tokens), then)
                                for tokens, then in moves]
                         for slot, moves in tables.moves.items()}
    return contents


def test_predicts_leave_the_decode_tables_unchanged():
    pipe, examples = multi_entity_case(100)
    tables = pipe.tables
    before = table_contents(tables)
    for ex in examples:
        pipe.predict(ex.question, ex.qid)
    assert pipe.tables is tables
    assert table_contents(tables) == before


@pytest.mark.parametrize("field,value", [
    ("beam_size", 0), ("max_output_tokens", 0), ("input_budget", -1),
    ("top_schema", -1), ("top_elf", -1), ("max_mention_len", 0)])
def test_config_rejects_values_outside_the_cli_ranges(field, value):
    """top_schema=-1 kept all but the last k schema names, and
    beam_size=0 made every predict raise from inside the decoder."""
    with pytest.raises(ValueError, match=f"^{field} must be"):
        PipelineConfig(**{field: value})
    low = value + 1
    assert getattr(PipelineConfig(**{field: low}), field) == low


def test_generated_predictions_revalidate(toy):
    from kbqa.executor import is_valid_prediction
    pipe = Pipeline(toy, PipelineConfig(),
                    token_scorer=oracle_factory(GOLD_CASE_ONE, eps=0.2))
    prediction = pipe.predict(QUESTION_ONE, "q")
    assert prediction.provenance == "generated"
    assert is_valid_prediction(prediction.logical_form, toy)


def test_predict_renders_only_the_hypotheses_it_checks(monkeypatch):
    """decode renders every hypothesis; predict only those its candidate
    loop reaches: up to the winner, or all when none of them wins."""
    pipe, examples = multi_entity_case(10)
    rendered = []
    render = pipeline_mod.render_tokens
    monkeypatch.setattr(pipeline_mod, "render_tokens",
                        lambda ids, ctx: rendered.append(ids) or render(ids, ctx))
    saved = 0
    for ex in examples:
        decoded = pipe.decode(pipe.prepare(ex.question))
        assert len(rendered) == len(decoded)
        rendered.clear()
        prediction = pipe.predict(ex.question, ex.qid)
        if prediction.provenance == "generated":
            assert prediction.logical_form == decoded[prediction.beam_rank][1]
            assert len(rendered) == prediction.beam_rank + 1
        else:
            assert len(rendered) == len(decoded)
        saved += len(decoded) - len(rendered)
        rendered.clear()
    assert saved > 0


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


class CountingTokenScorer:
    """Forwards next_log_probs and counts the calls; the call numbered
    `fail_at`, when given, raises ScorerProtocolError instead."""

    def __init__(self, inner, reentrant=True, fail_at=None):
        self.inner, self.reentrant, self.fail_at, self.calls = inner, reentrant, fail_at, 0

    def next_log_probs(self, context, prefix):
        from kbqa.errors import ScorerProtocolError
        self.calls += 1
        if self.calls == self.fail_at:
            raise ScorerProtocolError("scorer went away")
        return self.inner.next_log_probs(context, prefix)


def counted_pipeline(store, **kwargs):
    """A pipeline over an eps-0.1 oracle for GOLD_CASE_ONE, its scorer
    wrapped in a CountingTokenScorer."""
    pipe = Pipeline(store, PipelineConfig(), token_scorer=oracle_factory(GOLD_CASE_ONE, eps=0.1))
    pipe.token_scorer = CountingTokenScorer(pipe.token_scorer, **kwargs)
    return pipe


def test_predict_stops_the_search_at_its_winner(toy):
    """predict asks for strictly fewer rows than decode of the same
    question, and answers with the first hypothesis of decode's whole
    beam that passes the check."""
    pipe = counted_pipeline(toy)
    decoded = pipe.decode(pipe.prepare(QUESTION_ONE))
    full, pipe.token_scorer.calls = pipe.token_scorer.calls, 0
    prediction = pipe.predict(QUESTION_ONE, "q")
    assert 0 < pipe.token_scorer.calls < full
    from kbqa.executor import is_valid_prediction
    rank = next(rank for rank, (_, text) in enumerate(decoded)
                if is_valid_prediction(text, toy))
    assert (prediction.provenance, prediction.beam_rank) == ("generated", rank)
    assert prediction.logical_form == print_canonical(parse(decoded[rank][1]))
    assert 0 < prediction.timing["decode"] < prediction.timing["total"]


def test_scorer_failure_after_the_winner_is_final_is_not_reached(toy):
    """A scorer that fails on the first row after the ones predict
    needs: predict never asks for it and answers as before, while
    decode, which runs the whole search, records the failure and, as
    for any failed search, returns no hypothesis."""
    pipe = counted_pipeline(toy)
    want = pipe.predict(QUESTION_ONE, "q")
    needed = pipe.token_scorer.calls
    pipe.token_scorer.fail_at = needed + 1
    pipe.token_scorer.calls = 0
    got = pipe.predict(QUESTION_ONE, "q")
    assert without_timing(got) == without_timing(want) and not got.stage_errors
    pipe.token_scorer.calls = 0
    prepared = pipe.prepare(QUESTION_ONE)
    assert pipe.decode(prepared) == []
    assert prepared.stage_errors["decode"] == "scorer went away"


def test_predict_that_stops_early_releases_the_scorer_lock(toy, monkeypatch):
    """With a non-reentrant scorer, a predict that closes the search at
    its winner, and one whose candidate check raises while the search is
    suspended, each release the scorer lock: a second predict, in
    another thread, returns. The raised error's traceback is kept alive,
    and with it the failed predict's frame, so only an explicit close
    releases the lock."""
    import threading

    pipe = counted_pipeline(toy, reentrant=False)

    def predict_in_a_thread():
        results = []
        worker = threading.Thread(target=lambda: results.append(pipe.predict(QUESTION_ONE)),
                                  daemon=True)
        worker.start()
        worker.join(timeout=30)
        assert not worker.is_alive(), "the scorer lock was not released"
        return results[0]

    first = pipe.predict(QUESTION_ONE)
    asked = pipe.token_scorer.calls
    assert first.provenance == "generated"
    assert without_timing(predict_in_a_thread()) == without_timing(first)

    def failing_check(form, store):
        raise RuntimeError("check failed")
    with monkeypatch.context() as patch:
        patch.setattr(pipeline_mod, "is_valid_prediction", failing_check)
        with pytest.raises(RuntimeError, match="check failed") as raised:
            pipe.predict(QUESTION_ONE)
    assert without_timing(predict_in_a_thread()) == without_timing(first)
    assert raised.tb is not None
    pipe.token_scorer.calls = 0
    pipe.decode(pipe.prepare(QUESTION_ONE))
    assert asked < pipe.token_scorer.calls  # the first predict stopped early


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
