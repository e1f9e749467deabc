import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import kbqa

from kbqa.errors import NoCandidateError, ScorerProtocolError
from kbqa.retrieve import (ConstantScorer, ExternalTextScorer, LexicalScorer,
                           Mention, Question, TableScorer, detect_mentions,
                           disambiguate, entity_context_text, link_question,
                           rank_elfs, ranker_loss, retrieve_schema)
from kbqa.sexpr import parse, print_canonical
from kbqa.store import StoreBuilder, text_words


def test_question_tokenization_round_trip():
    q = Question.of("Which engine   has a pressure of 257.0?")
    assert q.tokens == ("which", "engine", "has", "a", "pressure", "of", "257.0")
    assert " ".join(q.tokens) == "which engine has a pressure of 257.0"


def test_detect_single_mention(toy):
    q = Question.of("name the system that has decimetre as a measurement unit")
    mentions = detect_mentions(q, toy)
    assert [m.surface for m in mentions] == ["decimetre"]


def test_longest_match_wins():
    builder = StoreBuilder()
    builder.add_triple("ny", "r", "x")
    builder.add_triple("y", "r", "x")
    builder.add_alias("new york", "ny", 0.9)
    builder.add_alias("york", "y", 0.9)
    store = builder.freeze()
    q = Question.of("hotels in new york today")
    assert [m.surface for m in detect_mentions(q, store)] == ["new york"]


def test_no_alias_hits(toy):
    assert detect_mentions(Question.of("completely unrelated words"), toy) == []


def test_mention_length_cap():
    builder = StoreBuilder()
    builder.add_triple("e", "r", "x")
    builder.add_alias("a b c", "e", 0.5)
    store = builder.freeze()
    q = Question.of("a b c")
    assert detect_mentions(q, store, max_mention_len=2) == []
    assert [m.surface for m in detect_mentions(q, store, max_mention_len=3)] \
        == ["a b c"]


def test_candidates_sorted_by_popularity():
    builder = StoreBuilder()
    for e, pop in (("a", 0.1), ("b", 0.9), ("c", 0.5)):
        builder.add_triple(e, "r", "x")
        builder.add_alias("thing", e, pop)
    store = builder.freeze()
    cands = store.alias_lookup("thing")
    assert cands == [("b", 0.9), ("c", 0.5), ("a", 0.1)]


def test_disambiguate_single_candidate(toy):
    mention = Mention(0, 1, "decimetre")
    link = disambiguate(Question.of("whatever"), mention, [("e1", 0.9)],
                        toy, ConstantScorer())
    assert link.entity == "e1"


def test_disambiguate_empty_candidates(toy):
    with pytest.raises(NoCandidateError):
        disambiguate(Question.of("q"), Mention(0, 1, "x"), [], toy, ConstantScorer())


def test_disambiguate_prefers_relation_overlap():
    builder = StoreBuilder()
    builder.add_triple("sys_a", "ms.length_units", "u1")
    builder.add_triple("sys_b", "ms.mass_units", "u2")
    builder.add_alias("metric", "sys_a", 0.1)
    builder.add_alias("metric", "sys_b", 0.9)
    store = builder.freeze()
    q = Question.of("what are the length units of the metric system")
    link = disambiguate(q, Mention(6, 7, "metric"),
                        store.alias_lookup("metric"),
                        store, LexicalScorer())
    assert link.entity == "sys_a"  # relations mention length units


def test_disambiguate_oracle_overrides_popularity(toy):
    builder = StoreBuilder()
    for e, pop in (("a", 0.9), ("x", 0.1)):
        builder.add_triple(e, "rel.one", "z")
        builder.add_alias("amb", e, pop)
        builder.set_entity_label(e, f"{e} label")
    store = builder.freeze()
    oracle = TableScorer({entity_context_text(store, "x"): 5.0})
    link = disambiguate(Question.of("q"), Mention(0, 1, "amb"),
                        store.alias_lookup("amb"),
                        store, oracle)
    assert link.entity == "x"


def test_disambiguate_tie_breaks_popularity_then_id():
    builder = StoreBuilder()
    for e, pop in (("bb", 0.5), ("aa", 0.5), ("cc", 0.9)):
        builder.add_triple(e, "rel.one", "z")
        builder.add_alias("amb", e, pop)
    store = builder.freeze()
    link = disambiguate(Question.of("q"), Mention(0, 1, "amb"),
                        store.alias_lookup("amb"),
                        store, ConstantScorer())
    assert link.entity == "cc"  # all scores equal -> highest popularity
    # drop cc: equal popularity -> lexicographic id
    link = disambiguate(Question.of("q"), Mention(0, 1, "amb"),
                        [("bb", 0.5), ("aa", 0.5)], store, ConstantScorer())
    assert link.entity == "aa"


def test_retrieve_schema_small_catalog(toy):
    classes, relations = retrieve_schema(Question.of("q"), toy,
                                         ConstantScorer(), k=10)
    assert [c.text() for c in classes] == toy.classes()
    assert [r.text() for r in relations] == toy.relations()
    assert len(classes) == 2 and len(relations) == 4


def test_retrieve_schema_lexical_ranking(toy):
    q = Question.of("which engine has a chamber pressure limit")
    _, relations = retrieve_schema(q, toy, LexicalScorer(), k=10)
    names = [r.text() for r in relations]
    assert names.index("sf.chamber_pressure") < names.index("sf.oxidizer")


def test_retrieve_schema_oracle_exact_top_k(toy):
    oracle = TableScorer({"sf.oxidizer": 3.0, "sf.chamber_pressure": 2.0,
                          "ms.system": 9.0})
    classes, relations = retrieve_schema(Question.of("q"), toy, oracle, k=2)
    assert [c.text() for c in classes] == ["ms.system", "sf.engine"]
    assert [r.text() for r in relations] == ["sf.oxidizer", "sf.chamber_pressure"]


def test_detect_mentions_spans_never_overlap():
    builder = StoreBuilder()
    builder.add_triple("e", "r", "x")
    for alias in ("a b", "b c", "c d", "b", "c"):
        builder.add_alias(alias, "e", 0.5)
    store = builder.freeze()
    q = Question.of("a b c d e")
    mentions = detect_mentions(q, store, max_mention_len=15)
    taken = set()
    for m in mentions:
        span = set(range(m.start, m.end))
        assert not (span & taken)
        assert m.end - m.start <= 15
        taken |= span


def test_retrieve_schema_never_mixes_kinds(toy):
    classes, relations = retrieve_schema(Question.of("anything"), toy,
                                         LexicalScorer(), k=10)
    assert set(c.text() for c in classes) <= set(toy.classes())
    assert set(r.text() for r in relations) <= set(toy.relations())


def test_rank_elfs(toy):
    q = Question.of("name the system that has decimetre as a measurement unit")
    forms = [parse("(JOIN ms.length_units e1)"),
             parse("(JOIN sf.chamber_pressure 100.0^^float)")]
    ranked = rank_elfs(q, forms, LexicalScorer(), k=2)
    assert print_canonical(ranked[0].candidate) == "(JOIN ms.length_units e1)"
    assert rank_elfs(q, [], LexicalScorer(), k=3) == []


def test_rank_elfs_oracle_peak(toy):
    gold = parse("(JOIN ms.length_units e1)")
    other = parse("(COUNT sf.engine)")
    oracle = TableScorer({print_canonical(gold): 9.0})
    ranked = rank_elfs(Question.of("q"), [other, gold], oracle, k=1)
    assert ranked[0].candidate == gold


def test_argmax_invariant_under_monotone_transform(toy):
    rng = random.Random(5)
    q = Question.of("which engine has a chamber pressure limit")
    base = LexicalScorer()
    for _ in range(20):
        a = rng.uniform(0.5, 4.0)
        b = rng.uniform(-3.0, 3.0)

        class Transformed:
            def score(self, question, text, _a=a, _b=b):
                return _a * base.score(question, text) + _b

        got = retrieve_schema(q, toy, Transformed(), k=3)
        want = retrieve_schema(q, toy, base, k=3)
        assert [c.text() for c in got[0]] == [c.text() for c in want[0]]
        assert [r.text() for r in got[1]] == [r.text() for r in want[1]]


def test_ranker_loss_closed_forms():
    assert ranker_loss([0.0, 0.0], 0) == pytest.approx(-0.5, abs=1e-12)
    assert ranker_loss([math.log(3), 0.0], 0) == pytest.approx(-0.75, abs=1e-12)
    assert ranker_loss([2.5], 0) == pytest.approx(-1.0, abs=1e-12)


def test_ranker_loss_range_and_monotonicity():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(2, 8)  # monotonicity needs competing candidates
        scores = [rng.uniform(-5, 5) for _ in range(n)]
        target = rng.randrange(n)
        value = ranker_loss(scores, target)
        assert -1.0 <= value < 0.0
        bumped = list(scores)
        bumped[target] += 0.5
        assert ranker_loss(bumped, target) < value
    assert ranker_loss([3.3], 0) == -1.0  # single candidate saturates


def test_ranker_loss_overflow_safe():
    assert ranker_loss([1000.0, 999.0], 0) < 0.0
    assert math.isfinite(ranker_loss([1e8, -1e8], 1))


def test_lexical_score_basics():
    lexical_score = LexicalScorer().score  # corpus-free: all IDF weights 1
    q = Question.of("measurement unit")
    same = lexical_score(q, "measurement unit")
    assert same == pytest.approx(1.1)  # full overlap + full trigram match
    assert lexical_score(q, "zz qq") == 0.0
    close = lexical_score(q, "measurement_unit.measurement_system")
    far = lexical_score(q, "spaceflight.bipropellant_rocket_engine")
    assert close > far


def reference_lexical_score(corpus, question, candidate_text):
    """The lexical formula as first written: idf weights looked up with
    their default worked out on every call, and both texts tokenised and
    their trigrams built on every call."""
    df = {}
    for doc in corpus:
        for token in set(text_words(doc)):
            df[token] = df.get(token, 0) + 1

    def idf(token):
        if not corpus:
            return 1.0
        if token in df:
            return math.log((1 + len(corpus)) / (1 + df[token])) + 1.0
        return math.log(1 + len(corpus)) + 1.0

    def trigrams(text):
        return {text[i:i + 3] for i in range(len(text) - 2)}

    q_tokens = set(question.tokens)
    c_tokens = set(text_words(candidate_text))
    union = q_tokens | c_tokens
    overlap = 0.0
    if union:
        common_weight = math.fsum(idf(t) for t in q_tokens & c_tokens)
        union_weight = math.fsum(idf(t) for t in union)
        overlap = common_weight / union_weight if union_weight else 0.0
    q_tri = trigrams(" ".join(question.tokens))
    c_tri = trigrams(" ".join(text_words(candidate_text)))
    tri = len(q_tri & c_tri) / len(q_tri | c_tri) if (q_tri or c_tri) else 0.0
    return overlap + 0.1 * tri


def test_lexical_score_is_exactly_the_reference_formula():
    rng = random.Random(7)
    words = ["alpha", "beta", "core", "delta", "unit", "flux", "x", "ab", "42", "3.5"]

    def text():
        seps = (" ", ".", "_", " ")
        return "".join(rng.choice(words) + rng.choice(seps)
                       for _ in range(rng.randint(0, 7))).strip()

    # a corpus that misses some words, so unseen tokens get weighed too
    corpus = [text().replace("flux", "") for _ in range(30)]
    for docs in ([], corpus):
        scorer = LexicalScorer(docs)
        for _ in range(300):
            question = Question.of(text())
            for _ in range(3):
                candidate = text()
                assert scorer.score(question, candidate).hex() == \
                    reference_lexical_score(docs, question, candidate).hex()


_HASH_SEED_PROBE = """
from kbqa.retrieve import LexicalScorer, Question
words = ["w" + chr(97 + i) for i in range(20)]
corpus = [" ".join(w for j, w in enumerate(words) if (d * 7 + j * 3) % (j + 2) == 0)
          for d in range(40)]
scorer = LexicalScorer(corpus)
question = Question.of(" ".join(words[:14]))
print(" ".join(repr(scorer.score(question, " ".join(words[i:i + 12])))
               for i in range(9)))
"""


def test_lexical_scores_do_not_depend_on_hash_seed():
    """The idf sums run over sets of strings, whose order follows
    PYTHONHASHSEED; a score's last bits must not, or exact ties between
    candidates would break by hash order."""
    src = str(Path(kbqa.__file__).resolve().parents[1])
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        outputs.append(subprocess.run([sys.executable, "-c", _HASH_SEED_PROBE], env=env,
                                      capture_output=True, text=True, check=True).stdout)
    assert outputs[0] == outputs[1]
    assert len(outputs[0].split()) == 9


def test_link_question_end_to_end(toy):
    q = Question.of("name the system that has decimetre as a measurement unit")
    links = link_question(q, toy, LexicalScorer())
    assert [l.entity for l in links] == ["e1"]


def test_external_text_scorer_round_trip():
    command = f'{sys.executable} -u -c "' \
        'import sys\n' \
        'for line in sys.stdin:\n' \
        '    parts = line.rstrip().split(chr(9))\n' \
        '    print(float(len(parts[2])))\n' \
        '    sys.stdout.flush()"'
    scorer = ExternalTextScorer(command, timeout=10.0)
    try:
        value = scorer.score(Question.of("hello"), "abcd")
        assert value == 4.0
    finally:
        scorer.close()


def test_external_text_scorer_protocol_error():
    command = f'{sys.executable} -u -c "' \
        'import sys\n' \
        'for line in sys.stdin:\n' \
        '    print(\'not-a-number\')\n' \
        '    sys.stdout.flush()"'
    scorer = ExternalTextScorer(command, timeout=10.0)
    try:
        with pytest.raises(ScorerProtocolError):
            scorer.score(Question.of("q"), "c")
    finally:
        scorer.close()


def test_linked_entity_json(toy):
    q = Question.of("decimetre")
    (link,) = link_question(q, toy, LexicalScorer())
    record = link.to_json("q7")
    assert record["question_id"] == "q7"
    assert record["mention"]["surface"] == "decimetre"
    assert record["entity"] == "e1"
