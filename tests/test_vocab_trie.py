import random

import pytest

from kbqa.enumerator import StartPoint, enumerate_elfs
from kbqa.errors import TokenizeError
from kbqa.fixtures import toy_store
from kbqa.grammar import DecodeTables
from kbqa.pipeline import assemble_context
from kbqa.retrieve import Question, ScoredCandidate
from kbqa.sexpr import And, iter_nodes, print_canonical
from kbqa.store import LiteralValue, SchemaItem, StoreBuilder
from kbqa.vocab import (SECTION_ELFS, SECTION_SCHEMA, SEPARATORS, UNK, Vocabulary,
                        build_vocabulary, encode_logical_form, encode_text,
                        tokenize_literal, tokenize_name)
from randgen import random_store


def walk(children, path=()):
    """Every node of a trie given as its root's children, with its path
    of token ids."""
    for token_id, node in children.items():
        yield path + (token_id,), node
        yield from walk(node.children, path + (token_id,))


def names_of(children, vocab):
    """Every complete name in the trie, spelled out: the names the
    tables were built on."""
    return sorted("".join(vocab.tokens(path)) for path, node in walk(children)
                  if node.terminal)


def shape(children):
    return sorted((path, node.terminal) for path, node in walk(children))


def contains(children, token_ids):
    node = None
    for token_id in token_ids:
        node = children.get(token_id)
        if node is None:
            return False
        children = node.children
    return node is not None and node.terminal


def test_tokenize_name_keeps_separators():
    assert tokenize_name("measurement_unit.measurement_system") == \
        ["measurement", "_", "unit", ".", "measurement", "_", "system"]
    assert "".join(tokenize_name("a_b.c_d.e")) == "a_b.c_d.e"


def test_tokenize_name_rejects_bad_shapes():
    for bad in ("", "a..b", "_a", "a_", "a b", "a.b."):
        with pytest.raises(TokenizeError):
            tokenize_name(bad)


def test_tokenize_literal():
    assert tokenize_literal(LiteralValue("float", 257.0, "float")) == \
        ["2", "5", "7", ".", "0", "^^", "float"]
    assert tokenize_literal(LiteralValue("integer", 42, "integer")) == \
        ["4", "2", "^^", "integer"]
    assert tokenize_literal(LiteralValue("float", 13.9)) == ["1", "3", ".", "9"]
    with pytest.raises(TokenizeError):
        tokenize_literal(LiteralValue("float", -2.0))
    with pytest.raises(TokenizeError):
        tokenize_literal(LiteralValue("string", "x"))


def test_vocabulary_dense_ids(toy):
    vocab = build_vocabulary(toy)
    assert vocab.token(0) == "<s>"
    ids = [vocab.id(vocab.token(i)) for i in range(vocab.size)]
    assert ids == list(range(vocab.size))
    assert vocab.id("(") != vocab.id(")")
    assert "e1" in vocab and "eng1" in vocab


# The ids every vocabulary starts with, in order: external scorers are
# written against them, so none may move.
FIXED_TOKENS = ("<s> </s> <unk> <entities> <elfs> <schema> , ( ) "
                "AND JOIN R COUNT ARGMIN ARGMAX lt le gt ge . _ ^^ "
                "0 1 2 3 4 5 6 7 8 9 float integer").split()


def test_fixed_token_ids_do_not_move(toy):
    vocab = build_vocabulary(toy)
    assert vocab.tokens(range(len(FIXED_TOKENS))) == FIXED_TOKENS


def test_vocabulary_freeze_and_unk(toy):
    vocab = build_vocabulary(toy)
    with pytest.raises(TokenizeError):
        vocab.id("neverseen")
    assert vocab.id_or_unk("neverseen") == vocab.id(UNK)
    with pytest.raises(TokenizeError):
        vocab.add("neverseen")


def test_encode_text_numbers_become_digits(toy):
    vocab = build_vocabulary(toy)
    ids = encode_text(vocab, "pressure 25.0 bar")
    tokens = vocab.tokens(ids)
    assert tokens[-5:] == ["2", "5", ".", "0", "<unk>"]  # bar is unknown


def test_encode_logical_form_round_trip_tokens(toy):
    vocab = build_vocabulary(toy)
    ids = encode_logical_form(vocab, "(AND ms.system (JOIN ms.length_units e1))")
    assert vocab.tokens(ids) == ["(", "AND", "ms", ".", "system", "(", "JOIN",
                                 "ms", ".", "length", "_", "units", "e1", ")", ")"]


def test_encode_logical_form_unknown_entity_rejected(toy):
    vocab = build_vocabulary(toy)
    with pytest.raises(TokenizeError):
        encode_logical_form(vocab, "(JOIN ms.length_units zz_unseen)")


def test_enumerated_forms_encode_as_their_print():
    """The enumerator builds every AND node in print order, so a form's
    context chunk, encoded off its node, is the encoding of its print."""
    rng = random.Random(5)
    toy = toy_store()
    question = Question.of("")
    for store in [toy] + [random_store(rng, max_entities=12, alias_shapes=True)
                          for _ in range(6)]:
        vocab = build_vocabulary(store)
        starts = [StartPoint.entity(e) for e in sorted(store.all_entities())[:4]]
        starts.append(StartPoint.literal(LiteralValue("float", 1.5)))
        forms = enumerate_elfs(starts, store)
        assert any(isinstance(form, And) for form in forms)
        for form in forms:
            for node in iter_nodes(form):
                if isinstance(node, And):
                    assert print_canonical(node) == (f"(AND {print_canonical(node.left)} "
                                                     f"{print_canonical(node.right)})")
            ctx = assemble_context(vocab, question, [], [ScoredCandidate(form, 0.0)],
                                   ([], []), store=store)
            tokens = list(ctx.token_ids)
            chunk = tokens[tokens.index(vocab.id(SECTION_ELFS)) + 1:
                           tokens.index(vocab.id(SECTION_SCHEMA))]
            assert chunk == encode_logical_form(vocab, print_canonical(form))


def test_trie_textbook_shape():
    vocab = Vocabulary()
    vocab.add("ab")
    vocab.add("ac")
    vocab.freeze()
    tables = DecodeTables(vocab, ["ab", "ac"], [])
    root_children = tables.sets["classes"]
    assert set(vocab.token(t) for t in root_children) == {"ab", "ac"}
    for child in root_children.values():
        assert child.terminal and not child.children
    assert tables.sets["relations"] == {}


def test_trie_exactness_on_catalog(toy):
    vocab = build_vocabulary(toy)
    tables = DecodeTables(vocab, toy.classes(), toy.relations())
    assert names_of(tables.sets["classes"], vocab) == toy.classes()
    relations = tables.sets["relations"]
    assert names_of(relations, vocab) == toy.relations()
    assert contains(relations, vocab.name_ids("ms.length_units"))
    assert not contains(relations, [vocab.id(t) for t in tokenize_name("ms.length")])


def test_trie_exactness_random_item_sets():
    """Over 30 random catalogs, the relation trie holds exactly the
    names, and a complete name goes on only with a separator token: the
    word(sep word)* shape of `tokenize_name` guarantees it, and the
    grammar's exit from a complete name rests on it."""
    rng = random.Random(31)
    words = ["unit", "system", "alpha", "beta", "core", "value", "of", "kind"]
    open_terminals = 0
    for _ in range(30):
        n = rng.randint(1, 200)
        items = set()
        for _ in range(n):
            segments = [
                "_".join(rng.choice(words) for _ in range(rng.randint(1, 2)))
                for _ in range(rng.randint(1, 3))]
            items.add(".".join(segments))
        builder = StoreBuilder()
        for item in sorted(items):
            builder.add_schema_item(SchemaItem("relation", item))
        store = builder.freeze()
        vocab = build_vocabulary(store)
        tables = DecodeTables(vocab, [], sorted(items))
        assert set(names_of(tables.sets["relations"], vocab)) == items
        separator_ids = {vocab.id(sep) for sep in SEPARATORS}
        for _, node in walk(tables.sets["relations"]):
            if node.terminal:
                assert set(node.children) <= separator_ids
                open_terminals += bool(node.children)
    assert open_terminals > 0


def test_empty_trie():
    vocab = Vocabulary().freeze()
    tables = DecodeTables(vocab, [], [])
    assert tables.sets["classes"] == {} and tables.sets["relations"] == {}
    assert names_of(tables.sets["classes"], vocab) == []
    # the root is never terminal: the empty name is refused
    with pytest.raises(TokenizeError, match="''"):
        DecodeTables(vocab, [""], [])


def test_trie_insertion_order_irrelevant(toy):
    vocab = build_vocabulary(toy)
    forward = DecodeTables(vocab, toy.classes(), toy.relations())
    backward = DecodeTables(vocab, list(reversed(toy.classes())),
                            list(reversed(toy.relations())))
    for kind in ("classes", "relations"):
        assert shape(forward.sets[kind]) == shape(backward.sets[kind])
        assert names_of(forward.sets[kind], vocab) == names_of(backward.sets[kind], vocab)


def test_tables_name_an_unknown_item():
    vocab = Vocabulary().freeze()
    for classes, relations in ((["zz.yy"], []), ([], ["zz.yy"])):
        with pytest.raises(TokenizeError) as err:
            DecodeTables(vocab, classes, relations)
        assert "zz.yy" in str(err.value)
