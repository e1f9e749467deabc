import random

import pytest

from kbqa.enumerator import StartPoint, enumerate_elfs
from kbqa.errors import TokenizeError
from kbqa.fixtures import toy_store
from kbqa.sexpr import (And, ClassRef, Count, EntityRef, Join, LiteralRef, Reverse,
                        print_canonical)
from kbqa.store import LiteralValue, SchemaItem, StoreBuilder
from kbqa.trie import build_trie
from kbqa.vocab import (UNK, Vocabulary, build_vocabulary, encode_canonical,
                        encode_logical_form, encode_text, tokenize_literal,
                        tokenize_name)
from randgen import random_store


def items_of(trie, vocab):
    """Every terminal path spelled out: the items the trie was built on."""
    return sorted("".join(vocab.tokens(path)) for path in trie.terminal_paths())


def contains(trie, token_ids):
    node = trie.walk(token_ids)
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


def _outcome(encode):
    try:
        return encode()
    except Exception as exc:  # the error itself is the outcome compared
        return type(exc), str(exc)


def test_canonical_encoding_is_the_encoding_of_the_print():
    """`encode_canonical` reads a form's ids off the node. They are the
    ids of its canonical print, or the same error, for enumerated forms
    (whose class wraps are built class first, the reverse of print
    order) and for nodes with parts that read back otherwise: an entity
    in an expression slot, a class in an object slot, literal-shaped and
    operator names, an untagged integer, a name with a space, COUNT."""
    rng = random.Random(5)
    toy = toy_store()
    odd = [And(ClassRef("ms.system"), Join("ms.length_units", EntityRef("e1"))),
           And(EntityRef("e1"), ClassRef("ms.system")),
           Join("ms.length_units", ClassRef("ms.system")),
           Join("ms.length_units", LiteralRef(LiteralValue("integer", 5))),
           Join(Reverse("ms.length_units"), EntityRef("12")),
           Join("AND", EntityRef("e1")), Join("ms.length_units", EntityRef("e 1")),
           Join("ms.length_units", EntityRef("nowhere")), Count(ClassRef("sf.engine")),
           EntityRef("e1"), ClassRef("sf.engine")]
    cases = [(toy, odd)]
    for store in [toy] + [random_store(rng, max_entities=12) for _ in range(6)]:
        starts = [StartPoint.entity(e) for e in sorted(store.all_entities())[:4]]
        starts.append(StartPoint.literal(LiteralValue("float", 1.5)))
        cases.append((store, enumerate_elfs(starts, store)))
    for store, forms in cases:
        vocab = build_vocabulary(store)
        for form in forms:
            assert _outcome(lambda: encode_canonical(vocab, form)) == \
                _outcome(lambda: encode_logical_form(vocab, print_canonical(form)))


def test_trie_textbook_shape():
    vocab = Vocabulary()
    vocab.add("ab")
    vocab.add("ac")
    vocab.freeze()
    trie = build_trie(["ab", "ac"], vocab)
    root_children = trie.root.children
    assert set(vocab.token(t) for t in root_children) == {"ab", "ac"}
    for child in root_children.values():
        assert child.terminal and not child.children


def test_trie_exactness_on_catalog(toy):
    vocab = build_vocabulary(toy)
    trie = build_trie(toy.classes(), vocab)
    assert items_of(trie, vocab) == toy.classes()
    rel_trie = build_trie(toy.relations(), vocab)
    assert items_of(rel_trie, vocab) == toy.relations()
    assert contains(rel_trie, [vocab.id(t) for t in tokenize_name("ms.length_units")])
    assert not contains(rel_trie, [vocab.id(t) for t in tokenize_name("ms.length")])


def test_trie_exactness_random_item_sets():
    rng = random.Random(31)
    words = ["unit", "system", "alpha", "beta", "core", "value", "of", "kind"]
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
        trie = build_trie(sorted(items), vocab)
        assert set(items_of(trie, vocab)) == items


def test_empty_trie():
    vocab = Vocabulary().freeze()
    trie = build_trie([], vocab)
    assert not trie.root.terminal
    assert not trie.root.children
    assert items_of(trie, vocab) == []


def test_trie_insertion_order_irrelevant(toy):
    vocab = build_vocabulary(toy)
    forward = build_trie(toy.relations(), vocab)
    backward = build_trie(list(reversed(toy.relations())), vocab)
    assert items_of(forward, vocab) == items_of(backward, vocab)


def test_build_trie_names_unknown_item():
    vocab = Vocabulary().freeze()
    with pytest.raises(TokenizeError) as err:
        build_trie(["zz.yy"], vocab)
    assert "zz.yy" in str(err.value)
