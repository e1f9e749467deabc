import json
import re
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from kbqa.cli import load_store, main
from kbqa.fixtures import toy_store

from references import toy_aliases_tsv, toy_triples_tsv


@pytest.fixture()
def kb_files(tmp_path):
    kb = tmp_path / "kb.tsv"
    kb.write_text(toy_triples_tsv(), encoding="utf-8")
    aliases = tmp_path / "aliases.tsv"
    aliases.write_text(toy_aliases_tsv(), encoding="utf-8")
    return {"kb": str(kb), "aliases": str(aliases), "dir": tmp_path}


@pytest.fixture()
def dataset(tmp_path):
    path = tmp_path / "data.jsonl"
    rows = [
        {"qid": "q1",
         "question": "name the system that has decimetre as a measurement unit",
         "sexpr": "(AND ms.system (JOIN ms.length_units e1))",
         "answers": ["sys1"]},
        {"qid": "q2", "question": "how many engines are there",
         "sexpr": "(COUNT sf.engine)", "answers": ["2"]},
    ]
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    return str(path)


def run(args):
    return main(args)


def test_execute(kb_files, capsys):
    code = run(["execute", "--kb", kb_files["kb"], "--aliases", kb_files["aliases"],
                "(AND ms.system (JOIN ms.length_units e1))"])
    assert code == 0
    record = json.loads(capsys.readouterr().out)
    assert record["answers"] == ["sys1"]


def test_compile_sparql_with_check(kb_files, capsys):
    code = run(["compile-sparql", "--kb", kb_files["kb"], "--check",
                "(ARGMIN sf.engine sf.chamber_pressure)"])
    assert code == 0
    out = capsys.readouterr().out
    assert "SELECT DISTINCT ?x" in out
    assert '"answers": ["eng1"]' in out


NT_KB = (
    '<http://kb/e1> <http://kb/rdf_type> <http://kb/c.thing> .\n'
    '<http://kb/e1> <http://kb/r.name> "one" .\n'
    '<http://kb/e1> <http://kb/r.size> "3"^^<http://www.w3.org/2001/XMLSchema#integer> .\n'
    '<http://kb/e1> <http://kb/r.part> <http://kb/e2> .\n'
)

STORE_FILES = ("triples.tsv", "schema.tsv", "labels.tsv", "aliases.tsv", "meta.json")


def test_ingest_round_trip(kb_files, dataset, tmp_path, capsys):
    schema = tmp_path / "schema.tsv"
    schema.write_text("# kind, name, label, domain, range\n"
                      "relation\tms.length_units\tlength unit\tms.system\tms.unit\n",
                      encoding="utf-8")
    nt = tmp_path / "kb.nt"
    nt.write_text(NT_KB, encoding="utf-8")
    inputs = {
        "tsv": ["--kb", kb_files["kb"], "--aliases", kb_files["aliases"],
                "--schema", str(schema)],
        "nt": ["--kb", str(nt), "--type-relation", "rdf_type"],
    }
    for name, kb_args in inputs.items():
        first, second = tmp_path / f"{name}1", tmp_path / f"{name}2"
        assert run(["ingest", *kb_args, str(first)]) == 0
        # ingesting a dump again writes the same five files: a fixed point
        assert run(["ingest", "--kb", str(first), str(second)]) == 0
        for file in STORE_FILES:
            assert (second / file).read_bytes() == (first / file).read_bytes(), (name, file)
    assert "relation\tms.length_units\tlength unit\tms.system\tms.unit\n" in \
        (tmp_path / "tsv1" / "schema.tsv").read_text(encoding="utf-8")
    assert "class\tc.thing" in (tmp_path / "nt1" / "schema.tsv").read_text(encoding="utf-8")
    assert "e1\tr.size\t3^^integer\n" in (tmp_path / "nt1" / "triples.tsv").read_text(
        encoding="utf-8")
    # the dump loads back and serves queries
    code = run(["execute", "--kb", str(tmp_path / "tsv1"), "(COUNT sf.engine)"])
    assert code == 0
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["answers"] == ["2"]


def test_link(kb_files, dataset, capsys):
    assert run(["link", "--kb", kb_files["kb"], "--aliases", kb_files["aliases"],
                dataset]) == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    assert any(r["entity"] == "e1" and r["question_id"] == "q1" for r in lines)


def test_enumerate(kb_files, dataset, capsys):
    assert run(["enumerate", "--kb", kb_files["kb"], "--aliases",
                kb_files["aliases"], dataset]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [line.split("\t") for line in lines]
    assert all(len(row) == 3 for row in rows)
    assert any("(JOIN ms.length_units e1)" == row[1] and row[2] == "1"
               for row in rows)


def test_retrieve_schema(kb_files, dataset, capsys):
    assert run(["retrieve-schema", "--kb", kb_files["kb"], "--aliases",
                kb_files["aliases"], dataset]) == 0
    records = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    assert len(records) == 2
    assert all(len(r["classes"]) == 2 and len(r["relations"]) == 4
               for r in records)


def test_decode_and_predict_with_oracle(kb_files, dataset, tmp_path, capsys):
    oracle = tmp_path / "oracle.txt"
    oracle.write_text("(AND ms.system (JOIN ms.length_units e1))\n",
                      encoding="utf-8")
    assert run(["decode", "--kb", kb_files["kb"], "--aliases", kb_files["aliases"],
                "--scorer", f"oracle:{oracle}", "--oracle-eps", "0.0",
                dataset]) == 0
    records = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    assert records[0]["hypotheses"][0]["text"] == \
        "(AND ms.system (JOIN ms.length_units e1))"

    preds = tmp_path / "preds.jsonl"
    assert run(["predict", "--kb", kb_files["kb"], "--aliases", kb_files["aliases"],
                "--scorer", f"oracle:{oracle}", "--oracle-eps", "0.0",
                "--out", str(preds), dataset]) == 0
    records = [json.loads(l) for l in preds.read_text().splitlines()]
    assert records[0]["provenance"] == "generated"
    assert records[0]["answers"] == ["sys1"]
    assert records[1]["provenance"] in ("elf-fallback", "none")


def test_predict_ngram_and_eval(kb_files, dataset, tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("(AND ms.system (JOIN ms.length_units e1))\n"
                      "(COUNT sf.engine)\n", encoding="utf-8")
    preds = tmp_path / "preds.jsonl"
    assert run(["predict", "--kb", kb_files["kb"], "--aliases", kb_files["aliases"],
                "--scorer", f"ngram:{corpus}", "--out", str(preds), dataset]) == 0
    assert run(["eval", "--text", dataset, str(preds)]) == 0
    text = capsys.readouterr().out
    assert "overall" in text

    assert run(["eval", dataset, str(preds)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["overall"]["count"] == 2


def test_exit_codes(kb_files, tmp_path, capsys):
    # usage error: unknown subcommand flag combinations
    assert run(["execute", "(COUNT c)"]) == 1  # --kb missing
    # data error: malformed KB file
    bad = tmp_path / "bad.tsv"
    bad.write_text("only two\tfields\n", encoding="utf-8")
    assert run(["execute", "--kb", str(bad), "(COUNT c)"]) == 2
    # data error: missing file
    assert run(["execute", "--kb", str(tmp_path / "nope.tsv"), "(COUNT c)"]) == 2
    # usage error from argparse (bad flag)
    assert run(["--no-such-flag"]) == 1
    # scorer spec errors are usage errors
    assert run(["predict", "--kb", kb_files["kb"], "--scorer", "bogus",
                str(tmp_path / "nope.jsonl")]) in (1, 2)
    # data error: a retrieval oracle table that is not a JSON object of numbers
    for text in ('{"x": 1', '{"x": "high"}'):
        table = tmp_path / "table.json"
        table.write_text(text, encoding="utf-8")
        assert run(["link", "--kb", "toy:", "--retrieval-scorer", f"oracle:{table}",
                    str(tmp_path / "nope.jsonl")]) == 2
        assert str(table) in capsys.readouterr().err


# The flags each command's handler reads, and no other: 95 in all.
_STORE = "--kb --aliases --schema --format --type-relation "
_QUESTIONS = _STORE + "--retrieval-scorer --scorer-timeout --out "
_DECODE = _QUESTIONS + ("--seed --beam-size --max-output-tokens --input-budget "
                        "--top-schema --top-elf --hop-limit --max-candidates "
                        "--max-mention-len --constrained --unconstrained --scorer "
                        "--oracle-eps --ngram-order")
COMMAND_FLAGS = {
    "ingest": _STORE + "--strict-aliases",
    "link": _QUESTIONS + "--max-mention-len",
    "enumerate": _QUESTIONS + "--max-mention-len --hop-limit --max-candidates",
    "retrieve-schema": _QUESTIONS + "--top-schema",
    "decode": _DECODE,
    "predict": _DECODE + " --workers --dump-context",
    "execute": _STORE,
    "compile-sparql": _STORE + "--check",
    "eval": "--seed --out --text",
}


@pytest.mark.parametrize("command", list(COMMAND_FLAGS))
def test_help_lists_exactly_the_flags_the_command_reads(command, capsys):
    with pytest.raises(SystemExit) as exited:
        main([command, "--help"])
    assert exited.value.code == 0
    listed = re.findall(r"^  (--[a-z-]+)", capsys.readouterr().out, re.MULTILINE)
    assert sorted(listed) == sorted(COMMAND_FLAGS[command].split())


@pytest.mark.parametrize("argv, flag", [
    (["eval", "--kb", "kb", "data.jsonl", "preds.jsonl"], "--kb"),
    (["execute", "--kb", "toy:", "--out", "F", "(COUNT sf.engine)"], "--out"),
    (["compile-sparql", "--out", "F", "(COUNT sf.engine)"], "--out"),
    (["ingest", "--kb", "toy:", "--out", "F", "store"], "--out"),
    (["link", "--kb", "toy:", "--beam-size", "3", "data.jsonl"], "--beam-size"),
    (["retrieve-schema", "--kb", "toy:", "--top-elf=2", "data.jsonl"], "--top-elf"),
    (["decode", "--kb", "toy:", "--dump-context", "data.jsonl"], "--dump-context"),
])
def test_flag_of_another_command_is_a_usage_error(argv, flag, tmp_path, monkeypatch,
                                                   capsys):
    """A flag that the command would ignore exits 1 naming the flag and
    the command, before the command reads or writes anything. The flag
    takes its value as it would elsewhere, so the message names no
    positional argument."""
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err == f"usage error: kbqa {argv[0]} does not take {flag}\n"
    positionals = {"eval": 2}.get(argv[0], 1)
    assert not any(value in err for value in argv[-positionals:])
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag, bad, edge", [
    ("--beam-size", "0", "1"),
    ("--max-candidates", "-1", "0"),
    ("--ngram-order", "0", "1"),
    ("--oracle-eps", "1.5", "0"),
    ("--top-elf", "-1", "0"),
    ("--top-schema", "-1", "0"),
    ("--max-mention-len", "0", "1"),
    ("--max-output-tokens", "0", "1"),
    ("--input-budget", "-1", "0"),
    ("--scorer-timeout", "0", "0.5"),
    ("--workers", "0", "1"),
])
def test_out_of_range_flag_is_a_usage_error(flag, bad, edge, dataset, tmp_path, capsys):
    """A numeric flag outside its range exits 1 naming the flag, for the
    scorer that would read it; the value at the edge of the range runs."""
    forms = tmp_path / "forms.txt"
    forms.write_text("(COUNT sf.engine)\n", encoding="utf-8")
    scorer = {"--ngram-order": f"ngram:{forms}",
              "--oracle-eps": f"oracle:{forms}"}.get(flag, "uniform")
    argv = ["predict", "--kb", "toy:", "--scorer", scorer, dataset]
    assert run([*argv, flag, bad]) == 1
    err = capsys.readouterr().err
    assert f"usage error: argument {flag}: must be " in err and "Traceback" not in err
    assert run([*argv, flag, edge]) == 0


def test_decode_records_stage_errors(kb_files, dataset, capsys, popen_children):
    # a generation scorer whose process exits at once fails every decode
    dead = f"extern:{sys.executable} -c pass"
    assert run(["decode", "--kb", kb_files["kb"], "--aliases", kb_files["aliases"],
                "--scorer", dead, dataset]) == 0
    records = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    assert [r["qid"] for r in records] == ["q1", "q2"]
    for record in records:
        assert record["hypotheses"] == []
        assert "scorer" in record["stage_errors"]["decode"]
    # every child the command started is closed and reaped when it ends
    assert len(popen_children) == 2
    for child in popen_children:
        assert child.stdin.closed and child.stdout.closed
        assert child.returncode is not None


def test_failed_command_closes_its_out_file(dataset, tmp_path, popen_children):
    # a retrieval scorer whose process exits at once fails the command
    # part-way, after --out is open; the file must be closed regardless
    out = tmp_path / "out.jsonl"
    dead = f"extern:{sys.executable} -c pass"
    assert run(["link", "--kb", "toy:", "--retrieval-scorer", dead,
                "--out", str(out), dataset]) == 3
    assert out.read_text(encoding="utf-8") == ""
    assert len(popen_children) == 1 and popen_children[0].returncode is not None


def test_malformed_labels_file_is_a_data_error(kb_files, dataset, tmp_path, capsys):
    """A malformed line in any input file exits 2 and names the file
    and the line."""
    out_dir = tmp_path / "store"
    assert run(["ingest", "--kb", kb_files["kb"], "--aliases", kb_files["aliases"],
                str(out_dir)]) == 0
    (out_dir / "labels.tsv").write_text("e1 without a tab\n", encoding="utf-8")
    assert run(["execute", "--kb", str(out_dir), "(COUNT sf.engine)"]) == 2
    assert "labels.tsv:1" in capsys.readouterr().err

    def bad(name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    cases = [
        (["execute", "--kb", bad("bad.tsv", "# a comment\nonly two\tfields\n"), "(COUNT c)"],
         "bad.tsv:2: expected 3 tab-separated fields, got 2"),
        (["execute", "--kb", bad("bad.nt", "<a> <b> .\n"), "(COUNT c)"],
         "bad.nt:1: malformed N-Triples line"),
        (["execute", "--kb", kb_files["kb"], "--schema",
          bad("schema.tsv", "relation\tr.ok\nclass\n"), "(COUNT c)"],
         "schema.tsv:2: expected at least kind and name"),
        (["execute", "--kb", kb_files["kb"], "--aliases",
          bad("alias.tsv", "\ndecimetre\te1\tmuch\n"), "(COUNT c)"],
         "alias.tsv:2: bad popularity 'much'"),
        (["ingest", "--kb", kb_files["kb"], "--strict-aliases", "--aliases",
          bad("strict.tsv", "decimetre\te1\t0.9\nnobody\tm.none\t0.1\n"),
          str(tmp_path / "strict")],
         "strict.tsv:2: alias 'nobody' names unknown entity 'm.none'"),
        (["link", "--kb", "toy:", bad("bad.jsonl", "{not json\n")],
         "bad.jsonl:1: bad dataset record: "),
        (["link", "--kb", "toy:", bad("list.jsonl", '["q1", "x"]\n')],
         "list.jsonl:1: bad dataset record: expected a JSON object, got list"),
        (["link", "--kb", "toy:", bad("typed.jsonl", '{"qid": "q1", "question": 5}\n')],
         "typed.jsonl:1: bad dataset record: question must be a string, got int"),
        (["eval", dataset, bad("preds.jsonl", '{"qid": "q1"}\n{"qid": \n')],
         "preds.jsonl:2: bad prediction record: "),
        (["eval", dataset, bad("str.jsonl", '{"qid": "q1", "answers": "sys1"}\n')],
         "str.jsonl:1: bad prediction record: answers must be a list of strings"),
        (["eval", dataset, bad("rank.jsonl", '{"qid": "q1", "beam_rank": "0"}\n')],
         "rank.jsonl:1: bad prediction record: beam_rank must be an integer, got str"),
    ]
    for argv, message in cases:
        assert run(argv) == 2, argv
        assert message in capsys.readouterr().err, argv


def test_bad_meta_type_relation_is_a_data_error(tmp_path, capsys):
    """A store directory whose meta.json names no usable type relation
    is a data error, not a store without classes."""
    out_dir = tmp_path / "store"
    assert run(["ingest", "--kb", "toy:", str(out_dir)]) == 0
    for value in (5, "", None, ["type_rel"]):
        (out_dir / "meta.json").write_text(json.dumps({"type_relation": value}) + "\n",
                                           encoding="utf-8")
        assert run(["execute", "--kb", str(out_dir), "(COUNT sf.engine)"]) == 2, value
        assert "meta.json:1: bad store meta record: type_relation must be a non-empty " \
            "string" in capsys.readouterr().err, value


BOM = b"\xef\xbb\xbf"


def test_byte_order_mark_does_not_split_an_entity(tmp_path):
    """A store file that starts with a UTF-8 byte-order mark loads its
    first subject as the same entity as the later lines name. Like
    benchmarks/run.py, this calls `load_store` with only `kb` and
    `type_relation`, which is enough for a store directory and for a
    triples file."""
    store_dir = tmp_path / "store"
    store_dir.mkdir()
    (store_dir / "triples.tsv").write_bytes(BOM + b"e1\tr.x\te2\ne1\ttype_rel\tc.a\n")
    store = load_store(SimpleNamespace(kb=str(store_dir), type_relation="type_rel"))
    assert sorted(store.all_entities()) == ["e1", "e2"]
    assert store.instances_of("c.a") == {"e1"}

    assert run(["ingest", "--kb", "toy:", str(tmp_path / "toy")]) == 0
    store = load_store(SimpleNamespace(kb=str(tmp_path / "toy"), type_relation="other"))
    toy = toy_store()
    assert store.type_relation == toy.type_relation  # meta.json wins
    assert list(store.dump_triples_tsv()) == list(toy.dump_triples_tsv())
    assert list(store.dump_aliases_tsv()) == list(toy.dump_aliases_tsv())

    triples = tmp_path / "kb.tsv"
    triples.write_bytes(BOM + toy_triples_tsv().encode("utf-8"))
    store = load_store(SimpleNamespace(kb=str(triples), type_relation="type_rel"))
    assert list(store.dump_triples_tsv()) == list(toy.dump_triples_tsv())
    assert list(store.dump_aliases_tsv()) == []


def test_byte_order_mark_dataset_and_score_table_load(kb_files, dataset, tmp_path, capsys):
    bom_dataset = tmp_path / "bom.jsonl"
    bom_dataset.write_bytes(BOM + Path(dataset).read_bytes())
    table = tmp_path / "scores.json"
    table.write_bytes(BOM + b'{"sf.engine": 1.0}')
    assert run(["retrieve-schema", "--kb", kb_files["kb"], "--retrieval-scorer",
                f"oracle:{table}", str(bom_dataset)]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert len(records) == 2
    assert records[0]["classes"][0]["name"] == "sf.engine"


def test_out_of_vocabulary_form_names_file_and_line(tmp_path, capsys):
    """A form that parses but names a token outside the vocabulary is a
    data error at its line of the forms file, for both file scorers."""
    forms = tmp_path / "unk.txt"
    forms.write_text("(COUNT sf.engine)\n(JOIN bogus.rel e1)\n", encoding="utf-8")
    dataset = tmp_path / "q.jsonl"
    dataset.write_text('{"qid": "q1", "question": "how many engines"}\n', encoding="utf-8")
    for kind in ("oracle", "ngram"):
        assert run(["decode", "--kb", "toy:", "--scorer", f"{kind}:{forms}",
                    str(dataset)]) == 2
        assert f"{forms}:2: token not in vocabulary: 'bogus'" in capsys.readouterr().err


def test_dump_context_flag(kb_files, dataset, tmp_path):
    oracle = tmp_path / "oracle.txt"
    oracle.write_text("(AND ms.system (JOIN ms.length_units e1))\n",
                      encoding="utf-8")
    preds = tmp_path / "preds.jsonl"
    assert run(["predict", "--kb", kb_files["kb"], "--aliases", kb_files["aliases"],
                "--scorer", f"oracle:{oracle}", "--oracle-eps", "0.0",
                "--dump-context", "--out", str(preds), dataset]) == 0
    record = json.loads(preds.read_text().splitlines()[0])
    assert "context" in record
    assert record["context"]["entities"] == [["decimetre", "e1"]]
    assert record["context"]["token_count"] <= 1000
    assert "timing" in record and "total" in record["timing"]


def test_unconstrained_flag(kb_files, dataset, tmp_path, capsys):
    oracle = tmp_path / "oracle.txt"
    oracle.write_text("(AND ms.system (JOIN ms.length_units e1))\n",
                      encoding="utf-8")
    assert run(["predict", "--kb", kb_files["kb"], "--aliases", kb_files["aliases"],
                "--unconstrained", "--scorer", f"oracle:{oracle}",
                "--oracle-eps", "0.0", dataset]) == 0
    records = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    assert records[0]["provenance"] == "generated"
