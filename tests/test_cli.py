import json
import sys

import pytest

from kbqa.cli import main
from kbqa.fixtures import toy_aliases_tsv, toy_triples_tsv


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


def test_ingest_round_trip(kb_files, dataset, tmp_path, capsys):
    out_dir = tmp_path / "store"
    assert run(["ingest", "--kb", kb_files["kb"], "--aliases", kb_files["aliases"],
                str(out_dir)]) == 0
    assert (out_dir / "triples.tsv").exists()
    assert (out_dir / "meta.json").exists()
    # the dump loads back and serves queries
    code = run(["execute", "--kb", str(out_dir), "(COUNT sf.engine)"])
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


def test_malformed_labels_file_is_a_data_error(kb_files, tmp_path, capsys):
    out_dir = tmp_path / "store"
    assert run(["ingest", "--kb", kb_files["kb"], "--aliases", kb_files["aliases"],
                str(out_dir)]) == 0
    (out_dir / "labels.tsv").write_text("e1 without a tab\n", encoding="utf-8")
    assert run(["execute", "--kb", str(out_dir), "(COUNT sf.engine)"]) == 2
    assert "labels.tsv:1" in capsys.readouterr().err


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
