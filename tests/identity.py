"""Output identity as a committed check: record streams of the engine's
outputs, and one SHA-256 per stream.

A record is one JSON line. For a prediction it holds
`Prediction.to_json()` without `timing`, and the beam hypotheses that
`predict` saw, each with its tokens, rendered text and log-probability
by `float.hex`. The streams:

- `desk`: the desk suite of `test_acceptance.py`, constrained and
  unconstrained, each item with its scripted scorer;
- `toy-cli`: the output lines of `kbqa link`, `enumerate`,
  `retrieve-schema`, `decode`, `predict` and `execute` on `--kb toy:`
  (`timing` dropped from `predict` lines);
- `hub`: the benchmark's `hub` questions at seed 1;
- `generated`: the first 120 of the benchmark's `generated` questions
  at seed 1.

The benchmark streams are built as `benchmarks/run.py` builds them: the
generator's files loaded through `kbqa.cli.load_store`, and one oracle
token scorer per question.

    python tests/identity.py            # check the committed digests
    python tests/identity.py --write    # regenerate them
    python tests/identity.py --records DIR   # also write each stream to DIR
    python tests/identity.py --workloads 1 401   # digests of every question of
                                                 # the three workloads at those seeds

A change that alters outputs on purpose regenerates the digests and
says which streams changed and why.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Iterator

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "identity.json"
for path in (HERE, HERE.parent / "src", HERE.parent / "benchmarks"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from kbqa import cli  # noqa: E402
from kbqa.pipeline import Pipeline, PipelineConfig  # noqa: E402
from kbqa.retrieve import build_lexical_scorer  # noqa: E402
from kbqa.scorers import OracleScorer  # noqa: E402
from kbqa.vocab import encode_logical_form  # noqa: E402


def _line(record) -> str:
    return json.dumps(record, sort_keys=True, ensure_ascii=False)


def _prediction_record(pipe: Pipeline, question: str, qid: str) -> dict:
    """`predict` of one question, with every hypothesis its beam search
    gave, each rendered as `decode` renders it."""
    seen = []
    search = pipe._search

    def recording(prepared):
        hypotheses, decode_ctx = search(prepared)
        seen.extend((hyp, pipe._render(hyp, decode_ctx)) for hyp in hypotheses)
        return hypotheses, decode_ctx

    pipe._search = recording
    try:
        prediction = pipe.predict(question, qid)
    finally:
        del pipe._search
    record = prediction.to_json()
    del record["timing"]
    record["hypotheses"] = [[text, hyp.log_prob.hex(), list(hyp.tokens)]
                            for hyp, text in seen]
    return record


def desk_stream() -> Iterator[str]:
    import test_acceptance as acceptance
    for constrained in (True, False):
        for item in acceptance.desk_suite():
            pipe = acceptance.pipeline_for(item, constrained)
            pipe.token_scorer = acceptance.scripted_scorer(pipe, item)
            record = _prediction_record(pipe, item.question, item.qid)
            record["constrained"] = constrained
            yield _line(record)


def toy_cli_stream() -> Iterator[str]:
    import test_acceptance as acceptance
    toy = [item for item in acceptance.desk_suite() if item.store is acceptance.TOY]
    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp) / "data.jsonl"
        data.write_text("".join(_line({"qid": item.qid, "question": item.question})
                                + "\n" for item in toy), encoding="utf-8")
        oracle = Path(tmp) / "oracle.txt"
        oracle.write_text(toy[0].target + "\n", encoding="utf-8")
        runs = [[command, "--kb", "toy:", str(data)]
                for command in ("link", "enumerate", "retrieve-schema", "decode", "predict")]
        runs += [[command, "--kb", "toy:", "--scorer", f"oracle:{oracle}",
                  "--oracle-eps", "0.2", str(data)] for command in ("decode", "predict")]
        runs += [["decode", "--kb", "toy:", "--max-output-tokens", "9", str(data)]]
        runs += [["execute", "--kb", "toy:", item.gold_form] for item in toy if item.gold_form]
        for args in runs:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(args)
            shown = [arg.replace(tmp, "<tmp>") for arg in args[:1] + args[2:-1]]
            yield _line({"args": shown, "code": code})
            for line in out.getvalue().splitlines():
                if args[0] == "predict":
                    record = json.loads(line)
                    del record["timing"]
                    line = _line(record)
                yield line


def workload_stream(name: str, seed: int, limit: int = None) -> Iterator[str]:
    """The questions of a benchmark workload, as `benchmarks/run.py`
    asks them: the store loaded from the generator's files, and a
    trigram model or one oracle per question as the token scorer."""
    import kbgen
    import run as bench
    workload = bench.WORKLOADS[name]
    inputs = workload.make_inputs(seed)
    with tempfile.TemporaryDirectory() as tmp:
        inputs.kb.write(Path(tmp))
        store = cli.load_store(SimpleNamespace(kb=tmp, type_relation=kbgen.TYPE_REL))
    pipe = Pipeline(store, PipelineConfig(), text_scorer=build_lexical_scorer(store))
    vocab = pipe.vocab
    if workload.scorer == "ngram":
        pipe.token_scorer = bench.ngram_scorer_from_forms(bench.ngram_corpus(store), vocab)
    for question in inputs.questions[:limit]:
        if workload.scorer == "oracle":
            target = tuple(encode_logical_form(vocab, question.gold)) + (vocab.end_id,)
            pipe.token_scorer = OracleScorer(target, vocab.size, eps=workload.oracle_eps,
                                             rng_seed=question.oracle_seed)
        yield _line(_prediction_record(pipe, question.text, question.qid))


STREAMS: dict[str, Callable[[], Iterator[str]]] = {
    "desk": desk_stream,
    "toy-cli": toy_cli_stream,
    "hub": lambda: workload_stream("hub", 1),
    "generated": lambda: workload_stream("generated", 1, limit=120),
}


def digest(lines: Iterator[str], keep: list = None) -> dict:
    sha = hashlib.sha256()
    count = 0
    for line in lines:
        sha.update(line.encode("utf-8") + b"\n")
        count += 1
        if keep is not None:
            keep.append(line)
    return {"sha256": sha.hexdigest(), "records": count}


def compute(names=STREAMS, records_dir: Path = None) -> dict:
    result = {}
    for name in names:
        keep = [] if records_dir is not None else None
        result[name] = digest(STREAMS[name](), keep)
        if records_dir is not None:
            records_dir.mkdir(parents=True, exist_ok=True)
            (records_dir / f"{name}.jsonl").write_text(
                "".join(line + "\n" for line in keep), encoding="utf-8")
    return result


def committed() -> dict:
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", help="regenerate the digests")
    parser.add_argument("--records", type=Path, help="write each stream's records here")
    parser.add_argument("--workloads", type=int, nargs="+", metavar="SEED",
                        help="print the digests of every question of the three "
                             "workloads at these seeds instead")
    args = parser.parse_args(argv)
    if args.workloads:
        for seed in args.workloads:
            for name in ("elf-fallback", "generated", "hub"):
                STREAMS[f"{name}@{seed}"] = lambda n=name, s=seed: workload_stream(n, s)
        names = [n for n in STREAMS if "@" in n]
        print(json.dumps(compute(names, args.records), indent=1))
        return 0
    got = compute(records_dir=args.records)
    if args.write:
        DIGESTS.write_text(json.dumps(got, indent=1) + "\n", encoding="utf-8")
        print(json.dumps(got, indent=1))
        return 0
    want = committed()
    bad = [name for name in want if got.get(name) != want[name]]
    for name in bad:
        print(f"identity: stream {name} changed: {want[name]} -> {got.get(name)}",
              file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
