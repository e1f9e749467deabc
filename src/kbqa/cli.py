"""Command-line surface.

Subcommands: ingest, link, enumerate, retrieve-schema, decode, execute,
compile-sparql, predict, eval. Exit codes: 0 success, 1 usage error,
2 data error, 3 scorer-protocol error. In `decode` and `predict`, a
failed link, enumerate, retrieve or decode stage does not end the run:
it is recorded under `stage_errors` in that question's output line.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import ExitStack, closing
from pathlib import Path
from typing import Optional

from .enumerator import EnumConfig, enumerate_elfs
from .errors import DataError, KbqaError, ScorerProtocolError, UsageError
from .executor import compile_sparql, evaluate, evaluate_sparql_subset
from .fixtures import toy_store
from .metrics import evaluate_dataset, render_report, report_to_json
from .pipeline import (Pipeline, PipelineConfig, Prediction, QAExample, load_dataset,
                       start_points)
from .retrieve import (ConstantScorer, ExternalTextScorer, Question, Scorer,
                       TableScorer, build_lexical_scorer, link_question,
                       retrieve_schema)
from .scorers import (ExternalTokenScorer, OracleScorer, UniformScorer,
                      ngram_scorer_from_forms)
from .sexpr import canonicalize, parse, print_canonical
from .store import StoreBuilder, TripleStore
from .vocab import Vocabulary, encode_logical_form


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--kb", help="triples file (.tsv/.nt) or ingested store directory")
    parser.add_argument("--aliases", help="alias TSV file")
    parser.add_argument("--schema", help="schema TSV file")
    parser.add_argument("--format", choices=["tsv3", "ntriples"], default=None,
                        help="triple file format (default: by extension)")
    parser.add_argument("--type-relation", default="type_rel")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--beam-size", type=int, default=10)
    parser.add_argument("--max-output-tokens", type=int, default=128)
    parser.add_argument("--input-budget", type=int, default=1000)
    parser.add_argument("--top-schema", type=int, default=10)
    parser.add_argument("--top-elf", type=int, default=5)
    parser.add_argument("--hop-limit", type=int, default=2, choices=[1, 2])
    parser.add_argument("--max-candidates", type=int, default=2000)
    parser.add_argument("--max-mention-len", type=int, default=15)
    constrained = parser.add_mutually_exclusive_group()
    constrained.add_argument("--constrained", dest="constrained",
                             action="store_true", default=True)
    constrained.add_argument("--unconstrained", dest="constrained",
                             action="store_false")
    parser.add_argument("--scorer", default="uniform",
                        help="generation scorer: lexical|uniform|ngram:<path>|"
                             "oracle:<path>|extern:<cmd>")
    parser.add_argument("--retrieval-scorer", default="lexical",
                        help="retrieval scorer: lexical|uniform|oracle:<path>|extern:<cmd>")
    parser.add_argument("--oracle-eps", type=float, default=0.1)
    parser.add_argument("--ngram-order", type=int, default=3)
    parser.add_argument("--scorer-timeout", type=float, default=10.0)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--dump-context", action="store_true")
    parser.add_argument("--out", help="output path (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="kbqa", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("ingest", help="load KB files and write a store dump")
    _common_flags(sub)
    sub.add_argument("--strict-aliases", action="store_true")
    sub.add_argument("out_dir", help="directory for the dump")

    for name, help_text in [
        ("link", "entity linking for a dataset"),
        ("enumerate", "exemplary logical forms for a dataset"),
        ("retrieve-schema", "top schema items for a dataset"),
        ("decode", "beam decoding for a dataset"),
        ("predict", "end-to-end prediction for a dataset"),
    ]:
        sub = subs.add_parser(name, help=help_text)
        _common_flags(sub)
        sub.add_argument("dataset", help="dataset JSONL")

    sub = subs.add_parser("execute", help="evaluate a logical form over the KB")
    _common_flags(sub)
    sub.add_argument("logical_form")

    sub = subs.add_parser("compile-sparql", help="compile a logical form to SPARQL")
    _common_flags(sub)
    sub.add_argument("logical_form")
    sub.add_argument("--check", action="store_true",
                     help="also run the subset evaluator and print answers")

    sub = subs.add_parser("eval", help="score predictions against a dataset")
    _common_flags(sub)
    sub.add_argument("dataset")
    sub.add_argument("predictions")
    sub.add_argument("--text", action="store_true", help="aligned-text report")

    return parser


# ---------------------------------------------------------------------------
# store / scorer loading


def load_store(args) -> TripleStore:
    if not args.kb:
        raise UsageError("--kb is required for this command")
    path = Path(args.kb)
    if path == Path("toy:"):
        return toy_store()
    if path.is_dir():
        builder = StoreBuilder(type_relation=_dump_type_relation(path, args.type_relation))
        triples = path / "triples.tsv"
        if not triples.exists():
            raise DataError(f"store directory {path} has no triples.tsv")
        with triples.open(encoding="utf-8") as handle:
            builder.load_triples(handle, fmt="tsv3", source=str(triples))
        schema = path / "schema.tsv"
        if schema.exists():
            with schema.open(encoding="utf-8") as handle:
                builder.load_schema(handle, source=str(schema))
        labels = path / "labels.tsv"
        if labels.exists():
            with labels.open(encoding="utf-8") as handle:
                builder.load_labels(handle, source=str(labels))
        aliases = path / "aliases.tsv"
        if aliases.exists():
            with aliases.open(encoding="utf-8") as handle:
                builder.load_aliases(handle, source=str(aliases))
        return builder.freeze()
    if not path.exists():
        raise DataError(f"no such KB file: {path}")
    fmt = args.format or ("ntriples" if path.suffix == ".nt" else "tsv3")
    builder = StoreBuilder(type_relation=args.type_relation)
    with path.open(encoding="utf-8") as handle:
        builder.load_triples(handle, fmt=fmt, source=str(path))
    if args.schema:
        with open(args.schema, encoding="utf-8") as handle:
            builder.load_schema(handle, source=args.schema)
    if args.aliases:
        with open(args.aliases, encoding="utf-8") as handle:
            builder.load_aliases(handle, source=args.aliases)
    return builder.freeze()


def _dump_type_relation(path: Path, fallback: str) -> str:
    meta = path / "meta.json"
    if meta.exists():
        with meta.open(encoding="utf-8") as handle:
            return json.load(handle).get("type_relation", fallback)
    return fallback


def make_text_scorer(args, store: TripleStore) -> Scorer:
    spec = args.retrieval_scorer
    if spec == "lexical":
        return build_lexical_scorer(store)
    if spec == "uniform":
        return ConstantScorer(0.0)
    if spec.startswith("oracle:"):
        return TableScorer.from_json_file(spec.split(":", 1)[1])
    if spec.startswith("extern:"):
        return args.closers.enter_context(closing(
            ExternalTextScorer(spec.split(":", 1)[1], args.scorer_timeout)))
    raise UsageError(f"unknown retrieval scorer spec {spec!r}")


def make_token_scorer_factory(args):
    """Returns a vocab -> TokenScorer factory for the generation side."""
    spec = args.scorer

    def factory(vocab: Vocabulary):
        if spec == "uniform":
            return UniformScorer(vocab.size)
        if spec.startswith("ngram:"):
            path = spec.split(":", 1)[1]
            with open(path, encoding="utf-8") as handle:
                forms = [line.strip() for line in handle if line.strip()]
            return ngram_scorer_from_forms(forms, vocab, order=args.ngram_order)
        if spec.startswith("oracle:"):
            path = spec.split(":", 1)[1]
            with open(path, encoding="utf-8") as handle:
                forms = [line.strip() for line in handle if line.strip()]
            if not forms:
                raise DataError(f"oracle file {path} is empty")
            targets = [tuple(encode_logical_form(vocab, f)) + (vocab.end_id,)
                       for f in forms]
            return OracleScorer(targets[0], vocab.size, eps=args.oracle_eps,
                                fallback_targets=targets[1:], rng_seed=args.seed)
        if spec.startswith("extern:"):
            return args.closers.enter_context(closing(ExternalTokenScorer(
                spec.split(":", 1)[1], vocab.size, args.scorer_timeout)))
        if spec == "lexical":
            raise UsageError("the lexical scorer is a retrieval scorer; "
                             "pick uniform|ngram:<path>|oracle:<path>|extern:<cmd>")
        raise UsageError(f"unknown generation scorer spec {spec!r}")

    return factory


def make_pipeline(args, store: TripleStore,
                  extra_vocab_texts=()) -> Pipeline:
    cfg = PipelineConfig(
        beam_size=args.beam_size,
        max_output_tokens=args.max_output_tokens,
        input_budget=args.input_budget,
        top_schema=args.top_schema,
        top_elf=args.top_elf,
        constrained=args.constrained,
        max_mention_len=args.max_mention_len,
        enum=EnumConfig(hop_limit=args.hop_limit, max_candidates=args.max_candidates),
        dump_context=args.dump_context,
    )
    return Pipeline(store, cfg,
                    text_scorer=make_text_scorer(args, store),
                    token_scorer=make_token_scorer_factory(args),
                    extra_vocab_texts=extra_vocab_texts)


def _read_dataset(path: str) -> list[QAExample]:
    with open(path, encoding="utf-8") as handle:
        return load_dataset(handle)


def _output(args):
    """The --out file, closed when the command ends however it ends; or
    stdout."""
    if not args.out:
        return sys.stdout
    return args.closers.enter_context(open(args.out, "w", encoding="utf-8"))


# ---------------------------------------------------------------------------
# subcommands


def cmd_ingest(args) -> int:
    store = load_store(args)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "triples.tsv").write_text(
        "".join(line + "\n" for line in store.dump_triples_tsv()), encoding="utf-8")
    (out_dir / "schema.tsv").write_text(
        "".join(line + "\n" for line in store.dump_schema_tsv()), encoding="utf-8")
    (out_dir / "aliases.tsv").write_text(
        "".join(line + "\n" for line in store.dump_aliases_tsv()), encoding="utf-8")
    (out_dir / "labels.tsv").write_text(
        "".join(line + "\n" for line in store.dump_labels_tsv()), encoding="utf-8")
    (out_dir / "meta.json").write_text(
        json.dumps({"type_relation": store.type_relation,
                    "triples": len(store)}) + "\n", encoding="utf-8")
    print(f"ingested {len(store)} triples, "
          f"{len(store.catalog)} schema items -> {out_dir}")
    return 0


def cmd_link(args) -> int:
    store = load_store(args)
    scorer = make_text_scorer(args, store)
    out = _output(args)
    for example in _read_dataset(args.dataset):
        question = Question.of(example.question)
        for link in link_question(question, store, scorer, args.max_mention_len):
            out.write(json.dumps(link.to_json(example.qid)) + "\n")
    return 0


def cmd_enumerate(args) -> int:
    store = load_store(args)
    scorer = make_text_scorer(args, store)
    cfg = EnumConfig(hop_limit=args.hop_limit, max_candidates=args.max_candidates)
    out = _output(args)
    for example in _read_dataset(args.dataset):
        question = Question.of(example.question)
        links = link_question(question, store, scorer, args.max_mention_len)
        for lf in enumerate_elfs(start_points(question, links), store, cfg):
            answer = evaluate(lf, store)
            size = answer.number if answer.kind == "number" else len(answer.entities)
            out.write(f"{example.qid}\t{print_canonical(lf)}\t{size}\n")
    return 0


def cmd_retrieve_schema(args) -> int:
    store = load_store(args)
    scorer = make_text_scorer(args, store)
    out = _output(args)
    for example in _read_dataset(args.dataset):
        question = Question.of(example.question)
        classes, relations = retrieve_schema(question, store, scorer, args.top_schema)
        out.write(json.dumps({
            "qid": example.qid,
            "classes": [{"name": c.text(), "score": c.score} for c in classes],
            "relations": [{"name": r.text(), "score": r.score} for r in relations],
        }) + "\n")
    return 0


def cmd_decode(args) -> int:
    store = load_store(args)
    examples = _read_dataset(args.dataset)
    pipe = make_pipeline(args, store,
                         extra_vocab_texts=[e.question for e in examples])
    out = _output(args)
    for example in examples:
        prepared = pipe.prepare(example.question)
        record = {
            "qid": example.qid,
            "hypotheses": [
                {"rank": i, "text": text, "log_prob": hyp.log_prob}
                for i, (hyp, text) in enumerate(pipe.decode(prepared))
            ],
        }
        if prepared.stage_errors:
            record["stage_errors"] = prepared.stage_errors
        out.write(json.dumps(record) + "\n")
    return 0


def cmd_execute(args) -> int:
    store = load_store(args)
    lf = canonicalize(parse(args.logical_form))
    answer = evaluate(lf, store)
    print(json.dumps({
        "logical_form": print_canonical(lf),
        "kind": answer.kind,
        "answers": answer.strings(),
    }))
    return 0


def cmd_compile_sparql(args) -> int:
    lf = parse(args.logical_form)
    type_relation = args.type_relation
    if args.kb:
        store = load_store(args)
        type_relation = store.type_relation
    query = compile_sparql(lf, type_relation=type_relation)
    print(query.text)
    if args.check:
        if not args.kb:
            raise UsageError("--check needs --kb")
        answer = evaluate_sparql_subset(query, store)
        print(json.dumps({"shape": query.shape, "answers": answer.strings()}))
    return 0


def cmd_predict(args) -> int:
    store = load_store(args)
    examples = _read_dataset(args.dataset)
    pipe = make_pipeline(args, store,
                         extra_vocab_texts=[e.question for e in examples])
    predictions = pipe.predict_batch(examples, workers=args.workers)
    out = _output(args)
    for prediction in predictions:
        out.write(json.dumps(prediction.to_json()) + "\n")
    return 0


def cmd_eval(args) -> int:
    examples = _read_dataset(args.dataset)
    with open(args.predictions, encoding="utf-8") as handle:
        predictions = [Prediction.from_json(json.loads(line))
                       for line in handle if line.strip()]
    report = evaluate_dataset(examples, predictions, rng_seed=args.seed)
    output = render_report(report) if args.text else report_to_json(report)
    out = _output(args)
    out.write(output + "\n")
    return 0


_COMMANDS = {
    "ingest": cmd_ingest,
    "link": cmd_link,
    "enumerate": cmd_enumerate,
    "retrieve-schema": cmd_retrieve_schema,
    "decode": cmd_decode,
    "execute": cmd_execute,
    "compile-sparql": cmd_compile_sparql,
    "predict": cmd_predict,
    "eval": cmd_eval,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # External scorers' child processes end with the command.
        with ExitStack() as args.closers:
            return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ScorerProtocolError as exc:
        print(f"scorer protocol error: {exc}", file=sys.stderr)
        return 3
    except KbqaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
