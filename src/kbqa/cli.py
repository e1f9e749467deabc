"""Command-line surface.

Subcommands: ingest, link, enumerate, retrieve-schema, decode, predict,
execute, compile-sparql, eval. Each takes only the flags it reads; any
other flag is a usage error. The retrieval and decoding sizes default
to the library's, in `PipelineConfig` and `EnumConfig`. Exit codes:
0 success, 1 usage error, 2 data error, 3 scorer-protocol error. In
`decode` and `predict`, a failed link, enumerate, retrieve or decode
stage does not end the run: it is recorded under `stage_errors` in that
question's output line.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import ExitStack, closing
from pathlib import Path
from typing import Optional

from .enumerator import EnumConfig, enumerate_elfs
from .errors import (DataError, KbqaError, ScorerProtocolError, TokenizeError,
                     UsageError)
from .executor import compile_sparql, evaluate, evaluate_sparql_subset
from .fixtures import toy_store
from .metrics import evaluate_dataset, render_report, report_to_json
from .pipeline import (Pipeline, PipelineConfig, Prediction, QAExample,
                       load_dataset, load_records, start_points)
from .retrieve import (ConstantScorer, ExternalTextScorer, Question, Scorer,
                       TableScorer, build_lexical_scorer, link_question,
                       retrieve_schema)
from .scorers import ExternalTokenScorer, NgramScorer, OracleScorer, UniformScorer
from .sexpr import canonicalize, parse, print_canonical
from .store import StoreBuilder, TripleStore, read_rows
from .vocab import Vocabulary, encode_target


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


class _NotTaken(argparse.Action):
    """A flag of another command; it takes its value as it would there."""

    def __call__(self, parser, namespace, values, option_string=None):
        raise UsageError(f"{parser.prog} does not take {option_string}")


def _ranged(kind: type, low: float, high: float = math.inf, above: bool = False):
    """An argparse type for a `kind` number x with low <= x < high, or
    low < x < high when `above`; a value out of range is a usage error
    that names the flag."""
    bound = f"in [{low}, {high})" if high < math.inf else f"{'>' if above else '>='} {low}"

    def parse(text: str):
        value = kind(text)
        if not (low < value if above else low <= value) or not value < high:
            raise argparse.ArgumentTypeError(f"must be {bound}, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse names it in "invalid int value"
    return parse


_DEFAULT = PipelineConfig()

# Every flag once, in --help order. `_COMMANDS` names the ones each
# command's handler reads; a command takes no other.
_FLAGS = {
    "--kb": dict(help="triples file (.tsv/.nt) or ingested store directory"),
    "--aliases": dict(help="alias TSV file"),
    "--schema": dict(help="schema TSV file"),
    "--format": dict(choices=["tsv3", "ntriples"],
                     help="triple file format (default: by extension)"),
    "--type-relation": dict(default="type_rel"),
    "--seed": dict(type=int, default=0),
    "--beam-size": dict(type=_ranged(int, 1), default=_DEFAULT.beam_size),
    "--max-output-tokens": dict(type=_ranged(int, 1), default=_DEFAULT.max_output_tokens),
    "--input-budget": dict(type=_ranged(int, 0), default=_DEFAULT.input_budget),
    "--top-schema": dict(type=_ranged(int, 0), default=_DEFAULT.top_schema),
    "--top-elf": dict(type=_ranged(int, 0), default=_DEFAULT.top_elf),
    "--hop-limit": dict(type=int, choices=[1, 2], default=_DEFAULT.enum.hop_limit),
    "--max-candidates": dict(type=_ranged(int, 0), default=_DEFAULT.enum.max_candidates),
    "--max-mention-len": dict(type=_ranged(int, 1), default=_DEFAULT.max_mention_len),
    "--constrained": dict(action="store_true", default=_DEFAULT.constrained),
    "--unconstrained": dict(dest="constrained", action="store_false"),
    "--scorer": dict(default="uniform", help="generation scorer: lexical|uniform|"
                     "ngram:<path>|oracle:<path>|extern:<cmd>"),
    "--retrieval-scorer": dict(default="lexical", help="retrieval scorer: "
                               "lexical|uniform|oracle:<path>|extern:<cmd>"),
    "--oracle-eps": dict(type=_ranged(float, 0.0, 1.0), default=0.1),
    "--ngram-order": dict(type=_ranged(int, 1), default=3),
    "--scorer-timeout": dict(type=_ranged(float, 0.0, above=True), default=10.0),
    "--workers": dict(type=_ranged(int, 1), default=1),
    "--dump-context": dict(action="store_true"),
    "--out": dict(help="output path (default: stdout)"),
    "--strict-aliases": dict(action="store_true"),
    "--check": dict(action="store_true",
                    help="also run the subset evaluator and print answers"),
    "--text": dict(action="store_true", help="aligned-text report"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="kbqa", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_text, positionals, flags) in _COMMANDS.items():
        sub = subs.add_parser(name, help=help_text)
        sub.set_defaults(handler=handler)
        # --constrained and --unconstrained exclude each other
        either = sub.add_mutually_exclusive_group() if "--constrained" in flags else sub
        for flag, options in _FLAGS.items():
            if flag in flags:
                (either if "constrained" in flag else sub).add_argument(flag, **options)
            else:
                sub.add_argument(flag, action=_NotTaken, default=argparse.SUPPRESS,
                                 nargs=0 if "action" in options else None,
                                 help=argparse.SUPPRESS)
        for positional, positional_help in positionals.items():
            sub.add_argument(positional, help=positional_help)
    return parser


# ---------------------------------------------------------------------------
# store / scorer loading


def _dump_meta(store: TripleStore):
    yield json.dumps({"type_relation": store.type_relation, "triples": len(store)})


def _load_meta(builder: StoreBuilder, lines, source: str) -> None:
    def type_relation(meta: dict) -> str:
        value = meta.get("type_relation", builder.type_relation)
        if not isinstance(value, str) or not value:
            raise ValueError(f"type_relation must be a non-empty string, got {value!r}")
        return value

    for value in load_records(lines, source, type_relation, "store meta"):
        builder.type_relation = value


# The files of a store directory in load order: each with the store's
# dump that `kbqa ingest` writes and the builder's loader that reads it.
_STORE_FILES = (
    ("meta.json", _dump_meta, _load_meta),
    ("triples.tsv", TripleStore.dump_triples_tsv, StoreBuilder.load_triples),
    ("schema.tsv", TripleStore.dump_schema_tsv, StoreBuilder.load_schema),
    ("labels.tsv", TripleStore.dump_labels_tsv, StoreBuilder.load_labels),
    ("aliases.tsv", TripleStore.dump_aliases_tsv, StoreBuilder.load_aliases),
)


def _read(path, read, *args, **options):
    """`read(*args, lines, source=path, **options)` over the file's
    lines; a leading UTF-8 byte-order mark is dropped."""
    with open(path, encoding="utf-8-sig") as handle:
        return read(*args, handle, source=str(path), **options)


def load_store(args) -> TripleStore:
    if not args.kb:
        raise UsageError("--kb is required for this command")
    path = Path(args.kb)
    if path == Path("toy:"):
        return toy_store()
    builder = StoreBuilder(type_relation=args.type_relation)
    if path.is_dir():
        if not (path / "triples.tsv").exists():
            raise DataError(f"store directory {path} has no triples.tsv")
        for name, _, load in _STORE_FILES:
            if (path / name).exists():
                _read(path / name, load, builder)
        return builder.freeze()
    if not path.exists():
        raise DataError(f"no such KB file: {path}")
    # A namespace without a file flag's attribute did not give that file.
    fmt = getattr(args, "format", None) or ("ntriples" if path.suffix == ".nt" else "tsv3")
    _read(path, builder.load_triples, fmt=fmt)
    if getattr(args, "schema", None):
        _read(args.schema, builder.load_schema)
    if getattr(args, "aliases", None):
        _read(args.aliases, builder.load_aliases,
              strict=getattr(args, "strict_aliases", False))
    return builder.freeze()


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
        if spec.startswith(("ngram:", "oracle:")):
            kind, path = spec.split(":", 1)
            targets = []

            def read_form(line: str) -> None:
                # a malformed or out-of-vocabulary form fails at its file and line
                try:
                    targets.append(encode_target(vocab, line.strip()))
                except TokenizeError as exc:
                    raise DataError(str(exc)) from exc

            _read(path, read_rows, parse_row=read_form)
            if kind == "ngram":
                return NgramScorer(targets, vocab.size, order=args.ngram_order,
                                   begin_id=vocab.begin_id)
            if not targets:
                raise DataError(f"oracle file {path} is empty")
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


def make_pipeline(args, dump_context: bool = False) -> tuple[list[QAExample], Pipeline]:
    """The dataset's examples and a pipeline over the --kb store whose
    vocabulary holds their questions."""
    store = load_store(args)
    examples = _read(args.dataset, load_dataset)
    cfg = PipelineConfig(
        beam_size=args.beam_size, max_output_tokens=args.max_output_tokens,
        input_budget=args.input_budget, top_schema=args.top_schema,
        top_elf=args.top_elf, constrained=args.constrained,
        max_mention_len=args.max_mention_len, dump_context=dump_context,
        enum=EnumConfig(hop_limit=args.hop_limit, max_candidates=args.max_candidates))
    return examples, Pipeline(store, cfg,
                              text_scorer=make_text_scorer(args, store),
                              token_scorer=make_token_scorer_factory(args),
                              extra_vocab_texts=[e.question for e in examples])


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
    for name, dump, _ in _STORE_FILES:
        (out_dir / name).write_text(
            "".join(line + "\n" for line in dump(store)), encoding="utf-8")
    print(f"ingested {len(store)} triples, "
          f"{len(store.catalog)} schema items -> {out_dir}")
    return 0


def _each_question(lines):
    """A command that writes the lines of `lines(args, store, scorer,
    qid, question)` for each dataset question, with the retrieval
    scorer."""
    def command(args) -> int:
        store = load_store(args)
        scorer = make_text_scorer(args, store)
        out = _output(args)
        for example in _read(args.dataset, load_dataset):
            for line in lines(args, store, scorer, example.qid,
                              Question.of(example.question)):
                out.write(line + "\n")
        return 0
    return command


@_each_question
def cmd_link(args, store, scorer, qid, question):
    for link in link_question(question, store, scorer, args.max_mention_len):
        yield json.dumps(link.to_json(qid))


@_each_question
def cmd_enumerate(args, store, scorer, qid, question):
    cfg = EnumConfig(hop_limit=args.hop_limit, max_candidates=args.max_candidates)
    links = link_question(question, store, scorer, args.max_mention_len)
    for lf in enumerate_elfs(start_points(question, links), store, cfg):
        answer = evaluate(lf, store)
        size = answer.number if answer.kind == "number" else len(answer.entities)
        yield f"{qid}\t{print_canonical(lf)}\t{size}"


@_each_question
def cmd_retrieve_schema(args, store, scorer, qid, question):
    classes, relations = retrieve_schema(question, store, scorer, args.top_schema)
    yield json.dumps({
        "qid": qid,
        "classes": [{"name": c.text(), "score": c.score} for c in classes],
        "relations": [{"name": r.text(), "score": r.score} for r in relations],
    })


def cmd_decode(args) -> int:
    examples, pipe = make_pipeline(args)
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
    store = load_store(args) if args.kb else None
    query = compile_sparql(lf, type_relation=args.type_relation if store is None
                           else store.type_relation)
    print(query.text)
    if args.check:
        if store is None:
            raise UsageError("--check needs --kb")
        answer = evaluate_sparql_subset(query, store)
        print(json.dumps({"shape": query.shape, "answers": answer.strings()}))
    return 0


def cmd_predict(args) -> int:
    examples, pipe = make_pipeline(args, dump_context=args.dump_context)
    predictions = pipe.predict_batch(examples, workers=args.workers)
    out = _output(args)
    for prediction in predictions:
        out.write(json.dumps(prediction.to_json()) + "\n")
    return 0


def cmd_eval(args) -> int:
    examples = _read(args.dataset, load_dataset)
    predictions = _read(args.predictions, load_records,
                        from_json=Prediction.from_json, what="prediction")
    report = evaluate_dataset(examples, predictions, rng_seed=args.seed)
    output = render_report(report) if args.text else report_to_json(report)
    out = _output(args)
    out.write(output + "\n")
    return 0


_STORE_FLAGS = ("--kb", "--aliases", "--schema", "--format", "--type-relation")
_RETRIEVAL_FLAGS = (*_STORE_FLAGS, "--retrieval-scorer", "--scorer-timeout", "--out")
_DECODE_FLAGS = (*_RETRIEVAL_FLAGS, "--seed", "--beam-size", "--max-output-tokens",
                 "--input-budget", "--top-schema", "--top-elf", "--hop-limit",
                 "--max-candidates", "--max-mention-len", "--constrained",
                 "--unconstrained", "--scorer", "--oracle-eps", "--ngram-order")
_DATASET = {"dataset": "dataset JSONL"}
_FORM = {"logical_form": "an s-expression logical form"}

# name: (handler, help, positional arguments with their help, flags)
_COMMANDS = {
    "ingest": (cmd_ingest, "load KB files and write a store dump",
               {"out_dir": "directory for the dump"}, (*_STORE_FLAGS, "--strict-aliases")),
    "link": (cmd_link, "entity linking for a dataset", _DATASET,
             (*_RETRIEVAL_FLAGS, "--max-mention-len")),
    "enumerate": (cmd_enumerate, "exemplary logical forms for a dataset", _DATASET,
                  (*_RETRIEVAL_FLAGS, "--max-mention-len", "--hop-limit",
                   "--max-candidates")),
    "retrieve-schema": (cmd_retrieve_schema, "top schema items for a dataset", _DATASET,
                        (*_RETRIEVAL_FLAGS, "--top-schema")),
    "decode": (cmd_decode, "beam decoding for a dataset", _DATASET, _DECODE_FLAGS),
    "predict": (cmd_predict, "end-to-end prediction for a dataset", _DATASET,
                (*_DECODE_FLAGS, "--workers", "--dump-context")),
    "execute": (cmd_execute, "evaluate a logical form over the KB", _FORM, _STORE_FLAGS),
    "compile-sparql": (cmd_compile_sparql, "compile a logical form to SPARQL", _FORM,
                       (*_STORE_FLAGS, "--check")),
    "eval": (cmd_eval, "score predictions against a dataset",
             {**_DATASET, "predictions": "prediction JSONL"}, ("--seed", "--out", "--text")),
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # External scorers' child processes end with the command.
        with ExitStack() as args.closers:
            return args.handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ScorerProtocolError as exc:
        print(f"scorer protocol error: {exc}", file=sys.stderr)
        return 3
    except (KbqaError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
