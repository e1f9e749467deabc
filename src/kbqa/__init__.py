"""Knowledge-base question answering engine: s-expression logical
forms over an in-memory triple store, multi-grained retrieval, and
grammar/trie-constrained beam decoding with execution-validated
prediction."""

from .beam import Hypothesis, TokenScorer, beam_search, sequence_nll
from .enumerator import EnumConfig, StartPoint, enumerate_elfs
from .executor import (AnswerSet, SparqlQuery, compile_sparql, evaluate,
                       evaluate_sparql_subset, is_valid_prediction)
from .grammar import (DecodeContext, DecodeTables, GrammarState, advance, allowed_next,
                      render_tokens)
from .metrics import answer_f1, evaluate_dataset, exact_match, hits_at_1
from .pipeline import (AssembledContext, Pipeline, PipelineConfig, Prediction,
                       QAExample, assemble_context, load_dataset)
from .retrieve import (LexicalScorer, LinkedEntity, Mention, Question,
                       ScoredCandidate, Scorer, detect_mentions, disambiguate,
                       rank_elfs, ranker_loss, retrieve_schema)
from .scorers import NgramScorer, OracleScorer, SparseRow, UniformScorer
from .sexpr import (FunctionClass, LogicalForm, canonicalize, function_class,
                    parse, print_canonical, relation_count, validate_schema)
from .store import (LiteralValue, SchemaItem, StoreBuilder, Triple, TripleStore,
                    parse_literal)
from .trie import SchemaTrie, build_trie
from .vocab import Vocabulary, build_vocabulary, encode_logical_form

__version__ = "0.1.0"

__all__ = [
    "AnswerSet", "AssembledContext", "DecodeContext", "DecodeTables", "EnumConfig",
    "FunctionClass", "GrammarState", "Hypothesis", "LexicalScorer",
    "LinkedEntity", "LiteralValue", "LogicalForm", "Mention", "NgramScorer",
    "OracleScorer", "Pipeline", "PipelineConfig", "Prediction", "QAExample",
    "Question", "SchemaItem", "SchemaTrie", "ScoredCandidate", "Scorer",
    "SparqlQuery", "SparseRow", "StartPoint", "StoreBuilder", "TokenScorer",
    "Triple", "TripleStore", "UniformScorer", "Vocabulary", "advance",
    "allowed_next", "answer_f1", "assemble_context", "beam_search",
    "build_trie", "build_vocabulary", "canonicalize", "compile_sparql",
    "detect_mentions", "disambiguate", "encode_logical_form", "enumerate_elfs",
    "evaluate", "evaluate_dataset", "evaluate_sparql_subset", "exact_match",
    "function_class", "hits_at_1",
    "is_valid_prediction", "load_dataset", "parse", "parse_literal",
    "print_canonical", "rank_elfs", "ranker_loss", "relation_count",
    "render_tokens", "retrieve_schema", "sequence_nll", "validate_schema",
]
