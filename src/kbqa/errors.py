"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: UsageError -> 1, DataError (and
subclasses) -> 2, ScorerProtocolError -> 3.
"""


class KbqaError(Exception):
    """Base class for all package errors."""


class UsageError(KbqaError):
    """Bad command-line invocation or incompatible option combination."""


class DataError(KbqaError):
    """Malformed input data (KB files, datasets, logical-form text)."""


class TripleParseError(DataError):
    """A malformed line of an input file, reported as `source:line_no: message`."""

    def __init__(self, message, line_no, source=None):
        super().__init__(f"{source}:{line_no}: {message}" if source else f"{line_no}: {message}")
        self.line_no = line_no
        self.source = source


class SexprParseError(DataError):
    """Logical-form text rejected, with the character position of the fault."""

    def __init__(self, message, pos=None):
        if pos is not None:
            message = f"{message} (at position {pos})"
        super().__init__(message)
        self.pos = pos


class EvalError(KbqaError):
    """Logical form cannot be evaluated over the store."""


class EvalTypeError(EvalError):
    """A number-valued sub-expression was used where a set is required,
    or incomparable literal kinds met in a comparison."""


class UnsupportedFormError(KbqaError):
    """Logical form outside the fragment the SPARQL compiler covers."""


class SparqlUnsupportedError(KbqaError):
    """Query text uses a construct outside the supported SPARQL subset."""


class TokenizeError(KbqaError):
    """A name, entity id, or literal cannot be tokenized losslessly."""


class NoCandidateError(KbqaError):
    """Disambiguation was asked to choose among zero candidates."""


class ScorerProtocolError(KbqaError):
    """An external scorer process violated the line protocol or timed out."""
