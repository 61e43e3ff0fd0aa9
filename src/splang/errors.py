"""Exception hierarchy shared by all splang modules."""


class SplangError(Exception):
    """Base class for all errors raised by this package."""


class TermSyntaxError(SplangError):
    """Malformed text in any of the text formats: terms and regexes, and the
    line formats of grammars, languages and automata.

    Carries the byte offset of the offending character when known, and the
    message without it (`reason`). An error on one line of a line format
    says ``line N:`` first, and its offset counts from the start of that
    line (see `_lex.read_lines`).
    """

    def __init__(self, message: str, offset: int | None = None):
        self.offset, self.reason = offset, message
        if offset is not None:
            message = f"{message} (at offset {offset})"
        super().__init__(message)


class ModeMismatchError(SplangError):
    """Two languages with different semantics modes were combined."""


class EnumerationCapError(SplangError):
    """A bounded enumeration grew past the configured cardinality cap."""


class FragmentError(SplangError):
    """A regex outside the parallel fragment was passed to the grammar converter."""


class NotParallelLinearError(SplangError):
    """A grammar without parallel-linear shape was passed to the automaton builder."""
