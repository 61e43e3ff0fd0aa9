"""The lexical rules of every text format.

`tokenize` is the shared tokenizer of terms, regexes, sentential forms and
language lines: one pattern, `_TOKEN`, matched one token at a time, names the
kind of each token in the superset of tokens used by all formats, and each
parser rejects the tokens its format does not allow. `||` is always read
before `|`. `TokenStream.infix` is the shared reader of their infix
operators: each format gives it a table of its operator levels, loosest
first, and a reader of one operand, and `TokenStream.whole` reads a whole
text that way. `read_lines` is the line reader of the grammar, language and
automaton files: it cuts each line at ``#``, skips blank lines, and prefixes
a line's error with ``line N:``, its offset counted from the start of the
line. `is_atom` is the atom rule: one lowercase ASCII letter. Also home to
`Immutable`, the one base of the package's value classes: terms, languages,
regexes, grammars, automata and tokens.
"""

from __future__ import annotations

import operator
import re

from .errors import TermSyntaxError

# A nonterminal name: an uppercase letter, optionally indexed (A_12).
NONTERMINAL = re.compile(r"[A-Z](?:_[0-9]+)?")

# The nesting limit of every text format: at most this many parentheses and
# postfix closures around any atom, as `tokenize` counts them. The parsers and
# the term and regex walks recurse a few frames per level, so deeper input
# would overflow the interpreter's stack; it is a TermSyntaxError instead.
MAX_NESTING = 100
_CLOSURES = ("*", "^", "@")

# One token after any whitespace, named by its kind: a letter or an indexed
# uppercase letter (A_12), the keyword eps, any other letter run, the empty
# language 0, an operator ("||" before "|"), or any other character.
_TOKEN = re.compile(r"""\s*(?:(?P<LETTER>[A-Z]_[0-9]+|[A-Za-z](?![A-Za-z])) | (?P<EPS>eps(?![A-Za-z]))
    | (?P<RUN>[A-Za-z]+) | (?P<EMPTY>0) | (?P<OP>\|\||[|.*^@()]) | (?P<OTHER>\S))""", re.VERBOSE)


def is_atom(s: str) -> bool:
    """Whether `s` is an atom: one lowercase ASCII letter."""
    return len(s) == 1 and "a" <= s <= "z"


# The line breaks of every line-based format; `str.splitlines` would also
# break at form feeds, vertical tabs and Unicode separators, inside comments too.
_LINE_BREAK = re.compile(r"\r\n|\r|\n")


def read_lines(text: str, handle) -> None:
    """Call `handle` on each line of `text`, cut at its first ``#`` and
    stripped, skipping the lines that are then blank. A line ends only at an
    LF, a CR LF or a CR. A TermSyntaxError or ValueError from `handle` is
    raised again as a TermSyntaxError prefixed with ``line N:``, N counting
    from 1; an offset into the stripped line becomes one from the start of
    the line."""
    for lineno, raw in enumerate(_LINE_BREAK.split(text), 1):
        cut = raw.split("#", 1)[0]
        line = cut.strip()
        if line:
            try:
                handle(line)
            except TermSyntaxError as exc:
                offset = None if exc.offset is None else exc.offset + len(cut) - len(cut.lstrip())
                raise TermSyntaxError(f"line {lineno}: {exc.reason}", offset) from exc
            except ValueError as exc:
                raise TermSyntaxError(f"line {lineno}: {exc}") from exc


class Immutable:
    """Base of the package's value classes.

    A subclass names its value fields in ``_fields`` and slots them. The base
    gives it a constructor that takes the fields by position or by keyword;
    equality (the same class and equal fields) and a hash of the fields, both
    through an `operator.attrgetter` bound per class; the repr
    ``Name(field=value, ...)``; and a ``__reduce__`` that rebuilds the value
    through its class, so pickle, `copy.copy` and `copy.deepcopy` work and
    derived slots (a term's stored hash, which differs between processes)
    are computed afresh. A
    subclass whose values need checking, normalizing or derived facts writes
    its own constructor, which sets each slot once through ``object.__setattr__``
    (or the base constructor); other slots hold facts derived from the fields
    and are not compared. Any later assignment raises.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # one field gives the bare value, more a tuple; either identifies the value
        cls._values = staticmethod(operator.attrgetter(*cls._fields) if cls._fields else lambda self: ())

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs:
            rest = fields[len(args):]  # the fields not given by position
            if not kwargs.keys() <= set(rest):
                raise TypeError(f"{type(self).__name__}() got an unknown or repeated field among {sorted(kwargs)}")
            args += tuple(kwargs[name] for name in rest if name in kwargs)
        if len(args) != len(fields):
            raise TypeError(f"{type(self).__name__}() takes the fields ({', '.join(fields)})")
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)

    def __eq__(self, other) -> bool:
        return self is other or (other.__class__ is self.__class__ and self._values(self) == other._values(other))

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{name}={getattr(self, name)!r}' for name in self._fields)})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


class Token(Immutable):
    __slots__ = _fields = ("kind", "text", "offset")

    def __init__(self, kind: str, text: str, offset: int):  # explicit: the tokenizer makes one per token
        object.__setattr__(self, "kind", kind)  # LETTER | EPS | EMPTY | OP | END
        object.__setattr__(self, "text", text)
        object.__setattr__(self, "offset", offset)


def tokenize(text: str, start: int = 0) -> list[Token]:
    """Split `text` from offset `start` on into tokens, skipping whitespace,
    with `_TOKEN` matched one token at a time.

    Raises TermSyntaxError (with the byte offset) on any character outside the
    formats, and on multi-letter runs other than the keyword ``eps``: atoms are
    single letters, so adjacent letters must be separated by an operator. An
    uppercase letter may carry an index (``A_12``), read as one LETTER token.
    More than MAX_NESTING parentheses and postfix closures around an atom,
    ``(a*)*`` has three, is a TermSyntaxError.
    """
    tokens: list[Token] = []
    groups = [0]  # deepest nesting inside each open parenthesis, the text itself first
    nesting = 0  # of the token read last
    while m := _TOKEN.match(text, start):  # finditer would search again from each trailing space
        kind = m.lastgroup
        word = m[kind]
        start = m.end()
        i = start - len(word)
        if kind == "OP":
            if word in _CLOSURES:
                nesting += 1
            elif word == ")" and len(groups) > 1:
                nesting = groups.pop() + 1
            else:
                nesting = 0
                if word == "(":
                    groups.append(0)
            if len(groups) - 1 + nesting > MAX_NESTING:
                raise TermSyntaxError(f"input nests deeper than the nesting limit ({MAX_NESTING})", i)
            groups[-1] = max(groups[-1], nesting)
        elif kind == "RUN":
            raise TermSyntaxError(
                f"letter run {word!r} is not a symbol; atoms are single letters and must be joined with an operator", i)
        elif kind == "OTHER":
            raise TermSyntaxError(f"unknown character {word!r}", i)
        else:
            nesting = 0
        tokens.append(Token(kind, word, i))
    tokens.append(Token("END", "", len(text)))
    return tokens


class TokenStream:
    """Cursor over a token list with error-reporting helpers."""

    def __init__(self, text: str, start: int = 0):
        self.tokens = tokenize(text, start)
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def eat_op(self, op: str) -> bool:
        tok = self.tokens[self.pos]
        if tok.kind == "OP" and tok.text == op:
            self.pos += 1
            return True
        return False

    def expect_op(self, op: str) -> None:
        tok = self.peek()
        if not self.eat_op(op):
            raise TermSyntaxError(f"expected {op!r}, found {tok.text or 'end of input'!r}", tok.offset)

    def infix(self, levels, operand):
        """Operands joined by the infix operators of `levels`, a table of
        ``(op, build)`` pairs, loosest first: each level reads the parts the
        next level (or, after the last, `operand`) reads between its `op`s,
        and joins them with ``build(*parts)``."""
        (op, build), tighter = levels[0], levels[1:]
        parts = []
        while True:
            parts.append(self.infix(tighter, operand) if tighter else operand(self))
            if not self.eat_op(op):
                return build(*parts)

    def whole(self, levels, operand):
        """`infix` over the rest of the text, which it must read to the end."""
        result = self.infix(levels, operand)
        tok = self.peek()
        if tok.kind != "END":
            raise TermSyntaxError(f"unexpected trailing input {tok.text!r}", tok.offset)
        return result
