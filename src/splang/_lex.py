"""Shared tokenizer for the term, regex, grammar, and language text formats.

Produces the superset of tokens used by all formats; each parser rejects the
tokens its format does not allow. `||` is always read before `|`. Also home to
`Immutable`, the base of the package's slotted value classes.
"""

from __future__ import annotations

import re

from .errors import TermSyntaxError

# Longest operators first so "||" never lexes as two "|".
_OPS = ("||", "|", ".", "*", "^", "@", "(", ")")

# A nonterminal name: an uppercase letter, optionally indexed (A_12).
NONTERMINAL = re.compile(r"[A-Z](?:_[0-9]+)?")

# The nesting limit of every text format: at most this many parentheses and
# postfix closures around any atom, as `tokenize` counts them. The parsers and
# the term and regex walks recurse a few frames per level, so deeper input
# would overflow the interpreter's stack; it is a TermSyntaxError instead.
MAX_NESTING = 100
_CLOSURES = ("*", "^", "@")


class Immutable:
    """Base of slotted value classes whose constructors set each slot once,
    through ``object.__setattr__``; any later assignment raises."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


class Token(Immutable):
    __slots__ = ("kind", "text", "offset")

    def __init__(self, kind: str, text: str, offset: int):
        object.__setattr__(self, "kind", kind)  # LETTER | EPS | EMPTY | OP | END
        object.__setattr__(self, "text", text)
        object.__setattr__(self, "offset", offset)

    def _fields(self) -> tuple:
        return self.kind, self.text, self.offset

    def __eq__(self, other) -> bool:
        return other.__class__ is Token and other._fields() == self._fields()

    def __hash__(self) -> int:
        return hash(self._fields())


def tokenize(text: str) -> list[Token]:
    """Split `text` into tokens, skipping whitespace.

    Raises TermSyntaxError (with the byte offset) on any character outside the
    formats, and on multi-letter runs other than the keyword ``eps``: atoms are
    single letters, so adjacent letters must be separated by an operator. An
    uppercase letter may carry an index (``A_12``), read as one LETTER token.
    More than MAX_NESTING parentheses and postfix closures around an atom,
    ``(a*)*`` has three, is a TermSyntaxError.
    """
    tokens: list[Token] = []
    groups = [0]  # deepest nesting inside each open parenthesis, the text itself first
    nesting = 0  # of the operand read last
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c == "0":
            nesting = 0
            tokens.append(Token("EMPTY", c, i))
            i += 1
            continue
        if c.isascii() and c.isalpha():
            nesting = 0
            j = i
            while j < n and text[j].isascii() and text[j].isalpha():
                j += 1
            word = text[i:j]
            if word == "eps":
                tokens.append(Token("EPS", word, i))
            elif len(word) == 1:
                if word.isupper():
                    word = NONTERMINAL.match(text, i).group()
                    j = i + len(word)
                tokens.append(Token("LETTER", word, i))
            else:
                raise TermSyntaxError(
                    f"letter run {word!r} is not a symbol; atoms are single "
                    "letters and must be joined with an operator",
                    i,
                )
            i = j
            continue
        for op in _OPS:
            if text.startswith(op, i):
                if op == "(":
                    groups.append(0)
                    nesting = 0
                elif op == ")" and len(groups) > 1:
                    nesting = groups.pop() + 1
                elif op in _CLOSURES:
                    nesting += 1
                else:
                    nesting = 0
                if len(groups) - 1 + nesting > MAX_NESTING:
                    raise TermSyntaxError(f"input nests deeper than the nesting limit ({MAX_NESTING})", i)
                groups[-1] = max(groups[-1], nesting)
                tokens.append(Token("OP", op, i))
                i += len(op)
                break
        else:
            raise TermSyntaxError(f"unknown character {c!r}", i)
    tokens.append(Token("END", "", n))
    return tokens


class TokenStream:
    """Cursor over a token list with error-reporting helpers."""

    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def at_op(self, op: str) -> bool:
        tok = self.peek()
        return tok.kind == "OP" and tok.text == op

    def eat_op(self, op: str) -> bool:
        if self.at_op(op):
            self.pos += 1
            return True
        return False

    def expect_op(self, op: str) -> None:
        tok = self.peek()
        if not self.eat_op(op):
            raise TermSyntaxError(f"expected {op!r}, found {tok.text or 'end of input'!r}", tok.offset)

    def expect_end(self) -> None:
        tok = self.peek()
        if tok.kind != "END":
            raise TermSyntaxError(f"unexpected trailing input {tok.text!r}", tok.offset)
