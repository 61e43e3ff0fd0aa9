"""Regular expressions over series-parallel terms.

The AST mirrors the term operators: union ``|``, sequential concatenation
``.``, parallel product ``||``, a literal for the empty word and one for the
empty set, and three postfix closures — ``*`` (sequential repetition), ``^``
(parallel repetition), ``@`` (either: the union of the two closures). All
closures match zero repetitions, so each accepts the empty word.

A regex's language is that of its compiled sp grammar, which gives every
union and closure one nonterminal and writes concatenations and parallel
products inline: ``r*`` becomes ``N -> eps | r.N``, ``r^`` becomes
``N -> eps | r||N``. Matching and bounded enumeration run on that grammar
with the exact membership search and the least fixpoint of ``grammars``.

Text format: atoms ``a``-``z``, ``eps``, ``0`` for the empty set, postfix
``*`` ``^`` ``@``, infix ``.`` ``||`` ``|``. Precedence: postfix > ``.`` >
``||`` > ``|``, the infix levels read from the table ``_LEVELS``; parentheses
group.
"""

from __future__ import annotations

import functools
import itertools

from ._lex import Immutable, TokenStream
from .errors import FragmentError, TermSyntaxError
from .grammars import Grammar, Production, _MemberSearch, generate
from .langs import FiniteLang
from .terms import (
    DEFAULT_CAP,
    EPS,
    ORDERED,
    Leaf,
    SemanticsMode,
    SPTerm,
    _letters,
    canonicalize,
    par,
    seq,
)


class Regex(Immutable):
    """Base class of regex nodes: values (see `_lex.Immutable`) shown as their
    text. A node computes its hash on first use and keeps it, so a cached
    regex hashes in constant time; a pickle or copy rebuilds the node from
    its fields and computes the hash afresh."""

    __slots__ = ("_hash",)

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = Immutable.__hash__(self)
            object.__setattr__(self, "_hash", h)
            return h

    def __repr__(self) -> str:
        return format_regex(self)


class EmptySet(Regex):
    """Matches nothing."""

    __slots__ = ()


class EpsLit(Regex):
    """Matches exactly the empty word."""

    __slots__ = ()


class AtomLit(Regex):
    __slots__ = _fields = ("symbol",)


class Cat(Regex):
    __slots__ = _fields = ("parts",)  # tuple[Regex, ...]


class Alt(Regex):
    __slots__ = _fields = ("parts",)


class ParProd(Regex):
    __slots__ = _fields = ("parts",)


class CloseSeq(Regex):
    __slots__ = _fields = ("inner",)


class ClosePar(Regex):
    __slots__ = _fields = ("inner",)


class CloseSP(Regex):
    __slots__ = _fields = ("inner",)


EMPTY = EmptySet()
EPS_LIT = EpsLit()


def _variadic(cls, parts: tuple[Regex, ...], empty: Regex) -> Regex:
    flat: list[Regex] = []
    for p in parts:
        if isinstance(p, cls):
            flat.extend(p.parts)
        else:
            flat.append(p)
    if not flat:
        return empty
    if len(flat) == 1:
        return flat[0]
    return cls(tuple(flat))


def cat(*parts: Regex) -> Regex:
    return _variadic(Cat, parts, EPS_LIT)


def alt(*parts: Regex) -> Regex:
    return _variadic(Alt, parts, EMPTY)


def parprod(*parts: Regex) -> Regex:
    return _variadic(ParProd, parts, EPS_LIT)


# ---------------------------------------------------------------------------
# Text format

def parse_regex(text: str) -> Regex:
    return TokenStream(text).whole(_LEVELS, _parse_postfix)


_POSTFIX = {"*": CloseSeq, "^": ClosePar, "@": CloseSP}


def _parse_postfix(stream: TokenStream) -> Regex:
    node = _parse_prim(stream)
    while True:
        tok = stream.peek()
        if tok.kind == "OP" and tok.text in _POSTFIX:
            stream.next()
            node = _POSTFIX[tok.text](node)
        else:
            return node


def _parse_prim(stream: TokenStream) -> Regex:
    tok = stream.peek()
    if tok.kind == "LETTER":
        if not tok.text.islower():
            raise TermSyntaxError(f"regex atoms are lowercase letters, got {tok.text!r}", tok.offset)
        stream.next()
        return AtomLit(tok.text)
    if tok.kind == "EPS":
        stream.next()
        return EPS_LIT
    if tok.kind == "EMPTY":
        stream.next()
        return EMPTY
    if stream.eat_op("("):
        inner = stream.infix(_LEVELS, _parse_postfix)
        stream.expect_op(")")
        return inner
    raise TermSyntaxError(
        f"expected a letter, 'eps', '0' or '(', found {tok.text or 'end of input'!r}", tok.offset
    )


# the infix operator levels of the regex text format, loosest first (see `TokenStream.infix`)
_LEVELS = (("|", alt), ("||", parprod), (".", cat))


_SUFFIX = {CloseSeq: "*", ClosePar: "^", CloseSP: "@"}


def format_regex(r: Regex) -> str:
    """Minimal-parenthesization text; parse_regex(format_regex(r)) == r."""
    return _fmt(r, 0)


def _fmt(r: Regex, min_level: int) -> str:
    if isinstance(r, EmptySet):
        level, text = 4, "0"
    elif isinstance(r, EpsLit):
        level, text = 4, "eps"
    elif isinstance(r, AtomLit):
        level, text = 4, r.symbol
    elif isinstance(r, (CloseSeq, ClosePar, CloseSP)):
        level, text = 3, _fmt(r.inner, 3) + _SUFFIX[type(r)]
    elif isinstance(r, Cat):
        level, text = 2, ".".join(_fmt(p, 3) for p in r.parts)
    elif isinstance(r, ParProd):
        level, text = 1, "||".join(_fmt(p, 2) for p in r.parts)
    elif isinstance(r, Alt):
        level, text = 0, "|".join(_fmt(p, 1) for p in r.parts)
    else:
        raise TypeError(f"not a regex: {r!r}")
    return f"({text})" if level < min_level else text


# ---------------------------------------------------------------------------
# Matching and enumeration, on the compiled grammar

def matches(r: Regex, t: SPTerm, mode: SemanticsMode = ORDERED) -> bool:
    """Whether `t`, canonicalized for `mode`, is in the language of `r`. The
    compiled grammars of the last 64 regexes are cached; each call searches
    afresh, so no proof outlives it."""
    g = _compile(r)
    return g is not None and _MemberSearch(g, mode).proves(canonicalize(t, mode))


def regex_enumerate(r: Regex, alphabet, max_atoms: int, mode: SemanticsMode = ORDERED) -> FiniteLang:
    """Every word of `r` over `alphabet` with at most max_atoms atoms.
    DEFAULT_CAP bounds the (nonterminal, word) pairs of the compiled
    grammar's fixpoint. The compiled grammars of the last 64 (regex, letters)
    pairs are cached, shared with `matches`."""
    g = _compile(r, frozenset(_letters(alphabet, max_atoms)))
    return FiniteLang(mode, ()) if g is None else generate(g, max_atoms, mode=mode, cap=DEFAULT_CAP)


@functools.lru_cache(maxsize=64)
def _compile(r: Regex, letters: frozenset | None = None) -> Grammar | None:
    """An sp grammar with the language of `r`, kept to words over `letters`
    when given, start S; None when that language is empty. Cached on
    (r, letters), up to 64 pairs. A union gets one nonterminal with a
    production per part, a closure one with ``eps`` and one repetition, and
    ``@`` the union of both closures; the empty set, and an atom outside
    `letters`, prune the branch they sit in."""
    productions: list[Production] = []
    top = _form(r, letters, productions, map(_nonterminal, itertools.count()))
    return None if top is None else Grammar.of([Production("S", top)] + productions, start="S")


def _form(node: Regex, letters: frozenset | None, productions: list, names) -> SPTerm | None:
    """The sp form of `node` for `_compile`, None when its language is
    empty; the rules of the nonterminals it names go to `productions`, their
    names drawn from `names`."""
    if isinstance(node, EmptySet):
        return None
    if isinstance(node, EpsLit):
        return EPS
    if isinstance(node, AtomLit):
        return Leaf(node.symbol) if letters is None or node.symbol in letters else None
    if isinstance(node, (Cat, ParProd)):
        parts = [_form(p, letters, productions, names) for p in node.parts]
        return None if any(p is None for p in parts) else (seq if isinstance(node, Cat) else par)(*parts)
    if isinstance(node, Alt):
        parts = [_form(p, letters, productions, names) for p in node.parts]
        parts = [f for f in parts if f is not None]
        return _define(productions, next(names), parts) if parts else None
    body = _form(node.inner, letters, productions, names)
    if body is None:
        return EPS
    if isinstance(node, (CloseSeq, ClosePar)):
        return _closure(body, seq if isinstance(node, CloseSeq) else par, productions, names)
    return _define(productions, next(names), (_closure(body, seq, productions, names),
                                              _closure(body, par, productions, names)))


def _define(productions: list, name: str, alternatives) -> SPTerm:
    """The leaf of a nonterminal `name` with a production per alternative."""
    productions.extend(Production(name, rhs) for rhs in alternatives)
    return Leaf(name)


def _closure(body: SPTerm, build, productions: list, names) -> SPTerm:
    """A fresh nonterminal N -> eps | build(body, N)."""
    name = next(names)
    return _define(productions, name, (EPS, build(body, Leaf(name))))


def regex_alphabet(r: Regex) -> tuple[str, ...]:
    """Sorted atom symbols appearing in `r`."""
    out: set[str] = set()
    todo = [r]
    while todo:
        node = todo.pop()
        if isinstance(node, AtomLit):
            out.add(node.symbol)
        elif isinstance(node, (Cat, Alt, ParProd)):
            todo += node.parts
        elif isinstance(node, (CloseSeq, ClosePar, CloseSP)):
            todo.append(node.inner)
    return tuple(sorted(out))


# ---------------------------------------------------------------------------
# Parallel fragment -> parallel-linear grammar

_NT_POOL = "ABCDEFGHIJKLMNOPQRTUVWXYZ"  # S reserved for the start symbol


def _nonterminal(i: int) -> str:
    """The i-th nonterminal other than S: the pool letters, then A_1, B_1, ..."""
    letter, index = _NT_POOL[i % len(_NT_POOL)], i // len(_NT_POOL)
    return f"{letter}_{index}" if index else letter


def to_parallel_linear_grammar(r: Regex) -> Grammar:
    """Compile a parallel-fragment regex (atoms, eps, ``|``, ``||``, ``^``)
    into a parallel-linear grammar with the same language.

    Uses the position construction: every atom occurrence becomes one
    nonterminal, and derivations emit one atom per step, left to right, so
    the ORDERED-mode languages agree exactly (and a fortiori the COMMUTATIVE
    ones). Raises FragmentError on ``.``, ``*``, ``@``, or the empty-set
    literal.
    """
    positions: list[str] = []  # index -> atom symbol
    follow: dict[int, set[int]] = {}
    nullable, first, last = _analyze(r, positions, follow)

    productions: dict[Production, None] = {}  # an insertion-ordered set

    def emit(lhs: str, targets) -> None:
        for q in sorted(targets):
            if follow[q]:
                productions[Production(lhs, par(Leaf(positions[q]), Leaf(_nonterminal(q))))] = None
            if q in last:
                productions[Production(lhs, Leaf(positions[q]))] = None

    if nullable:
        productions[Production("S", EPS)] = None
    emit("S", first)
    for idx in range(len(positions)):
        if follow[idx]:
            emit(_nonterminal(idx), follow[idx])

    return Grammar.of(productions, start="S")


def _analyze(node: Regex, positions: list, follow: dict) -> tuple[bool, set[int], set[int]]:
    """nullable, first positions, last positions of `node` for
    `to_parallel_linear_grammar`; adds its atoms to `positions` and fills
    `follow`."""
    if isinstance(node, EpsLit):
        return True, set(), set()
    if isinstance(node, AtomLit):
        idx = len(positions)
        positions.append(node.symbol)
        follow[idx] = set()
        return False, {idx}, {idx}
    if isinstance(node, Alt):
        nullable, first, last = False, set(), set()
        for p in node.parts:
            n, f, l = _analyze(p, positions, follow)
            nullable = nullable or n
            first |= f
            last |= l
        return nullable, first, last
    if isinstance(node, ParProd):
        # the parallel product concatenates flat parallel words, so the
        # position analysis is the sequential one
        nullable, first, last = True, set(), set()
        for p in node.parts:
            n, f, l = _analyze(p, positions, follow)
            for q in last:
                follow[q] |= f
            if nullable:
                first |= f
            last = (last | l) if n else set(l)
            nullable = nullable and n
        return nullable, first, last
    if isinstance(node, ClosePar):
        _, f, l = _analyze(node.inner, positions, follow)
        for q in l:
            follow[q] |= f
        return True, f, l
    raise FragmentError(f"{_OUTSIDE[type(node)]} is outside the parallel fragment")


_OUTSIDE = {Cat: "'.'", CloseSeq: "'*'", CloseSP: "'@'", EmptySet: "'0'"}
