"""Regular expressions over series-parallel terms.

The AST mirrors the term operators: union ``|``, sequential concatenation
``.``, parallel product ``||``, a literal for the empty word and one for the
empty set, and three postfix closures — ``*`` (sequential repetition), ``^``
(parallel repetition), ``@`` (either: the union of the two closures). All
closures match zero repetitions, so each accepts the empty word.

Matching is structural on canonical terms. A concatenation splits the flat
Seq factor list of the candidate (segments may be empty, standing for eps); a
parallel product splits the flat Par factor list — contiguously in ORDERED
mode, as arbitrary multiset distributions in COMMUTATIVE mode. Closures split
into one or more nonempty chunks, each matching the body.

Text format: atoms ``a``-``z``, ``eps``, ``0`` for the empty set, postfix
``*`` ``^`` ``@``, infix ``.`` ``||`` ``|``. Precedence: postfix > ``.`` >
``||`` > ``|``; parentheses group.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._lex import TokenStream
from .errors import FragmentError, SplangError, TermSyntaxError
from .grammars import Grammar, Production
from .langs import FiniteLang
from .terms import (
    COMMUTATIVE,
    DEFAULT_CAP,
    EPS,
    ORDERED,
    Eps,
    Leaf,
    SemanticsMode,
    SPTerm,
    _par_factors,
    _seq_factors,
    canonicalize,
    enumerate_terms,
    format_term,
    par,
    seq,
)
from ._partitions import multiset_splits, ordered_splits


class Regex:
    """Base class of regex nodes. Immutable and hashable."""

    __slots__ = ()

    def __repr__(self) -> str:
        return format_regex(self)


@dataclass(frozen=True, repr=False)
class EmptySet(Regex):
    """Matches nothing."""


@dataclass(frozen=True, repr=False)
class EpsLit(Regex):
    """Matches exactly the empty word."""


@dataclass(frozen=True, repr=False)
class AtomLit(Regex):
    symbol: str


@dataclass(frozen=True, repr=False)
class Cat(Regex):
    parts: tuple[Regex, ...]


@dataclass(frozen=True, repr=False)
class Alt(Regex):
    parts: tuple[Regex, ...]


@dataclass(frozen=True, repr=False)
class ParProd(Regex):
    parts: tuple[Regex, ...]


@dataclass(frozen=True, repr=False)
class CloseSeq(Regex):
    inner: Regex


@dataclass(frozen=True, repr=False)
class ClosePar(Regex):
    inner: Regex


@dataclass(frozen=True, repr=False)
class CloseSP(Regex):
    inner: Regex


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
    stream = TokenStream(text)
    result = _parse_alt(stream)
    stream.expect_end()
    return result


def _parse_alt(stream: TokenStream) -> Regex:
    parts = [_parse_parprod(stream)]
    while stream.eat_op("|"):
        parts.append(_parse_parprod(stream))
    return alt(*parts)


def _parse_parprod(stream: TokenStream) -> Regex:
    parts = [_parse_cat(stream)]
    while stream.eat_op("||"):
        parts.append(_parse_cat(stream))
    return parprod(*parts)


def _parse_cat(stream: TokenStream) -> Regex:
    parts = [_parse_postfix(stream)]
    while stream.eat_op("."):
        parts.append(_parse_postfix(stream))
    return cat(*parts)


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
        inner = _parse_alt(stream)
        stream.expect_op(")")
        return inner
    raise TermSyntaxError(
        f"expected a letter, 'eps', '0' or '(', found {tok.text or 'end of input'!r}", tok.offset
    )


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
# Matching

def matches(r: Regex, t: SPTerm, mode: SemanticsMode = ORDERED) -> bool:
    """Structural match of `t` (canonicalized for `mode`) against `r`."""
    memo: dict[tuple[Regex, SPTerm], bool] = {}
    return _match(r, canonicalize(t, mode), mode, memo)


def _match(r: Regex, t: SPTerm, mode: SemanticsMode, memo) -> bool:
    key = (r, t)
    hit = memo.get(key)
    if hit is not None:
        return hit
    memo[key] = False  # cycle-safe default; overwritten below
    result = _match_uncached(r, t, mode, memo)
    memo[key] = result
    return result


def _match_uncached(r: Regex, t: SPTerm, mode: SemanticsMode, memo) -> bool:
    if isinstance(r, EmptySet):
        return False
    if isinstance(r, EpsLit):
        return isinstance(t, Eps)
    if isinstance(r, AtomLit):
        return isinstance(t, Leaf) and t.symbol == r.symbol
    if isinstance(r, Alt):
        return any(_match(p, t, mode, memo) for p in r.parts)
    if isinstance(r, Cat):
        factors = _seq_factors(t)
        return any(
            all(_match(p, seq(*segment), mode, memo) for p, segment in zip(r.parts, split))
            for split in ordered_splits(factors, len(r.parts))
        )
    if isinstance(r, ParProd):
        factors = _par_factors(t)
        splitter = ordered_splits if mode is ORDERED else multiset_splits
        return any(
            all(_match(p, par(*segment), mode, memo) for p, segment in zip(r.parts, split))
            for split in splitter(factors, len(r.parts))
        )
    if isinstance(r, CloseSeq):
        if isinstance(t, Eps):
            return True
        factors = _seq_factors(t)
        return any(
            _match(r.inner, seq(*factors[:i]), mode, memo)
            and _match(r, seq(*factors[i:]), mode, memo)
            for i in range(1, len(factors) + 1)
        )
    if isinstance(r, ClosePar):
        if isinstance(t, Eps):
            return True
        factors = _par_factors(t)
        for first, rest in _par_first_blocks(factors, mode):
            if _match(r.inner, par(*first), mode, memo) and _match(r, par(*rest), mode, memo):
                return True
        return False
    if isinstance(r, CloseSP):
        return _match(CloseSeq(r.inner), t, mode, memo) or _match(ClosePar(r.inner), t, mode, memo)
    raise TypeError(f"not a regex: {r!r}")


def _par_first_blocks(factors: tuple[SPTerm, ...], mode: SemanticsMode):
    """Nonempty first chunk plus remainder, for the parallel closure.

    ORDERED: the chunk is a prefix. COMMUTATIVE: the chunk is any nonempty
    sub-multiset containing the first factor (every block decomposition has
    one such block, so this is complete)."""
    if mode is ORDERED:
        for i in range(1, len(factors) + 1):
            yield factors[:i], factors[i:]
        return
    head, rest = factors[0], factors[1:]
    for taken, left in multiset_splits(rest, 2):
        yield (head,) + taken, left


def regex_enumerate(
    r: Regex,
    alphabet,
    max_atoms: int,
    mode: SemanticsMode = ORDERED,
    cap: int = DEFAULT_CAP,
) -> FiniteLang:
    """All universe terms up to max_atoms that match `r`."""
    hits = [t for t in enumerate_terms(alphabet, max_atoms, mode, cap) if matches(r, t, mode)]
    return FiniteLang(mode, tuple(hits))


def regex_alphabet(r: Regex) -> tuple[str, ...]:
    """Sorted atom symbols appearing in `r`."""
    out: set[str] = set()

    def walk(node: Regex):
        if isinstance(node, AtomLit):
            out.add(node.symbol)
        elif isinstance(node, (Cat, Alt, ParProd)):
            for p in node.parts:
                walk(p)
        elif isinstance(node, (CloseSeq, ClosePar, CloseSP)):
            walk(node.inner)

    walk(r)
    return tuple(sorted(out))


# ---------------------------------------------------------------------------
# Parallel fragment -> parallel-linear grammar

_NT_POOL = "ABCDEFGHIJKLMNOPQRTUVWXYZ"  # S reserved for the start symbol


def to_parallel_linear_grammar(r: Regex) -> Grammar:
    """Compile a parallel-fragment regex (atoms, eps, ``|``, ``||``, ``^``)
    into a parallel-linear grammar with the same language.

    Uses the position construction: every atom occurrence becomes one
    nonterminal, and derivations emit one atom per step, left to right, so
    the ORDERED-mode languages agree exactly (and a fortiori the COMMUTATIVE
    ones). Raises FragmentError on ``.``, ``*``, ``@``, or the empty-set
    literal.
    """
    _check_fragment(r)
    positions: list[str] = []  # index -> atom symbol
    follow: dict[int, set[int]] = {}

    def analyze(node: Regex) -> tuple[bool, set[int], set[int]]:
        """nullable, first positions, last positions; fills `follow`."""
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
                n, f, l = analyze(p)
                nullable = nullable or n
                first |= f
                last |= l
            return nullable, first, last
        if isinstance(node, ParProd):
            # the parallel product concatenates flat parallel words, so the
            # position analysis is the sequential one
            nullable, first, last = True, set(), set()
            for p in node.parts:
                n, f, l = analyze(p)
                for q in last:
                    follow[q] |= f
                if nullable:
                    first |= f
                last = (last | l) if n else set(l)
                nullable = nullable and n
            return nullable, first, last
        if isinstance(node, ClosePar):
            _, f, l = analyze(node.inner)
            for q in l:
                follow[q] |= f
            return True, f, l
        raise AssertionError(f"unreachable: {node!r}")

    nullable, first, last = analyze(r)

    if len(positions) > len(_NT_POOL):
        raise SplangError(
            f"regex has {len(positions)} atom occurrences; at most {len(_NT_POOL)} supported"
        )
    names = {idx: _NT_POOL[idx] for idx in range(len(positions))}

    productions: list[Production] = []
    emitted: set[tuple[str, SPTerm]] = set()

    def emit(lhs: str, targets) -> None:
        for q in sorted(targets):
            if follow[q]:
                rhs: SPTerm = par(Leaf(positions[q]), Leaf(names[q]))
                if (lhs, rhs) not in emitted:
                    emitted.add((lhs, rhs))
                    productions.append(Production(lhs, rhs))
            if q in last:
                rhs = Leaf(positions[q])
                if (lhs, rhs) not in emitted:
                    emitted.add((lhs, rhs))
                    productions.append(Production(lhs, rhs))

    if nullable:
        productions.append(Production("S", EPS))
    emit("S", first)
    for idx in range(len(positions)):
        if follow[idx]:
            emit(names[idx], follow[idx])

    return Grammar.of(productions, start="S")


_OUTSIDE = {Cat: "'.'", CloseSeq: "'*'", CloseSP: "'@'", EmptySet: "'0'"}


def _check_fragment(r: Regex) -> None:
    for cls, name in _OUTSIDE.items():
        if isinstance(r, cls):
            raise FragmentError(f"{name} is outside the parallel fragment")
    if isinstance(r, (Alt, ParProd)):
        for p in r.parts:
            _check_fragment(p)
    elif isinstance(r, ClosePar):
        _check_fragment(r.inner)
