"""Finite languages of series-parallel terms.

A FiniteLang is an immutable, slotted value: a deterministic, duplicate-free,
sorted tuple of canonical terms together with the semantics mode its members
are canonical for. Two languages are equal when their modes and members are,
and hash alike then. The constructor sorts and deduplicates, and
``FiniteLang.of`` canonicalizes. All operations here are total on finite
languages; the three Kleene closures are truncated at an explicit repetition
bound and never claim anything about the infinite closure.

Powers and closures step on plain sets of terms and sort once, into the
language they return. Each level is the product of the one before with the
operand, so they stop once a level repeats, as those of {eps} and of the
empty language do at once.

Language file format: a ``mode: ordered|commutative`` header, then one term
per line in the term text format. ``#`` starts a comment.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable, Iterator
from enum import Enum

from ._lex import Immutable
from .errors import EnumerationCapError, ModeMismatchError, TermSyntaxError
from .terms import (
    COMMUTATIVE,
    EPS,
    ORDERED,
    DEFAULT_CAP,
    SemanticsMode,
    SPTerm,
    _letters,
    canonicalize,
    format_term,
    parse_term,
    par,
    reverse_term,
    seq,
)


class FiniteLang(Immutable):
    __slots__ = ("mode", "terms", "_members")

    def __init__(self, mode: SemanticsMode, terms: Iterable[SPTerm]):
        members = frozenset(terms)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "terms", tuple(sorted(members, key=format_term)))
        object.__setattr__(self, "_members", members)

    def __eq__(self, other) -> bool:
        return other.__class__ is FiniteLang and other.mode is self.mode and other.terms == self.terms

    def __hash__(self) -> int:
        return hash((self.mode, self.terms))

    @staticmethod
    def of(terms: Iterable[SPTerm], mode: SemanticsMode = ORDERED) -> "FiniteLang":
        """Canonicalize `terms` for `mode` into a language."""
        return FiniteLang(mode, tuple(canonicalize(t, mode) for t in terms))

    @staticmethod
    def parse(texts: Iterable[str], mode: SemanticsMode = ORDERED) -> "FiniteLang":
        return FiniteLang.of((parse_term(s) for s in texts), mode)

    def __iter__(self) -> Iterator[SPTerm]:
        return iter(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __contains__(self, t: SPTerm) -> bool:
        return canonicalize(t, self.mode) in self._members

    def __repr__(self) -> str:
        body = ", ".join(format_term(t) for t in self.terms)
        return f"FiniteLang({self.mode.value}, {{{body}}})"


def _require_same_mode(l1: FiniteLang, l2: FiniteLang) -> SemanticsMode:
    if l1.mode is not l2.mode:
        raise ModeMismatchError(f"cannot combine {l1.mode.value} and {l2.mode.value} languages")
    return l1.mode


def concat_lang(l1: FiniteLang, l2: FiniteLang) -> FiniteLang:
    """All pairwise sequential products x.y for x in l1, y in l2."""
    mode = _require_same_mode(l1, l2)
    return FiniteLang(mode, {seq(x, y) for x in l1.terms for y in l2.terms})


def par_lang(l1: FiniteLang, l2: FiniteLang) -> FiniteLang:
    """All pairwise parallel products x||y for x in l1, y in l2."""
    mode = _require_same_mode(l1, l2)
    return FiniteLang(mode, {par(x, y, mode=mode) for x in l1.terms for y in l2.terms})


def union_lang(l1: FiniteLang, l2: FiniteLang) -> FiniteLang:
    mode = _require_same_mode(l1, l2)
    return FiniteLang(mode, l1._members | l2._members)


class PowerKind(Enum):
    SEQ = "seq"
    PAR = "par"


class ClosureKind(Enum):
    STAR = "star"  # union of sequential powers
    PAR_PLUS = "par"  # union of parallel powers
    SP = "sp"  # both unions together


def epsilon_lang(mode: SemanticsMode = ORDERED) -> FiniteLang:
    return FiniteLang(mode, (EPS,))


def _level(lang: FiniteLang, n: int, compose, operation: str, union: set | None = None) -> set[SPTerm]:
    """The n-th power of `lang` under `compose` (level 0 is {eps}), or the
    first level that repeats. Each level is built one row (one word of the
    level before) at a time, and goes into `union` too when it is given. The
    words counted after each row (those of `union` when given, else of the
    level) must not exceed DEFAULT_CAP, so EnumerationCapError is raised
    inside the step that crosses it."""
    level = {EPS}
    for _ in range(n):
        step: set[SPTerm] = set()
        counted = step if union is None else union
        for x in level:
            row = [compose(x, y) for y in lang.terms]
            step.update(row)
            if union is not None:
                union.update(row)
            if len(counted) > DEFAULT_CAP:
                raise EnumerationCapError(f"{operation} exceeds the cardinality cap ({DEFAULT_CAP})")
        if step == level:
            break
        level = step
    return level


def power(lang: FiniteLang, n: int, kind: PowerKind) -> FiniteLang:
    """n-fold repetition of `lang` under the chosen operator; n=0 gives {eps}.

    Returns at once when a level repeats. Raises EnumerationCapError as soon
    as a partial level holds more than DEFAULT_CAP words.
    """
    if n < 0:
        raise ValueError("power exponent must be >= 0")
    compose = seq if kind is PowerKind.SEQ else functools.partial(par, mode=lang.mode)
    return FiniteLang(lang.mode, _level(lang, n, compose, f"{kind.value} power"))


def kleene_bounded(lang: FiniteLang, kind: ClosureKind, n_max: int) -> FiniteLang:
    """Union of the 0..n_max powers of `lang`.

    STAR unions sequential powers, PAR_PLUS parallel powers, and SP is the
    union of both at the same bound. Monotone in n_max. The powers of every
    composition go into one running union, and a composition stops once a
    level repeats. Raises EnumerationCapError as soon as that union (for SP,
    of both closures together) holds more than DEFAULT_CAP words.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    parallel = functools.partial(par, mode=lang.mode)
    union = {EPS}
    for compose in {ClosureKind.STAR: (seq,), ClosureKind.PAR_PLUS: (parallel,), ClosureKind.SP: (seq, parallel)}[kind]:
        _level(lang, n_max, compose, f"{kind.value} closure", union)
    return FiniteLang(lang.mode, union)


def reverse_lang(lang: FiniteLang) -> FiniteLang:
    """Element-wise reversal, re-sorted. An involution."""
    return FiniteLang(lang.mode, tuple(reverse_term(t, lang.mode) for t in lang))


class LangDiff(Immutable):
    """Result of comparing two languages: truthy iff they are equal."""

    __slots__ = ("equal", "only_left", "only_right")

    def __init__(self, equal: bool, only_left: tuple[SPTerm, ...], only_right: tuple[SPTerm, ...]):
        object.__setattr__(self, "equal", equal)
        object.__setattr__(self, "only_left", only_left)
        object.__setattr__(self, "only_right", only_right)

    def _fields(self) -> tuple:
        return self.equal, self.only_left, self.only_right

    def __eq__(self, other) -> bool:
        return other.__class__ is LangDiff and other._fields() == self._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return "LangDiff(equal={!r}, only_left={!r}, only_right={!r})".format(*self._fields())

    def __bool__(self) -> bool:
        return self.equal

    def report(self, max_witnesses: int = 20) -> str:
        if self.equal:
            return "languages are equal"
        lines = []
        budget = max_witnesses
        for label, members in (("only in left", self.only_left), ("only in right", self.only_right)):
            for t in members[:budget]:
                lines.append(f"{label}: {format_term(t)}")
            shown = min(len(members), budget)
            budget -= shown
            if len(members) > shown:
                lines.append(f"{label}: ... and {len(members) - shown} more")
        return "\n".join(lines)


def lang_equal(l1: FiniteLang, l2: FiniteLang) -> LangDiff:
    """Set equality with a symmetric-difference report on failure."""
    _require_same_mode(l1, l2)
    only_left = tuple(t for t in l1.terms if t not in l2._members)
    only_right = tuple(t for t in l2.terms if t not in l1._members)
    return LangDiff(not (only_left or only_right), only_left, only_right)


def universe(
    alphabet,
    max_atoms: int,
    mode: SemanticsMode = ORDERED,
    cap: int = DEFAULT_CAP,
) -> FiniteLang:
    """The full bounded term universe as a language (see enumerate_terms)."""
    from .grammars import _universe  # grammars imports this module

    return _universe(_letters(alphabet, max_atoms), max_atoms, mode, cap)


_MODE_NAMES = {"ordered": ORDERED, "commutative": COMMUTATIVE}


def load_lang(text: str) -> FiniteLang:
    """Parse the language file format."""
    mode: SemanticsMode | None = None
    terms: list[SPTerm] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if mode is None:
            if not line.startswith("mode:"):
                raise TermSyntaxError(f"line {lineno}: language file must start with a 'mode:' header")
            name = line.split(":", 1)[1].strip()
            if name not in _MODE_NAMES:
                raise TermSyntaxError(f"line {lineno}: unknown mode {name!r}")
            mode = _MODE_NAMES[name]
            continue
        try:
            terms.append(parse_term(line))
        except TermSyntaxError as exc:
            raise TermSyntaxError(f"line {lineno}: {exc}") from exc
    if mode is None:
        raise TermSyntaxError("language file is missing the 'mode:' header")
    return FiniteLang.of(terms, mode)


def dump_lang(lang: FiniteLang) -> str:
    lines = [f"mode: {lang.mode.value}"]
    lines.extend(format_term(t) for t in lang.terms)
    return "\n".join(lines) + "\n"
