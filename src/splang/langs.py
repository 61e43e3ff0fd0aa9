"""Finite languages of series-parallel terms.

A FiniteLang is an immutable value (see ``_lex.Immutable``) with the fields
``mode`` and ``terms``: a deterministic, duplicate-free, sorted tuple of
canonical terms and the semantics mode they are canonical for. Two languages
are equal when their modes and members are, and hash alike then. The
constructor, and ``FiniteLang.of`` with its arguments the other way round,
canonicalizes each term for the mode (in COMMUTATIVE mode it sorts the
children of every Par), then sorts and deduplicates. The operations here and
``grammars.generate`` make only canonical words, so they build their results
through `_lang`, which does no work per word. All operations here are total
on finite languages; the three Kleene closures are truncated at an explicit
repetition bound and never claim anything about the infinite closure.

Powers and closures step on plain sets of terms and sort once, into the
language they return. Each level is the product of the one before with the
operand, so they stop once a level repeats, as those of {eps} and of the
empty language do at once. Every product here, of levels, concatenations and
parallel compositions alike, joins two words in one step (`terms._join`),
which holds because both are canonical for the language's mode: so is every
member of a language, and every word a join makes from them.

Language file format: a ``mode: ordered|commutative`` header, then one term
per line in the term text format. ``#`` starts a comment.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from enum import Enum

from ._lex import Immutable, read_lines
from .errors import EnumerationCapError, ModeMismatchError, TermSyntaxError
from .terms import (
    EPS,
    ORDERED,
    DEFAULT_CAP,
    Par,
    Seq,
    SemanticsMode,
    SPTerm,
    _built,
    _flat,
    _join,
    _letters,
    canonicalize,
    format_term,
    parse_term,
    reverse_term,
)


class FiniteLang(Immutable):
    _fields = ("mode", "terms")
    __slots__ = _fields + ("_members",)

    def __init__(self, mode: SemanticsMode, terms: Iterable[SPTerm]):
        """The language of `terms`, each canonicalized for `mode`: in
        COMMUTATIVE mode a term whose Par children are out of order gives
        its canonical form."""
        self._hold(mode, frozenset([canonicalize(t, mode) for t in terms]))

    def _hold(self, mode: SemanticsMode, members: frozenset) -> None:
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "terms", tuple(sorted(members, key=format_term)))
        object.__setattr__(self, "_members", members)

    @staticmethod
    def of(terms: Iterable[SPTerm], mode: SemanticsMode = ORDERED) -> "FiniteLang":
        """Canonicalize `terms` for `mode` into a language."""
        return FiniteLang(mode, terms)

    @staticmethod
    def parse(texts: Iterable[str], mode: SemanticsMode = ORDERED) -> "FiniteLang":
        return FiniteLang.of((parse_term(s) for s in texts), mode)

    def __iter__(self) -> Iterator[SPTerm]:
        return iter(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __contains__(self, t: object) -> bool:
        return isinstance(t, SPTerm) and canonicalize(t, self.mode) in self._members

    def __repr__(self) -> str:
        body = ", ".join(format_term(t) for t in self.terms)
        return f"FiniteLang({self.mode.value}, {{{body}}})"

    def __reduce__(self):
        """The mode and the terms' distinct Seq and Par nodes in one flat
        list (`terms._flat`), so a node that many terms share is written
        once."""
        return _unpickle, (self.mode, *_flat(self.terms))


def _lang(mode: SemanticsMode, words: Iterable[SPTerm]) -> FiniteLang:
    """The language of `words`, which are canonical for `mode` already: the
    constructor without its work per word, for the operations here and
    `grammars.generate`, which make only canonical words."""
    lang = object.__new__(FiniteLang)
    lang._hold(mode, frozenset(words))
    return lang


def _unpickle(mode: SemanticsMode, nodes: list, terms: list) -> FiniteLang:
    """The language pickled by `FiniteLang.__reduce__`, through the
    constructor: a language pickled before it canonicalized may hold
    COMMUTATIVE terms that are not canonical."""
    built = _built(nodes)
    return FiniteLang(mode, [built[t] if t.__class__ is int else t for t in terms])


def _require_same_mode(l1: FiniteLang, l2: FiniteLang) -> SemanticsMode:
    if l1.mode is not l2.mode:
        raise ModeMismatchError(f"cannot combine {l1.mode.value} and {l2.mode.value} languages")
    return l1.mode


def concat_lang(l1: FiniteLang, l2: FiniteLang) -> FiniteLang:
    """All pairwise sequential products x.y for x in l1, y in l2."""
    mode = _require_same_mode(l1, l2)
    return _lang(mode, {_join(Seq, x, y) for x in l1.terms for y in l2.terms})


def par_lang(l1: FiniteLang, l2: FiniteLang) -> FiniteLang:
    """All pairwise parallel products x||y for x in l1, y in l2."""
    mode = _require_same_mode(l1, l2)
    return _lang(mode, {_join(Par, x, y, mode) for x in l1.terms for y in l2.terms})


def union_lang(l1: FiniteLang, l2: FiniteLang) -> FiniteLang:
    mode = _require_same_mode(l1, l2)
    return _lang(mode, l1._members | l2._members)


class PowerKind(Enum):
    SEQ = "seq"
    PAR = "par"


class ClosureKind(Enum):
    STAR = "star"  # union of sequential powers
    PAR_PLUS = "par"  # union of parallel powers
    SP = "sp"  # both unions together


def epsilon_lang(mode: SemanticsMode = ORDERED) -> FiniteLang:
    return _lang(mode, (EPS,))


def _level(lang: FiniteLang, n: int, kind, operation: str, union: set | None = None) -> set[SPTerm]:
    """The n-th power of `lang` under `kind` (Seq or Par; level 0 is {eps}),
    or the first level that repeats. Each level is built one row (one word
    of the level before) at a time, each word joined with the operand's by
    `_join`, and goes into `union` too when it is given. The words counted
    after each row (those of `union` when given, else of the level) must not
    exceed DEFAULT_CAP, so EnumerationCapError is raised inside the step that
    crosses it."""
    mode = lang.mode
    level = {EPS}
    for _ in range(n):
        step: set[SPTerm] = set()
        counted = step if union is None else union
        for x in level:
            row = [_join(kind, x, y, mode) for y in lang.terms]
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
    return _lang(lang.mode, _level(lang, n, Seq if kind is PowerKind.SEQ else Par, f"{kind.value} power"))


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
    union = {EPS}
    for product in {ClosureKind.STAR: (Seq,), ClosureKind.PAR_PLUS: (Par,), ClosureKind.SP: (Seq, Par)}[kind]:
        _level(lang, n_max, product, f"{kind.value} closure", union)
    return _lang(lang.mode, union)


def reverse_lang(lang: FiniteLang) -> FiniteLang:
    """Element-wise reversal, re-sorted. An involution."""
    return _lang(lang.mode, tuple(reverse_term(t, lang.mode) for t in lang))


class LangDiff(Immutable):
    """Result of comparing two languages: truthy iff they are equal."""

    __slots__ = _fields = ("equal", "only_left", "only_right")  # bool, then the witness terms of each side

    def __bool__(self) -> bool:
        return self.equal

    def report(self) -> str:
        """The witnesses of each side, at most 20 in all, and how many more each has."""
        if self.equal:
            return "languages are equal"
        lines = []
        budget = 20
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


def universe(alphabet, max_atoms: int, mode: SemanticsMode = ORDERED) -> FiniteLang:
    """The full bounded term universe as a language (see enumerate_terms);
    more than DEFAULT_CAP terms raise EnumerationCapError."""
    from .grammars import _universe  # grammars imports this module

    return _universe(_letters(alphabet, max_atoms), max_atoms, mode, DEFAULT_CAP)


def load_lang(text: str) -> FiniteLang:
    """Parse the language file format."""
    mode: SemanticsMode | None = None
    terms: list[SPTerm] = []

    def entry(line: str) -> None:
        nonlocal mode
        if mode is not None:
            terms.append(parse_term(line))
            return
        if not line.startswith("mode:"):
            raise TermSyntaxError("language file must start with a 'mode:' header")
        name = line.split(":", 1)[1].strip()
        try:
            mode = SemanticsMode(name)
        except ValueError:
            raise TermSyntaxError(f"unknown mode {name!r}") from None

    read_lines(text, entry)
    if mode is None:
        raise TermSyntaxError("language file is missing the 'mode:' header")
    return FiniteLang.of(terms, mode)


def dump_lang(lang: FiniteLang) -> str:
    lines = [f"mode: {lang.mode.value}"]
    lines.extend(format_term(t) for t in lang.terms)
    return "\n".join(lines) + "\n"
