"""Finite languages of series-parallel terms.

A FiniteLang is an immutable, slotted value: a deterministic, duplicate-free,
sorted tuple of canonical terms together with the semantics mode its members
are canonical for. Two languages are equal when their modes and members are,
and hash alike then. The constructor sorts and deduplicates, and
``FiniteLang.of`` canonicalizes. All operations here are total on finite
languages; the three Kleene closures are truncated at an explicit repetition
bound and never claim anything about the infinite closure.

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


def _cap_error(operation: str) -> EnumerationCapError:
    return EnumerationCapError(f"{operation} exceeds the cardinality cap ({DEFAULT_CAP})")


def _product(left, right, compose, operation: str | None = None, union: set | None = None) -> set[SPTerm]:
    """The distinct products compose(x, y) for x in `left` and y in `right`.

    They are added one row (one x) at a time, to `union` as well when it is
    given. With an `operation` named, the words counted after each row (those
    of `union` when given, else the products) must not exceed DEFAULT_CAP, so
    EnumerationCapError is raised inside the step that crosses it."""
    words: set[SPTerm] = set()
    counted = words if union is None else union
    for x in left:
        row = [compose(x, y) for y in right]
        words.update(row)
        if union is not None:
            union.update(row)
        if operation is not None and len(counted) > DEFAULT_CAP:
            raise _cap_error(operation)
    return words


def concat_lang(l1: FiniteLang, l2: FiniteLang) -> FiniteLang:
    """All pairwise sequential products x.y for x in l1, y in l2."""
    mode = _require_same_mode(l1, l2)
    return FiniteLang(mode, _product(l1.terms, l2.terms, seq))


def par_lang(l1: FiniteLang, l2: FiniteLang) -> FiniteLang:
    """All pairwise parallel products x||y for x in l1, y in l2."""
    mode = _require_same_mode(l1, l2)
    return FiniteLang(mode, _product(l1.terms, l2.terms, functools.partial(par, mode=mode)))


def union_lang(l1: FiniteLang, l2: FiniteLang) -> FiniteLang:
    mode = _require_same_mode(l1, l2)
    return FiniteLang(mode, l1.terms + l2.terms)


class PowerKind(Enum):
    SEQ = "seq"
    PAR = "par"


class ClosureKind(Enum):
    STAR = "star"  # union of sequential powers
    PAR_PLUS = "par"  # union of parallel powers
    SP = "sp"  # both unions together


def epsilon_lang(mode: SemanticsMode = ORDERED) -> FiniteLang:
    return FiniteLang(mode, (EPS,))


def power(lang: FiniteLang, n: int, kind: PowerKind) -> FiniteLang:
    """n-fold repetition of `lang` under the chosen operator; n=0 gives {eps}.

    Raises EnumerationCapError as soon as a partial power holds more than
    DEFAULT_CAP words.
    """
    if n < 0:
        raise ValueError("power exponent must be >= 0")
    compose = seq if kind is PowerKind.SEQ else functools.partial(par, mode=lang.mode)
    acc = epsilon_lang(lang.mode)
    for _ in range(n):
        acc = FiniteLang(lang.mode, _product(acc.terms, lang.terms, compose, f"{kind.value} power"))
    return acc


def kleene_bounded(lang: FiniteLang, kind: ClosureKind, n_max: int) -> FiniteLang:
    """Union of the 0..n_max powers of `lang`.

    STAR unions sequential powers, PAR_PLUS parallel powers, and SP is the
    union of both at the same bound. Monotone in n_max. Raises
    EnumerationCapError as soon as a partial union of powers holds more than
    DEFAULT_CAP words.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    mode = lang.mode
    parallel = functools.partial(par, mode=mode)
    composes = {ClosureKind.STAR: (seq,), ClosureKind.PAR_PLUS: (parallel,), ClosureKind.SP: (seq, parallel)}[kind]
    operation = f"{kind.value} closure"
    closures = []
    for compose in composes:
        out = level = epsilon_lang(mode)
        for _ in range(n_max):
            union = set(out._members)
            level = FiniteLang(mode, _product(level.terms, lang.terms, compose, operation, union))
            out = FiniteLang(mode, union)
        closures.append(out)
    both = functools.reduce(union_lang, closures)
    if len(both) > DEFAULT_CAP:
        raise _cap_error(operation)
    return both


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
