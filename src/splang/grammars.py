"""Grammars whose right-hand sides are series-parallel forms over mixed symbols.

A sentential form reuses the term algebra with uppercase leaves standing for
nonterminals and lowercase leaves for terminals. Classification recognises the
linear production shapes (right-linear x.B, left-linear B.x, parallel-linear
x||B / B||x with x a parallel word of terminals, and terminal productions),
plus the grammar-wide families: no-Seq right-hand sides (context-free
parallel) and the fully linear classes.

Generation and membership are exact, with no derivation-step budget: the words
of a nonterminal are the least solution of "L(A) is the union of L(rhs) over
A's productions", L(rhs) composing its leaves' words with `seq` and `par`. The
regex layer compiles every regex into a grammar and decides and enumerates it
here, so this is the one membership engine of the package.

Grammar file format: one ``A -> alt1 | alt2 | ...`` rule per line, ``#``
comments, nonterminals are uppercase letters, optionally indexed (``A_12``),
terminals are lowercase letters, ``eps`` allowed, start symbol is the first
rule's left-hand side. ``||`` is the parallel operator and binds
looser than ``.``; a single ``|`` separates alternatives and may not appear
inside parentheses.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from enum import Enum

from ._lex import NONTERMINAL, TokenStream
from .errors import EnumerationCapError, TermSyntaxError
from .terms import (
    DEFAULT_CAP,
    EPS,
    ORDERED,
    Eps,
    Leaf,
    Par,
    SemanticsMode,
    SPTerm,
    Seq,
    _par_factors,
    _parse_par,
    _seq_factors,
    atoms_count,
    canonicalize,
    format_term,
    is_parallel_word,
    is_sequential_word,
    par,
    seq,
)
from .langs import FiniteLang
from ._partitions import multiset_splits


@dataclass(frozen=True)
class Production:
    lhs: str
    rhs: SPTerm  # canonical sentential form

    def __post_init__(self):
        if not NONTERMINAL.fullmatch(self.lhs):
            raise ValueError(f"nonterminal must be an uppercase letter, optionally indexed (A_12), got {self.lhs!r}")

    def __repr__(self) -> str:
        return f"{self.lhs} -> {format_term(self.rhs)}"


@dataclass(frozen=True)
class Grammar:
    nonterminals: frozenset[str]
    terminals: frozenset[str]
    productions: tuple[Production, ...]
    start: str

    def __post_init__(self):
        if not self.productions:
            raise ValueError("a grammar needs at least one production")
        if self.start not in self.nonterminals:
            raise ValueError(f"start symbol {self.start!r} is not a nonterminal")
        for p in self.productions:
            if p.lhs not in self.nonterminals:
                raise ValueError(f"production head {p.lhs!r} not declared")
            for s in symbols_of(p.rhs):
                if s.isupper() and s not in self.nonterminals:
                    raise ValueError(f"undeclared nonterminal {s!r} in {p!r}")
                if s.islower() and s not in self.terminals:
                    raise ValueError(f"undeclared terminal {s!r} in {p!r}")
        by_lhs: dict[str, list[SPTerm]] = {}
        for p in self.productions:
            by_lhs.setdefault(p.lhs, []).append(p.rhs)
        nullable: frozenset[str] = frozenset()  # the nonterminals that derive eps
        while (grown := frozenset(p.lhs for p in self.productions if _derives_eps(p.rhs, nullable))) != nullable:
            nullable = grown
        object.__setattr__(self, "_by_lhs", by_lhs)
        object.__setattr__(self, "_nullable", nullable)
        # membership recursion: two frames per node of a production (at most its text length)
        object.__setattr__(self, "_frames_per_goal", 2 * max(len(format_term(p.rhs)) for p in self.productions) + 2)

    @staticmethod
    def of(productions, start: str | None = None) -> "Grammar":
        """Build a grammar inferring V from heads and T from used terminals."""
        prods = tuple(productions)
        if not prods:
            raise ValueError("a grammar needs at least one production")
        heads = frozenset(p.lhs for p in prods)
        used_terminals = frozenset(
            s for p in prods for s in symbols_of(p.rhs) if s.islower()
        )
        return Grammar(heads, used_terminals, prods, start or prods[0].lhs)

    def alternatives(self, nonterminal: str) -> list[SPTerm]:
        return self._by_lhs.get(nonterminal, [])


def _derives_eps(form: SPTerm, nullable) -> bool:
    """Whether `form` derives eps, given the nonterminals that do."""
    if isinstance(form, Leaf):
        return form.symbol in nullable
    return isinstance(form, Eps) or all(_derives_eps(c, nullable) for c in form.children)


def symbols_of(form: SPTerm):
    """Leaf symbols of a sentential form, left to right."""
    if isinstance(form, Eps):
        return
    if isinstance(form, Leaf):
        yield form.symbol
        return
    for c in form.children:
        yield from symbols_of(c)


def parse_grammar(text: str) -> Grammar:
    """Parse the grammar file format. The first rule's head is the start."""
    productions: list[Production] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, arrow, body = line.partition("->")
        if not arrow:
            raise TermSyntaxError(f"line {lineno}: expected 'A -> ...'")
        try:
            for rhs in _parse_alternatives(body):
                productions.append(Production(head.strip(), rhs))
        except (TermSyntaxError, ValueError) as exc:
            raise TermSyntaxError(f"line {lineno}: {exc}") from exc
    if not productions:
        raise TermSyntaxError("grammar file has no productions")
    try:
        return Grammar.of(productions)
    except ValueError as exc:
        raise TermSyntaxError(str(exc)) from exc


def _parse_alternatives(body: str) -> list[SPTerm]:
    stream = TokenStream(body)
    alternatives = [_parse_par(stream, allow_upper=True)]
    while stream.eat_op("|"):
        alternatives.append(_parse_par(stream, allow_upper=True))
    stream.expect_end()
    return alternatives


def format_grammar(g: Grammar) -> str:
    """Deterministic grammar text: heads in first-appearance order, start first."""
    order: list[str] = []
    for p in g.productions:
        if p.lhs not in order:
            order.append(p.lhs)
    lines = []
    for lhs in order:
        alts = " | ".join(format_term(rhs) for rhs in g.alternatives(lhs))
        lines.append(f"{lhs} -> {alts}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Classification

class ProductionShape(Enum):
    RIGHT_LINEAR = "RIGHT_LINEAR"  # a1...ak . B
    LEFT_LINEAR = "LEFT_LINEAR"  # B . a1...ak
    PARALLEL_LINEAR = "PARALLEL_LINEAR"  # x || B or B || x, x a parallel terminal word
    TERMINAL = "TERMINAL"  # rhs has no nonterminal (eps included)


def _is_nt_leaf(form: SPTerm) -> bool:
    return isinstance(form, Leaf) and form.symbol.isupper()


def _is_terminal_leaf(form: SPTerm) -> bool:
    return isinstance(form, Leaf) and form.symbol.islower()


def production_shapes(rhs: SPTerm) -> frozenset[ProductionShape]:
    """Which linear/terminal shapes the right-hand side satisfies."""
    shapes = set()
    if not any(s.isupper() for s in symbols_of(rhs)):
        shapes.add(ProductionShape.TERMINAL)
    if isinstance(rhs, Seq):
        head, tail = rhs.children[0], rhs.children[-1]
        body_first = rhs.children[1:]
        body_last = rhs.children[:-1]
        if _is_nt_leaf(tail) and all(map(_is_terminal_leaf, body_last)):
            shapes.add(ProductionShape.RIGHT_LINEAR)
        if _is_nt_leaf(head) and all(map(_is_terminal_leaf, body_first)):
            shapes.add(ProductionShape.LEFT_LINEAR)
    if isinstance(rhs, Par):
        head, tail = rhs.children[0], rhs.children[-1]
        if _is_nt_leaf(tail) and all(map(_is_terminal_leaf, rhs.children[:-1])):
            shapes.add(ProductionShape.PARALLEL_LINEAR)
        elif _is_nt_leaf(head) and all(map(_is_terminal_leaf, rhs.children[1:])):
            shapes.add(ProductionShape.PARALLEL_LINEAR)
    return frozenset(shapes)


# flag print order used by the CLI and reports
FLAG_ORDER = (
    "RIGHT_LINEAR",
    "LEFT_LINEAR",
    "PARALLEL_LINEAR",
    "SP_REGULAR",
    "CF_SEQUENTIAL",
    "CF_PARALLEL",
    "CF_SP",
)


@dataclass(frozen=True)
class GrammarClass:
    """Grammar-level families plus the shape set of each production."""

    right_linear: bool
    left_linear: bool
    parallel_linear: bool
    sp_regular: bool
    cf_sequential: bool
    cf_parallel: bool
    cf_sp: bool
    shapes: tuple[frozenset[ProductionShape], ...]

    def flags(self) -> tuple[str, ...]:
        present = {
            "RIGHT_LINEAR": self.right_linear,
            "LEFT_LINEAR": self.left_linear,
            "PARALLEL_LINEAR": self.parallel_linear,
            "SP_REGULAR": self.sp_regular,
            "CF_SEQUENTIAL": self.cf_sequential,
            "CF_PARALLEL": self.cf_parallel,
            "CF_SP": self.cf_sp,
        }
        return tuple(name for name in FLAG_ORDER if present[name])


def classify_grammar(g: Grammar) -> GrammarClass:
    """Shape-test every production and fold into grammar-level families.

    A grammar is right-/left-/parallel-linear when every production either
    has that linear shape or is a terminal production whose word fits the
    family (sequential word for right/left, parallel word for the parallel
    family; eps fits all three). SP_REGULAR asks only that each production
    has some linear shape or is terminal. CF_PARALLEL (CF_SEQUENTIAL) asks
    each right-hand side to be a parallel (sequential) word of any leaves.
    """
    shapes = tuple(production_shapes(p.rhs) for p in g.productions)

    def linear_family(shape: ProductionShape, terminal_ok) -> bool:
        return all(
            shape in s or (ProductionShape.TERMINAL in s and terminal_ok(p.rhs))
            for s, p in zip(shapes, g.productions)
        )

    right = linear_family(ProductionShape.RIGHT_LINEAR, is_sequential_word)
    left = linear_family(ProductionShape.LEFT_LINEAR, is_sequential_word)
    parallel = linear_family(ProductionShape.PARALLEL_LINEAR, is_parallel_word)
    sp_regular = all(s for s in shapes)
    cf_parallel = all(is_parallel_word(p.rhs) for p in g.productions)
    cf_sequential = all(is_sequential_word(p.rhs) for p in g.productions)
    return GrammarClass(
        right_linear=right,
        left_linear=left,
        parallel_linear=parallel,
        sp_regular=sp_regular,
        cf_sequential=cf_sequential,
        cf_parallel=cf_parallel,
        cf_sp=True,
        shapes=shapes,
    )


# ---------------------------------------------------------------------------
# Generation and membership

def generate(
    g: Grammar,
    max_atoms: int,
    max_steps: int | None = None,
    mode: SemanticsMode = ORDERED,
    cap: int = DEFAULT_CAP,
) -> FiniteLang:
    """Every word of L(g) with at most max_atoms atoms, canonical for `mode`:
    the least fixpoint of every nonterminal's words, pruned to max_atoms
    atoms (a derivation never loses an atom). `cap` bounds the (nonterminal,
    word) pairs held, not counting the nonterminals whose productions are all
    eps or a single nonterminal: they only copy words counted elsewhere.
    `max_steps` is ignored; it stays the third positional parameter for
    existing callers."""
    words: dict[str, dict[SPTerm, int]] = {nt: {} for nt in g.nonterminals}  # word -> its atoms
    copies = [nt for nt in g.nonterminals
              if all(isinstance(rhs, Eps) or _is_nt_leaf(rhs) for rhs in g.alternatives(nt))]
    count, last = 0, -1
    while count > last:
        for p in g.productions:
            words[p.lhs].update(_form_words(p.rhs, words, max_atoms, mode))
        last, count = count, sum(map(len, words.values()))
        if count - sum(len(words[nt]) for nt in copies) > cap:
            raise EnumerationCapError(f"grammar words exceed the cardinality cap ({cap})")
    return FiniteLang(mode, tuple(words[g.start]))


def _form_words(form: SPTerm, words, max_atoms: int, mode: SemanticsMode) -> dict[SPTerm, int]:
    if isinstance(form, Eps):
        return {EPS: 0}
    if isinstance(form, Leaf):
        if form.symbol.isupper():
            return words[form.symbol]
        return {form: 1} if max_atoms > 0 else {}
    combine = seq if isinstance(form, Seq) else lambda x, y: par(x, y, mode=mode)
    acc = {EPS: 0}
    for child in form.children:
        child_words = _form_words(child, words, max_atoms, mode).items()
        acc = {combine(x, y): m + n for x, m in acc.items() for y, n in child_words if m + n <= max_atoms}
    return acc


@dataclass(frozen=True)
class MembershipResult:
    member: bool
    trace: tuple[SPTerm, ...] | None  # sentential forms, start first

    def __bool__(self) -> bool:
        return self.member


def is_member(
    g: Grammar,
    t: SPTerm,
    mode: SemanticsMode = ORDERED,
    cap: int = DEFAULT_CAP,
) -> MembershipResult:
    """Exact membership of `t`, canonicalized for `mode`, in L(g). A True
    answer carries the canonical forms of a leftmost derivation of `t` (in
    COMMUTATIVE mode, leftmost as the productions write their nonterminals),
    read off the first proof found, so not necessarily the shortest. `cap`
    bounds the (nonterminal, sub-term) goals one search pass examines."""
    search = _MemberSearch(g, mode, cap)
    if not search.proves(canonicalize(t, mode)):
        return MembershipResult(False, None)
    return MembershipResult(True, search.leftmost_derivation())


class _MemberSearch:
    """Goal-directed, memoized search: does nonterminal A derive term u?
    A production proves (A, u) when its parts, matched left to right over
    two-way splits, derive ranges of u's Seq factors, or ranges (ORDERED) or
    sub-multisets (COMMUTATIVE) of its Par children; a part that cannot
    derive eps takes at least one factor, and a terminal, or a part of the
    other operator over two parts that cannot derive eps, at most one. A
    goal met again while being tried lies on a unit or eps cycle and counts
    as False for now; the search reruns, keeping what it proved, while a
    cycle was cut and new facts still appear."""

    def __init__(self, g: Grammar, mode: SemanticsMode, cap: int):
        self.g, self.mode, self.cap = g, mode, cap
        self.proofs: dict = {}  # goal -> (rhs, goals of its nonterminal leaves, left to right)
        self.tried: dict = {}  # goal -> still being tried, in this pass

    def proves(self, t: SPTerm, start: str | None = None) -> bool:
        """Whether `start` (by default the grammar's) derives `t`, a term
        canonical for the mode."""
        self.goal = goal = (start or self.g.start, t)
        # A call path holds at most one goal per (nonterminal, atom count).
        per_path = self.g._frames_per_goal * len(self.g.nonterminals) * (atoms_count(t) + 1)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(limit + per_path)
        try:
            while True:
                known, self.cut, self.tried = len(self.proofs), False, {}
                if self.derives(goal) or not self.cut or len(self.proofs) == known:
                    return goal in self.proofs
        finally:
            sys.setrecursionlimit(limit)

    def derives(self, goal) -> bool:
        if goal in self.proofs:
            return True
        if goal in self.tried:
            self.cut |= self.tried[goal]
            return False
        self.tried[goal] = True
        if len(self.tried) > self.cap:
            raise EnumerationCapError(f"membership goals exceed the cardinality cap ({self.cap})")
        for rhs in self.g.alternatives(goal[0]):
            subgoals = self.match(rhs, goal[1])
            if subgoals is not None:
                self.proofs[goal] = (rhs, subgoals)
                break
        self.tried[goal] = False
        return goal in self.proofs

    def match(self, form: SPTerm, t: SPTerm) -> tuple | None:
        """The goals under which `form` derives `t`, or None."""
        if isinstance(form, Leaf):
            if form.symbol.isupper():
                return ((form.symbol, t),) if self.derives((form.symbol, t)) else None
            return () if form == t else None
        if isinstance(form, Eps):
            return () if isinstance(t, Eps) else None
        if isinstance(form, Seq):
            return self.match_parts(form.children, _seq_factors(t), seq, True)
        return self.match_parts(form.children, _par_factors(t), par, self.mode is ORDERED)

    def match_parts(self, forms, factors, build, ordered: bool) -> tuple | None:
        if len(forms) == 1:
            return self.match(forms[0], build(*factors))
        head, later = forms[0], forms[1:]  # bound the head's size
        nullable = self.g._nullable
        high = len(factors) - sum(not _derives_eps(f, nullable) for f in later)
        low = high if all(map(_is_terminal_leaf, later)) else 0
        if not _derives_eps(head, nullable):
            low = max(low, 1)
        if _one_factor(head, build, nullable):
            high = min(high, 1)
        if ordered:
            splits = ((factors[:i], factors[i:]) for i in range(low, high + 1))
        else:
            splits = multiset_splits(factors, 2, (low, high))
        for part, rest in splits:
            first = self.match(head, build(*part))
            if first is not None:
                others = self.match_parts(later, rest, build, ordered)
                if others is not None:
                    return first + others
        return None

    def leftmost_derivation(self) -> tuple[SPTerm, ...]:
        """The leftmost derivation of the goal `proves` last proved."""
        form: SPTerm = Leaf(self.g.start)
        pending = [self.goal]  # goals of the nonterminal leaves of `form`, rightmost first
        chain = [form]
        while pending:
            rhs, subgoals = self.proofs[pending.pop()]
            form = _expand_leftmost(form, rhs)
            pending.extend(reversed(subgoals))
            chain.append(canonicalize(form, self.mode))
        return tuple(chain)


def _one_factor(form: SPTerm, build, nullable) -> bool:
    """Whether every word of `form` is at most one factor of a `build` (seq
    or par) term: a terminal, or a form of the other operator with two parts
    that cannot derive eps."""
    if isinstance(form, Leaf):
        return form.symbol.islower()
    other = Par if build is seq else Seq
    return isinstance(form, other) and sum(not _derives_eps(c, nullable) for c in form.children) >= 2


def _expand_leftmost(form: SPTerm, rhs: SPTerm) -> SPTerm | None:
    """`form` with its first nonterminal leaf replaced by `rhs`; None if it has none."""
    if isinstance(form, (Seq, Par)):
        for i, child in enumerate(form.children):
            new = _expand_leftmost(child, rhs)
            if new is not None:
                build = seq if isinstance(form, Seq) else par
                return build(*form.children[:i], new, *form.children[i + 1 :])
        return None
    return rhs if _is_nt_leaf(form) else None


# ---------------------------------------------------------------------------
# Seeded fixture grammars

def random_parallel_linear_grammar(
    seed: int,
    alphabet: tuple[str, ...] = ("a", "b"),
    max_nonterminals: int = 3,
    max_productions_per_nt: int = 3,
) -> Grammar:
    """A small random grammar in the parallel-linear class, deterministic in
    `seed`. Used to fan out the grammar/automaton equivalence checks."""
    rng = random.Random(seed)
    names = ["S", "A", "B"][: rng.randint(1, max_nonterminals)]
    productions: list[Production] = []
    for name in names:
        for _ in range(rng.randint(1, max_productions_per_nt)):
            roll = rng.random()
            if roll < 0.2:
                rhs: SPTerm = EPS
            else:
                word = par(*(Leaf(rng.choice(alphabet)) for _ in range(rng.randint(1, 3))))
                if roll < 0.6:
                    rhs = word
                else:
                    cont = Leaf(rng.choice(names))
                    rhs = par(word, cont) if rng.random() < 0.5 else par(cont, word)
            productions.append(Production(name, rhs))
    return Grammar.of(productions, start="S" if "S" in names else names[0])
