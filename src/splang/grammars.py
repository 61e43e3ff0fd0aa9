"""Grammars whose right-hand sides are series-parallel forms over mixed symbols.

A sentential form reuses the term algebra with uppercase leaves standing for
nonterminals and lowercase leaves for terminals. Classification recognises the
linear production shapes (right-linear x.B, left-linear B.x, parallel-linear
x||B / B||x with x a parallel word of terminals, and terminal productions),
plus the grammar-wide families: no-Seq right-hand sides (context-free
parallel) and the fully linear classes.

Generation and membership are exact, with no derivation-step budget: the words
of a nonterminal are the least solution of "L(A) is the union of L(rhs) over
A's productions", L(rhs) composing its leaves' words with `seq` and `par`.
Regexes, branching automata and the term universe are all compiled into
grammars and decided or enumerated here: this is the package's one membership
engine and its one bounded engine.

Generation is stratified by atom count (the size-stratified evaluation of
CYK; Younger, Information and Control 10, 1967): level k, the words of k
atoms, is computed for k = 0, 1, ... in order. A derivation never loses an
atom, so the parts of a word of k atoms have at most k, and level k needs only
levels up to k. The words a form builds from parts of fewer atoms are computed
once; only a part that takes all k atoms, every other part deriving eps,
reads level k itself and passes its words on unchanged. A form, and each of
its parts, takes from its fewest to its most atoms (the Parikh facts below),
so sizes outside them are skipped before any word is combined. Each grammar
plans once the order in which a level visits its nonterminals: the strongly
connected components of "A passes B's words on" (Tarjan, SIAM J. Comput.
1(2), 1972), each after the ones it reads. A level is then one pass over
them; only a component that passes words around a cycle repeats its own
forms until no new word appears. The Parikh facts below are solved a
component of "A's productions name B" at a time too, the components found
once per graph, so planning a long chain of nonterminals, like generating
from it, takes time linear in its length. Nothing a call of `generate`
builds is on a reference cycle, so it is all freed when the call returns.

Membership is a goal-directed search over a plan made once per grammar. Each
production's form is planned with the split bounds of its parts and coarse
Parikh facts (Parikh, JACM 13, 1966): the fewest and most atoms of its words
and the letters they can have, from fixpoints of each nonterminal's. A split
whose share has fewer or more atoms than the parts it must match, or a letter
they never derive, is skipped before its terms are built. This is sound: the
facts hold for every derivable word, so only splits that would fail are
skipped, and the search still tries the others in the same order.

Grammar file format: one ``A -> alt1 | alt2 | ...`` rule per line, ``#``
comments, nonterminals are uppercase letters, optionally indexed (``A_12``),
terminals are lowercase letters, ``eps`` allowed, start symbol is the first
rule's left-hand side. ``||`` is the parallel operator and binds
looser than ``.``; a single ``|`` separates alternatives and may not appear
inside parentheses.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
import sys
from enum import Enum

from ._lex import NONTERMINAL, Immutable, TokenStream, read_lines
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
    _node,
    _par_factors,
    _parse_par,
    _seq_factors,
    canonicalize,
    format_term,
    is_parallel_word,
    is_sequential_word,
    par,
    seq,
    symbols_of,
)
from .langs import FiniteLang


class Production(Immutable):
    __slots__ = _fields = ("lhs", "rhs")  # rhs: a canonical sentential form

    def __init__(self, lhs: str, rhs: SPTerm):
        if not NONTERMINAL.fullmatch(lhs):
            raise ValueError(f"nonterminal must be an uppercase letter, optionally indexed (A_12), got {lhs!r}")
        super().__init__(lhs, rhs)

    def __repr__(self) -> str:
        return f"{self.lhs} -> {format_term(self.rhs)}"


class Grammar(Immutable):
    """The constructor checks the fields and plans membership and generation once."""

    _fields = ("nonterminals", "terminals", "productions", "start")
    __slots__ = _fields + ("_by_lhs", "_least", "_most", "_allowed", "_plans", "_schedule", "_counted", "_units",
                           "_foreign", "_frames_per_goal")

    def __init__(self, nonterminals: frozenset[str], terminals: frozenset[str], productions: tuple[Production, ...],
                 start: str):
        super().__init__(nonterminals, terminals, productions, start)
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
        graph = _heads(self.productions)
        by_lhs = graph[0]
        least = _solve(dict.fromkeys(self.nonterminals, math.inf), graph,
                       lambda rhs, n, least: min(n, _least(rhs, least)))
        # the productions with words, and the order of their heads, shared by the facts below
        productive = _heads([p for p in self.productions if _least(p.rhs, least) < math.inf])
        # a letter's field in a Parikh vector (see _WIDTH)
        shifts = {c: _WIDTH * i for i, c in enumerate(sorted(self.terminals), 1)}
        fields = {c: _COUNT << shift for c, shift in shifts.items()}
        allowed = _solve(dict.fromkeys(self.nonterminals, 0), productive,
                         lambda rhs, m, allowed: m | _letter_fields(rhs, allowed, fields))
        most = _most(self.nonterminals, productive, allowed)
        units = {c: 1 | 1 << shift for c, shift in shifts.items()}
        facts = least, most, allowed, fields, units
        plans = {nt: tuple(_plan(rhs, *facts) for rhs in alts) for nt, alts in by_lhs.items()}
        object.__setattr__(self, "_by_lhs", by_lhs)
        object.__setattr__(self, "_least", least)
        object.__setattr__(self, "_most", most)
        object.__setattr__(self, "_allowed", allowed)
        object.__setattr__(self, "_plans", plans)
        object.__setattr__(self, "_schedule", _schedule(plans))
        # the nonterminals `generate` counts against its cap: the others only copy words counted elsewhere
        counted = tuple(nt for nt, alts in by_lhs.items()
                        if not all(isinstance(rhs, Eps) or _is_nt_leaf(rhs) for rhs in alts))
        object.__setattr__(self, "_counted", counted)
        object.__setattr__(self, "_units", units)
        object.__setattr__(self, "_foreign", 1 | 1 << _WIDTH * (len(shifts) + 1))  # any other letter
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


def _heads(productions) -> tuple[dict, list]:
    """The right-hand sides of each head of `productions`, in order, and the
    heads' strongly connected components (see `_components`) in the graph
    "A's productions name B": the graph `_solve` solves over."""
    by_lhs: dict = {}
    for p in productions:
        by_lhs.setdefault(p.lhs, []).append(p.rhs)
    names = {nt: [s for rhs in alts for s in symbols_of(rhs) if s in by_lhs] for nt, alts in by_lhs.items()}
    return by_lhs, _components(names)


def _solve(values: dict, graph: tuple[dict, list], step) -> dict:
    """The least fixpoint of values[lhs] = step(rhs, values[lhs], values)
    over the productions of `graph` (see `_heads`), from the given start
    values. The heads are solved a strongly connected component at a time,
    each after every one its productions name, so a component is solved
    from final values and only a cyclic one repeats its own productions."""
    by_lhs, order = graph
    for cyclic, group in order:
        changed = True
        while changed:
            changed = False
            for nt in group:
                for rhs in by_lhs[nt]:
                    new = step(rhs, values[nt], values)
                    if new != values[nt]:  # an acyclic group reads only final values: one pass solves it
                        values[nt], changed = new, cyclic
    return values


def _components(graph: dict) -> list:
    """The strongly connected components of `graph` (a node -> the nodes it
    depends on, each a node of `graph`), each after every component it
    depends on, as (cyclic, members) pairs; a component is cyclic when it
    holds a cycle: more than one member, or a member that depends on itself.
    Tarjan's search (SIAM J. Comput. 1(2), 1972) closes a component only
    after every component it reaches, so the order it closes them in is this
    one. It keeps its own stack, so a long chain needs no recursion."""
    index: dict = {}  # node -> its visit number
    low: dict = {}  # node -> the least visit number it reaches on the open stack
    open_at: dict = {}  # a node on the open stack -> its position there
    stack, order, path = [], [], []  # path: the search's own call stack

    def enter(node) -> None:
        index[node] = low[node] = len(index)
        open_at[node] = len(stack)
        stack.append(node)
        path.append((node, iter(graph[node])))

    for root in graph:
        if root not in index:
            enter(root)
        while path:
            node, edges = path[-1]
            for dep in edges:
                if dep not in index:
                    enter(dep)
                    break
                if dep in open_at and index[dep] < low[node]:
                    low[node] = index[dep]
            else:
                path.pop()
                if path and low[node] < low[path[-1][0]]:
                    low[path[-1][0]] = low[node]
                if low[node] == index[node]:
                    members = stack[open_at[node]:]
                    del stack[open_at[node]:]
                    for m in members:
                        del open_at[m]
                    order.append((len(members) > 1 or node in graph[node], tuple(members)))
    return order


def _schedule(plans: dict) -> list:
    """The order in which a level of `generate` visits the nonterminals with
    productions: the strongly connected components of "a form of A passes
    B's words of the level on unchanged" (see `_Node.passing`), each after
    every one it depends on, as (cyclic, members) pairs."""
    graph = {}
    for nt, nodes in plans.items():
        passed, todo = {}, list(nodes)
        while todo:
            node = todo.pop()
            if node.symbol is not None:
                passed[node.symbol] = None
            elif node.passing:
                todo += node.passing
        graph[nt] = [s for s in passed if s in plans]
    return _components(graph)


def _least(form: SPTerm, least) -> float:
    """The fewest atoms of a word of `form`, given each nonterminal's (inf
    when it has no word); 0 exactly when `form` derives eps. Seq and Par both
    add their parts' atoms, so this is a sum over the leaves."""
    return sum(least[s] if s.isupper() else 1 for s in symbols_of(form))


def _most(nonterminals, productive: tuple[dict, list], allowed) -> dict:
    """The most atoms of a word of each nonterminal over the productive
    productions (see `_heads`), 0 when it has none, given the letter fields
    each can fill (`allowed`, nonzero exactly when it derives a letter): inf
    exactly when it reaches a cycle through a production whose other leaves
    can derive an atom, which can be pumped; otherwise no cycle adds an atom
    and a fixpoint gives the most. A leaf is on a cycle back to its
    production's head when the two share a strongly connected component."""
    by_lhs, order = productive
    component = {nt: group for _, group in order for nt in group}
    pumped = {lhs for lhs, alts in by_lhs.items() for rhs in alts for leaves in [list(symbols_of(rhs))]
              for i, s in enumerate(leaves) if s.isupper() and component[s] is component[lhs]
              and any(x.islower() or allowed[x] for x in leaves[:i] + leaves[i + 1 :])}
    pumps = _solve({nt: nt in pumped for nt in nonterminals}, productive,
                   lambda rhs, m, pumps: m or any(pumps[s] for s in symbols_of(rhs) if s.isupper()))
    return _solve({nt: math.inf if pumps[nt] else 0 for nt in nonterminals}, productive,
                  lambda rhs, m, most: max(m, sum(most[s] if s.isupper() else 1 for s in symbols_of(rhs))))


def _letter_fields(form: SPTerm, allowed, fields) -> int:
    """The letter fields a word of `form` may fill, given each nonterminal's:
    the OR over the leaves, as Seq and Par both keep their parts' letters."""
    return functools.reduce(operator.or_, ((allowed if s.isupper() else fields)[s] for s in symbols_of(form)), 0)


def parse_grammar(text: str) -> Grammar:
    """Parse the grammar file format. The first rule's head is the start."""
    productions: list[Production] = []

    def rule(line: str) -> None:
        head, arrow, body = line.partition("->")
        if not arrow:
            raise TermSyntaxError("expected 'A -> ...'")
        productions.extend(Production(head.strip(), rhs) for rhs in _parse_alternatives(body))

    read_lines(text, rule)
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
    """Deterministic grammar text: one line per head, the start first, then
    the others in first-appearance order."""
    heads = sorted(g._by_lhs, key=lambda lhs: lhs != g.start)  # stable: the rest keep their order
    return "".join(f"{lhs} -> {' | '.join(map(format_term, g._by_lhs[lhs]))}\n" for lhs in heads)


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


class GrammarClass(Immutable):
    """Grammar-level families, a bool field per flag of FLAG_ORDER named in
    lowercase, plus the shape set of each production (`shapes`)."""

    __slots__ = _fields = tuple(name.lower() for name in FLAG_ORDER) + ("shapes",)

    def flags(self) -> tuple[str, ...]:
        return tuple(name for name in FLAG_ORDER if getattr(self, name.lower()))


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
    """Every word of L(g) with at most max_atoms atoms, canonical for `mode`,
    computed level by level in the atom count (see the module docstring):
    as a derivation never loses an atom, level k needs only levels <= k, and
    a form's words of k atoms combine only part sizes that sum to k, each at
    least its part's fewest atoms and at most its most (`_Node.least`,
    `_Node.most`), and a form is evaluated only at the levels between its
    own fewest and most. Within level k, a form's words from smaller parts
    are computed once, and only its `passing` parts add level-k words of
    their own. Each level visits the nonterminals in
    the grammar's schedule (`_schedule`): a group that holds no cycle is
    evaluated once, after every group it reads; a cyclic group repeats its
    own forms until its words stop growing. `cap` bounds the (nonterminal,
    word) pairs held, checked after each level, not counting the
    nonterminals whose productions are all eps or a single nonterminal: they
    only copy words counted elsewhere. `max_steps` is ignored; it stays the
    third positional parameter for existing callers."""
    levels = _Levels(g, mode)
    words = levels.words
    count = 0
    for level in range(max_atoms + 1):
        for nt in g.nonterminals:
            words[nt].append(set())
        for cyclic, group in g._schedule:
            grown = True
            while grown:  # the groups before this one are done: only a cycle within it needs another pass
                grown = False
                for nt in group:
                    got = words[nt][level]
                    size = len(got)
                    for node in g._plans[nt]:
                        if node.least <= level <= node.most:
                            got.update(levels.sized(node, level))
                    grown |= cyclic and len(got) > size
        count += sum(len(words[nt][level]) for nt in g._counted)
        if count > cap:
            raise EnumerationCapError(f"grammar words exceed the cardinality cap ({cap})")
    # a set: the language's frozenset copies it without hashing the words again
    return FiniteLang(mode, set().union(*words[g.start]))


class _Levels:
    """The words one `generate` call has found. Its helpers are methods of
    this object, not closures that name each other, so nothing it holds is on
    a reference cycle and all of it is freed when the call returns."""

    __slots__ = ("words", "inner", "join")

    def __init__(self, g: Grammar, mode: SemanticsMode):
        self.words = {nt: [] for nt in g.nonterminals}  # nonterminal -> its words by atom count
        self.inner = {}  # (a Seq or Par form, atoms) -> its words where no part takes all the atoms
        self.join = {Seq: seq, Par: functools.partial(par, mode=mode)}

    def sized(self, node: _Node, k: int):
        """The words of k atoms of a production's form or part, from the words found so far."""
        if node.symbol is not None:
            return self.words[node.symbol][k]
        if node.parts is None:  # a terminal or eps
            return (node.form,) if node.unit & _COUNT == k else ()
        if k > node.most:
            return ()
        below = self.inner.get((node, k))
        if below is None:  # from levels below k: computed once
            below = self.inner[node, k] = self.combined(node, k, k - 1)
        if not node.passing:
            return below
        return below.union(*(self.sized(part, k) for part in node.passing))

    def combined(self, node: _Node, k: int, top: int, i: int = 0):
        """The words of k atoms of the parts i, i+1, ... of a Seq or Par form,
        each part taking from its fewest to its most atoms, and at most `top`,
        and leaving the later parts from their fewest to their most."""
        part = node.parts[i]
        if i == len(node.parts) - 1:
            return self.sized(part, k) if k <= top else ()
        out = set()
        low = max(part.least, k - part.rest_most)  # inf when a part has no word
        high = min(top, k - part.rest_least, part.most)
        if low <= high:
            make = self.join[type(node.form)]
            for j in range(low, high + 1):
                xs = self.sized(part, j)
                if xs:
                    out.update({make(x, y) for y in self.combined(node, k - j, top, i + 1) for x in xs})
        return out


@functools.lru_cache(maxsize=64)
def _universe(letters: tuple[str, ...], max_atoms: int, mode: SemanticsMode, cap: int) -> FiniteLang:
    """Every canonical term over `letters` with at most max_atoms atoms, eps
    included: a Seq (Q) has two or more factors that are letters or Par
    terms (X), a Par (R) two or more that are letters or Seq terms (Y). S, X
    and Y only copy words, so `generate` counts the terms but eps."""
    A, Q, R, X, Y = map(Leaf, "AQRXY")
    rules = {"S": (EPS, A, Q, R), "A": tuple(map(Leaf, letters)), "Q": (seq(X, X), seq(X, Q)),
             "R": (par(Y, Y), par(Y, R)), "X": (A, R), "Y": (A, Q)}
    productions = tuple(Production(lhs, rhs) for lhs, alts in rules.items() for rhs in alts)
    g = Grammar(frozenset(rules), frozenset(letters), productions, "S")
    try:
        return generate(g, max_atoms, mode=mode, cap=cap - 1)
    except EnumerationCapError:
        raise EnumerationCapError(f"term universe exceeds the cardinality cap ({cap})") from None


class MembershipResult(Immutable):
    __slots__ = _fields = ("member", "trace")  # trace: the sentential forms, start first, or None

    def __bool__(self) -> bool:
        return self.member


def is_member(g: Grammar, t: SPTerm, mode: SemanticsMode = ORDERED) -> MembershipResult:
    """Exact membership of `t`, canonicalized for `mode`, in L(g). A True
    answer carries the canonical forms of a leftmost derivation of `t` (in
    COMMUTATIVE mode, leftmost as the productions write their nonterminals),
    read off the first proof found, so not necessarily the shortest.
    `DEFAULT_CAP` bounds the (nonterminal, sub-term) goals one search pass
    examines."""
    search = _MemberSearch(g, mode, DEFAULT_CAP)
    if not search.proves(canonicalize(t, mode)):
        return MembershipResult(False, None)
    return MembershipResult(True, search.leftmost_derivation())


class _MemberSearch:
    """Goal-directed, memoized search: does nonterminal A derive term u?
    A production proves (A, u) when its parts, matched left to right over
    two-way splits, derive ranges of u's Seq factors, or ranges (ORDERED) or
    sub-multisets (COMMUTATIVE) of its Par children. A goal met again while
    being tried lies on a unit or eps cycle and counts as False for now; the
    search reruns, keeping what it proved, while a cycle was cut and new facts
    still appear.

    The grammar plans each production once, a `_Node` per form and per part:
    each part holds its fewest and most atoms and the letters it can derive,
    and those of the parts after it together. Every factor has an atom, so a
    part takes at most its most atoms in factors and leaves at most the later
    parts' most; a part that cannot derive eps takes at least one, and a part
    of the other operator over two parts that cannot derive eps at most one.
    A split is skipped before its terms are built when a share has fewer or
    more atoms than its parts allow, or a letter they never derive, and so is
    a production whose form cannot fit the goal; the others are tried in the
    same order. Shares are measured by Parikh vectors (see `_WIDTH`): each
    factor's once per query, a share's by adding its factors' as the split
    moves, and the rest's by subtracting that from the goal's, so checking a
    split costs the same however long the word is. A COMMUTATIVE split moves
    a run of equal factors at a time and drops a head-count prefix, with every
    split extending it, once its share or rest has too many atoms or a letter
    it may not have."""

    def __init__(self, g: Grammar, mode: SemanticsMode, cap: int):
        self.g, self.mode, self.cap = g, mode, cap
        self.proofs: dict = {}  # goal -> (rhs, goals of its nonterminal leaves, left to right)
        self.tried: dict = {}  # goal -> [still being tried], in this pass
        self.vectors: dict = {}  # Seq or Par term -> its Parikh vector, in the last query

    def proves(self, t: SPTerm, start: str | None = None) -> bool:
        """Whether `start` (by default the grammar's) derives `t`, a term
        canonical for the mode."""
        if t not in self.vectors:  # a query on a sub-term of the last one keeps its vectors
            self.vectors = {}
        vec = self.vector(t)
        self.goal = goal = (start or self.g.start, t)
        # A call path holds at most one goal per (nonterminal, atom count).
        per_path = self.g._frames_per_goal * len(self.g.nonterminals) * ((vec & _COUNT) + 1)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(limit + per_path)
        try:
            while True:
                known, self.cut, self.tried = len(self.proofs), False, {}
                if self.derives(goal, vec) or not self.cut or len(self.proofs) == known:
                    return goal in self.proofs
        finally:
            sys.setrecursionlimit(limit)

    def vector(self, t: SPTerm) -> int:
        """The Parikh vector of `t` (see `_WIDTH`), kept for the query's Seq
        and Par terms and found with a stack, so deep terms need no recursion."""
        if isinstance(t, Leaf):
            return self.g._units.get(t.symbol, self.g._foreign)
        if isinstance(t, Eps):
            return 0
        vec = self.vectors.get(t)
        if vec is None:
            order = [t]  # the Seq and Par terms in `t`, each before its children
            for node in order:
                order += [c for c in node.children if not isinstance(c, Leaf)]
            for node in reversed(order):
                self.vectors[node] = sum(map(self.vector, node.children))
            vec = self.vectors[t]
        return vec

    def derives(self, goal, vec: int) -> bool:
        """Whether goal (A, u) holds, `vec` being u's Parikh vector."""
        if goal in self.proofs:
            return True
        trying = self.tried.get(goal)
        if trying is not None:
            self.cut |= trying[0]
            return False
        trying = self.tried[goal] = [True]  # a list, so it is updated without hashing the goal again
        if len(self.tried) > self.cap:
            raise EnumerationCapError(f"membership goals exceed the cardinality cap ({self.cap})")
        subgoals = None
        for node in self.g._plans.get(goal[0], ()):
            if _fits(vec, node.least, node.most, node.forbid):
                subgoals = self.match(node, goal[1], vec)
                if subgoals is not None:
                    self.proofs[goal] = (node.form, subgoals)
                    break
        trying[0] = False
        return subgoals is not None

    def match(self, node: _Node, t: SPTerm, vec: int) -> tuple | None:
        """The goals under which the form of `node` derives `t`, whose Parikh
        vector is `vec`, or None."""
        if node.parts is not None:
            if isinstance(node.form, Seq):
                return self.match_parts(node, 0, _seq_factors(t), vec, Seq, True)
            return self.match_parts(node, 0, _par_factors(t), vec, Par, self.mode is ORDERED)
        if node.symbol is not None:
            return ((node.symbol, t),) if self.derives((node.symbol, t), vec) else None
        return () if vec == node.unit else None  # a terminal or eps: the one word with that vector

    def match_parts(self, node: _Node, j: int, factors, vec: int, kind, ordered: bool) -> tuple | None:
        """The goals under which parts j, j+1, ... of `node` derive `factors`,
        the factors of a `kind` (Seq or Par) term, whose Parikh vector is
        `vec`, or None; part j is not the last."""
        part = node.parts[j]
        low = len(factors) - part.rest_most  # every factor has an atom: the rest takes at most rest_most
        if low < 1:
            low = int(part.least > 0)  # a part that cannot derive eps takes a factor
        high = len(factors) - part.later_nonempty
        if high > part.most:  # and the share at most `most`
            high = part.most
        if part.one and high > 1:
            high = 1
        for share, rest, h, r in self.splits(factors, vec, low, high, ordered, part):
            first = self.match(part, _join(kind, share), h)
            if first is not None:
                if j + 2 < len(node.parts):
                    others = self.match_parts(node, j + 1, rest, r, kind, ordered)
                else:
                    others = self.match(node.parts[-1], _join(kind, rest), r)
                if others is not None:
                    return first + others
        return None

    def splits(self, factors, vec: int, low: int, high: int, ordered: bool, part: _Node):
        """The two-way splits of `factors` whose head share has low..high
        factors, a prefix when `ordered` and a sub-multiset otherwise, in the
        search's order, each with the Parikh vectors of its shares; those
        where a share cannot fit `part` or the parts after it are left out.
        The sub-multisets are those of `multiset_splits(factors, 2, (low,
        high))`, in its order, counted over the runs of equal factors."""
        vector, least, most, forbid = self.vector, part.least, part.most, part.forbid
        rest_least, rest_most, rest_forbid = part.rest_least, part.rest_most, part.rest_forbid
        if ordered:
            if 2 * low <= len(factors):
                h = sum(map(vector, factors[:low]))
            else:
                h = vec - sum(map(vector, factors[low:]))
            for i in range(low, high + 1):
                if i > low:
                    h += vector(factors[i - 1])
                r = vec - h
                if _fits(h, least, most, forbid) and _fits(r, rest_least, rest_most, rest_forbid):
                    yield factors[:i], factors[i:], h, r
            return
        runs = [(f, len(tuple(same)), vector(f)) for f, same in itertools.groupby(factors)]
        # (head counts, head size, head and rest vectors) of the run prefixes that can still fit;
        # the share's and the rest's atoms and fields only grow as runs are added, so a prefix past them is dropped
        prefixes = [((), 0, 0, 0)] if low - len(factors) <= 0 <= high else []
        later = len(factors)
        for _, n, v in runs:
            later -= n
            prefixes = [(counts + (c,), size + c, hc, rc)
                        for counts, size, h, r in prefixes
                        for c in range(max(0, low - later - size), min(n, high - size) + 1)
                        if _fits(hc := h + c * v, 0, most, forbid)
                        and _fits(rc := r + (n - c) * v, 0, rest_most, rest_forbid)]
        for counts, _, h, r in prefixes:
            if (h & _COUNT) >= least and (r & _COUNT) >= rest_least:
                share = rest = ()
                for (f, n, _), c in zip(runs, counts):
                    share += (f,) * c
                    rest += (f,) * (n - c)
                yield share, rest, h, r

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


def _join(kind, factors: tuple) -> SPTerm:
    """The term of some factors of a canonical `kind` (Seq or Par) term: a
    range of them, or in COMMUTATIVE mode a sorted sub-multiset, is already
    canonical, so it needs no flattening, sorting or check (see `_node`)."""
    if len(factors) > 1:
        return _node(kind, factors)
    return factors[0] if factors else EPS


# A Parikh vector packs a term's atom count and its count of each letter into
# one int, _WIDTH bits a field: the atoms in field 0, the grammar's terminals
# in sorted order from field 1, and every other letter (an uppercase leaf of a
# term built in code included) in the field after them, which no production
# fills. No term whose atoms can be counted has 2**64 of them, so no field
# overflows: the vector of a share of factors is the sum of theirs, and the
# vector of the rest is the whole's minus the share's.
_WIDTH = 64
_COUNT = (1 << _WIDTH) - 1  # the atom count's field


def _fits(vec: int, least: float, most: float, forbid: int) -> bool:
    """Whether a word with Parikh vector `vec` has least..most atoms and
    fills no field of `forbid`, as every word of the parts with those facts
    does."""
    return least <= (vec & _COUNT) <= most and not vec & forbid


class _Node:
    """A form of a production, or a part of one, planned once per grammar for
    `generate` and `_MemberSearch`: the fewest atoms of its words (`least`,
    inf when it has none), the most (`most`, inf when they are unbounded) and
    the Parikh vector fields they never fill (`forbid`); a nonterminal's
    `symbol`; the vector of the one word of a terminal or eps (`unit`); and a
    Seq or Par form's `parts`, in order, with the parts that pass their words
    of k atoms on unchanged as the form's words of k atoms (`passing`): every
    part when all of them derive eps, the one part that cannot when only one
    cannot, and none otherwise, as two parts that cannot derive eps share the
    atoms. `generate` reads `passing`, `least` and `most` at each level, and
    the grammar's schedule is planned from `passing`. A part that has later
    parts also
    holds what the search needs of them: how many cannot derive eps, each
    taking a factor (`later_nonempty`); their fewest and most atoms together
    (`rest_least`, `rest_most`) and the fields none of them fills
    (`rest_forbid`); and whether this part, a form of the other operator over
    two parts that cannot derive eps, takes at most one factor (`one`)."""

    __slots__ = ("form", "least", "most", "forbid", "symbol", "unit", "parts", "passing",
                 "later_nonempty", "one", "rest_least", "rest_most", "rest_forbid")


def _plan(form: SPTerm, least, most, allowed, fields, units) -> _Node:
    """The `_Node` of `form`, given each nonterminal's least and most atoms
    and allowed letter fields, and each terminal's field and unit vector. A
    Seq or Par form takes its facts from its parts': it has a word only from a
    word of each, so its fewest and most atoms are their sums, and it fills a
    field only when one of them does."""
    node = _Node()
    node.form = form
    node.symbol = node.unit = node.parts = node.passing = None
    if isinstance(form, Eps):
        node.least, node.most, node.forbid, node.unit = 0, 0, ~_COUNT, 0
    elif isinstance(form, Leaf):
        if form.symbol.isupper():
            node.least, node.most, node.symbol = least[form.symbol], most[form.symbol], form.symbol
            node.forbid = ~(_COUNT | allowed[form.symbol])
        else:
            node.least, node.most, node.unit = 1, 1, units[form.symbol]
            node.forbid = ~(_COUNT | fields[form.symbol])
    else:
        node.parts = parts = tuple(_plan(c, least, most, allowed, fields, units) for c in form.children)
        node.least = sum(p.least for p in parts)
        node.most = sum(p.most for p in parts)
        node.forbid = functools.reduce(operator.and_, (p.forbid for p in parts))
        solid = sum(p.least > 0 for p in parts)  # the parts that cannot derive eps
        node.passing = tuple(p for p in parts if p.least > 0 or not solid) if solid <= 1 else ()
        other = Par if isinstance(form, Seq) else Seq
        for j, part in enumerate(parts[:-1]):
            later = parts[j + 1 :]
            part.later_nonempty = sum(p.least > 0 for p in later)
            part.one = isinstance(part.form, other) and sum(p.least > 0 for p in part.parts) >= 2
            part.rest_least = sum(p.least for p in later)
            part.rest_most = sum(p.most for p in later)
            part.rest_forbid = functools.reduce(operator.and_, (p.forbid for p in later))
    return node


def _expand_leftmost(form: SPTerm, rhs: SPTerm) -> SPTerm | None:
    """`form` with its first nonterminal leaf replaced by `rhs`; None if it
    has none. The walk keeps its own stack, so a deep form needs no recursion."""
    stack = [(form, None)]  # (node, (the Seq or Par above it, its index there, that node's link) or None)
    while stack:
        node, up = stack.pop()
        if _is_nt_leaf(node):
            while up is not None:
                above, i, up = up
                build = seq if isinstance(above, Seq) else par
                rhs = build(*above.children[:i], rhs, *above.children[i + 1 :])
            return rhs
        if isinstance(node, (Seq, Par)):
            stack.extend((node.children[i], (node, i, up)) for i in reversed(range(len(node.children))))
    return None


# ---------------------------------------------------------------------------
# Seeded fixture grammars

def random_parallel_linear_grammar(seed: int, alphabet: tuple[str, ...] = ("a", "b")) -> Grammar:
    """A small random grammar in the parallel-linear class, deterministic in
    `seed`: one to three nonterminals, each with one to three productions.
    Used to fan out the grammar/automaton equivalence checks."""
    rng = random.Random(seed)
    names = ["S", "A", "B"][: rng.randint(1, 3)]
    productions: list[Production] = []
    for name in names:
        for _ in range(rng.randint(1, 3)):
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
