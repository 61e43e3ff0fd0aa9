"""Grammars whose right-hand sides are series-parallel forms over mixed symbols.

A sentential form reuses the term algebra with uppercase leaves standing for
nonterminals and lowercase leaves for terminals. Classification recognises the
linear production shapes (right-linear x.B, left-linear B.x, parallel-linear
x||B / B||x with x a parallel word of terminals, and terminal productions),
plus the grammar-wide families: no-Seq right-hand sides (context-free
parallel) and the fully linear classes.

Generation and membership are exact, with no derivation-step budget: the words
of a nonterminal are the least solution of "L(A) is the union of L(rhs) over
A's productions", L(rhs) joining its leaves' words (`terms._join`).
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

Membership is a goal-directed search over a plan made once per grammar, its
goals a nonterminal and a position of the query, as in CYK and Earley (CACM
13, 1970), so it builds no term. Each production's form is planned with the
split bounds of its parts and coarse Parikh facts (Parikh, JACM 13, 1966):
the fewest and most atoms and top-level factors of its words and the letters
they can have, from fixpoints of each nonterminal's. A split whose share has
fewer or more atoms or factors than the parts it must match, or a letter
they never derive, is skipped. This is sound: the facts hold for every
derivable word, so only splits that would fail are skipped.

Grammar file format: one ``A -> alt1 | alt2 | ...`` rule per line, ``#``
comments, nonterminals are uppercase letters, optionally indexed (``A_12``),
terminals are lowercase letters, ``eps`` allowed, start symbol is the first
rule's left-hand side. The right-hand side reads the operator levels of
``terms._LEVELS``, ``||`` binding looser than ``.``, with a level of ``|``
in front that separates alternatives, so ``|`` may not appear inside
parentheses.
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
    _COUNT,
    _LEVELS,
    _UNITS,
    _form,
    _join,
    _parikh,
    _runs,
    canonicalize,
    format_term,
    is_parallel_word,
    is_sequential_word,
    par,
    seq,
    symbols_of,
)
from .langs import FiniteLang, _lang


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
    __slots__ = _fields + ("_by_lhs", "_least", "_most", "_widths", "_allowed", "_plans", "_schedule", "_counted",
                           "_frames_per_goal")

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
        allowed = _solve(dict.fromkeys(self.nonterminals, 0), productive,
                         lambda rhs, m, allowed: m | _letter_fields(rhs, allowed, _FIELDS))
        most = _most(self.nonterminals, productive, least, allowed, _ATOMS)
        widths = {kind: _most(self.nonterminals, productive, least, allowed, kind) for kind in (Seq, Par)}
        facts = least, most, allowed, widths
        plans = {nt: tuple(_plan(rhs, facts) for rhs in alts) for nt, alts in by_lhs.items()}
        object.__setattr__(self, "_by_lhs", by_lhs)
        object.__setattr__(self, "_least", least)
        object.__setattr__(self, "_most", most)
        object.__setattr__(self, "_widths", widths)
        object.__setattr__(self, "_allowed", allowed)
        object.__setattr__(self, "_plans", plans)
        object.__setattr__(self, "_schedule", _schedule(plans))
        # the nonterminals `generate` counts against its cap: the others only copy words counted elsewhere
        counted = frozenset(nt for nt, alts in by_lhs.items()
                            if not all(isinstance(rhs, Eps) or _is_nt_leaf(rhs) for rhs in alts))
        object.__setattr__(self, "_counted", counted)
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


_ATOMS = (Seq, Par)  # the `kind` for which every node adds its children's factors: the atoms
_FIELDS = {c: _COUNT * (unit ^ 1) for c, unit in _UNITS.items()}  # a letter's field in a Parikh vector, filled


def _most(nonterminals, productive: tuple[dict, list], least, allowed, kind) -> dict:
    """The most top-level `kind` factors (see `_width`) of a word of each
    nonterminal over the productive productions (see `_heads`), 0 when it
    has none, given each nonterminal's fewest atoms and letter fields: inf
    exactly when it reaches a cycle of "A's words can have B's factors"
    (`_takes`) through a production where a part beside B can add one;
    otherwise a fixpoint gives the most. For the atoms that graph is the
    productive one, whose strongly connected components are already found."""
    by_lhs, order = productive
    takes = {nt: [t for rhs in alts for t in _takes(rhs, kind, least, allowed)] for nt, alts in by_lhs.items()}
    if kind is not _ATOMS:
        order = _components({nt: [s for s, _ in t] for nt, t in takes.items()})
    pumps = dict.fromkeys(nonterminals, False)
    for _, group in order:  # each after every component it takes from, whose members all reach each other
        members = set(group)
        pumped = any(beside if s in members else pumps[s] for nt in group for s, beside in takes[nt])
        pumps.update(dict.fromkeys(group, pumped))
    return _solve({nt: math.inf if pumps[nt] else 0 for nt in nonterminals}, productive,
                  lambda rhs, m, most: max(m, _width(rhs, kind, most, least)))


def _width(form: SPTerm, kind, widths, least) -> float:
    """The most top-level `kind` (Seq or Par) factors of a word of `form`,
    given each nonterminal's (`widths`) and fewest atoms: a `kind` node adds
    its children's, and a node of the other operator is one factor or has
    those of a child it passes on (see `_through`)."""
    if isinstance(form, Eps):
        return 0
    if isinstance(form, Leaf):
        return widths[form.symbol] if form.symbol.isupper() else 1
    if isinstance(form, kind):
        return sum(_width(c, kind, widths, least) for c in form.children)
    children = _through(form.children, [_least(c, least) for c in form.children])
    return max((_width(c, kind, widths, least) for c in children), default=1)


def _through(children: tuple, leasts) -> tuple:
    """The `children` of a Seq or Par form, whose fewest atoms are `leasts`,
    that can take all of a word's atoms, passing their words on: the one
    that cannot derive eps, or all when all can; none when two cannot."""
    solid = tuple(c for c, n in zip(children, leasts) if n > 0)
    return () if len(solid) > 1 else solid or children


def _takes(form: SPTerm, kind, least, allowed, beside: bool = False):
    """The nonterminal leaves whose top-level `kind` factors the words of
    `form` can have, each with whether a part beside it can add to them."""
    if isinstance(form, Leaf):
        if form.symbol.isupper():
            yield form.symbol, beside
    elif isinstance(form, kind):
        grows = [any(s.islower() or allowed[s] for s in symbols_of(c)) for c in form.children]
        for i, c in enumerate(form.children):
            yield from _takes(c, kind, least, allowed, beside or any(grows[:i] + grows[i + 1 :]))
    elif not isinstance(form, Eps):
        for c in _through(form.children, [_least(c, least) for c in form.children]):
            yield from _takes(c, kind, least, allowed, beside)


def _letter_fields(form: SPTerm, allowed, fields) -> int:
    """The letter fields a word of `form` may fill, given each nonterminal's:
    the OR over the leaves, as Seq and Par both keep their parts' letters."""
    return functools.reduce(operator.or_, ((allowed if s.isupper() else fields)[s] for s in symbols_of(form)), 0)


def parse_grammar(text: str) -> Grammar:
    """Parse the grammar file format. The first rule's head is the start."""
    productions: list[Production] = []

    def rule(line: str) -> None:
        head, arrow, _ = line.partition("->")
        if not arrow:
            raise TermSyntaxError("expected 'A -> ...'")
        # read from just after the arrow, so an error's offset counts from the start of the line
        alternatives = TokenStream(line, len(head) + len(arrow)).whole(_RULE_LEVELS, _form)
        productions.extend(Production(head.strip(), rhs) for rhs in alternatives)

    read_lines(text, rule)
    if not productions:
        raise TermSyntaxError("grammar file has no productions")
    try:
        return Grammar.of(productions)
    except ValueError as exc:
        raise TermSyntaxError(str(exc)) from exc


# a rule's right-hand side: its alternatives, each a sentential form
_RULE_LEVELS = (("|", lambda *alternatives: alternatives),) + _LEVELS


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
    word) pairs held, checked as each form's words are added, not counting
    the nonterminals whose productions are all eps or a single nonterminal:
    they only copy words counted elsewhere. `max_steps` is ignored; it stays
    the third positional parameter for existing callers."""
    if max_atoms < 0:
        raise ValueError("max_atoms must be >= 0")
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
                            before = len(got)
                            got.update(levels.sized(node, level))
                            if nt in g._counted:
                                count += len(got) - before
                                if count > cap:
                                    raise EnumerationCapError(f"grammar words exceed the cardinality cap ({cap})")
                    grown |= cyclic and len(got) > size
    # canonical words, so no per-word work; a set, which the language's
    # frozenset copies without hashing the words again
    return _lang(mode, set().union(*words[g.start]))


class _Levels:
    """The words one `generate` call has found, canonical for `mode`: a Seq
    or Par form's word is the `_join` of a word of one part with a word of
    the parts after it, both canonical for `mode`. Its helpers are
    methods of this object, not closures that name each other, so nothing it
    holds is on a reference cycle and all of it is freed when the call
    returns."""

    __slots__ = ("words", "inner", "mode")

    def __init__(self, g: Grammar, mode: SemanticsMode):
        self.words = {nt: [] for nt in g.nonterminals}  # nonterminal -> its words by atom count
        self.inner = {}  # (a Seq or Par form, atoms) -> its words where no part takes all the atoms
        self.mode = mode  # the mode the words are canonical for, which `_join` keeps

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
        rest_least, rest_most, _, _, _ = node.rests[i]
        low = max(part.least, k - rest_most)  # inf when a part has no word
        high = min(top, k - rest_least, part.most)
        if low <= high:
            kind, mode = node.form.__class__, self.mode
            words = None if part.symbol is None else self.words[part.symbol]
            for j in range(low, high + 1):
                xs = self.sized(part, j) if words is None else words[j]
                if xs:
                    out.update({_join(kind, x, y, mode) for y in self.combined(node, k - j, top, i + 1) for x in xs})
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
    """The answer of `is_member` in semantics `mode`. A True answer keeps
    the proof the search found (`proof`; None for a False answer): its
    derivation tree in pre-order, each node a (nonterminal, right-hand side)
    pair followed by the subtrees of the right-hand side's nonterminal
    leaves in leaf order. Pre-order is the order a leftmost derivation
    applies the productions, so `trace` replays it into sentential forms,
    and only when it is read; the tuple is flat, so comparing, hashing or
    pickling the proof of a deep derivation needs no recursion."""

    __slots__ = _fields = ("member", "proof", "mode")

    def __bool__(self) -> bool:
        return self.member

    @property
    def trace(self) -> tuple[SPTerm, ...] | None:
        """The canonical forms of the leftmost derivation `proof` gives (in
        COMMUTATIVE mode, leftmost as the productions write their
        nonterminals), the start symbol first, or None for a False answer.
        Built afresh on each read."""
        if self.proof is None:
            return None
        form: SPTerm = Leaf(self.proof[0][0])
        chain = [form]
        for _, rhs in self.proof:
            form = _expand_leftmost(form, rhs)
            chain.append(canonicalize(form, self.mode))
        return tuple(chain)


def is_member(g: Grammar, t: SPTerm, mode: SemanticsMode = ORDERED) -> MembershipResult:
    """Exact membership of `t`, canonicalized for `mode`, in L(g). A True
    answer keeps the tree of the first proof found, so not necessarily of
    the shortest derivation, read out of the search's proofs without
    building a sentential form; `trace` reads the forms of its leftmost
    derivation from that tree on demand. `DEFAULT_CAP` bounds the
    (nonterminal, position of `t`) goals one search pass examines."""
    search = _MemberSearch(g, mode)
    if not search.proves(canonicalize(t, mode)):
        return MembershipResult(False, None, mode)
    return MembershipResult(True, search.proof(), mode)


class _MemberSearch:
    """Goal-directed, memoized search: does nonterminal A derive the word at
    a position (a key) of the query? A key is a sub-term, a range `(node, i,
    j)` of the factors of a Seq node (or ORDERED Par node), or a sub-multiset
    `(node, counts)` of a COMMUTATIVE Par node's runs of equal children; one
    factor is the factor itself, none eps and all the node. Keys are values
    built from the query's terms, so proofs hold for any later query. A
    production proves (A, key) when its parts, matched one by one over
    two-way splits, derive ranges of the key's factors of its operator, or
    sub-multisets of its Par factors in COMMUTATIVE mode; a leaf, or a key
    of the other operator, is one factor. A goal met again while being
    tried lies on a unit or eps cycle and counts as False for now; the
    search reruns, keeping what it proved, while a cycle was cut and new
    facts appear. A proved goal keeps its production's form and its
    subgoals, the back-pointers from which `proof` reads the derivation tree
    of a query on demand; the search itself builds no sentential form.

    Each part of a form is planned (`_Node`) with its fewest and most atoms
    and factors and its letters, and those of the parts after it. A split is
    skipped when a share has more factors than its part can take, fewer or
    more atoms, or a letter it never derives; the others are tried in the
    form's order, but a COMMUTATIVE Par form's parts fewest factors first,
    so that an unbounded part takes what is left. Subgoals are kept in leaf
    order. Shares are measured by Parikh vectors, from the facts each query
    node keeps for its life (`terms._parikh`): by prefix sums for a range,
    run by run (`terms._runs`) for a sub-multiset, whose split prefix is
    dropped with all that extend it once its share or rest has too many
    atoms or a letter it may not have. A share of exactly one factor, the
    most common, is picked in one pass over the runs instead
    (`_one_factor_splits`). `DEFAULT_CAP`, read when the search is built,
    bounds the goals one pass tries."""

    def __init__(self, g: Grammar, mode: SemanticsMode):
        self.g, self.mode, self.cap = g, mode, DEFAULT_CAP
        self.proofs: dict = {}  # goal -> (rhs, goals of its nonterminal leaves, left to right)
        self.tried: dict = {}  # goal -> [still being tried], in this pass

    def proves(self, t: SPTerm, start: str | None = None) -> bool:
        """Whether `start` (by default the grammar's) derives `t`, a term
        canonical for the mode."""
        self.goal = goal = (start or self.g.start, t)
        if goal in self.proofs:  # proved for an earlier query
            return True
        vec = _parikh(t)
        # A call path holds at most one goal per (nonterminal, atom count), and one pass at most cap + 1 goals.
        per_path = self.g._frames_per_goal * min(len(self.g.nonterminals) * ((vec & _COUNT) + 1), self.cap + 1)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(limit + per_path)
        try:
            while True:
                known, self.cut, self.tried = len(self.proofs), False, {}
                if self.derives(goal, vec) or not self.cut or len(self.proofs) == known:
                    return goal in self.proofs
        finally:
            sys.setrecursionlimit(limit)

    def derives(self, goal, vec: int) -> bool:
        """Whether goal (A, key) holds, `vec` being the Parikh vector of the key's word."""
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

    def match(self, node: _Node, key, vec: int) -> tuple | None:
        """The goals under which the form of `node` derives the word of `key`,
        whose Parikh vector is `vec`, or None."""
        if node.parts is None:
            if node.symbol is not None:
                goal = (node.symbol, key)
                return (goal,) if self.derives(goal, vec) else None
            return () if vec == node.unit else None  # a terminal or eps: the one word with that vector
        kind = type(node.form)
        ordered = kind is Seq or self.mode is ORDERED
        owner, at = (key[0], key[1:]) if type(key) is tuple else (key, ())
        if type(owner) is kind:  # the node's kept facts: its factors and their prefix sums, or its runs
            entry = (owner.children, owner._sums) if ordered else _runs(owner)
        elif ordered:  # one factor, or none
            owner, at, entry = None, (), ((key,), (0, vec)) if vec else ((), (0,))
        else:
            owner, at, entry = None, (), ((key,), (1,), (vec,)) if vec else ((), (), ())
        if ordered:
            return self.match_range(node.parts, node.rests, 0, entry, owner, *(at or (0, len(entry[0]))))
        parts, rests = node.commuted
        found = self.match_counts(parts, rests, 0, entry, owner, at[0] if at else entry[1], vec)
        if found is None:
            return None
        if parts is not node.parts:
            found = sorted(found)  # back in the form's leaf order
        return tuple(goal for _, goals in found for goal in goals)

    def match_range(self, parts, rests, k: int, entry, owner, i: int, j: int) -> tuple | None:
        """The goals under which parts k, k+1, ... of a form (see `_rests`)
        derive the factors i..j-1 of `owner`, whose ordered `entry` they
        are, or None; part k is not the last."""
        part, rest, (children, pre) = parts[k], rests[k], entry
        rest_least, rest_most, rest_forbid, _, _ = rest
        low, high = _share_sizes(part, rest, j - i)
        for m in range(i + low, i + high + 1):
            h, r = pre[m] - pre[i], pre[j] - pre[m]
            if _fits(h, part.least, part.most, part.forbid) and _fits(r, rest_least, rest_most, rest_forbid):
                first = self.match(part, _range(children, owner, i, m), h)
                if first is not None:
                    if k + 2 < len(parts):
                        others = self.match_range(parts, rests, k + 1, entry, owner, m, j)
                    else:
                        others = self.match(parts[-1], _range(children, owner, m, j), r)
                    if others is not None:
                        return first + others
        return None

    def match_counts(self, parts, rests, k: int, entry, owner, counts: tuple, vec: int) -> tuple | None:
        """The (part index, goals) pairs under which parts k, k+1, ... of a
        COMMUTATIVE Par form (see `_rests`) derive the sub-multiset `counts`
        of `owner`, whose `entry` they are and whose Parikh vector is `vec`,
        or None; part k is not the last."""
        part, rest, (firsts, full, vecs) = parts[k], rests[k], entry
        low, high = _share_sizes(part, rest, sum(counts))
        if low == high == 1:
            splits = _one_factor_splits(counts, vecs, vec, part, rest)
        else:
            splits = _count_splits(counts, vecs, low, high, part, rest)
        for share, h, r in splits:
            first = self.match(part, _sub_multiset(firsts, full, owner, share), h)
            if first is not None:
                left = tuple(map(operator.sub, counts, share))
                if k + 2 < len(parts):
                    others = self.match_counts(parts, rests, k + 1, entry, owner, left, r)
                else:
                    last = self.match(parts[-1], _sub_multiset(firsts, full, owner, left), r)
                    others = None if last is None else ((parts[-1].index, last),)
                if others is not None:
                    return ((part.index, first),) + others
        return None

    def proof(self) -> tuple:
        """The proof tree of the goal `proves` last proved, in pre-order (see
        `MembershipResult`), read out of `proofs` with a stack."""
        tree, pending = [], [self.goal]  # pending: the goals still to visit, the next one last
        while pending:
            goal = pending.pop()
            rhs, subgoals = self.proofs[goal]
            tree.append((goal[0], rhs))
            pending += reversed(subgoals)
        return tuple(tree)


def _share_sizes(part: _Node, rest: tuple, size: int) -> tuple[int, int]:
    """The fewest and most of `size` factors `part` can take, the parts after
    it (`rest`, see `_rests`) taking at most their most factors and at least
    one for each that cannot derive eps."""
    return max(size - rest[3], int(part.least > 0)), min(size - rest[4], part.width)


def _range(children: tuple, owner, i: int, j: int):
    """The key of the factors i..j-1 of `owner`, whose factors are `children`."""
    if j - i > 1:
        return owner if j - i == len(children) else (owner, i, j)
    return children[i] if j > i else EPS


def _sub_multiset(firsts: tuple, full: tuple, owner, counts: tuple):
    """The key of the sub-multiset `counts` of `owner`'s runs (see `terms._runs`)."""
    size = sum(counts)
    if size > 1:
        return owner if counts == full else (owner, counts)
    return firsts[counts.index(1)] if size else EPS


def _count_splits(counts: tuple, vecs: tuple, low: int, high: int, part: _Node, rest: tuple):
    """The two-way splits of the sub-multiset `counts` (per run of equal
    children of Parikh vector `vecs`) whose share has low..high children, as
    (share counts, share vector, rest vector), in the order of
    `multiset_splits(children, 2, (low, high))`, but those whose share or
    rest cannot fit `part` or the parts after it (`rest`, see `_rests`): a
    run prefix is dropped once either has too many atoms or a letter it may
    not have."""
    most, forbid, (rest_least, rest_most, rest_forbid, _, _) = part.most, part.forbid, rest
    later = tuple(itertools.accumulate(reversed(counts), initial=0))[::-1]  # later[i]: children from run i on
    stack = [((), 0, 0, 0)] if low <= later[0] and high >= 0 else []  # (share counts, size, share, rest vectors)
    while stack:
        share, size, h, r = stack.pop()
        while len(share) < len(counts) and not counts[len(share)]:
            share += (0,)  # an empty run takes no choice
        i = len(share)
        if i == len(counts):
            if (h & _COUNT) >= part.least and (r & _COUNT) >= rest_least:
                yield share, h, r
            continue
        n, v = counts[i], vecs[i]
        for c in range(min(n, high - size), max(0, low - later[i + 1] - size) - 1, -1):  # pushed last-first
            if _fits(hc := h + c * v, 0, most, forbid) and _fits(rc := r + (n - c) * v, 0, rest_most, rest_forbid):
                stack.append((share + (c,), size + c, hc, rc))


def _one_factor_splits(counts: tuple, vecs: tuple, vec: int, part: _Node, rest: tuple):
    """The splits `_count_splits` yields for a share of exactly one child
    (low == high == 1), in its order, from one pass over the runs, the last
    run first; `vec` is the Parikh vector of the whole sub-multiset `counts`.
    Along a run prefix the share's and the rest's vectors only grow, so
    checking each whole split drops exactly the splits the prefix loop
    drops."""
    least, most, forbid, (rest_least, rest_most, rest_forbid, _, _) = part.least, part.most, part.forbid, rest
    for i in range(len(counts) - 1, -1, -1):
        h = vecs[i]
        if counts[i] and _fits(h, least, most, forbid) and _fits(vec - h, rest_least, rest_most, rest_forbid):
            yield (0,) * i + (1,) + (0,) * (len(counts) - i - 1), h, vec - h


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
    of k atoms on unchanged as the form's words of k atoms (`passing`, see
    `_through`). `generate` reads `passing`, `least` and `most` at each
    level, and the grammar's schedule is planned from `passing`. A part also
    holds its `index` and its most factors of its form's operator (`width`).
    The facts of the parts after each part (`rests`, see `_rests`) bound its
    share of a split; `commuted` holds the same parts fewest factors first,
    with their `rests` in that order, for a COMMUTATIVE search."""

    __slots__ = ("form", "least", "most", "forbid", "symbol", "unit", "parts", "passing", "index", "width", "rests",
                 "commuted")


def _plan(form: SPTerm, facts: tuple) -> _Node:
    """The `_Node` of `form`, given the `facts` each nonterminal's least and
    most atoms, allowed letter fields and most factors of each operator (a
    terminal's are fixed). A Seq or Par form takes its facts from its parts':
    it has a word only from a word of each, so its fewest and most atoms are
    their sums, and it fills a field only when one of them does. Each part
    is planned once, for both of its form's orders."""
    least, most, allowed, widths = facts
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
            node.least, node.most, node.unit = 1, 1, _UNITS[form.symbol]
            node.forbid = ~(_COUNT | _FIELDS[form.symbol])
    else:
        node.parts = parts = tuple(_plan(c, facts) for c in form.children)
        for i, part in enumerate(parts):
            part.index, part.width = i, _width(part.form, type(form), widths[type(form)], least)
        node.least = sum(p.least for p in parts)
        node.most = sum(p.most for p in parts)
        node.forbid = functools.reduce(operator.and_, (p.forbid for p in parts))
        node.passing = _through(parts, [p.least for p in parts])
        node.rests = _rests(parts)
        order = tuple(sorted(parts, key=operator.attrgetter("width")))  # stable: equal widths keep their order
        node.commuted = (parts, node.rests) if order == parts else (order, _rests(order))
    return node


def _rests(parts: tuple) -> tuple:
    """For each of `parts`, the facts of the parts after it together: their
    fewest and most atoms, the fields none fills, their most factors and how
    many cannot derive eps (none after the last)."""
    rest, rests = (0, 0, ~_COUNT, 0, 0), []
    for p in reversed(parts):
        rests.append(rest)
        rest = (rest[0] + p.least, rest[1] + p.most, rest[2] & p.forbid, rest[3] + p.width, rest[4] + (p.least > 0))
    return tuple(reversed(rests))


def _expand_leftmost(form: SPTerm, rhs: SPTerm) -> SPTerm:
    """`form`, which has a nonterminal leaf, with its first one replaced by
    `rhs`. The walk keeps its own stack, so a deep form needs no recursion."""
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
