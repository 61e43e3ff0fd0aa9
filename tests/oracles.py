"""Independent reference implementations used as test oracles.

These deliberately avoid the library's search strategies: the universe is
rebuilt from binary combinations instead of generating a grammar of
canonical terms level by level, the regex reference matcher is plain
exponential recursion over index assignments with no memoization (the
library compiles regexes to grammars instead), bounded regex languages
filter the term universe through it, grammar words come from a
breadth-first search over leftmost derivations, or from a fixpoint over whole
languages where that search cannot finish, instead of a level-by-level
fixpoint over nonterminals, and automaton runs follow the transitions
directly (the library compiles automata to grammars instead), trying every
assignment of a Par's children to fork targets. Powers and closures of finite
languages are folds of pairwise products over plain sets, canonicalized
afterwards, with no cap and no early stop. A membership trace is replayed
goal by goal from the search's proof table, each form rebuilt along the path
to its leftmost nonterminal, instead of read from a proof tree.
"""

from __future__ import annotations

import functools
import itertools
import random

from splang.regexes import (
    Alt,
    AtomLit,
    Cat,
    ClosePar,
    CloseSeq,
    CloseSP,
    EMPTY,
    EPS_LIT,
    EmptySet,
    EpsLit,
    ParProd,
    Regex,
)
from splang.automata import BranchingAutomaton, ParTransition
from splang.grammars import Grammar, Production, _MemberSearch
from splang.terms import (
    COMMUTATIVE,
    EPS,
    ORDERED,
    Eps,
    Leaf,
    Par,
    SemanticsMode,
    Seq,
    SPTerm,
    canonicalize,
    enumerate_terms,
    format_term,
    par,
    seq,
)


def binary_universe(alphabet, max_atoms: int, mode: SemanticsMode = ORDERED) -> tuple[SPTerm, ...]:
    """All canonical terms with <= max_atoms atoms, built by combining pairs
    of smaller terms with both operators and canonicalizing."""
    exact: dict[int, set[SPTerm]] = {0: {EPS}, 1: {Leaf(c) for c in sorted(alphabet)}}
    for n in range(2, max_atoms + 1):
        level: set[SPTerm] = set()
        for i in range(1, n):
            for x in exact[i]:
                for y in exact[n - i]:
                    level.add(canonicalize(seq(x, y), mode))
                    level.add(canonicalize(par(x, y), mode))
        exact[n] = level
    out: set[SPTerm] = set()
    for n in range(0, max_atoms + 1):
        out |= exact[n]
    return tuple(sorted(out, key=format_term))


@functools.lru_cache(maxsize=16)
def _commutative_universe(letters: str, max_atoms: int) -> tuple[SPTerm, ...]:
    return binary_universe(letters, max_atoms, COMMUTATIVE)


def oracle_accepted(aut: BranchingAutomaton, alphabet, max_atoms: int) -> tuple:
    """The words of `aut` with at most max_atoms atoms over `alphabet`: every
    commutative `binary_universe` term that `oracle_accepts` accepts, in the
    universe's order."""
    letters = "".join(sorted(set(alphabet)))
    accepts = oracle_acceptor(aut)
    return tuple(t for t in _commutative_universe(letters, max_atoms) if accepts(t))


# ---------------------------------------------------------------------------
# Reference automaton runs: the run semantics read directly off the
# transitions, every assignment of a Par's children to fork targets tried.

def oracle_runner(aut: BranchingAutomaton, observer=None):
    """A function (start, t) -> the states reachable from `start` by a run on
    the commutative form of `t`, memoized across calls. eps stays put; an atom
    follows a seq transition; a Seq composes runs over its factors; a Par
    fires a parallel transition when its children split into one nonempty
    block per fork target, each block running from its target to an end
    state, and the end states are the join's sources as a multiset.
    `observer`, when given, is called with (par index, subterm) for every
    parallel transition that fires."""
    forks = {f.fid: f for f in aut.forks}
    joins = {j.jid: j for j in aut.joins}

    @functools.lru_cache(maxsize=None)
    def go(state: str, sub: SPTerm) -> frozenset:
        if isinstance(sub, Eps):
            return frozenset((state,))
        if isinstance(sub, Leaf):
            return frozenset(tr.dst for tr in aut.seqs if (tr.src, tr.label) == (state, sub.symbol))
        if isinstance(sub, Seq):
            reached = {state}
            for factor in sub.children:
                reached = {q for r in reached for q in go(r, factor)}
            return frozenset(reached)
        hits = set()
        for idx, p in enumerate(aut.pars):
            fork, join = forks[p.fork_id], joins[p.join_id]
            if fork.src == state and _guard_allows(p.guard, sub) and _par_fires(fork, join, sub, go):
                hits.add(join.dst)
                if observer is not None:
                    observer(idx, sub)
        return frozenset(hits)

    canon = functools.lru_cache(maxsize=None)(lambda t: canonicalize(t, COMMUTATIVE))
    return lambda start, t: go(start, canon(t))


def _guard_allows(guard, sub: Par) -> bool:
    if guard is None:
        return True
    if not all(isinstance(c, Leaf) for c in sub.children):
        return False  # only ANY admits non-flat parallel subterms
    return tuple(sorted(c.symbol for c in sub.children)) in guard


def _par_fires(fork, join, sub: Par, go) -> bool:
    m = len(fork.targets)
    for owner in itertools.product(range(m), repeat=len(sub.children)):
        blocks = [[c for c, o in zip(sub.children, owner) if o == i] for i in range(m)]
        if not all(blocks):
            continue
        ends = [go(target, par(*block, mode=COMMUTATIVE)) for target, block in zip(fork.targets, blocks)]
        if any(sorted(pick) == sorted(join.sources) for pick in itertools.product(*ends)):
            return True
    return False


def oracle_acceptor(aut: BranchingAutomaton, observer=None):
    """A function t -> whether some run on `t` leads from an initial to a
    final state, memoized across calls (see `oracle_runner`)."""
    runs = oracle_runner(aut, observer)
    return lambda t: any(runs(s, t) & aut.final for s in sorted(aut.initial))


def observe_par_guards(aut: BranchingAutomaton, terms) -> tuple[dict, set]:
    """Run acceptance over `terms`, recording which parallel transitions fire.

    Returns (flat, nonflat): flat maps par index -> set of atom multisets of
    the flat parallel words it fired on; nonflat is the set of par indexes
    that fired on some non-flat parallel subterm.
    """
    flat: dict[int, set] = {}
    nonflat: set[int] = set()

    def obs(par_idx: int, sub: Par):
        if all(isinstance(c, Leaf) for c in sub.children):
            flat.setdefault(par_idx, set()).add(tuple(sorted(c.symbol for c in sub.children)))
        else:
            nonflat.add(par_idx)

    accepts = oracle_acceptor(aut, obs)
    for t in terms:
        accepts(t)
    return flat, nonflat


def with_observed_guards(aut: BranchingAutomaton, flat: dict, nonflat: set) -> BranchingAutomaton:
    """Pin every ANY guard to its observed flat multisets. Guards that fired
    on non-flat subterms (or never fired) stay ANY, since a non-ANY guard
    would reject those runs."""
    new_pars = []
    for idx, p in enumerate(aut.pars):
        if p.guard is None and idx in flat and idx not in nonflat:
            new_pars.append(ParTransition(p.fork_id, frozenset(flat[idx]), p.join_id))
        else:
            new_pars.append(p)
    return BranchingAutomaton(aut.states, aut.seqs, aut.forks, aut.joins, tuple(new_pars), aut.initial, aut.final)


# ---------------------------------------------------------------------------
# Reference regex matcher: direct definition, no memo, index-set splits.

def _seq_factors(t: SPTerm) -> tuple[SPTerm, ...]:
    if isinstance(t, Eps):
        return ()
    if isinstance(t, Seq):
        return t.children
    return (t,)


def _par_factors(t: SPTerm) -> tuple[SPTerm, ...]:
    if isinstance(t, Eps):
        return ()
    if isinstance(t, Par):
        return t.children
    return (t,)


def _cuts(n: int, k: int):
    """Index boundaries splitting range(n) into k contiguous segments."""
    for inner in itertools.combinations_with_replacement(range(n + 1), k - 1):
        yield (0,) + inner + (n,)


def naive_matches(r: Regex, t: SPTerm, mode: SemanticsMode = ORDERED) -> bool:
    t = canonicalize(t, mode)
    if isinstance(r, EmptySet):
        return False
    if isinstance(r, EpsLit):
        return isinstance(t, Eps)
    if isinstance(r, AtomLit):
        return isinstance(t, Leaf) and t.symbol == r.symbol
    if isinstance(r, Alt):
        return any(naive_matches(p, t, mode) for p in r.parts)
    if isinstance(r, Cat):
        factors = _seq_factors(t)
        k = len(r.parts)
        return any(
            all(
                naive_matches(p, seq(*factors[bounds[i] : bounds[i + 1]]), mode)
                for i, p in enumerate(r.parts)
            )
            for bounds in _cuts(len(factors), k)
        )
    if isinstance(r, ParProd):
        factors = _par_factors(t)
        k = len(r.parts)
        if mode is ORDERED:
            return any(
                all(
                    naive_matches(p, par(*factors[bounds[i] : bounds[i + 1]]), mode)
                    for i, p in enumerate(r.parts)
                )
                for bounds in _cuts(len(factors), k)
            )
        # assign every factor index to one of the k parts
        for assignment in itertools.product(range(k), repeat=len(factors)):
            groups = [[f for f, part in zip(factors, assignment) if part == i] for i in range(k)]
            if all(
                naive_matches(p, canonicalize(par(*group), mode), mode)
                for p, group in zip(r.parts, groups)
            ):
                return True
        return False
    if isinstance(r, CloseSeq):
        factors = _seq_factors(t)
        if not factors:
            return True
        for k in range(1, len(factors) + 1):
            for bounds in _cuts(len(factors), k):
                if any(bounds[i] == bounds[i + 1] for i in range(k)):
                    continue  # blocks are nonempty
                if all(
                    naive_matches(r.inner, seq(*factors[bounds[i] : bounds[i + 1]]), mode)
                    for i in range(k)
                ):
                    return True
        return False
    if isinstance(r, ClosePar):
        factors = _par_factors(t)
        if not factors:
            return True
        n = len(factors)
        if mode is ORDERED:
            for k in range(1, n + 1):
                for bounds in _cuts(n, k):
                    if any(bounds[i] == bounds[i + 1] for i in range(k)):
                        continue
                    if all(
                        naive_matches(r.inner, par(*factors[bounds[i] : bounds[i + 1]]), mode)
                        for i in range(k)
                    ):
                        return True
            return False
        for k in range(1, n + 1):
            for assignment in itertools.product(range(k), repeat=n):
                if set(assignment) != set(range(k)):
                    continue  # blocks are nonempty
                groups = [[f for f, part in zip(factors, assignment) if part == i] for i in range(k)]
                if all(
                    naive_matches(r.inner, canonicalize(par(*group), mode), mode)
                    for group in groups
                ):
                    return True
        return False
    if isinstance(r, CloseSP):
        return naive_matches(CloseSeq(r.inner), t, mode) or naive_matches(
            ClosePar(r.inner), t, mode
        )
    raise TypeError(f"not a regex: {r!r}")


def oracle_regex_words(r: Regex, alphabet, max_atoms: int, mode: SemanticsMode = ORDERED) -> tuple:
    """The words of `r` with at most max_atoms atoms over `alphabet`: every
    universe term that `naive_matches` accepts, in the universe's order."""
    return tuple(t for t in enumerate_terms(alphabet, max_atoms, mode) if naive_matches(r, t, mode))


# ---------------------------------------------------------------------------
# Powers and closures of finite languages.

def oracle_power(terms, n: int, kind: str, mode: SemanticsMode = ORDERED) -> set[SPTerm]:
    """The n-th power of the words `terms` under "seq" or "par": n folds of
    the pairwise products, starting from {eps}."""
    compose = seq if kind == "seq" else par
    products = lambda level, _: {canonicalize(compose(x, y), mode) for x in level for y in terms}
    return functools.reduce(products, range(n), {EPS})


def oracle_closure(terms, kind: str, n_max: int, mode: SemanticsMode = ORDERED) -> set[SPTerm]:
    """The union of the 0..n_max powers of `terms`: sequential for "star",
    parallel for "par", and both closures together for "sp"."""
    if kind == "sp":
        return oracle_closure(terms, "star", n_max, mode) | oracle_closure(terms, "par", n_max, mode)
    power_kind = "seq" if kind == "star" else "par"
    return set().union(*(oracle_power(terms, k, power_kind, mode) for k in range(n_max + 1)))


# ---------------------------------------------------------------------------
# Exhaustive regex AST enumeration (canonical shapes only).

def all_regexes(alphabet=("a", "b"), max_nodes: int = 4) -> list[Regex]:
    by_size: dict[int, list[Regex]] = {
        1: [EMPTY, EPS_LIT] + [AtomLit(c) for c in sorted(alphabet)]
    }
    for size in range(2, max_nodes + 1):
        level: list[Regex] = []
        for inner in by_size[size - 1]:
            level.extend((CloseSeq(inner), ClosePar(inner), CloseSP(inner)))
        for k in range(2, size):
            for comp in _positive_compositions(size - 1, k):
                for combo in itertools.product(*(by_size[c] for c in comp)):
                    for cls in (Cat, Alt, ParProd):
                        if any(isinstance(child, cls) for child in combo):
                            continue  # flattened-associativity invariant
                        level.append(cls(tuple(combo)))
        by_size[size] = level
    return [r for size in range(1, max_nodes + 1) for r in by_size[size]]


def _positive_compositions(total: int, k: int):
    if k == 1:
        yield (total,)
        return
    for head in range(1, total - k + 2):
        for rest in _positive_compositions(total - head, k - 1):
            yield (head,) + rest


# ---------------------------------------------------------------------------
# Reference grammar semantics: breadth-first leftmost derivation.

class OracleCapError(Exception):
    """The derivation search met its own form cap or step budget before it
    had expanded every sentential form: its answer would be incomplete."""


def _nonterminal_paths(form: SPTerm, path=()):
    """Paths to every nonterminal leaf, left to right."""
    if isinstance(form, Leaf):
        if form.symbol.isupper():
            yield path
    elif isinstance(form, (Seq, Par)):
        for i, child in enumerate(form.children):
            yield from _nonterminal_paths(child, path + (i,))


def _leftmost_nonterminal(form: SPTerm):
    return next(_nonterminal_paths(form), None)


def _replace_at(form: SPTerm, path, replacement: SPTerm) -> SPTerm:
    if not path:
        return replacement
    children = list(form.children)
    children[path[0]] = _replace_at(children[path[0]], path[1:], replacement)
    rebuild = seq if isinstance(form, Seq) else par
    return rebuild(*children)


def _terminal_atoms(form: SPTerm) -> int:
    if isinstance(form, Eps):
        return 0
    if isinstance(form, Leaf):
        return int(form.symbol.islower())
    return sum(_terminal_atoms(c) for c in form.children)


def bfs_derive(g: Grammar, max_atoms: int, max_steps: int, mode: SemanticsMode = ORDERED,
               cap: int = 20_000):
    """Breadth-first leftmost derivation. Returns (words, complete).

    Sentential forms are canonical for `mode`; forms with more than
    max_atoms terminal atoms are pruned (that count never decreases). The
    search stops after max_steps rewriting rounds; `complete` says that no
    form was left unexpanded. More than `cap` forms raise OracleCapError.
    """
    start = canonicalize(Leaf(g.start), mode)
    seen = {start}
    words: set[SPTerm] = set()
    frontier = [start]
    for _ in range(max_steps):
        next_frontier: list[SPTerm] = []
        for form in frontier:
            path = _leftmost_nonterminal(form)
            for rhs in g.alternatives(_symbol_at(form, path)):
                new = canonicalize(_replace_at(form, path, rhs), mode)
                if _terminal_atoms(new) > max_atoms or new in seen:
                    continue
                seen.add(new)
                if len(seen) > cap:
                    raise OracleCapError(f"more than {cap} sentential forms")
                if _leftmost_nonterminal(new) is None:
                    words.add(new)
                else:
                    next_frontier.append(new)
        frontier = next_frontier
    return words, not frontier


def _symbol_at(form: SPTerm, path) -> str:
    for i in path:
        form = form.children[i]
    return form.symbol


def oracle_words(g: Grammar, max_atoms: int, mode: SemanticsMode = ORDERED, max_steps: int = 64,
                 cap: int = 2_000) -> set:
    """Every word of L(g) with at most max_atoms atoms, or OracleCapError
    when the search cannot finish within its own bounds."""
    words, complete = bfs_derive(g, max_atoms, max_steps, mode, cap)
    if not complete:
        raise OracleCapError(f"forms left unexpanded after {max_steps} steps")
    return words


def fixpoint_words(g: Grammar, max_atoms: int, mode: SemanticsMode = ORDERED) -> set:
    """Every word of L(g) with at most max_atoms atoms, as the textbook least
    fixpoint over whole languages: every round recomputes every production's
    words from the last round's, keeping those of at most max_atoms atoms,
    until a round adds nothing. It finishes where `oracle_words` cannot, on
    forms such as S.S.S... that grow without atoms when S derives eps.
    Languages are kept as atom count -> words, so only parts whose sizes fit
    are combined."""
    build = {Seq: seq, Par: functools.partial(par, mode=mode)}

    def form_words(form: SPTerm, words: dict) -> dict:
        if isinstance(form, Eps):
            return {0: {EPS}}
        if isinstance(form, Leaf):
            return words[form.symbol] if form.symbol.isupper() else {1: {form}}
        out = {0: {EPS}}
        for child in form.children:
            combined: dict = {}
            for j, ys in form_words(child, words).items():
                for i, xs in out.items():
                    if i + j <= max_atoms:
                        combined.setdefault(i + j, set()).update(build[type(form)](x, y) for x in xs for y in ys)
            out = combined
        return out

    words: dict = {nt: {} for nt in g.nonterminals}
    while True:
        new: dict = {nt: {} for nt in g.nonterminals}
        for p in g.productions:
            for size, found in form_words(p.rhs, words).items():
                new[p.lhs].setdefault(size, set()).update(found)
        if new == words:
            return set().union(*words[g.start].values())
        words = new


def check_trace(g: Grammar, t: SPTerm, mode: SemanticsMode, trace) -> None:
    """Replay a membership trace: it must run from the start symbol to `t`,
    each step rewriting one nonterminal by one of its alternatives. ORDERED
    traces must rewrite the leftmost nonterminal every time."""
    assert trace[0] == Leaf(g.start), trace
    assert trace[-1] == canonicalize(t, mode), trace
    for before, after in zip(trace, trace[1:]):
        if mode is ORDERED:
            paths = [_leftmost_nonterminal(before)]
        else:
            paths = list(_nonterminal_paths(before))
        successors = {
            canonicalize(_replace_at(before, path, rhs), mode)
            for path in paths
            if path is not None
            for rhs in g.alternatives(_symbol_at(before, path))
        }
        assert after in successors, (format_term(before), format_term(after))


def goal_trace(g: Grammar, t: SPTerm, mode: SemanticsMode) -> tuple:
    """The leftmost derivation of `t` that a fresh membership search proves,
    replayed from its table of proved goals: each goal's proof rewrites the
    first nonterminal of the form (as the productions write them), and its
    subgoals are rewritten next, left to right."""
    search = _MemberSearch(g, mode)
    assert search.proves(canonicalize(t, mode))
    form, pending = Leaf(g.start), [search.goal]
    chain = [form]
    while pending:
        rhs, subgoals = search.proofs[pending.pop()]
        form = _replace_at(form, _leftmost_nonterminal(form), rhs)
        pending.extend(reversed(subgoals))
        chain.append(canonicalize(form, mode))
    return tuple(chain)


def random_general_grammar(seed: int, alphabet=("a", "b")) -> Grammar:
    """A small random grammar outside the linear classes, deterministic in
    `seed`: unit productions, eps productions, and nested Seq/Par right-hand
    sides over terminals and nonterminals."""
    rng = random.Random(seed)
    names = ["S", "A", "B"][: rng.randint(2, 3)]

    def form(depth: int) -> SPTerm:
        roll = rng.random()
        if depth == 0 or roll < 0.6:
            return Leaf(rng.choice(tuple(alphabet) + tuple(names)))
        if roll < 0.7:
            return EPS
        build = seq if roll < 0.85 else par
        return build(*(form(depth - 1) for _ in range(rng.randint(2, 3))))

    productions = []
    for name in names:
        for _ in range(rng.randint(1, 3)):
            roll = rng.random()
            if roll < 0.15:
                rhs = EPS
            elif roll < 0.35:
                rhs = Leaf(rng.choice(names))
            else:
                build = seq if roll < 0.7 else par
                rhs = build(*(form(1) for _ in range(rng.randint(2, 3))))
            productions.append(Production(name, canonicalize(rhs)))
    return Grammar.of(productions, start="S")
