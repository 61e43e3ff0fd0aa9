"""Fork/join branching automata.

States are connected by three transition kinds: sequential transitions
consuming one atom, and fork/join pairs wired together by parallel
transitions. A fork sends control from one state to a multiset of at least
two states; the matching join collects a multiset of at least two states back
into one. A parallel transition optionally carries a guard: either ANY or a
set of atom multisets that the parallel word consumed between fork and join
must equal (guards beyond ANY apply only to flat parallel words).

Runs always use commutative semantics: eps stays put, an atom follows a
sequential transition, a Seq composes runs over its factors, and a parallel
transition fires on a Par whose children split into as many nonempty blocks
as the fork has targets, each block running from its own target to its own
join source. Callers comparing against grammar output canonicalize that side
commutatively as well.

Acceptance, runs and bounded enumeration all read the commutative sp grammar
`to_grammar` builds (the Kleene theorem for branching automata of Lodaya &
Weil, TCS 237, 2000). Each state pair (p, q) joined by a path of transitions
has a nonterminal N_pq deriving the nonempty words of a run from p to q. A
step x from p to r is an atom a of a seq transition p a r, or a form
``N_{T1,Sσ1} || ... || N_{Tm,Sσm}`` of a parallel transition from fork
p -> {T1..Tm} to join {S1..Sm} -> r, one per permutation σ of the join
sources with a path from each Ti to Sσi, matched target by target; each step
gives ``N_pr -> x`` and ``N_pq -> x.N_rq``. A step is never a Seq word, so a
Seq word's first factor is the step's whole word.

The start symbol derives N_if for each initial i and final f, and eps when
some state is both. A guarded parallel transition instead has one step per
flat word its guard allows and its forms derive, decided smallest first, so
nested guarded transitions are settled before they are needed. `accepts` and
`runs_between` are the commutative membership search of `grammars` on that
grammar, and `enumerate_accepted` is its `generate`.

Automaton file format (sections in this order, ``#`` comments). A states,
initial or final line lists state names; each transition section's row of
`_TRANSITIONS` gives the pattern of its lines and the builder of their
transitions::

    states: q0 q1 ...
    initial: q0 ...
    final: qf ...
    seq: p a q
    fork: F1 p -> {q1, q2, ...}
    join: J1 {q1, q2, ...} -> p
    par: F1 * J1        (ANY guard)
    par: F1 {a,b;a,a,b} J1
"""

from __future__ import annotations

import re
from functools import partial
from itertools import groupby

from ._lex import Immutable, is_atom, read_lines
from .errors import EnumerationCapError, NotParallelLinearError, TermSyntaxError
from .grammars import Grammar, Production, _linear, _MemberSearch, classify_grammar, generate
from .langs import FiniteLang
from .terms import (
    COMMUTATIVE,
    DEFAULT_CAP,
    EPS,
    Eps,
    Leaf,
    SPTerm,
    _letters,
    canonicalize,
    par,
    seq,
)


class SeqTransition(Immutable):
    __slots__ = _fields = ("src", "label", "dst")


class ForkTransition(Immutable):
    __slots__ = _fields = ("fid", "src", "targets")  # targets: a multiset, kept sorted

    def __init__(self, fid: str, src: str, targets: tuple[str, ...]):
        if len(targets) < 2:
            raise ValueError(f"fork {fid} needs at least two targets")
        super().__init__(fid, src, tuple(sorted(targets)))


class JoinTransition(Immutable):
    __slots__ = _fields = ("jid", "sources", "dst")  # sources: a multiset, kept sorted

    def __init__(self, jid: str, sources: tuple[str, ...], dst: str):
        if len(sources) < 2:
            raise ValueError(f"join {jid} needs at least two sources")
        super().__init__(jid, tuple(sorted(sources)), dst)


class ParTransition(Immutable):
    __slots__ = _fields = ("fork_id", "guard", "join_id")  # guard: a frozenset of sorted atom tuples, None = ANY

    def __init__(self, fork_id: str, guard: frozenset | None, join_id: str):
        if guard is not None:
            if not guard:
                raise ValueError("a non-ANY guard needs at least one atom multiset")
            guard = frozenset(tuple(sorted(ms)) for ms in guard)
        super().__init__(fork_id, guard, join_id)


class BranchingAutomaton(Immutable):
    _fields = ("states", "seqs", "forks", "joins", "pars", "initial", "final")
    __slots__ = _fields + ("_fork_by_id", "_join_by_id", "_state_index", "_labels", "_searches", "_ends")

    def __init__(self, states: frozenset[str], seqs: tuple[SeqTransition, ...], forks: tuple[ForkTransition, ...],
                 joins: tuple[JoinTransition, ...], pars: tuple[ParTransition, ...], initial: frozenset[str],
                 final: frozenset[str]):
        # normalize transition order so equality is insensitive to how the
        # automaton was assembled
        super().__init__(
            states, tuple(sorted(seqs, key=lambda tr: (tr.src, tr.label, tr.dst))),
            tuple(sorted(forks, key=lambda f: f.fid)), tuple(sorted(joins, key=lambda j: j.jid)),
            tuple(sorted(pars, key=lambda p: (p.fork_id, p.join_id, _guard_text(p.guard)))), initial, final)

        for s in sorted(self.initial | self.final):  # sorted: an error names the same state in every run
            if s not in self.states:
                raise ValueError(f"undeclared state {s!r} in initial/final sets")
        fork_by_id: dict[str, ForkTransition] = {}
        join_by_id: dict[str, JoinTransition] = {}
        for tr in self.seqs + self.forks + self.joins + self.pars:
            _check_transition(tr, self.states, fork_by_id, join_by_id)
        object.__setattr__(self, "_fork_by_id", fork_by_id)
        object.__setattr__(self, "_join_by_id", join_by_id)
        object.__setattr__(self, "_state_index", {s: i for i, s in enumerate(sorted(self.states))})
        object.__setattr__(self, "_labels", frozenset(tr.label for tr in self.seqs))
        object.__setattr__(self, "_searches", {})  # kept labels -> search on to_grammar, built on demand
        object.__setattr__(self, "_ends", {})  # state p -> (q, N_pq) of its grammar, built on demand


def _check_transition(tr, states, fork_by_id: dict, join_by_id: dict) -> None:
    """Raise ValueError if transition `tr` names a state not in `states`,
    repeats the id of a fork or join in `fork_by_id` or `join_by_id`, or is
    a par transition naming a fork or join not in them; a fork or join is
    then entered in its table. Transitions are checked seqs, forks, joins,
    pars, as the file format orders them."""
    if tr.__class__ is SeqTransition:
        names, where = (tr.src, tr.dst), "seq transition"
    elif tr.__class__ is ForkTransition:
        if tr.fid in fork_by_id:
            raise ValueError(f"duplicate fork id {tr.fid!r}")
        fork_by_id[tr.fid] = tr
        names, where = (tr.src, *tr.targets), f"fork {tr.fid}"
    elif tr.__class__ is JoinTransition:
        if tr.jid in join_by_id:
            raise ValueError(f"duplicate join id {tr.jid!r}")
        join_by_id[tr.jid] = tr
        names, where = (tr.dst, *tr.sources), f"join {tr.jid}"
    else:
        if tr.fork_id not in fork_by_id:
            raise ValueError(f"par transition references unknown fork {tr.fork_id!r}")
        if tr.join_id not in join_by_id:
            raise ValueError(f"par transition references unknown join {tr.join_id!r}")
        names = ()
    for name in names:
        if name not in states:
            raise ValueError(f"undeclared state {name!r} in {where}")


def automaton_alphabet(aut: BranchingAutomaton) -> tuple[str, ...]:
    return tuple(sorted(aut._labels))


# ---------------------------------------------------------------------------
# The automaton's grammar

def to_grammar(aut: BranchingAutomaton, labels=None) -> Grammar:
    """The commutative sp grammar of `aut` (see the module docstring), with
    start S and the seq transitions kept to `labels` when given. The state
    pair (p, q) has the nonterminal N_k, k = i * len(states) + j for p and q
    the i-th and j-th states in sorted order. A parallel transition has a
    form per distinct one of its `_matchings`."""
    seqs = [tr for tr in aut.seqs if labels is None or tr.label in labels]
    pars = [(aut._fork_by_id[p.fork_id], p.guard, aut._join_by_id[p.join_id]) for p in aut.pars]
    pars = [(fork, guard, join) for fork, guard, join in pars if len(fork.targets) == len(join.sources)]
    after: dict[str, set[str]] = {}
    for p, q in [(tr.src, tr.dst) for tr in seqs] + [(fork.src, join.dst) for fork, _, join in pars]:
        after.setdefault(p, set()).add(q)
    reach: dict[str, list[str]] = {}  # p -> the states a path of transitions leads to
    for p in after:
        todo, seen = list(after[p]), set()
        while todo:
            q = todo.pop()
            if q not in seen:
                seen.add(q)
                todo.extend(after.get(q, ()))
        reach[p] = sorted(seen)
    N = partial(_pair, aut)
    steps = [(tr.src, Leaf(tr.label), tr.dst) for tr in seqs]  # (p, x, r): x leads from p to r
    guarded = []  # (fork, ANY forms, guard, join) of each guarded parallel transition
    for fork, guard, join in pars:
        forms = dict.fromkeys(par(*(Leaf(N(t, s)) for t, s in zip(fork.targets, sources)), mode=COMMUTATIVE)
                              for sources in _matchings(fork.targets, join.sources, reach))
        if guard is None:
            steps += [(fork.src, form, join.dst) for form in forms]
        else:
            guarded.append((fork, forms, guard, join))
    starts = [Leaf(N(i, f)) for i in sorted(aut.initial) for f in sorted(aut.final) if f in reach.get(i, ())]
    starts += [EPS] if aut.initial & aut.final else []
    starts = [Production("S", rhs) for rhs in starts or [Leaf("S")]]  # S -> S alone derives nothing

    def productions():
        return tuple(starts + [Production(N(p, r), x) for p, x, r in steps] + [
            Production(N(p, q), seq(x, Leaf(N(r, q)))) for p, x, r in steps for q in reach.get(r, ())])

    names = frozenset({"S"} | {N(p, q) for p in reach for q in reach[p]})
    terminals = frozenset(tr.label for tr in seqs)
    tests = tuple(Production(f"G_{k}", form) for k, (_, forms, _, _) in enumerate(guarded) for form in forms)
    test_names = frozenset(f"G_{k}" for k in range(len(guarded)))
    words = sorted((len(ms), ms, k) for k, (_, _, guard, _) in enumerate(guarded) for ms in guard)
    for _, level in groupby(words, key=lambda w: w[0]):  # smallest first
        g = Grammar(names | test_names, terminals, productions() + tests, "S")
        search = _MemberSearch(g, COMMUTATIVE)
        for _, ms, k in level:
            word = par(*map(Leaf, ms), mode=COMMUTATIVE)
            if search.proves(word, f"G_{k}"):
                steps.append((guarded[k][0].src, word, guarded[k][3].dst))
    return Grammar(names, terminals, productions(), "S")


def _matchings(targets: tuple, sources: tuple, reach: dict):
    """The distinct permutations of the sorted join `sources` in which a path
    leads from each fork target to its source (`reach`), in sorted order:
    depth first, each target trying the distinct sources left, least first."""
    stack = [((), sources)]  # (the sources of the first targets, the sources left)
    while stack:
        chosen, left = stack.pop()
        if not left:
            yield chosen
            continue
        allowed = reach.get(targets[len(chosen)], ())
        for s in reversed(dict.fromkeys(left)):  # pushed last first, so the least is tried first
            if s in allowed:
                i = left.index(s)
                stack.append((chosen + (s,), left[:i] + left[i + 1:]))


def _pair(aut: BranchingAutomaton, p: str, q: str) -> str:
    """The nonterminal of the state pair (p, q)."""
    return f"N_{aut._state_index[p] * len(aut.states) + aut._state_index[q]}"


def _search(aut: BranchingAutomaton, letters=None) -> _MemberSearch:
    """The commutative membership search on `to_grammar` of `aut` with its
    seq transitions kept to `letters`, built once per automaton and kept label
    set. Its proofs hold for every term, so later calls reuse them; they are
    dropped when they pass `DEFAULT_CAP`."""
    kept = aut._labels if letters is None else aut._labels.intersection(letters)
    search = aut._searches.get(kept)
    if search is None:
        search = aut._searches[kept] = _MemberSearch(to_grammar(aut, kept), COMMUTATIVE)
    if len(search.proofs) > DEFAULT_CAP:
        search.proofs.clear()
    return search


def runs_between(aut: BranchingAutomaton, start: str, t: SPTerm) -> frozenset:
    """All states reachable from `start` by a run on the commutative form of
    `t`: the states q whose N_{start,q} derives it, and `start` itself on eps."""
    if start not in aut.states:
        raise ValueError(f"unknown state {start!r}")
    if isinstance(t, Eps):  # the only term without atoms
        return frozenset((start,))
    search = _search(aut)
    ends = aut._ends.get(start)
    if ends is None:  # the states q with an N_{start,q}
        names = search.g.nonterminals
        ends = aut._ends[start] = [(q, nt) for q in aut._state_index if (nt := _pair(aut, start, q)) in names]
    term = canonicalize(t, COMMUTATIVE) if ends else t
    return frozenset(q for q, nt in ends if search.proves(term, nt))


def accepts(aut: BranchingAutomaton, t: SPTerm) -> bool:
    """True iff some initial-to-final run on the commutative form of `t`
    exists: the membership search of `to_grammar(aut)`. `DEFAULT_CAP` bounds
    the (nonterminal, position of `t`) goals of one search pass."""
    return _search(aut).proves(canonicalize(t, COMMUTATIVE))


def enumerate_accepted(aut: BranchingAutomaton, alphabet, max_atoms: int) -> FiniteLang:
    """Every accepted word over `alphabet` with at most max_atoms atoms, in
    commutative form and canonical order: `generate` on `to_grammar(aut)`
    with the seq transitions kept to `alphabet`. DEFAULT_CAP bounds the
    (state pair, word) pairs of runs, the empty run at each state included:
    the grammar holds the nonempty words under N and S only copies them."""
    letters = _letters(alphabet, max_atoms)
    try:
        return generate(_search(aut, letters).g, max_atoms, mode=COMMUTATIVE, cap=DEFAULT_CAP - len(aut.states))
    except EnumerationCapError:
        raise EnumerationCapError(f"automaton words exceed the cardinality cap ({DEFAULT_CAP})") from None


# ---------------------------------------------------------------------------
# Construction from parallel-linear grammars

def from_linear_grammar(g: Grammar) -> BranchingAutomaton:
    """The fork/join automaton with the same language as a parallel-linear
    grammar.

    Every nonterminal V gets an entry_V/ret_V state pair. A production
    V -> a1||...||am||W forks entry_V into one fresh branch per atom plus
    entry_W, and joins the branch ends plus ret_W back into ret_V; a terminal
    production drops the continuation branch (a single-atom terminal
    production is just a sequential transition). Since blocks of a parallel
    transition must be nonempty, an eps continuation cannot ride through a
    fork: each production whose continuation W also has W -> eps gains the
    terminal variant of itself, and an eps production on the start symbol
    marks the entry state final instead.
    """
    if not classify_grammar(g).parallel_linear:
        raise NotParallelLinearError("grammar is not parallel-linear "
                                     "(need x||B, B||x, parallel terminal words, or eps)")
    nullable = {p.lhs for p in g.productions if isinstance(p.rhs, Eps)}
    rows: dict = {}  # (head, atoms, continuation or None) of each row, in first-appearance order
    for p in g.productions:
        _, atoms, cont = _linear(p.rhs)
        if atoms:  # eps has no row
            rows[p.lhs, atoms, cont] = None
            if cont in nullable:
                rows[p.lhs, atoms, None] = None

    states = {f"{side}_{v}" for v in g.nonterminals for side in ("entry", "ret")}
    seqs, forks, joins, pars = [], [], [], []
    for i, (lhs, atoms, cont) in enumerate(rows, start=1):
        if cont is None and len(atoms) == 1:
            seqs.append(SeqTransition(f"entry_{lhs}", atoms[0], f"ret_{lhs}"))
            continue
        targets = [f"s{i}_{k}" for k in range(1, len(atoms) + 1)]
        sources = [f"t{i}_{k}" for k in range(1, len(atoms) + 1)]
        states.update(targets + sources)
        seqs += map(SeqTransition, targets, atoms, sources)
        if cont is not None:  # the continuation's branch
            targets.append(f"entry_{cont}")
            sources.append(f"ret_{cont}")
        forks.append(ForkTransition(f"F{i}", f"entry_{lhs}", tuple(targets)))
        joins.append(JoinTransition(f"J{i}", tuple(sources), f"ret_{lhs}"))
        pars.append(ParTransition(f"F{i}", None, f"J{i}"))
    final = {f"ret_{g.start}"} | ({f"entry_{g.start}"} if g.start in nullable else set())
    return BranchingAutomaton(frozenset(states), tuple(seqs), tuple(forks), tuple(joins), tuple(pars),
                              frozenset({f"entry_{g.start}"}), frozenset(final))


# ---------------------------------------------------------------------------
# Text format

_NAME = r"[A-Za-z][A-Za-z0-9_]*"


def _names(body: str, sep: str | None = None) -> list[str]:
    """The state names in `body`, split at `sep`, or at whitespace when None."""
    names = [chunk.strip() for chunk in body.split(sep)]
    for name in names:
        if not name:
            raise TermSyntaxError("empty name in multiset")
        if not re.fullmatch(_NAME, name):
            raise TermSyntaxError(f"bad state name {name!r}")
    return names


def _seq(src: str, label: str, dst: str) -> SeqTransition:
    if not is_atom(label):
        raise TermSyntaxError("label must be one lowercase letter")
    _names(f"{src} {dst}")  # both must be state names, as on a fork or join line
    return SeqTransition(src, label, dst)


def _par(fid: str, guard_text: str, jid: str) -> ParTransition:
    if guard_text == "*":
        return ParTransition(fid, None, jid)
    multisets = [tuple(a.strip() for a in chunk.split(",")) for chunk in guard_text[1:-1].split(";")]
    if not all(is_atom(a) for ms in multisets for a in ms):
        raise TermSyntaxError("guard atoms must be lowercase letters")
    return ParTransition(fid, frozenset(multisets), jid)


# Each transition section, in file order: the pattern of its line's body, the
# error when the body does not match, and the builder of its transition from
# the pattern's groups.
_TRANSITIONS = {
    "seq": (r"(\S+)\s+(\S+)\s+(\S+)", "expected 'seq: p a q'", _seq),
    "fork": (rf"({_NAME})\s+({_NAME})\s*->\s*\{{([^{{}}]*)\}}", "expected 'fork: F p -> {q1, q2, ...}'",
             lambda fid, src, targets: ForkTransition(fid, src, tuple(_names(targets, ",")))),
    "join": (rf"({_NAME})\s+\{{([^{{}}]*)\}}\s*->\s*({_NAME})", "expected 'join: J {q1, q2, ...} -> p'",
             lambda jid, sources, dst: JoinTransition(jid, tuple(_names(sources, ",")), dst)),
    "par": (rf"({_NAME})\s+(\*|\{{[^{{}}]*\}})\s+({_NAME})", "expected 'par: F * J' or 'par: F {a,b;...} J'", _par),
}
_SECTIONS = ("states", "initial", "final", *_TRANSITIONS)


def parse_automaton(text: str) -> BranchingAutomaton:
    """Parse the automaton file format, enforcing the section order and
    rejecting dangling or unreferenced fork/join declarations. Each
    transition line is checked as it is read (`_check_transition`), against
    the states line and the fork and join lines before it, so its error
    names its line."""
    named: dict[str, frozenset[str]] = {}  # the states, initial and final lines
    transitions: dict[str, list] = {key: [] for key in _TRANSITIONS}
    fork_by_id: dict[str, ForkTransition] = {}
    join_by_id: dict[str, JoinTransition] = {}
    section_idx = 0  # of the section read last

    def entry(line: str) -> None:
        nonlocal section_idx
        key, colon, body = line.partition(":")
        key, body = key.strip(), body.strip()
        if not colon or key not in _SECTIONS:
            raise TermSyntaxError(f"expected one of {', '.join(_SECTIONS)}")
        idx = _SECTIONS.index(key)
        if idx < section_idx:
            raise TermSyntaxError(f"section {key!r} out of order")
        section_idx = idx
        if key in _TRANSITIONS:
            pattern, usage, build = _TRANSITIONS[key]
            m = re.fullmatch(pattern, body)
            if not m:
                raise TermSyntaxError(usage)
            tr = build(*m.groups())
            if "states" in named:  # else the file fails for its missing 'states:' line
                _check_transition(tr, named["states"], fork_by_id, join_by_id)
            transitions[key].append(tr)
        elif key in named:
            raise TermSyntaxError(f"duplicate {key!r} line")
        else:
            named[key] = frozenset(_names(body))

    read_lines(text, entry)
    for required in ("states", "initial", "final"):
        if required not in named:
            raise TermSyntaxError(f"missing '{required}:' line")
    seqs, forks, joins, pars = transitions.values()
    fork_ids, join_ids = {p.fork_id for p in pars}, {p.join_id for p in pars}
    unused = [f"fork {f.fid!r}" for f in forks if f.fid not in fork_ids]
    unused += [f"join {j.jid!r}" for j in joins if j.jid not in join_ids]
    if unused:
        raise TermSyntaxError(f"{unused[0]} is not referenced by any par transition")
    try:
        return BranchingAutomaton(named["states"], tuple(seqs), tuple(forks), tuple(joins), tuple(pars),
                                  named["initial"], named["final"])
    except ValueError as exc:
        raise TermSyntaxError(str(exc)) from exc


def _guard_text(guard: frozenset | None) -> str:
    if guard is None:
        return "*"
    return "{" + ";".join(",".join(ms) for ms in sorted(guard)) + "}"


def serialize_automaton(aut: BranchingAutomaton) -> str:
    """Deterministic text form; parse . serialize is the identity on the
    emitted text."""
    lines = [
        "states: " + " ".join(sorted(aut.states)),
        "initial: " + " ".join(sorted(aut.initial)),
        "final: " + " ".join(sorted(aut.final)),
    ]
    for tr in aut.seqs:
        lines.append(f"seq: {tr.src} {tr.label} {tr.dst}")
    for f in aut.forks:
        lines.append(f"fork: {f.fid} {f.src} -> {{{', '.join(f.targets)}}}")
    for j in aut.joins:
        lines.append(f"join: {j.jid} {{{', '.join(j.sources)}}} -> {j.dst}")
    for p in aut.pars:
        lines.append(f"par: {p.fork_id} {_guard_text(p.guard)} {p.join_id}")
    return "\n".join(lines) + "\n"
