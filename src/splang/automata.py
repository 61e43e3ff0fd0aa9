"""Fork/join branching automata.

States are connected by three transition kinds: sequential transitions
consuming one atom, and fork/join pairs wired together by parallel
transitions. A fork sends control from one state to a multiset of at least
two states; the matching join collects a multiset of at least two states back
into one. A parallel transition optionally carries a guard: either ANY or a
set of atom multisets that the parallel word consumed between fork and join
must equal (guards beyond ANY apply only to flat parallel words).

Runs always use commutative semantics: a parallel node is split into as many
nonempty blocks as the fork has targets, blocks are assigned to targets and
block end-states to join sources as multiset bijections. Callers comparing
against grammar output canonicalize that side commutatively as well.

Bounded enumeration reads the same runs backwards (the branching-automaton
runs of Lodaya & Weil, TCS 237, 2000). `enumerate_accepted` computes the least
fixpoint of W(p, q), the words of at most n atoms with a run from p to q: eps
is in W(p, p); a seq transition p a q puts a in W(p, q); a parallel transition
from fork p -> {T1..Tm} to join {S1..Sm} -> d puts in W(p, d) every
par(b1, ..., bm) its guard allows, each bi a nonempty word of W(Ti, S_s(i)) for
a bijection s; and a non-Seq word of W(p, r) followed by a word of W(r, q) is
in W(p, q). Its cost follows the answer, not the universe of terms.

Automaton file format (sections in this order, ``#`` comments)::

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
from collections import Counter
from dataclasses import dataclass, replace

from ._partitions import distinct_permutations, multiset_partitions
from .errors import EnumerationCapError, NotParallelLinearError, TermSyntaxError
from .grammars import Grammar, classify_grammar
from .langs import FiniteLang
from .terms import (
    COMMUTATIVE,
    DEFAULT_CAP,
    EPS,
    Eps,
    Leaf,
    Par,
    Seq,
    SPTerm,
    _letters,
    canonicalize,
    format_term,
    par,
    seq,
)


@dataclass(frozen=True)
class SeqTransition:
    src: str
    label: str
    dst: str


@dataclass(frozen=True)
class ForkTransition:
    fid: str
    src: str
    targets: tuple[str, ...]  # multiset, kept sorted

    def __post_init__(self):
        if len(self.targets) < 2:
            raise ValueError(f"fork {self.fid} needs at least two targets")
        object.__setattr__(self, "targets", tuple(sorted(self.targets)))


@dataclass(frozen=True)
class JoinTransition:
    jid: str
    sources: tuple[str, ...]  # multiset, kept sorted
    dst: str

    def __post_init__(self):
        if len(self.sources) < 2:
            raise ValueError(f"join {self.jid} needs at least two sources")
        object.__setattr__(self, "sources", tuple(sorted(self.sources)))


@dataclass(frozen=True)
class ParTransition:
    fork_id: str
    guard: frozenset | None  # None = ANY
    join_id: str

    def __post_init__(self):
        if self.guard is not None:
            if not self.guard:
                raise ValueError("a non-ANY guard needs at least one atom multiset")
            object.__setattr__(
                self, "guard", frozenset(tuple(sorted(ms)) for ms in self.guard)
            )


@dataclass(frozen=True)
class BranchingAutomaton:
    states: frozenset[str]
    seqs: tuple[SeqTransition, ...]
    forks: tuple[ForkTransition, ...]
    joins: tuple[JoinTransition, ...]
    pars: tuple[ParTransition, ...]
    initial: frozenset[str]
    final: frozenset[str]

    def __post_init__(self):
        # normalize transition order so equality is insensitive to how the
        # automaton was assembled
        object.__setattr__(
            self, "seqs", tuple(sorted(self.seqs, key=lambda tr: (tr.src, tr.label, tr.dst)))
        )
        object.__setattr__(self, "forks", tuple(sorted(self.forks, key=lambda f: f.fid)))
        object.__setattr__(self, "joins", tuple(sorted(self.joins, key=lambda j: j.jid)))
        object.__setattr__(
            self,
            "pars",
            tuple(sorted(self.pars, key=lambda p: (p.fork_id, p.join_id, _guard_text(p.guard)))),
        )

        def need_state(name: str, where: str):
            if name not in self.states:
                raise ValueError(f"undeclared state {name!r} in {where}")

        for s in self.initial | self.final:
            need_state(s, "initial/final sets")
        for tr in self.seqs:
            need_state(tr.src, "seq transition")
            need_state(tr.dst, "seq transition")
        fork_by_id: dict[str, ForkTransition] = {}
        for f in self.forks:
            if f.fid in fork_by_id:
                raise ValueError(f"duplicate fork id {f.fid!r}")
            fork_by_id[f.fid] = f
            need_state(f.src, f"fork {f.fid}")
            for q in f.targets:
                need_state(q, f"fork {f.fid}")
        join_by_id: dict[str, JoinTransition] = {}
        for j in self.joins:
            if j.jid in join_by_id:
                raise ValueError(f"duplicate join id {j.jid!r}")
            join_by_id[j.jid] = j
            need_state(j.dst, f"join {j.jid}")
            for q in j.sources:
                need_state(q, f"join {j.jid}")
        for p in self.pars:
            if p.fork_id not in fork_by_id:
                raise ValueError(f"par transition references unknown fork {p.fork_id!r}")
            if p.join_id not in join_by_id:
                raise ValueError(f"par transition references unknown join {p.join_id!r}")
        seq_from: dict[str, list[tuple[str, str]]] = {}
        for tr in self.seqs:
            seq_from.setdefault(tr.src, []).append((tr.label, tr.dst))
        pars_from: dict[str, list[tuple[int, ForkTransition, frozenset | None, JoinTransition]]] = {}
        for idx, p in enumerate(self.pars):
            fork = fork_by_id[p.fork_id]
            pars_from.setdefault(fork.src, []).append((idx, fork, p.guard, join_by_id[p.join_id]))
        object.__setattr__(self, "_seq_from", seq_from)
        object.__setattr__(self, "_pars_from", pars_from)
        object.__setattr__(self, "_fork_by_id", fork_by_id)
        object.__setattr__(self, "_join_by_id", join_by_id)


def automaton_alphabet(aut: BranchingAutomaton) -> tuple[str, ...]:
    return tuple(sorted({tr.label for tr in aut.seqs}))


# ---------------------------------------------------------------------------
# Run semantics

def runs_between(aut: BranchingAutomaton, start: str, t: SPTerm, observer=None) -> frozenset:
    """All states reachable from `start` by a run on `t` (commutative form).

    eps stays put; an atom follows a sequential transition; a Seq composes
    the relation over its factors; a Par needs one parallel transition whose
    fork/join bracket a blockwise run (see module docstring). `observer`,
    when given, is called with (par_index, subterm) for every parallel
    transition that fires successfully.
    """
    if start not in aut.states:
        raise ValueError(f"unknown state {start!r}")
    term = canonicalize(t, COMMUTATIVE)
    memo: dict[tuple[str, SPTerm], frozenset] = {}

    def go(state: str, sub: SPTerm) -> frozenset:
        key = (state, sub)
        cached = memo.get(key)
        if cached is not None:
            return cached
        if isinstance(sub, Eps):
            result = frozenset((state,))
        elif isinstance(sub, Leaf):
            result = frozenset(
                dst for label, dst in aut._seq_from.get(state, ()) if label == sub.symbol
            )
        elif isinstance(sub, Seq):
            reached = {state}
            for factor in sub.children:
                step: set[str] = set()
                for r in reached:
                    step |= go(r, factor)
                reached = step
                if not reached:
                    break
            result = frozenset(reached)
        else:  # Par
            hits: set[str] = set()
            for par_idx, fork, guard, join in aut._pars_from.get(state, ()):
                if guard is not None and not _guard_allows(guard, sub):
                    continue
                if len(fork.targets) > len(sub.children):
                    continue  # blocks are nonempty
                if _par_fires(fork, join, sub.children, go):
                    hits.add(join.dst)
                    if observer is not None:
                        observer(par_idx, sub)
            result = frozenset(hits)
        memo[key] = result
        return result

    return go(start, term)


def _guard_allows(guard: frozenset, sub: Par) -> bool:
    if not all(isinstance(c, Leaf) for c in sub.children):
        return False  # only ANY admits non-flat parallel subterms
    return tuple(sorted(c.symbol for c in sub.children)) in guard


def _par_fires(fork: ForkTransition, join: JoinTransition, children, go) -> bool:
    arity = len(fork.targets)
    if len(join.sources) != arity:
        return False
    for blocks in multiset_partitions(children, arity, key=format_term):
        block_terms = [b[0] if len(b) == 1 else Par(b) for b in blocks]
        for assignment in distinct_permutations(fork.targets):
            end_sets = []
            feasible = True
            for target, block in zip(assignment, block_terms):
                ends = go(target, block)
                if not ends:
                    feasible = False
                    break
                end_sets.append(ends)
            if feasible and _covers(end_sets, join.sources):
                return True
    return False


def _covers(end_sets, sources: tuple[str, ...]) -> bool:
    """Can one end state be picked from each set to equal `sources` exactly?"""
    need = Counter(sources)

    def assign(i: int) -> bool:
        if i == len(end_sets):
            return True
        for s in end_sets[i]:
            if need[s] > 0:
                need[s] -= 1
                if assign(i + 1):
                    need[s] += 1
                    return True
                need[s] += 1
        return False

    return assign(0)


def accepts(aut: BranchingAutomaton, t: SPTerm, observer=None) -> bool:
    """True iff some initial-to-final run on the commutative form of `t` exists."""
    return any(runs_between(aut, s, t, observer) & aut.final for s in sorted(aut.initial))


def enumerate_accepted(
    aut: BranchingAutomaton,
    alphabet,
    max_atoms: int,
    cap: int = DEFAULT_CAP,
) -> FiniteLang:
    """Every accepted word over `alphabet` with at most max_atoms atoms, in
    commutative form and canonical order: the union of W(i, f) over initial i
    and final f, seq transitions kept to `alphabet` (see the module
    docstring). `cap` bounds the (state pair, word) pairs held."""
    letters = _letters(alphabet, max_atoms)
    words: dict[tuple[str, str], dict[SPTerm, int]] = {(p, p): {EPS: 0} for p in aut.states}  # word -> its atoms
    for tr in aut.seqs:
        if tr.label in letters and max_atoms > 0:
            words.setdefault((tr.src, tr.dst), {})[Leaf(tr.label)] = 1
    count, last = 0, -1
    while count > last:
        found = [((fork.src, join.dst), _par_words(fork, guard, join, words, max_atoms))
                 for pars in aut._pars_from.values() for _, fork, guard, join in pars]
        found += _seq_words(words, max_atoms).items()
        for pair, new in found:
            words.setdefault(pair, {}).update(new)
        last, count = count, sum(map(len, words.values()))
        if count > cap:
            raise EnumerationCapError(f"automaton words exceed the cardinality cap ({cap})")
    accepted = (w for (p, q), ws in words.items() if p in aut.initial and q in aut.final for w in ws)
    return FiniteLang(COMMUTATIVE, tuple(accepted))


def _par_words(fork, guard, join, words, max_atoms: int) -> dict[SPTerm, int]:
    """The words a parallel transition puts in W(fork.src, join.dst)."""
    out: dict[SPTerm, int] = {}
    if len(fork.targets) != len(join.sources):
        return out
    for sources in distinct_permutations(join.sources):
        acc = {EPS: 0}
        for target, source in zip(fork.targets, sources):
            block = words.get((target, source), {}).items()
            acc = {
                par(x, b, mode=COMMUTATIVE): m + n
                for x, m in acc.items() for b, n in block if n and m + n <= max_atoms
            }
            if not acc:
                break
        for w, n in acc.items():
            if guard is None or _guard_allows(guard, w):
                out[w] = n
    return out


def _seq_words(words, max_atoms: int) -> dict[tuple[str, str], dict[SPTerm, int]]:
    """The Seq words: a non-Seq word of W(p, r), then a word of W(r, q)."""
    after: dict[str, list] = {}
    for (r, q), ws in words.items():
        after.setdefault(r, []).append((q, ws.items()))
    out: dict[tuple[str, str], dict[SPTerm, int]] = {}
    for (p, r), heads in words.items():
        for x, m in heads.items():
            if isinstance(x, (Eps, Seq)):
                continue
            for q, tails in after[r]:
                new = {seq(x, w): m + n for w, n in tails if m + n <= max_atoms}
                if new:
                    out.setdefault((p, q), {}).update(new)
    return out


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
    cls = classify_grammar(g)
    if not cls.parallel_linear:
        raise NotParallelLinearError(
            "grammar is not parallel-linear (need x||B, B||x, parallel terminal words, or eps)"
        )
    nullable = {p.lhs for p in g.productions if isinstance(p.rhs, Eps)}
    rows: list[tuple[str, tuple[str, ...], str | None]] = []
    for p in g.productions:
        if isinstance(p.rhs, Eps):
            continue
        atoms, cont = _linear_parts(p.rhs)
        for row in ((p.lhs, atoms, cont),) + (
            ((p.lhs, atoms, None),) if cont is not None and cont in nullable else ()
        ):
            if row not in rows:
                rows.append(row)

    states = {f"entry_{v}" for v in sorted(g.nonterminals)}
    states |= {f"ret_{v}" for v in sorted(g.nonterminals)}
    seqs: list[SeqTransition] = []
    forks: list[ForkTransition] = []
    joins: list[JoinTransition] = []
    pars: list[ParTransition] = []
    for i, (lhs, atoms, cont) in enumerate(rows, start=1):
        if cont is None and len(atoms) == 1:
            seqs.append(SeqTransition(f"entry_{lhs}", atoms[0], f"ret_{lhs}"))
            continue
        branch_srcs = [f"s{i}_{k}" for k in range(1, len(atoms) + 1)]
        branch_dsts = [f"t{i}_{k}" for k in range(1, len(atoms) + 1)]
        states.update(branch_srcs)
        states.update(branch_dsts)
        seqs.extend(
            SeqTransition(src, atom, dst)
            for src, atom, dst in zip(branch_srcs, atoms, branch_dsts)
        )
        targets = branch_srcs + ([f"entry_{cont}"] if cont is not None else [])
        sources = branch_dsts + ([f"ret_{cont}"] if cont is not None else [])
        forks.append(ForkTransition(f"F{i}", f"entry_{lhs}", tuple(targets)))
        joins.append(JoinTransition(f"J{i}", tuple(sources), f"ret_{lhs}"))
        pars.append(ParTransition(f"F{i}", None, f"J{i}"))

    final = {f"ret_{g.start}"}
    if g.start in nullable:
        final.add(f"entry_{g.start}")
    return BranchingAutomaton(
        states=frozenset(states),
        seqs=tuple(seqs),
        forks=tuple(forks),
        joins=tuple(joins),
        pars=tuple(pars),
        initial=frozenset({f"entry_{g.start}"}),
        final=frozenset(final),
    )


def _linear_parts(rhs: SPTerm) -> tuple[tuple[str, ...], str | None]:
    """Terminal atoms (in order) and the continuation nonterminal, if any."""
    if isinstance(rhs, Leaf):
        return (rhs.symbol,), None
    assert isinstance(rhs, Par)
    children = rhs.children
    if children[-1].symbol.isupper():  # type: ignore[union-attr]
        return tuple(c.symbol for c in children[:-1]), children[-1].symbol
    if children[0].symbol.isupper():  # type: ignore[union-attr]
        return tuple(c.symbol for c in children[1:]), children[0].symbol
    return tuple(c.symbol for c in children), None


# ---------------------------------------------------------------------------
# Guard observation

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

    for t in terms:
        accepts(aut, t, observer=obs)
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
    return replace(aut, pars=tuple(new_pars))


# ---------------------------------------------------------------------------
# Text format

_NAME = r"[A-Za-z][A-Za-z0-9_]*"
_FORK_RE = re.compile(rf"^({_NAME})\s+({_NAME})\s*->\s*\{{([^{{}}]*)\}}$")
_JOIN_RE = re.compile(rf"^({_NAME})\s+\{{([^{{}}]*)\}}\s*->\s*({_NAME})$")
_PAR_RE = re.compile(rf"^({_NAME})\s+(\*|\{{[^{{}}]*\}})\s+({_NAME})$")
_SECTIONS = ("states", "initial", "final", "seq", "fork", "join", "par")


def _split_names(body: str, lineno: int) -> list[str]:
    names = []
    for chunk in body.split(","):
        name = chunk.strip()
        if not name:
            raise TermSyntaxError(f"line {lineno}: empty name in multiset")
        if not re.fullmatch(_NAME, name):
            raise TermSyntaxError(f"line {lineno}: bad state name {name!r}")
        names.append(name)
    return names


def parse_automaton(text: str) -> BranchingAutomaton:
    """Parse the automaton file format, enforcing the section order and
    rejecting dangling or unreferenced fork/join declarations."""
    states: list[str] = []
    initial: list[str] = []
    final: list[str] = []
    seqs: list[SeqTransition] = []
    forks: list[ForkTransition] = []
    joins: list[JoinTransition] = []
    pars: list[ParTransition] = []
    seen = set()
    section_idx = -1
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, colon, body = line.partition(":")
        key = key.strip()
        body = body.strip()
        if not colon or key not in _SECTIONS:
            raise TermSyntaxError(f"line {lineno}: expected one of {', '.join(_SECTIONS)}")
        idx = _SECTIONS.index(key)
        if idx < section_idx:
            raise TermSyntaxError(f"line {lineno}: section {key!r} out of order")
        section_idx = idx
        if key in ("states", "initial", "final"):
            if key in seen:
                raise TermSyntaxError(f"line {lineno}: duplicate {key!r} line")
            seen.add(key)
            names = body.split()
            for name in names:
                if not re.fullmatch(_NAME, name):
                    raise TermSyntaxError(f"line {lineno}: bad state name {name!r}")
            {"states": states, "initial": initial, "final": final}[key].extend(names)
        elif key == "seq":
            parts = body.split()
            if len(parts) != 3:
                raise TermSyntaxError(f"line {lineno}: expected 'seq: p a q'")
            src, label, dst = parts
            if not (len(label) == 1 and label.islower() and label.isalpha()):
                raise TermSyntaxError(f"line {lineno}: label must be one lowercase letter")
            seqs.append(SeqTransition(src, label, dst))
        elif key == "fork":
            m = _FORK_RE.match(body)
            if not m:
                raise TermSyntaxError(f"line {lineno}: expected 'fork: F p -> {{q1, q2, ...}}'")
            fid, src, targets = m.groups()
            try:
                forks.append(ForkTransition(fid, src, tuple(_split_names(targets, lineno))))
            except ValueError as exc:
                raise TermSyntaxError(f"line {lineno}: {exc}") from exc
        elif key == "join":
            m = _JOIN_RE.match(body)
            if not m:
                raise TermSyntaxError(f"line {lineno}: expected 'join: J {{q1, q2, ...}} -> p'")
            jid, sources, dst = m.groups()
            try:
                joins.append(JoinTransition(jid, tuple(_split_names(sources, lineno)), dst))
            except ValueError as exc:
                raise TermSyntaxError(f"line {lineno}: {exc}") from exc
        else:  # par
            m = _PAR_RE.match(body)
            if not m:
                raise TermSyntaxError(f"line {lineno}: expected 'par: F * J' or 'par: F {{a,b;...}} J'")
            fid, guard_text, jid = m.groups()
            guard = None
            if guard_text != "*":
                multisets = set()
                for chunk in guard_text[1:-1].split(";"):
                    atoms = [a.strip() for a in chunk.split(",")]
                    if not all(len(a) == 1 and a.islower() and a.isalpha() for a in atoms):
                        raise TermSyntaxError(f"line {lineno}: guard atoms must be lowercase letters")
                    multisets.add(tuple(sorted(atoms)))
                guard = frozenset(multisets)
            try:
                pars.append(ParTransition(fid, guard, jid))
            except ValueError as exc:
                raise TermSyntaxError(f"line {lineno}: {exc}") from exc
    for required in ("states", "initial", "final"):
        if required not in seen:
            raise TermSyntaxError(f"missing '{required}:' line")
    referenced_forks = {p.fork_id for p in pars}
    referenced_joins = {p.join_id for p in pars}
    for f in forks:
        if f.fid not in referenced_forks:
            raise TermSyntaxError(f"fork {f.fid!r} is not referenced by any par transition")
    for j in joins:
        if j.jid not in referenced_joins:
            raise TermSyntaxError(f"join {j.jid!r} is not referenced by any par transition")
    try:
        return BranchingAutomaton(
            states=frozenset(states),
            seqs=tuple(seqs),
            forks=tuple(forks),
            joins=tuple(joins),
            pars=tuple(pars),
            initial=frozenset(initial),
            final=frozenset(final),
        )
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
    for tr in sorted(aut.seqs, key=lambda tr: (tr.src, tr.label, tr.dst)):
        lines.append(f"seq: {tr.src} {tr.label} {tr.dst}")
    for f in sorted(aut.forks, key=lambda f: f.fid):
        lines.append(f"fork: {f.fid} {f.src} -> {{{', '.join(f.targets)}}}")
    for j in sorted(aut.joins, key=lambda j: j.jid):
        lines.append(f"join: {j.jid} {{{', '.join(j.sources)}}} -> {j.dst}")
    for p in sorted(aut.pars, key=lambda p: (p.fork_id, p.join_id, _guard_text(p.guard))):
        lines.append(f"par: {p.fork_id} {_guard_text(p.guard)} {p.join_id}")
    return "\n".join(lines) + "\n"
