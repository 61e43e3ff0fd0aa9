from pathlib import Path

import pytest

from splang.automata import (
    BranchingAutomaton,
    ForkTransition,
    JoinTransition,
    ParTransition,
    SeqTransition,
    accepts,
    automaton_alphabet,
    enumerate_accepted,
    from_linear_grammar,
    parse_automaton,
    runs_between,
    serialize_automaton,
    to_grammar,
)
from splang.errors import EnumerationCapError, NotParallelLinearError, TermSyntaxError
from splang.grammars import is_member, parse_grammar, random_parallel_linear_grammar
from splang.langs import lang_equal
from splang.grammars import generate
from splang.terms import (
    COMMUTATIVE,
    ORDERED,
    atoms_count,
    canonicalize,
    enumerate_terms,
    format_term,
    is_parallel_word,
    parse_term,
    seq,
)

from oracles import (
    binary_universe,
    observe_par_guards,
    oracle_acceptor,
    oracle_accepted,
    oracle_runner,
    with_observed_guards,
)

BENCH_DATA = Path(__file__).resolve().parents[1] / "bench" / "data"


def pt(text):
    return parse_term(text)


def texts(lang):
    return [format_term(t) for t in lang]


@pytest.fixture(scope="module")
def fanout_automaton(request):
    g = parse_grammar("S -> a||B\nB -> b||B | b\n")
    return from_linear_grammar(g)


MINIMAL = """
states: p q
initial: p
final: q
seq: p a q
"""


# ---------------------------------------------------------------------------
# data model and file format

def test_minimal_automaton_accepts_one_atom():
    aut = parse_automaton(MINIMAL)
    assert accepts(aut, pt("a"))
    assert not accepts(aut, pt("a.a"))
    assert not accepts(aut, pt("eps"))
    assert texts(enumerate_accepted(aut, "a", 2)) == ["a"]


def test_round_trip_is_a_fixpoint(fanout_automaton):
    text = serialize_automaton(fanout_automaton)
    again = parse_automaton(text)
    assert serialize_automaton(again) == text
    assert again == fanout_automaton


def test_fork_needs_two_targets():
    bad = MINIMAL + "fork: F1 p -> {q}\njoin: J1 {p, q} -> q\npar: F1 * J1\n"
    with pytest.raises(TermSyntaxError):
        parse_automaton(bad)


def test_unreferenced_fork_rejected_at_load():
    bad = MINIMAL + "fork: F1 p -> {q, q}\n"
    with pytest.raises(TermSyntaxError):
        parse_automaton(bad)


def test_dangling_par_reference_rejected():
    bad = MINIMAL + "par: F9 * J9\n"
    with pytest.raises(TermSyntaxError):
        parse_automaton(bad)


def test_section_order_enforced():
    shuffled = "initial: p\nstates: p q\nfinal: q\nseq: p a q\n"
    with pytest.raises(TermSyntaxError):
        parse_automaton(shuffled)


def test_undeclared_state_rejected():
    with pytest.raises(TermSyntaxError):
        parse_automaton("states: p\ninitial: p\nfinal: p\nseq: p a r\n")


def test_code_built_automata_and_runs_check_their_arguments(fanout_automaton):
    with pytest.raises(ValueError, match=r"^unknown state 'zz'$"):
        runs_between(fanout_automaton, "zz", parse_term("a"))
    with pytest.raises(ValueError, match="^a non-ANY guard needs at least one atom multiset$"):
        ParTransition("F", frozenset(), "J")
    # the checks a file's lines get, with no line to name
    states, fork, join = frozenset("pq"), ForkTransition("F", "p", ("p", "q")), JoinTransition("J", ("p", "q"), "q")
    for seqs, forks, pars, error in [
        ((SeqTransition("p", "a", "r"),), (), (), "undeclared state 'r' in seq transition"),
        ((), (fork, fork), (ParTransition("F", None, "J"),), "duplicate fork id 'F'"),
        ((), (fork,), (ParTransition("F", None, "K"),), "par transition references unknown join 'K'"),
    ]:
        with pytest.raises(ValueError, match=f"^{error}$"):
            BranchingAutomaton(states, seqs, forks, (join,), pars, frozenset("p"), frozenset("q"))


def test_guard_syntax_round_trips():
    text = MINIMAL + "fork: F1 p -> {p, q}\njoin: J1 {p, q} -> q\npar: F1 {a,b;a,a,b} J1\n"
    aut = parse_automaton(text)
    (par_tr,) = aut.pars
    assert par_tr.guard == frozenset({("a", "b"), ("a", "a", "b")})
    assert "par: F1 {a,a,b;a,b} J1" in serialize_automaton(aut)


# ---------------------------------------------------------------------------
# run semantics

def test_runs_stay_put_on_eps(fanout_automaton):
    for state in sorted(fanout_automaton.states):
        assert runs_between(fanout_automaton, state, pt("eps")) == {state}


def test_runs_on_worked_example(fanout_automaton):
    assert "ret_S" in runs_between(fanout_automaton, "entry_S", pt("a||b"))
    assert runs_between(fanout_automaton, "entry_S", pt("a||a")) == frozenset()


def test_sequential_runs_compose(fanout_automaton):
    uni = enumerate_terms("ab", 2, COMMUTATIVE)
    for x in uni:
        for y in uni:
            composed = canonicalize(parse_term(f"({format_term(x)}).({format_term(y)})"), COMMUTATIVE)
            for p in sorted(fanout_automaton.states):
                direct = runs_between(fanout_automaton, p, composed)
                stitched = frozenset(
                    q
                    for r in runs_between(fanout_automaton, p, x)
                    for q in runs_between(fanout_automaton, r, y)
                )
                assert direct == stitched


def test_acceptance_on_worked_example(fanout_automaton):
    assert accepts(fanout_automaton, pt("a||b"))
    assert accepts(fanout_automaton, pt("a||b||b"))
    assert not accepts(fanout_automaton, pt("b"))
    assert not accepts(fanout_automaton, pt("a"))
    assert not accepts(fanout_automaton, pt("eps"))


def test_acceptance_ignores_parallel_order(fanout_automaton):
    assert accepts(fanout_automaton, pt("b||a"))
    for t in enumerate_terms("ab", 3):
        assert accepts(fanout_automaton, t) == accepts(
            fanout_automaton, canonicalize(t, COMMUTATIVE)
        )


def test_eps_accepted_iff_initial_meets_final():
    aut = parse_automaton("states: p\ninitial: p\nfinal: p\n")
    assert accepts(aut, pt("eps"))
    assert texts(enumerate_accepted(aut, "ab", 1)) == ["eps"]
    empty = parse_automaton("states: p q\ninitial: p\nfinal: q\n")
    assert texts(enumerate_accepted(empty, "ab", 2)) == []


def test_enumerate_accepted_on_worked_example(fanout_automaton):
    assert texts(enumerate_accepted(fanout_automaton, "ab", 4)) == [
        "a||b",
        "a||b||b",
        "a||b||b||b",
    ]


def test_enumerate_accepted_follows_the_answer_not_the_universe(fanout_automaton):
    # the universe of 8 commutative atoms over ab is past the default cap
    assert texts(enumerate_accepted(fanout_automaton, "ab", 8)) == [
        "a||" + "||".join("b" * k) for k in range(1, 8)
    ]


def test_enumerate_accepted_cap_counts_state_pair_words(pairs_grammar, monkeypatch):
    aut = from_linear_grammar(pairs_grammar)
    monkeypatch.setattr("splang.automata.DEFAULT_CAP", 10)
    with pytest.raises(EnumerationCapError, match=r"cap \(10\)"):
        enumerate_accepted(aut, "ab", 6)


def test_enumerate_accepted_cap_counts_each_run_once(monkeypatch):
    # 3 letter loops on one state: 120 nonempty words of up to 4 atoms and the
    # empty run make 121 (state pair, word) pairs; the compiled grammar holds
    # the accepted words again under its start symbol, which is not counted
    aut = parse_automaton("states: p\ninitial: p\nfinal: p\nseq: p a p\nseq: p b p\nseq: p c p\n")
    monkeypatch.setattr("splang.automata.DEFAULT_CAP", 121)
    assert len(enumerate_accepted(aut, "abc", 4)) == 121
    monkeypatch.setattr("splang.automata.DEFAULT_CAP", 120)
    with pytest.raises(EnumerationCapError, match=r"^automaton words exceed the cardinality cap \(120\)$"):
        enumerate_accepted(aut, "abc", 4)


def test_enumerate_accepted_checks_its_bounds(fanout_automaton):
    with pytest.raises(ValueError):
        enumerate_accepted(fanout_automaton, "ab", -1)
    with pytest.raises(ValueError):
        enumerate_accepted(fanout_automaton, "aB", 2)


# ---------------------------------------------------------------------------
# the automaton's grammar against the run oracle

HAND_WRITTEN = {
    # a||a.b has the atoms of a listed multiset but is not flat
    "guard": (
        "states: p q1 q2 m r1 r2 s t u v q\n"
        "initial: p\nfinal: q\n"
        "seq: m b r2\nseq: q1 a r1\nseq: q2 a m\nseq: q2 a r2\nseq: q2 b r2\n"
        "seq: s a u\nseq: t b v\n"
        "fork: F1 p -> {q1, q2}\nfork: F2 q2 -> {s, t}\n"
        "join: J1 {r1, r2} -> q\njoin: J2 {u, v} -> r2\n"
        "par: F1 {a,a,b;a,b} J1\npar: F2 * J2\n"
    ),
    "two-pars-one-pair": (
        "states: p q1 q2 r1 r2 q\n"
        "initial: p\nfinal: q\n"
        "seq: q a q\nseq: q1 a r1\nseq: q1 b r1\nseq: q2 a r2\nseq: q2 b r2\n"
        "fork: F1 p -> {q1, q2}\njoin: J1 {r1, r2} -> q\n"
        "par: F1 {a,a} J1\npar: F1 {b,b} J1\n"
    ),
    "arity-mismatch": (
        "states: p q1 q2 q3 r1 r2 q\n"
        "initial: p\nfinal: q\n"
        "seq: p c q\nseq: q1 a r1\nseq: q2 b r2\nseq: q3 c r2\n"
        "fork: F1 p -> {q1, q2, q3}\njoin: J1 {r1, r2} -> q\n"
        "par: F1 * J1\n"
    ),
    "nested-repeated": (
        "states: p q r s u f\n"
        "initial: p\nfinal: f\n"
        "seq: f a p\nseq: q a r\nseq: q b q\nseq: r c r\nseq: s a u\nseq: s b u\n"
        "fork: F1 p -> {q, q}\nfork: F2 q -> {q, s, s}\n"
        "join: J1 {r, r} -> f\njoin: J2 {r, u, u} -> r\n"
        "par: F1 * J1\npar: F2 * J2\n"
    ),
    "initial-is-final": (
        "states: p q\n"
        "initial: p q\nfinal: p\n"
        "seq: p a q\nseq: q b p\n"
        "fork: F1 q -> {p, q}\njoin: J1 {p, q} -> p\n"
        "par: F1 * J1\n"
    ),
    # deciding F1's words needs F2's smaller words settled first
    "nested-guards": (
        "states: p q1 q2 r1 r2 s t u v q\n"
        "initial: p\nfinal: q\n"
        "seq: q1 a r1\nseq: s a u\nseq: s b u\nseq: t b v\n"
        "fork: F1 p -> {q1, q2}\nfork: F2 q2 -> {s, t}\n"
        "join: J1 {r1, r2} -> q\njoin: J2 {u, v} -> r2\n"
        "par: F1 {a,a,b;a,b,b} J1\npar: F2 {a,b} J2\n"
    ),
    "unreachable": (
        "states: p q x y z\n"
        "initial: p\nfinal: q\n"
        "seq: p a q\nseq: x b y\nseq: y a q\nseq: z c z\n"
        "fork: F1 x -> {y, z}\njoin: J1 {q, z} -> q\n"
        "par: F1 * J1\n"
    ),
}


def check_against_the_universe_filter(aut, alphabet, max_atoms):
    """enumerate_accepted at every bound up to max_atoms, against the
    universe filtered through the run oracle; the oracle's words at a smaller
    bound are those of the largest with that many atoms."""
    oracle = oracle_accepted(aut, alphabet, max_atoms)
    for n in range(max_atoms + 1):
        want = [format_term(t) for t in oracle if atoms_count(t) <= n]
        assert texts(enumerate_accepted(aut, alphabet, n)) == want, (alphabet, n)


@pytest.mark.parametrize("alphabet", ["a", "ab", "abc"])
def test_fixpoint_agrees_with_the_universe_filter_on_fixtures(pairs_grammar, fanout_grammar, alphabet):
    for g in (pairs_grammar, fanout_grammar):
        check_against_the_universe_filter(from_linear_grammar(g), alphabet, 5)


@pytest.mark.parametrize("alphabet,max_atoms", [("ab", 4), ("abc", 3)])
def test_fixpoint_agrees_with_the_universe_filter_on_seeded_automata(alphabet, max_atoms):
    for seed in range(100):
        aut = from_linear_grammar(random_parallel_linear_grammar(seed, tuple(alphabet)))
        check_against_the_universe_filter(aut, alphabet, max_atoms)


@pytest.mark.parametrize("name", sorted(HAND_WRITTEN))
def test_fixpoint_agrees_with_the_universe_filter_on_hand_written_automata(name):
    aut = parse_automaton(HAND_WRITTEN[name])
    assert enumerate_accepted(aut, "abc", 5)  # every case accepts something
    for alphabet in ("a", "ab", "abc"):
        check_against_the_universe_filter(aut, alphabet, 5)


def test_nested_guards_are_settled_smallest_first():
    aut = parse_automaton(HAND_WRITTEN["nested-guards"])
    assert accepts(aut, pt("a||a||b"))
    assert not accepts(aut, pt("a||b||b"))  # F2 would need b||b, which its guard forbids
    assert texts(enumerate_accepted(aut, "ab", 5)) == ["a||a||b"]


def test_to_grammar_names_only_pairs_joined_by_a_path():
    # steps p-q, x-y, y-q, z-z and the fork/join x-q; no path leaves q
    aut = parse_automaton(HAND_WRITTEN["unreachable"])
    g = to_grammar(aut)
    assert len(g.nonterminals) == 1 + 5  # S, and N of each pair
    assert generate(g, 4, mode=COMMUTATIVE) == enumerate_accepted(aut, "abc", 4)


@pytest.mark.parametrize("loop, factor", [
    ("seq: p a p\nseq: p b p\n", None),
    ("seq: x a u\nseq: y b v\nfork: F p -> {x, y}\njoin: J {u, v} -> p\npar: F * J\n", "a||b"),
], ids=["letters", "parallel"])
def test_long_seq_words_are_decided(loop, factor):
    # a step takes exactly one Seq factor, so the search makes a goal per
    # state pair and suffix, far under the cap of 200,000 goals
    aut = parse_automaton("states: p q u v x y\ninitial: p\nfinal: q\nseq: p c q\n" + loop)
    factors = [parse_term(factor or "ab"[i * i % 7 % 2]) for i in range(640)]
    word = seq(*factors)
    assert not accepts(aut, word)
    assert accepts(aut, seq(word, parse_term("c")))
    assert runs_between(aut, "p", word) == {"p"}


@pytest.mark.parametrize("text", ["z", "a.z", "a||z", "A", "a.S", "a||N_0"])
def test_a_foreign_leaf_is_not_accepted(text):
    # S and N_0 name nonterminals of the automaton's grammar; z labels no transition
    aut = parse_automaton("states: p q\ninitial: p\nfinal: p\nseq: p a p\nseq: p b p\n")
    assert accepts(aut, pt("a.b"))
    assert not accepts(aut, parse_term(text, allow_upper=True))


def test_a_wide_commutative_word_is_rejected_through_the_grammar_and_its_automaton():
    # S -> a||S | ... | j||S | z||z rejects a||...||j||z. The automaton's forms put the unbounded part first: the
    # one atom the part after it can take leaves that share all the factors but one, as the grammar's `a` takes one.
    letters = "abcdefghij"
    g = parse_grammar("S -> " + " | ".join(f"{c}||S" for c in letters) + " | z||z\n")
    word = parse_term("||".join(letters + "z"))
    assert not is_member(g, word, COMMUTATIVE)
    assert not accepts(from_linear_grammar(g), word)


def differential_automata():
    """(name, automaton): both bench fixtures, the automata of 60 seeded
    parallel-linear grammars, and every hand-written case."""
    for path in sorted(BENCH_DATA.glob("*.aut")):
        yield path.stem, parse_automaton(path.read_text(encoding="utf-8"))
    for seed in range(60):
        yield f"seed-{seed}", from_linear_grammar(random_parallel_linear_grammar(seed))
    for name in sorted(HAND_WRITTEN):
        yield name, parse_automaton(HAND_WRITTEN[name])


def test_runs_and_acceptance_agree_with_the_run_oracle():
    terms = binary_universe("abc", 4, COMMUTATIVE)
    for name, aut in differential_automata():
        runs, accepted = oracle_runner(aut), oracle_acceptor(aut)
        for t in terms:
            assert accepts(aut, t) == accepted(t), (name, format_term(t))
            for state in sorted(aut.states):
                assert runs_between(aut, state, t) == runs(state, t), (name, state, format_term(t))


# ---------------------------------------------------------------------------
# construction from grammars

def test_single_production_grammar_gives_two_states():
    aut = from_linear_grammar(parse_grammar("S -> a\n"))
    assert aut.states == {"entry_S", "ret_S"}
    assert len(aut.seqs) == 1 and not aut.forks
    assert texts(enumerate_accepted(aut, "a", 2)) == ["a"]


def test_worked_example_has_two_fork_join_pairs(fanout_automaton):
    assert len(fanout_automaton.forks) == 2
    assert len(fanout_automaton.joins) == 2
    assert len(fanout_automaton.seqs) == 3  # two branch atoms plus B -> b
    assert automaton_alphabet(fanout_automaton) == ("a", "b")


def test_non_linear_grammar_rejected(branches_grammar):
    with pytest.raises(NotParallelLinearError):
        from_linear_grammar(branches_grammar)


def equivalent_at(g, bound):
    aut = from_linear_grammar(g)
    generated = generate(g, bound, mode=COMMUTATIVE)
    alphabet = sorted(g.terminals)
    accepted = enumerate_accepted(aut, alphabet, bound)
    return lang_equal(generated, accepted)


def test_bounded_equivalence_on_fixtures(pairs_grammar, fanout_grammar):
    assert equivalent_at(pairs_grammar, 6)
    assert equivalent_at(fanout_grammar, 5)


def test_bounded_equivalence_on_seeded_grammars():
    for seed in range(20):
        diff = equivalent_at(random_parallel_linear_grammar(seed), 5)
        assert diff, f"seed {seed}: {diff.report()}"


def test_epsilon_continuations_do_not_leak():
    # continuation that only vanishes: the fork variant without it must exist
    g = parse_grammar("S -> a||b||W\nW -> eps\n")
    aut = from_linear_grammar(g)
    assert accepts(aut, pt("a||b"))
    assert not accepts(aut, pt("eps"))
    assert equivalent_at(g, 4)


def test_epsilon_start_does_not_chain():
    # S -> a | eps accepts a and eps but no longer sequential words
    g = parse_grammar("S -> a | eps\n")
    aut = from_linear_grammar(g)
    assert accepts(aut, pt("eps")) and accepts(aut, pt("a"))
    assert not accepts(aut, pt("a.a"))
    assert equivalent_at(g, 4)


def test_accepted_words_are_parallel_words(fanout_grammar):
    fixtures = [fanout_grammar] + [random_parallel_linear_grammar(s) for s in range(10)]
    for g in fixtures:
        aut = from_linear_grammar(g)
        for t in enumerate_accepted(aut, "ab", 4):
            assert is_parallel_word(t)


def test_removing_a_join_shrinks_the_language(fanout_automaton):
    lost_join = fanout_automaton.joins[0].jid
    aut = fanout_automaton
    mutated = BranchingAutomaton(
        aut.states, aut.seqs, aut.forks,
        joins=tuple(j for j in aut.joins if j.jid != lost_join),
        pars=tuple(p for p in aut.pars if p.join_id != lost_join),
        initial=aut.initial, final=aut.final,
    )
    before = enumerate_accepted(fanout_automaton, "ab", 4)
    after = enumerate_accepted(mutated, "ab", 4)
    diff = lang_equal(before, after)
    assert not diff
    assert diff.only_left  # witnesses for the lost words


# ---------------------------------------------------------------------------
# guards

def test_guard_restricts_multisets():
    text = (
        "states: p q1 q2 r1 r2 q\n"
        "initial: p\nfinal: q\n"
        "seq: q1 a r1\nseq: q2 b r2\nseq: q2 a r2\n"
        "fork: F1 p -> {q1, q2}\n"
        "join: J1 {r1, r2} -> q\n"
        "par: F1 {a,b} J1\n"
    )
    aut = parse_automaton(text)
    unguarded = BranchingAutomaton(
        aut.states, aut.seqs, aut.forks, aut.joins, (ParTransition("F1", None, "J1"),), aut.initial, aut.final
    )
    for accepted in (accepts, lambda a, t: oracle_acceptor(a)(t)):
        assert accepted(aut, pt("a||b"))
        assert not accepted(aut, pt("a||a"))  # run exists but the guard forbids it
        assert accepted(unguarded, pt("a||a"))


def test_observed_guards_preserve_the_bounded_language(fanout_grammar):
    fixtures = [fanout_grammar] + [random_parallel_linear_grammar(s) for s in range(10)]
    for g in fixtures:
        aut = from_linear_grammar(g)
        uni = enumerate_terms("ab", 5, COMMUTATIVE)
        flat, nonflat = observe_par_guards(aut, uni)
        pinned = with_observed_guards(aut, flat, nonflat)
        assert lang_equal(
            enumerate_accepted(aut, "ab", 5), enumerate_accepted(pinned, "ab", 5)
        )


def test_constructed_guards_fire_only_on_flat_words(fanout_automaton):
    flat, nonflat = observe_par_guards(
        fanout_automaton, enumerate_terms("ab", 5, COMMUTATIVE)
    )
    assert not nonflat
    assert flat  # both par transitions fire somewhere


# ---------------------------------------------------------------------------
# canonical by construction

def test_library_operations_build_canonical_words_without_canonicalize(
    monkeypatch, pairs_grammar, branches_grammar, fanout_grammar, fan_tail_grammar
):
    from splang import automata, grammars, langs

    fixtures = (pairs_grammar, branches_grammar, fanout_grammar, fan_tail_grammar)
    auts = [from_linear_grammar(g) for g in (pairs_grammar, fanout_grammar)]
    operands = [
        (langs.FiniteLang.parse(["a", "b||a", "(b||a).a", "eps"], mode),
         langs.FiniteLang.parse(["b", "b.a||a"], mode))
        for mode in (ORDERED, COMMUTATIVE)
    ]
    calls = []  # the terms canonicalized while the operations run
    for module in (langs, grammars, automata):
        original = module.canonicalize
        monkeypatch.setattr(module, "canonicalize", lambda t, mode=ORDERED, f=original: calls.append(t) or f(t, mode))
    results = [generate(g, 5, mode=mode) for g in fixtures for mode in (ORDERED, COMMUTATIVE)]
    results += [enumerate_accepted(aut, automaton_alphabet(aut), 5) for aut in auts]
    for l1, l2 in operands:
        results += [langs.concat_lang(l1, l2), langs.par_lang(l1, l2), langs.union_lang(l1, l2)]
        results += [langs.power(l1, 2, kind) for kind in langs.PowerKind]
        results += [langs.kleene_bounded(l2, kind, 2) for kind in langs.ClosureKind]
        results.append(langs.reverse_lang(l1))
    assert calls == []
    monkeypatch.undo()
    for lang in results:
        assert langs.FiniteLang.of(lang, lang.mode) == lang
