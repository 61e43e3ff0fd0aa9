import copy
import functools
import itertools
import math
import operator
import pickle
import random
import re
import sys
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    OracleCapError,
    binary_universe,
    bfs_derive,
    check_trace,
    fixpoint_words,
    goal_trace,
    oracle_classes,
    oracle_words,
    path_atoms,
    random_general_grammar,
)
from splang import grammars
from splang._partitions import multiset_splits
from splang._lex import MAX_NESTING
from splang.errors import EnumerationCapError, TermSyntaxError
from splang.grammars import (
    Grammar,
    MembershipResult,
    Production,
    ProductionShape,
    classify_grammar,
    format_grammar,
    generate,
    is_member,
    parse_grammar,
    production_shapes,
    random_parallel_linear_grammar,
    _MemberSearch,
    _Node,
    _count_splits,
    _fits,
    _least,
    _letter_fields,
    _one_factor_splits,
    _takes,
    _width,
    symbols_of,
)
from splang.langs import lang_equal
from splang.terms import (
    COMMUTATIVE,
    EPS,
    ORDERED,
    Eps,
    Leaf,
    Par,
    Seq,
    atoms_count,
    canonicalize,
    depth,
    enumerate_terms,
    format_term,
    is_parallel_word,
    length,
    par,
    parse_term,
    seq,
    _COUNT,
    _WIDTH,
    _parikh,
    _products,
    _runs,
)


def pt(text):
    return parse_term(text)


def texts(lang):
    return [format_term(t) for t in lang]


UNIT_CHAIN = "S -> A||A||A||A||a\nA -> B\nB -> C\nC -> eps\n"


@pytest.fixture
def fixture_grammars(pairs_grammar, branches_grammar, fanout_grammar, fan_tail_grammar):
    return [pairs_grammar, branches_grammar, fanout_grammar, fan_tail_grammar]


# ---------------------------------------------------------------------------
# parsing

def test_parse_single_rule_grammar(pairs_grammar):
    assert pairs_grammar.start == "S"
    assert pairs_grammar.nonterminals == {"S"}
    assert pairs_grammar.terminals == {"a", "b"}
    assert [format_term(p.rhs) for p in pairs_grammar.productions] == ["a||b||S", "a||b", "eps"]


def test_parse_multi_rule_grammar(branches_grammar):
    assert branches_grammar.start == "S"
    assert branches_grammar.nonterminals == {"S", "A", "B"}
    assert len(branches_grammar.productions) == 5


def test_undeclared_nonterminal_rejected():
    with pytest.raises(TermSyntaxError):
        parse_grammar("S -> X\n")


@pytest.mark.parametrize("nonterminals,terminals,productions,start,message", [
    ({"S"}, {"a"}, (), "S", "a grammar needs at least one production"),
    ({"S"}, {"a"}, (Production("S", Leaf("a")),), "A", "start symbol 'A' is not a nonterminal"),
    ({"S"}, {"a"}, (Production("A", Leaf("a")),), "S", "production head 'A' not declared"),
    ({"S"}, {"a"}, (Production("S", Leaf("b")),), "S", "undeclared terminal 'b' in S -> b"),
])
def test_the_grammar_constructor_checks_its_fields(nonterminals, terminals, productions, start, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Grammar(frozenset(nonterminals), frozenset(terminals), productions, start)


def test_a_grammar_of_no_productions_is_refused():
    with pytest.raises(ValueError, match="^a grammar needs at least one production$"):
        Grammar.of([])


@pytest.mark.parametrize("bad", ["S -> a |\n", "-> a\n", "s -> a\n", "S -> (a|b)\n", "S ->\n"])
def test_grammar_syntax_errors(bad):
    with pytest.raises(TermSyntaxError):
        parse_grammar(bad)


def test_indexed_nonterminals():
    text = "S -> A_1||A_1\nA_1 -> a | b\n"
    g = parse_grammar(text)
    assert g.nonterminals == {"S", "A_1"}
    assert format_grammar(g) == text
    assert texts(generate(g, 2)) == ["a||a", "a||b", "b||a", "b||b"]
    for mode in (ORDERED, COMMUTATIVE):
        result = is_member(g, pt("b||a"), mode)
        assert result and Leaf("A_1") in result.trace[1].children
        check_trace(g, pt("b||a"), mode, result.trace)
        assert not is_member(g, pt("a.b"), mode)


def test_format_round_trip(branches_grammar):
    text = format_grammar(branches_grammar)
    again = parse_grammar(text)
    assert again == branches_grammar
    assert format_grammar(again) == text


def test_repeated_heads_merge():
    g = parse_grammar("S -> a\nS -> b\n")
    assert [format_term(p.rhs) for p in g.productions] == ["a", "b"]
    assert format_grammar(parse_grammar("S -> a\nA -> b\nS -> A\n")) == "S -> a | A\nA -> b\n"


def test_format_grammar_puts_the_start_first():
    g = Grammar.of([Production("A", Leaf("b")), Production("S", Seq((Leaf("a"), Leaf("A"))))], start="S")
    text = format_grammar(g)
    assert text == "S -> a.A\nA -> b\n"
    again = parse_grammar(text)
    assert again.start == "S" and set(again.productions) == set(g.productions)


# ---------------------------------------------------------------------------
# classification

def test_fanout_grammar_is_parallel_linear(fanout_grammar):
    cls = classify_grammar(fanout_grammar)
    assert cls.parallel_linear and cls.sp_regular and cls.cf_parallel
    assert not cls.right_linear and not cls.left_linear
    assert cls.flags() == ("PARALLEL_LINEAR", "SP_REGULAR", "CF_PARALLEL", "CF_SP")


def test_fan_tail_grammar_is_mixed_regular(fan_tail_grammar):
    cls = classify_grammar(fan_tail_grammar)
    assert cls.sp_regular
    assert not (cls.right_linear or cls.left_linear or cls.parallel_linear)
    # production shapes: S -> A.a is left-linear, A -> a||A parallel-linear, A -> b terminal
    assert cls.shapes[0] == {ProductionShape.LEFT_LINEAR}
    assert cls.shapes[1] == {ProductionShape.PARALLEL_LINEAR}
    assert cls.shapes[2] == {ProductionShape.TERMINAL}


def test_branch_grammar_is_only_context_free(branches_grammar):
    cls = classify_grammar(branches_grammar)
    assert cls.cf_sp and not cls.sp_regular and not cls.cf_parallel
    assert cls.flags() == ("CF_SP",)


def test_right_linear_shapes():
    g = parse_grammar("S -> a.b.S | b\n")
    cls = classify_grammar(g)
    assert cls.right_linear and cls.sp_regular and cls.cf_sequential
    assert production_shapes(g.productions[0].rhs) == {ProductionShape.RIGHT_LINEAR}


def test_terminal_word_must_fit_the_family():
    # a sequential terminal word disqualifies the parallel-linear family
    g = parse_grammar("S -> a||S | a.b\n")
    cls = classify_grammar(g)
    assert not cls.parallel_linear
    assert cls.sp_regular  # still terminal-or-linear production-wise


def test_middle_nonterminal_is_not_linear():
    g = parse_grammar("S -> a||S||b | a\n")
    cls = classify_grammar(g)
    assert not cls.parallel_linear
    assert not cls.sp_regular


# a unit production, a middle nonterminal, a nested terminal word, both Seq ends, two nonterminals, and eps
SHAPE_EDGES = ["S -> B\nB -> b\n", "S -> a||S||b | a\n", "S -> a.(b||c)\n", "S -> B.a.b | a.b.S\nB -> S.a | a\n",
               "S -> A.B | A||B | eps\nA -> a\nB -> b.a\n"]


def test_shapes_and_families_agree_with_their_definitions(fixture_grammars):
    seeded = [random_general_grammar(seed) for seed in range(300)]
    seeded += [random_parallel_linear_grammar(seed) for seed in range(300)]
    for g in fixture_grammars + [parse_grammar(text) for text in SHAPE_EDGES] + seeded:
        cls = classify_grammar(g)
        assert (cls.flags(), cls.shapes) == oracle_classes(g), format_grammar(g)
        assert tuple(production_shapes(p.rhs) for p in g.productions) == cls.shapes


@pytest.mark.parametrize("text,reading", [
    ("a.b.S", (ProductionShape.RIGHT_LINEAR, ("a", "b"), "S")),
    ("S.a.b", (ProductionShape.LEFT_LINEAR, ("a", "b"), "S")),
    ("b||a||S", (ProductionShape.PARALLEL_LINEAR, ("b", "a"), "S")),
    ("S||b||a", (ProductionShape.PARALLEL_LINEAR, ("b", "a"), "S")),
    ("b||a", (ProductionShape.TERMINAL, ("b", "a"), None)),
    ("a.(b||c)", (ProductionShape.TERMINAL, ("a", "b", "c"), None)),
    ("eps", (ProductionShape.TERMINAL, (), None)),
    ("S", None), ("a||S||b", None), ("a.S.S", None), ("a.(b||S)", None),
])
def test_the_linear_reading_of_a_right_hand_side(text, reading):
    assert grammars._linear(parse_term(text, allow_upper=True)) == reading


def alternating_form(parens):
    """a.(b||a.(b||...c)) built in code, `parens` parentheses around c."""
    t = Leaf("c")
    for level in range(2 * parens):
        t = seq(Leaf("a"), t) if level % 2 else par(Leaf("b"), t)
    return t


def test_a_production_form_no_grammar_text_can_hold_is_refused():
    # a grammar text puts at most MAX_NESTING parentheses around an atom, and planning a deeper form built in
    # code would recurse past the stack; 5,000 parentheses are 10,000 levels
    g = Grammar.of([Production("S", alternating_form(MAX_NESTING))])
    assert parse_grammar(format_grammar(g)) == g
    assert is_member(g, alternating_form(MAX_NESTING))
    for parens in (MAX_NESTING + 1, 5_000):
        with pytest.raises(ValueError, match=r"^production form nests deeper than the nesting limit \(100\)$"):
            Production("S", alternating_form(parens))


# ---------------------------------------------------------------------------
# generation

def test_pairs_grammar_language(pairs_grammar):
    out = generate(pairs_grammar, 6)
    assert texts(out) == ["a||b", "a||b||a||b", "a||b||a||b||a||b", "eps"]
    assert EPS in set(out.terms)  # the explicit eps production contributes


def test_branch_grammar_language(branches_grammar):
    out = generate(branches_grammar, 4)
    assert texts(out) == [
        "a.a.a||b",
        "a.a||b",
        "a.a||b.b",
        "a||b",
        "a||b.b",
        "a||b.b.b",
    ]
    # all words are a-run beside b-run with both runs nonempty
    for t in out:
        m = format_term(t)
        assert m.count("||") == 1


def test_fanout_grammar_language(fanout_grammar):
    out = generate(fanout_grammar, 3)
    assert texts(out) == ["a||b", "a||b||b"]
    wider = generate(fanout_grammar, 4)
    assert texts(wider) == ["a||b", "a||b||b", "a||b||b||b"]
    for t in wider:
        assert is_parallel_word(t)


def test_fan_tail_grammar_language(fan_tail_grammar):
    out = generate(fan_tail_grammar, 5)
    assert texts(out) == ["(a||a||a||b).a", "(a||a||b).a", "(a||b).a", "b.a"]
    for t in out:
        assert length(t) == 2
        assert depth(t) == atoms_count(t) - 1


def test_generate_monotone_in_bounds(branches_grammar):
    prev = set()
    for max_atoms in range(0, 5):
        cur = set(generate(branches_grammar, max_atoms).terms)
        assert prev <= cur
        prev = cur
    prev = set()
    for steps in range(0, 10):
        cur, _ = bfs_derive(branches_grammar, 4, steps)
        assert prev <= cur
        prev = cur


@pytest.mark.parametrize("mode", [ORDERED, COMMUTATIVE])
def test_generate_refuses_a_negative_bound(branches_grammar, mode):
    with pytest.raises(ValueError, match=r"^max_atoms must be >= 0$"):
        generate(branches_grammar, -1, mode=mode)


def test_generate_commutative_mode(pairs_grammar):
    out = generate(pairs_grammar, 4, mode=COMMUTATIVE)
    assert texts(out) == ["a||a||b||b", "a||b", "eps"]


@pytest.mark.parametrize("mode", [ORDERED, COMMUTATIVE])
def test_generate_cap_counts_no_copy_nonterminal(mode):
    # S and A only copy B's words: the 2 + 4 + 8 + 16 nonempty sequential words
    g = parse_grammar("S -> A | eps\nA -> B\nB -> a | b | B.B\n")
    assert len(generate(g, 4, mode=mode, cap=30)) == 31
    with pytest.raises(EnumerationCapError, match=r"^grammar words exceed the cardinality cap \(29\)$"):
        generate(g, 4, mode=mode, cap=29)


@pytest.mark.parametrize("mode", [ORDERED, COMMUTATIVE])
def test_ambiguous_universe_grammar_generates_the_universe(mode):
    g = parse_grammar("S -> eps | T\nT -> a | b | T.T | T||T\n")
    assert generate(g, 5, mode=mode).terms == binary_universe("ab", 5, mode)


def test_parallel_linear_grammars_generate_parallel_words(fanout_grammar):
    fixtures = [fanout_grammar] + [random_parallel_linear_grammar(seed) for seed in range(20)]
    for g in fixtures:
        assert classify_grammar(g).parallel_linear
        for t in generate(g, 5):
            assert is_parallel_word(t)


def test_cf_parallel_grammars_avoid_seq_nodes(pairs_grammar, fanout_grammar):
    for g in (pairs_grammar, fanout_grammar):
        assert classify_grammar(g).cf_parallel
        for t in generate(g, 5):
            assert "." not in format_term(t)


# ---------------------------------------------------------------------------
# membership

def test_membership_with_trace(branches_grammar):
    result = is_member(branches_grammar, pt("(a.a)||b"))
    assert result
    check_trace(branches_grammar, pt("(a.a)||b"), ORDERED, result.trace)
    assert [format_term(f) for f in result.trace] == [
        "S",
        "a.A||b.B",
        "a.A.a||b.B",
        "a.a||b.B",
        "a.a||b",
    ]


def test_membership_rejections(branches_grammar):
    assert not is_member(branches_grammar, pt("a.b"))
    assert not is_member(branches_grammar, pt("b||a"))  # ordered mode keeps branch order
    assert is_member(branches_grammar, pt("b||a"), COMMUTATIVE)


def test_membership_matches_generation(fan_tail_grammar):
    generated = set(generate(fan_tail_grammar, 4).terms)
    for t in enumerate_terms("ab", 4, ORDERED):
        assert bool(is_member(fan_tail_grammar, t)) == (t in generated)


def test_membership_of_eps(pairs_grammar):
    assert is_member(pairs_grammar, EPS)
    assert [format_term(f) for f in is_member(pairs_grammar, EPS).trace] == ["S", "eps"]


def test_unit_and_eps_chains_need_no_step_budget():
    g = parse_grammar(UNIT_CHAIN)
    result = is_member(g, pt("a"))
    assert result
    check_trace(g, pt("a"), ORDERED, result.trace)
    assert texts(generate(g, 1)) == ["a"]


def test_unit_cycle_accepts_with_a_finite_trace():
    g = parse_grammar("S -> A\nA -> B | a\nB -> A\n")
    for mode in (ORDERED, COMMUTATIVE):
        result = is_member(g, pt("a"), mode)
        assert [format_term(f) for f in result.trace] == ["S", "A", "a"]
        assert not is_member(g, pt("b"), mode)


def test_long_words_are_decided():
    word = pt(".".join("a" * 500))
    limit = sys.getrecursionlimit()
    for text in ("S -> a.S | eps\n", "S -> S.a | eps\n"):
        g = parse_grammar(text)
        assert len(is_member(g, word).trace) == 502
        assert not is_member(g, seq(word, Leaf("b")))
    assert sys.getrecursionlimit() == limit


def test_a_deeply_nested_term_is_decided():
    # built in code, 300 levels of a.(b||...) around a
    g = parse_grammar("S -> a.(b||S) | a\n")
    t = Leaf("a")
    for _ in range(300):
        t = Seq((Leaf("a"), Par((Leaf("b"), t))))
    assert len(is_member(g, t).trace) == 302


def test_a_term_nested_a_thousand_deep_is_decided():
    # built in code, 1,000 levels; the search raises the recursion limit only while it runs
    g = parse_grammar("S -> a.(b||S) | a\n")
    t = Leaf("a")
    for _ in range(1000):
        t = Seq((Leaf("a"), Par((Leaf("b"), t))))
    limit = sys.getrecursionlimit()
    trace = is_member(g, t).trace
    assert sys.getrecursionlimit() == limit
    assert len(trace) == 1002 and trace[-1] is t


def test_a_shared_term_of_two_to_the_41_atoms_is_decided():
    # built in code, 40 levels of (b.t)||(t.c) over the level below: the recursion limit the search would raise
    # for that many atoms does not fit a C int, but a call path never holds more goals than one pass may try
    t = Leaf("a")
    for _ in range(40):
        t = par(seq(Leaf("b"), t), seq(t, Leaf("c")))
    limit = sys.getrecursionlimit()
    assert not is_member(parse_grammar("S -> a | b.S | S.c\n"), t, ORDERED)
    assert sys.getrecursionlimit() == limit


def test_a_term_of_two_to_the_64_atoms_is_refused_not_misread():
    # (b.t)||(t.c) over b, a word of S at every level: 62 levels have 3 * 2**62 - 2 atoms, and 63 levels would
    # carry the atom count past its field into the letters'; the search (not `is_member`, whose proof tree has a
    # node per path) decides the first
    g = parse_grammar("S -> b | c | S.S | S||S\n")
    t = Leaf("b")
    for _ in range(62):
        t = par(seq(Leaf("b"), t), seq(t, Leaf("c")))
    assert _parikh(t) & _COUNT == 3 * 2**62 - 2 and _MemberSearch(g, ORDERED).proves(t)
    t = par(seq(Leaf("b"), t), seq(t, Leaf("c")))
    with pytest.raises(OverflowError, match=r"^a term of 2\*\*64 atoms or more has no Parikh vector$"):
        is_member(g, t, ORDERED)


def alternating(n: int):
    """n nested nodes built in code, alternating a.(...) and b||(...), the
    outermost a Seq when n is even, around a."""
    t = Leaf("a")
    for i in range(n):
        t = Par((Leaf("b"), t)) if i % 2 == 0 else Seq((Leaf("a"), t))
    return t


ALTERNATING = "S -> a.P | a\nP -> b||S | b\n"


@pytest.mark.parametrize("mode,n", [(ORDERED, 800), (COMMUTATIVE, 400)])
def test_a_deep_term_is_a_member_without_building_its_trace(mode, n):
    # a COMMUTATIVE trace of 400 nodes overflows the stack, so `is_member` must not build it
    g = parse_grammar(ALTERNATING)
    result = is_member(g, alternating(n), mode)  # canonicalizes the only copy
    assert result and len(result.proof) == n + 1
    assert [nt for nt, _ in result.proof] == ["S", "P"] * (n // 2) + ["S"]


def test_a_commutative_trace_of_a_deep_term_prints():
    query = canonicalize(alternating(400), COMMUTATIVE)
    trace = is_member(parse_grammar(ALTERNATING), alternating(400), COMMUTATIVE).trace
    assert len(trace) == 402 and trace[-1] is query
    lines = "\n".join(map(format_term, trace)).splitlines()
    assert len(lines) == 402 and lines[-1] == format_term(query)


def test_a_long_word_is_a_member_with_a_flat_proof():
    g = parse_grammar("S -> a.S | b.S | eps\n")
    word = pt(".".join("ab" * 640))  # 1,280 letters
    result = is_member(g, word)
    assert result and len(result.proof) == 1281
    # the proof is one flat tuple, so comparing and pickling it needs no recursion
    assert pickle.loads(pickle.dumps(result)) == result == is_member(g, word)


def test_is_member_builds_no_form_until_the_trace_is_read(monkeypatch, branches_grammar):
    def refuse(form, rhs):
        raise AssertionError("a sentential form was built")

    monkeypatch.setattr(grammars, "_expand_leftmost", refuse)
    for mode in (ORDERED, COMMUTATIVE):
        result = is_member(branches_grammar, pt("(a.a)||b"), mode)
        assert result and result.proof[0] == ("S", foreign_term("a.A||b.B"))
        with pytest.raises(AssertionError, match="a sentential form was built"):
            result.trace
    assert is_member(branches_grammar, pt("a.b")).trace is None


def test_membership_results_compare_copy_and_pickle_by_their_proof(branches_grammar):
    result = is_member(branches_grammar, pt("(a.a)||b"))
    forms = map(foreign_term, ["a.A||b.B", "A.a", "eps", "eps"])  # the pinned trace of `test_membership_with_trace`
    assert result.proof == tuple(zip("SAAB", forms))
    assert result == is_member(branches_grammar, pt("(a.a)||b")) and result.mode is ORDERED
    assert result != is_member(branches_grammar, pt("(a.a.a)||b"))
    assert result != MembershipResult(True, result.proof[:1] + result.proof[2:], ORDERED)
    assert result != MembershipResult(True, result.proof, COMMUTATIVE)  # the same tree, other forms
    for clone in (pickle.loads(pickle.dumps(result)), copy.copy(result), copy.deepcopy(result)):
        assert clone == result and hash(clone) == hash(result)
        assert clone.proof == result.proof and clone.trace == result.trace
    assert is_member(branches_grammar, pt("a.b")) == MembershipResult(False, None, ORDERED)


def test_an_accepted_long_word_tries_goals_linear_in_its_length():
    g = parse_grammar("S -> a.S | b.S | eps\n")
    goals = []
    for pairs in (320, 640):  # 640 and 1,280 letters
        search = _MemberSearch(g, ORDERED)
        assert search.proves(pt(".".join("ab" * pairs)))
        goals.append(len(search.tried))
    assert goals[1] <= 2.1 * goals[0]


def test_membership_goals_past_the_cap_raise(monkeypatch):
    monkeypatch.setattr("splang.grammars.DEFAULT_CAP", 3)
    g = parse_grammar("S -> A.b\nA -> a | A.a\n")
    assert is_member(g, pt("a.a.b"))  # 3 goals: (S, a.a.b), (A, a.a), (A, a)
    with pytest.raises(EnumerationCapError, match=r"^membership goals exceed the cardinality cap \(3\)$"):
        is_member(g, pt("a.a.a.b"))


# the nonterminals S and A, and a letter outside the grammar
FOREIGN = ["z", "a.z", "a||z", "A", "a.S", "a||A"]


def foreign_term(text):
    """`text` as a term built in code: its uppercase letters become leaves."""
    return parse_term(text, allow_upper=True)


@pytest.mark.parametrize("mode", [ORDERED, COMMUTATIVE])
@pytest.mark.parametrize("text", FOREIGN)
def test_a_foreign_leaf_is_not_a_member(text, mode):
    g = parse_grammar("S -> eps | A\nA -> a | A.A | A||A\n")
    assert is_member(g, pt("a.(a||a)"), mode)
    assert not is_member(g, foreign_term(text), mode)


def packed(t):
    """The Parikh vector of `t` from a count of its leaves: the atoms in field 0, a..z in fields 1..26 and any
    other symbol in field 27, for every grammar."""
    counts = Counter(symbols_of(t))
    fields = {s: ord(s) - ord("a") + 1 if s.islower() else 27 for s in counts}
    return sum(counts.values()) + sum(n << _WIDTH * fields[s] for s, n in counts.items())


fact_terms = st.recursive(
    st.sampled_from(["a", "b", "z", "S", "B_2"]).map(Leaf),  # with leaves a grammar names as nonterminals
    lambda inner: st.builds(lambda cs: seq(*cs), st.lists(inner, min_size=2, max_size=3))
    | st.builds(lambda cs: par(*cs), st.lists(inner, min_size=2, max_size=3)),
    max_leaves=7,
)


@settings(max_examples=300, deadline=None)
@given(fact_terms, st.sampled_from([ORDERED, COMMUTATIVE]), st.integers(0, 10_000), st.data())
def test_each_node_keeps_the_parikh_facts_of_its_atoms_whatever_grammar_asks(t, mode, seed, data):
    # two grammars over other letters query a term and its sub-terms in a drawn order; each answer agrees with
    # the generated words, and each node keeps the vector of its leaves and the sums and runs of its children's
    t = canonicalize(t, mode)
    nodes = _products(t)
    pair = (random_general_grammar(seed, ("a", "b")), random_general_grammar(seed + 1, ("b", "z")))
    words = [generate(g, path_atoms(t), mode=mode) for g in pair]
    queries = [(i, s) for i in range(2) for s in nodes + sorted(set(map(Leaf, symbols_of(t))), key=format_term)]
    for i, s in data.draw(st.permutations(queries)):
        assert bool(is_member(pair[i], s, mode)) == (s in words[i]), (format_grammar(pair[i]), format_term(s))
    for node in nodes:
        assert node._sums[-1] == _parikh(node) == packed(node)
        assert node._sums == tuple(itertools.accumulate(map(packed, node.children), initial=0))
        if isinstance(node, Par):
            firsts, counts = [], []
            for c in node.children:
                if firsts and firsts[-1] is c:
                    counts[-1] += 1
                else:
                    firsts.append(c)
                    counts.append(1)
            assert _runs(node) == (tuple(firsts), tuple(counts), tuple(map(packed, firsts)))


def letter_fields(letters):
    """Each letter's field in a Parikh vector, filled: a..z in fields 1..26, for every grammar."""
    return {c: _COUNT << _WIDTH * (ord(c) - ord("a") + 1) for c in letters}


def planned_letters(g, nonterminal):
    """The letters the grammar's plan lets the words of `nonterminal` have."""
    return {c for c, field in letter_fields(g.terminals).items() if field & g._allowed[nonterminal]}


@pytest.mark.parametrize("mode", [ORDERED, COMMUTATIVE])
def test_planned_facts_bound_the_generated_words(fixture_grammars, mode):
    for g in fixture_grammars + [random_general_grammar(seed) for seed in range(40)]:
        for nt in sorted(g.nonterminals):
            words = generate(Grammar(g.nonterminals, g.terminals, g.productions, nt), 5, mode=mode).terms
            least, letters = g._least[nt], planned_letters(g, nt)
            for w in words:
                assert path_atoms(w) >= least and set(symbols_of(w)) <= letters, (format_grammar(g), nt, w)
            if least <= 5:
                assert any(path_atoms(w) == least for w in words), (format_grammar(g), nt)


def most_of_low_trees(g, height):
    """Each nonterminal's most atoms over derivation trees at most `height` nonterminals high, those of the
    lower trees counting 0 atoms. With len(g.nonterminals) it is a finite most: a nonterminal met twice on a
    path of a largest tree adds no atom there, so the tree can be cut to that height."""
    productive = [p for p in g.productions if _least(p.rhs, g._least) < math.inf]
    most = dict.fromkeys(g.nonterminals, 0)
    for _ in range(height):
        most = {nt: max([sum(most[s] if s.isupper() else 1 for s in symbols_of(p.rhs))
                         for p in productive if p.lhs == nt], default=0) for nt in g.nonterminals}
    return most


# cycles that add no atom (the other leaf derives only eps, or there is none) and cycles that do
CYCLES = ["S -> S.B | a\nB -> eps\n", "S -> S||A | b\nA -> eps | B\nB -> A\n", "S -> T\nT -> S | a.b\n",
          "S -> a.S | b\n", "S -> A.A | a\nA -> S\n", "S -> A||b\nA -> B | eps\nB -> A.a | C\nC -> eps\n"]


def test_most_atoms_are_reached_and_never_passed(fixture_grammars):
    # a finite most is the size of the largest word and of the largest low tree; an infinite one is beaten by a
    # word larger than any finite one in the grammar, and by a tree higher than the low ones
    cycles = [parse_grammar(text) for text in CYCLES]
    assert [g._most[g.start] for g in cycles] == [1, 1, 2, math.inf, math.inf, math.inf]
    for g in cycles + fixture_grammars + [random_general_grammar(seed) for seed in range(40)]:
        productive = sorted(nt for nt in g.nonterminals if g._least[nt] < math.inf)
        finite = max((g._most[nt] for nt in productive if g._most[nt] < math.inf), default=0)
        low, high = most_of_low_trees(g, len(g.nonterminals)), most_of_low_trees(g, 200)
        for nt in productive:
            most = g._most[nt]
            bound = most + 1 if most < math.inf else max(finite + 1, g._least[nt]) + 4
            words = generate(Grammar(g.nonterminals, g.terminals, g.productions, nt), bound).terms
            largest = max(map(path_atoms, words))
            if most < math.inf:
                assert largest == most == low[nt] == high[nt], (format_grammar(g), nt)
            else:
                assert largest > finite and high[nt] > low[nt], (format_grammar(g), nt)


def form_width(form, kind, widths, least):
    """The most top-level `kind` factors of a word of `form`, walking the form: a `kind` node adds its
    children's; a node of the other operator is one factor when two children cannot derive eps, and otherwise
    has its largest child's (of the child that cannot, if there is one)."""
    if isinstance(form, Eps):
        return 0
    if isinstance(form, Leaf):
        return widths[kind][form.symbol] if form.symbol.isupper() else 1
    if isinstance(form, kind):
        return sum(form_width(c, kind, widths, least) for c in form.children)
    solid = [c for c in form.children if _least(c, least) > 0]
    return 1 if len(solid) > 1 else max(form_width(c, kind, widths, least) for c in solid or form.children)


def widths_of_low_trees(g, kind, height):
    """Each nonterminal's most top-level `kind` factors over derivation trees at most `height` nonterminals
    high, as `most_of_low_trees` counts atoms."""
    productive = [p for p in g.productions if _least(p.rhs, g._least) < math.inf]
    widths = {kind: dict.fromkeys(g.nonterminals, 0)}
    for _ in range(height):
        widths = {kind: {nt: max([form_width(p.rhs, kind, widths, g._least) for p in productive if p.lhs == nt],
                                 default=0) for nt in g.nonterminals}}
    return widths[kind]


def top_factors(t, kind):
    return len(t.children) if isinstance(t, kind) else int(not isinstance(t, Eps))


# cycles that add a factor of one operator only, a cycle in a Seq that takes one Par factor (as a closure
# `C -> eps | B.C` does), and a cycle whose other part derives only eps
WIDTH_CYCLES = ["S -> a||S | b\n", "C -> eps | b.C\n", "S -> A||b\nA -> eps | B.A\nB -> a\n",
                "S -> A||E\nA -> eps | E||A\nE -> eps\n"]


def test_most_factors_are_reached_and_never_passed(fixture_grammars):
    # a finite most is the most factors of a word up to the bound when every word is under it, and that of the
    # low trees; an infinite one is beaten by a word wider than any finite one, and by a tree higher than the low
    cycles = [parse_grammar(text) for text in WIDTH_CYCLES]
    assert [g._widths[Par][g.start] for g in cycles] == [math.inf, 1, 2, 0]
    assert [g._widths[Seq][g.start] for g in cycles] == [1, math.inf, 1, 0]
    for g in cycles + [parse_grammar(text) for text in CYCLES] + fixture_grammars + [
            random_general_grammar(seed) for seed in range(40)]:
        productive = sorted(nt for nt in g.nonterminals if g._least[nt] < math.inf)
        for kind in (Seq, Par):
            finite = max((g._widths[kind][nt] for nt in productive if g._widths[kind][nt] < math.inf), default=0)
            low, high = widths_of_low_trees(g, kind, len(g.nonterminals)), widths_of_low_trees(g, kind, 100)
            for nt in productive:
                width, most = g._widths[kind][nt], g._most[nt]
                bound = min(most, max(finite + 1, g._least[nt]) + 4)
                words = generate(Grammar(g.nonterminals, g.terminals, g.productions, nt), bound).terms
                largest = max(top_factors(t, kind) for t in words)
                if width < math.inf:
                    assert largest <= width == low[nt] == high[nt], (format_grammar(g), nt)
                    assert largest == width or most > bound, (format_grammar(g), nt)
                else:
                    assert largest > finite and high[nt] > low[nt], (format_grammar(g), nt)


def naive_facts(g):
    """Each nonterminal's fewest atoms, letter fields, most atoms and most top-level factors of each operator,
    by fixpoints over the whole grammar at once, with no component order: a nonterminal is pumped when a
    production of it names one that reaches it back beside a leaf that derives an atom, and its most is inf
    when it reaches a pumped one. The factors are found alike, over the leaves whose factors a form's words can
    have and a form's most factors (`_takes`, `_width`)."""
    def fixpoint(values, step, productions):
        while True:
            new = dict(values)
            for p in productions:
                new[p.lhs] = step(p.rhs, new[p.lhs], new)
            if new == values:
                return values
            values = new

    least = fixpoint(dict.fromkeys(g.nonterminals, math.inf), lambda rhs, n, v: min(n, _least(rhs, v)), g.productions)
    productive = [p for p in g.productions if _least(p.rhs, least) < math.inf]
    fields = letter_fields(g.terminals)
    allowed = fixpoint(dict.fromkeys(g.nonterminals, 0),
                       lambda rhs, m, v: m | _letter_fields(rhs, v, fields), productive)

    reach = {nt: {nt} for nt in g.nonterminals}  # nt -> what it reaches by zero or more names
    reach = fixpoint(reach, lambda rhs, r, v: r.union(*(v[s] for s in symbols_of(rhs) if s.isupper())), productive)
    pumped = {p.lhs for p in productive for leaves in [list(symbols_of(p.rhs))] for i, s in enumerate(leaves)
              if s.isupper() and p.lhs in reach[s]
              and any(x.islower() or allowed[x] for x in leaves[:i] + leaves[i + 1 :])}
    most = fixpoint({nt: math.inf if reach[nt] & pumped else 0 for nt in g.nonterminals},
                    lambda rhs, m, v: max(m, sum(v[s] if s.isupper() else 1 for s in symbols_of(rhs))), productive)

    def widths(kind):
        reach = {nt: {nt} for nt in g.nonterminals}  # nt -> what its words can have the factors of
        reach = fixpoint(reach, lambda rhs, r, v: r.union(*(v[s] for s, _ in _takes(rhs, kind, least, allowed))),
                         productive)
        pumped = {p.lhs for p in productive for s, beside in _takes(p.rhs, kind, least, allowed)
                  if beside and p.lhs in reach[s]}
        return fixpoint({nt: math.inf if reach[nt] & pumped else 0 for nt in g.nonterminals},
                        lambda rhs, m, v: max(m, _width(rhs, kind, v, least)), productive)

    return least, allowed, most, {kind: widths(kind) for kind in (Seq, Par)}


def test_planning_finds_components_once_per_graph(fixture_grammars, monkeypatch):
    # the productions' graph, the productive productions' graph (the order of every fact but the fewest atoms,
    # and the graph of the most atoms), the graphs of the most factors of each operator and the schedule's
    # pass-through graph
    calls = []
    components = grammars._components
    monkeypatch.setattr(grammars, "_components", lambda graph: calls.append(graph) or components(graph))
    for g in fixture_grammars + [random_general_grammar(seed) for seed in range(60)]:
        calls.clear()
        planned = Grammar(g.nonterminals, g.terminals, g.productions, g.start)
        assert len(calls) == 5
        assert (planned._least, planned._allowed, planned._most, planned._widths) == naive_facts(g), format_grammar(g)


def planned_nodes(node):
    """`node` and the nodes of its parts, depth first."""
    yield node
    for part in node.parts or ():
        yield from planned_nodes(part)


def test_every_planned_node_has_the_facts_of_its_form(fixture_grammars):
    # the plan sums and ANDs its parts' facts; the leaf walks recompute them from each form
    for g in fixture_grammars + [random_general_grammar(seed) for seed in range(40)]:
        fields = letter_fields(g.terminals)

        def least(forms):
            return sum(_least(f, g._least) for f in forms)

        def most(forms):
            return sum(g._most[s] if s.isupper() else 1 for f in forms for s in symbols_of(f))

        def forbid(forms):
            return ~(_COUNT | functools.reduce(operator.or_, (_letter_fields(f, g._allowed, fields) for f in forms)))

        def width(forms, kind):
            return sum(form_width(f, kind, g._widths, g._least) for f in forms)

        for node in (n for plans in g._plans.values() for top in plans for n in planned_nodes(top)):
            facts = (least([node.form]), most([node.form]), forbid([node.form]))
            assert (node.least, node.most, node.forbid) == facts, format_grammar(g)
            if node.parts is None:
                continue
            kind = type(node.form)
            assert [part.index for part in node.parts] == list(range(len(node.parts)))
            assert [part.width for part in node.parts] == [width([p.form], kind) for p in node.parts]
            # the commutative order: the same part nodes, fewest factors first, ties in leaf order
            order = sorted(node.parts, key=lambda p: (p.width, p.index))
            assert list(node.commuted[0]) == order
            for parts, rests in ((node.parts, node.rests), node.commuted):
                assert len(rests) == len(parts)
                for j, rest in enumerate(rests):
                    later = [p.form for p in parts[j + 1 :]]
                    facts = (least(later), most(later), forbid(later + [EPS]), width(later, kind),
                             sum(least([f]) > 0 for f in later))
                    assert rest == facts


def test_a_nest_of_reordered_par_forms_plans_each_part_once():
    # each Par level's widths are [2, 1, 1], so its commutative order differs from its leaf order; both orders
    # must share the part nodes, or the plan doubles at every level
    for depth in (12, 30):
        form = "a"
        for _ in range(depth):
            form = f"B||a||c.({form})"
        g = parse_grammar(f"S -> {form}\nB -> a||a\n")
        seen, todo = set(), list(g._plans["S"])
        while todo:
            node = todo.pop()
            if id(node) not in seen and node.parts is not None:
                todo += node.parts + node.commuted[0]
            seen.add(id(node))
        assert len(seen) == sum(1 for top in g._plans["S"] for _ in planned_nodes(top)) == 5 * depth + 1
        assert is_member(g, pt(form.replace("B", "(a||a)")), COMMUTATIVE)


@pytest.mark.parametrize("mode", [ORDERED, COMMUTATIVE])
def test_a_nonterminal_without_words_has_no_least_size(mode):
    g = parse_grammar("S -> a | B\nB -> b.B\n")
    assert g._least == {"S": 1, "B": math.inf}
    assert planned_letters(g, "S") == {"a"} and planned_letters(g, "B") == set()
    assert is_member(g, pt("a"), mode)
    assert not is_member(g, pt("b"), mode)
    assert not is_member(g, pt("b.b"), mode)


# ---------------------------------------------------------------------------
# differential checks against the breadth-first derivation oracle

@pytest.mark.parametrize("mode", [ORDERED, COMMUTATIVE])
def test_generation_agrees_with_the_derivation_oracle(fixture_grammars, mode):
    for g in fixture_grammars + [random_parallel_linear_grammar(seed) for seed in range(200)]:
        assert set(generate(g, 5, mode=mode).terms) == oracle_words(g, 5, mode), format_grammar(g)


def assert_membership_agrees(g, words, universe, mode):
    for t in universe:
        result = is_member(g, t, mode)
        assert bool(result) == (t in words), (format_grammar(g), format_term(t))
        if result:
            check_trace(g, t, mode, result.trace)
            assert result.trace == goal_trace(g, t, mode)


@pytest.mark.parametrize("mode", [ORDERED, COMMUTATIVE])
def test_membership_agrees_with_the_derivation_oracle(fixture_grammars, mode):
    universe = enumerate_terms("ab", 4, mode)
    for g in fixture_grammars + [random_parallel_linear_grammar(seed) for seed in range(40)]:
        assert_membership_agrees(g, oracle_words(g, 4, mode), universe, mode)


@pytest.mark.parametrize("mode", [ORDERED, COMMUTATIVE])
def test_general_grammars_agree_with_the_derivation_oracle(mode):
    """Unit and eps productions, nested Seq/Par right-hand sides. Grammars
    whose derivations the oracle cannot finish within its own bounds are
    counted and skipped."""
    universe = enumerate_terms("ab", 4, mode)
    skipped = 0
    for seed in range(40):
        g = random_general_grammar(seed)
        try:
            words = oracle_words(g, 4, mode)
        except OracleCapError:
            skipped += 1
            continue
        assert set(generate(g, 4, mode=mode).terms) == words, format_grammar(g)
        assert_membership_agrees(g, words, universe, mode)
    assert skipped <= 8


# a level's words passed on through a cycle: S.S with S deriving eps, A||A with A deriving eps through B, a unit
# cycle; and the term universe's grammar over a and b, whose S, X and Y pass on A's, Q's and R's words
PASS_THROUGH = ["S -> S.S | a | eps\n", "A -> B | a\nB -> A||A | eps\n", "A -> B\nB -> C\nC -> A | a.b\n",
                "S -> eps | A | Q | R\nA -> a | b\nQ -> X.X | X.Q\nR -> Y||Y | Y||R\nX -> A | R\nY -> A | Q\n"]


@pytest.mark.parametrize("mode", [ORDERED, COMMUTATIVE])
@pytest.mark.parametrize("text", PASS_THROUGH, ids=["S.S", "A||A", "unit-cycle", "universe"])
def test_generation_through_pass_through_cycles_agrees_with_the_fixpoint_oracle(text, mode):
    g = parse_grammar(text)
    assert set(generate(g, 5, mode=mode).terms) == fixpoint_words(g, 5, mode)


# generation skips the sizes a part cannot reach: a bounded part beside a pumped one; most atoms below the bound
# (A at 2, B at 4); nonterminals without words (B and C: most 0, least inf) beside ones with them
BOUNDED_PARTS = ["S -> A.B | A||S | a\nA -> a||b | eps\nB -> b | B.b\n",
                 "S -> A.S | A||B | b\nA -> a | a.b | eps\nB -> A.A | A||b\n",
                 "S -> a | B.a | A||S | S.B\nA -> a.b | C | b\nB -> b.B\nC -> B||a | C.b\n"]


@pytest.mark.parametrize("mode", [ORDERED, COMMUTATIVE])
@pytest.mark.parametrize("text", BOUNDED_PARTS, ids=["bounded-beside-pumped", "most-below-bound", "no-words"])
def test_generation_of_bounded_parts_agrees_with_the_oracles(text, mode):
    g = parse_grammar(text)
    words = set(generate(g, 6, mode=mode).terms)
    assert words == fixpoint_words(g, 6, mode)
    try:
        assert words == oracle_words(g, 6, mode)
    except OracleCapError:  # the derivation search cannot finish a form with a nonterminal without words
        assert any(g._least[nt] == math.inf for nt in g.nonterminals)


def test_the_two_oracles_agree_where_the_derivation_search_finishes(fixture_grammars):
    for g in fixture_grammars + [random_general_grammar(seed) for seed in range(40)]:
        for mode in (ORDERED, COMMUTATIVE):
            try:
                words = oracle_words(g, 4, mode)
            except OracleCapError:
                continue
            assert fixpoint_words(g, 4, mode) == words, format_grammar(g)


def passed_on(g, nt, nullable):
    """The nonterminals with productions whose words of a level some form of
    `nt` passes on at that level: a leaf whose form's other leaves all derive eps."""
    return {s for rhs in g.alternatives(nt) for leaves in [list(symbols_of(rhs))] for i, s in enumerate(leaves)
            if g.alternatives(s) and all(x in nullable for x in leaves[:i] + leaves[i + 1 :])}


def test_the_schedule_orders_the_components_of_the_pass_through_graph(fixture_grammars):
    cycles = [parse_grammar(text) for text in PASS_THROUGH + CYCLES]
    for g in cycles + fixture_grammars + [random_general_grammar(seed) for seed in range(60)]:
        nullable = set()
        while more := {p.lhs for p in g.productions if all(s in nullable for s in symbols_of(p.rhs))} - nullable:
            nullable |= more
        deps = {nt: passed_on(g, nt, nullable) for nt in g._plans}
        reach = {}  # nt -> what it reaches by one edge or more
        for nt in deps:
            reach[nt], todo = set(), list(deps[nt])
            while todo:
                if (d := todo.pop()) not in reach[nt]:
                    reach[nt].add(d)
                    todo += deps[d]
        where = {nt: i for i, (_, group) in enumerate(g._schedule) for nt in group}
        assert sorted(where) == sorted(g._plans) == sorted(nt for _, group in g._schedule for nt in group)
        for i, (cyclic, group) in enumerate(g._schedule):
            for nt in group:
                assert all(where[d] <= i for d in deps[nt]), format_grammar(g)  # after what it depends on
                assert all(m == nt or m in reach[nt] for m in group), format_grammar(g)  # one component
            assert cyclic == any(nt in reach[nt] for nt in group), format_grammar(g)


def test_a_long_unit_chain_is_planned_and_generated_without_recursion():
    # A_i -> A_{i+1} | a.A_{i+1}: each level is one pass down the chain, not one sweep per link
    n = 1_600
    links = [(Leaf(f"A_{i + 1}"), seq(Leaf("a"), Leaf(f"A_{i + 1}"))) for i in range(n)] + [(Leaf("a"), Leaf("b"))]
    g = Grammar.of(Production(f"A_{i}", rhs) for i, alts in enumerate(links) for rhs in alts)
    assert g._schedule == [(False, (f"A_{i}",)) for i in reversed(range(n + 1))]
    assert sorted(texts(generate(g, 4))) == sorted("a." * j + c for j in range(4) for c in "ab")


# ---------------------------------------------------------------------------
# seeded fixtures

def test_random_grammars_are_deterministic():
    g1 = random_parallel_linear_grammar(5)
    g2 = random_parallel_linear_grammar(5)
    assert g1 == g2
    assert format_grammar(g1) == format_grammar(g2)


def test_random_grammars_are_parallel_linear():
    for seed in range(40):
        assert classify_grammar(random_parallel_linear_grammar(seed)).parallel_linear


@st.composite
def one_factor_cases(draw):
    """Run counts (some empty), the Parikh vector of each run's child (its
    atoms, over letters in fields 1..3 and a foreign field 4), and the facts
    of a part and of the parts after it."""
    fields = [_COUNT << _WIDTH * i for i in range(1, 5)]
    counts = tuple(draw(st.lists(st.integers(0, 3), max_size=6)))
    vecs = []
    for _ in counts:
        letters = draw(st.lists(st.integers(0, 2), min_size=4, max_size=4).filter(any))
        vecs.append(sum(letters) + sum(n << _WIDTH * i for i, n in enumerate(letters, 1)))

    def facts():
        least = draw(st.integers(0, 4))
        most = draw(st.one_of(st.integers(0, 8), st.just(math.inf)))
        allowed = draw(st.lists(st.sampled_from(fields), unique=True))
        return least, most, ~_COUNT & ~functools.reduce(operator.or_, allowed, 0)

    part = _Node()
    part.least, part.most, part.forbid = facts()
    return counts, tuple(vecs), part, facts() + (None, None)  # the rest's factor facts are not read


@settings(max_examples=400, deadline=None)
@given(one_factor_cases())
def test_a_one_factor_share_is_picked_as_the_prefix_loop_picks_it(case):
    counts, vecs, part, rest = case
    vec = sum(map(operator.mul, counts, vecs))
    expected = list(_count_splits(counts, vecs, 1, 1, part, rest))
    assert list(_one_factor_splits(counts, vecs, vec, part, rest)) == expected


def test_multiset_splits_by_head_size_keep_the_filtered_order():
    # the membership search asks for the splits whose head size fits a window
    for items in ["", "a", "aab", "aabbbc", "abcd"]:
        for k in (1, 2, 3):
            every = list(multiset_splits(tuple(items), k))
            for low in range(len(items) + 2):
                for high in range(-1, len(items) + 2):
                    kept = [s for s in every if low <= len(s[0]) <= high]
                    assert list(multiset_splits(tuple(items), k, (low, high))) == kept


def test_the_search_splits_over_run_counts_as_the_filtered_multiset_splits():
    # the commutative split of the search, over the run counts a Par node keeps, against `multiset_splits` and
    # the same checks; one factor or none is read as one run or none, as the search reads it
    fields = [_COUNT << _WIDTH * i for i in range(1, 5)]
    rng = random.Random(0)
    for items in ["", "a", "aab", "aabbbc", "abcd"]:
        factors = tuple(map(Leaf, items))
        vec = sum(map(_parikh, factors))
        node = par(*factors, mode=COMMUTATIVE)
        one = (factors, (1,) * len(factors), tuple(map(_parikh, factors)))
        firsts, counts, vecs = _runs(node) if isinstance(node, Par) else one
        for zeros in range(3):  # a sub-multiset of a node with more runs leaves some of them empty
            at = rng.randrange(len(counts) + 1)
            padded = counts[:at] + (0,) * zeros + counts[at:]
            spread = vecs[:at] + (_COUNT << _WIDTH * 5,) * zeros + vecs[at:]
            for low in range(len(items) + 2):
                for high in range(-1, len(items) + 2):
                    for _ in range(4):
                        part = _Node()
                        part.least, rest_least = rng.randint(0, 3), rng.randint(0, 3)
                        part.most, rest_most = (rng.choice([rng.randint(0, 5), math.inf]) for _ in "hr")
                        part.forbid, rest_forbid = (
                            ~_COUNT & ~functools.reduce(operator.or_, rng.sample(fields, rng.randint(1, 4)))
                            for _ in "hr")
                        expected = []
                        for share, rest in multiset_splits(factors, 2, (low, high)):
                            h = sum(map(_parikh, share))
                            if _fits(h, part.least, part.most, part.forbid) and _fits(
                                    vec - h, rest_least, rest_most, rest_forbid):
                                taken = tuple(share.count(f) for f in firsts)
                                expected.append((taken[:at] + (0,) * zeros + taken[at:], h, vec - h))
                        rest = (rest_least, rest_most, rest_forbid, None, None)  # the factor facts are not read
                        assert list(_count_splits(padded, spread, low, high, part, rest)) == expected
