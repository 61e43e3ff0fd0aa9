import copy
import pickle
import random

import pytest

from splang.errors import FragmentError, TermSyntaxError
from splang.grammars import _MemberSearch, classify_grammar, generate
from splang.langs import ClosureKind, FiniteLang, kleene_bounded, lang_equal
from splang.regexes import (
    Alt,
    AtomLit,
    Cat,
    ClosePar,
    CloseSeq,
    CloseSP,
    EMPTY,
    EPS_LIT,
    ParProd,
    _compile,
    alt,
    cat,
    format_regex,
    matches,
    parse_regex,
    regex_alphabet,
    regex_enumerate,
    to_parallel_linear_grammar,
)
from splang.terms import (
    COMMUTATIVE,
    ORDERED,
    Leaf,
    atoms_count,
    enumerate_terms,
    format_term,
    par,
    parse_term,
    seq,
)

from oracles import all_regexes, naive_matches, oracle_regex_words

a, b = AtomLit("a"), AtomLit("b")


class CountingSymbol(str):
    """An atom symbol that counts its hash calls."""

    calls = 0

    def __hash__(self):
        CountingSymbol.calls += 1
        return str.__hash__(self)


def test_regex_nodes_hash_once():
    r = alt(cat(AtomLit(CountingSymbol("c")), CloseSeq(a)), ParProd((a, b)))
    CountingSymbol.calls = 0
    assert hash(r) == hash(r)
    assert CountingSymbol.calls == 1
    for other in (pickle.loads(pickle.dumps(r)), copy.copy(r), copy.deepcopy(r)):
        assert not hasattr(other, "_hash")  # rebuilt from the fields: the hash is computed afresh
        assert other == r and hash(other) == hash(r)


def pt(text):
    return parse_term(text)


def texts(lang):
    return [format_term(t) for t in lang]


# ---------------------------------------------------------------------------
# text format

@pytest.mark.parametrize(
    "text,ast",
    [
        ("(a||b)^", ClosePar(ParProd((a, b)))),
        ("a|b", Alt((a, b))),
        ("a@", CloseSP(a)),
        ("a*.b", Cat((CloseSeq(a), b))),
        ("0", EMPTY),
        ("eps", EPS_LIT),
        ("a^*", CloseSeq(ClosePar(a))),
        ("a|b||a.b", Alt((a, ParProd((b, Cat((a, b))))))),
    ],
)
def test_parse_regex(text, ast):
    assert parse_regex(text) == ast


def test_format_parse_round_trip_exhaustive():
    for r in all_regexes(max_nodes=4):
        assert parse_regex(format_regex(r)) == r


@pytest.mark.parametrize("bad", ["a |", "(a", "*a", "a..b", "A", ""])
def test_regex_syntax_errors(bad):
    with pytest.raises(TermSyntaxError):
        parse_regex(bad)


def test_regex_alphabet():
    assert regex_alphabet(parse_regex("(a||b)^|c.c")) == ("a", "b", "c")
    assert regex_alphabet(EPS_LIT) == ()


# ---------------------------------------------------------------------------
# matching semantics

@pytest.mark.parametrize(
    "regex,term,expected",
    [
        ("(a||b)^", "a||b||a||b", True),
        ("(a||b)^", "a||a||b||b", False),  # ordered blocks must alternate a,b
        ("(a||b)^", "eps", True),
        ("(a||b)^", "a||b", True),
        ("a@", "a.a", True),
        ("a@", "a||a", True),
        ("a@", "a.b", False),
        ("a@", "a", True),
        ("eps", "eps", True),
        ("eps", "a", False),
        ("0", "eps", False),
        ("a.b", "a.b", True),
        ("a.b", "a||b", False),
        ("a||b", "a||b", True),
        ("a||b", "b||a", False),
        ("a*", "a.a.a", True),
        ("a^", "a||a||a", True),
        ("a^", "a.a", False),
    ],
)
def test_matches_ordered(regex, term, expected):
    assert matches(parse_regex(regex), pt(term), ORDERED) is expected


def test_matches_commutative_reorders_parallel():
    r = parse_regex("a||b")
    assert matches(r, pt("b||a"), COMMUTATIVE)
    assert matches(parse_regex("(a||b)^"), pt("a||a||b||b"), COMMUTATIVE)
    assert not matches(parse_regex("(a||b)^"), pt("a||a||b"), COMMUTATIVE)


def test_concatenation_allows_empty_segments():
    r = parse_regex("eps.a.eps")
    assert matches(r, pt("a"), ORDERED)


@pytest.mark.parametrize("mode", [ORDERED, COMMUTATIVE])
def test_matcher_agrees_with_reference_on_a_sample(mode):
    rng = random.Random(3)
    pool = all_regexes(max_nodes=4)
    uni = enumerate_terms("ab", 3, mode)
    for r in rng.sample(pool, 120):
        for t in uni:
            assert matches(r, t, mode) == naive_matches(r, t, mode)


@pytest.mark.parametrize("mode", [ORDERED, COMMUTATIVE])
def test_regexes_with_many_nonterminals_agree_with_reference(mode):
    both = alt(a, b)
    r = cat(*(CloseSP(both) if i % 2 else ParProd((CloseSeq(both), ClosePar(a))) for i in range(9)))
    assert len(_compile(r).nonterminals) > 25
    for t in enumerate_terms("ab", 3, mode):
        assert matches(r, t, mode) == naive_matches(r, t, mode), format_term(t)


@pytest.mark.parametrize("mode", [ORDERED, COMMUTATIVE])
@pytest.mark.parametrize("text", ["z", "a.z", "a||z", "A", "a.S", "a||A"])
def test_a_foreign_leaf_does_not_match(text, mode):
    # S and A name nonterminals of the compiled grammar; z is no atom of the regex
    r = parse_regex("(a|b)@")
    assert matches(r, parse_term("a.b.a"), mode)
    assert not matches(r, parse_term(text, allow_upper=True), mode)


@pytest.mark.parametrize("mode", [ORDERED, COMMUTATIVE])
def test_matches_compiles_each_regex_once(mode):
    _compile.cache_clear()
    r = parse_regex("(a.b||c)*|d^")
    terms = enumerate_terms("abcd", 2, mode)
    for i in range(50):
        t = terms[i % len(terms)]
        assert matches(r, t, mode) == naive_matches(r, t, mode), format_term(t)
    info = _compile.cache_info()
    assert (info.misses, info.hits) == (1, 49)


# ---------------------------------------------------------------------------
# enumeration

@pytest.mark.parametrize("mode", [ORDERED, COMMUTATIVE])
def test_regex_enumerate_agrees_with_the_universe_filter(mode):
    for r in random.Random(5).sample(all_regexes(max_nodes=4), 150):
        for alphabet in ("ab", "a"):
            got = regex_enumerate(r, alphabet, 3, mode)
            assert got.terms == oracle_regex_words(r, alphabet, 3, mode), format_regex(r)


def test_regex_enumerate_examples():
    assert texts(regex_enumerate(parse_regex("(a||b)^"), "ab", 4)) == [
        "a||b",
        "a||b||a||b",
        "eps",
    ]
    assert texts(regex_enumerate(EMPTY, "ab", 3)) == []
    assert texts(regex_enumerate(parse_regex("a*.b"), "ab", 3)) == ["a.a.b", "a.b", "b"]


def test_parallel_closure_unrolls_to_bounded_powers():
    # enumerating the closure equals closing the enumeration, within the bound
    for text in ("a", "a||b", "a|b", "(a|b)^"):
        body = parse_regex(text)
        n = 4
        closed = regex_enumerate(ClosePar(body), "ab", n)
        powers = kleene_bounded(regex_enumerate(body, "ab", n), ClosureKind.PAR_PLUS, n)
        trimmed = FiniteLang.of((t for t in powers if atoms_count(t) <= n), ORDERED)
        assert lang_equal(closed, trimmed)


def test_combined_closure_enumeration_is_union():
    for text in ("a", "a.b", "a||b", "a|b"):
        body = parse_regex(text)
        combined = regex_enumerate(CloseSP(body), "ab", 3)
        seqs = regex_enumerate(CloseSeq(body), "ab", 3)
        pars = regex_enumerate(ClosePar(body), "ab", 3)
        assert set(combined.terms) == set(seqs.terms) | set(pars.terms)


def test_regex_enumerate_reuses_the_compiled_grammar():
    _compile.cache_clear()
    first = regex_enumerate(parse_regex("(a.b)*||c"), "abc", 4)
    again = regex_enumerate(parse_regex("(a.b)*||c"), "cab", 4)  # an equal regex, the same letters
    info = _compile.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert again.terms == first.terms


# ---------------------------------------------------------------------------
# grammar conversion

def test_conversion_examples():
    g = to_parallel_linear_grammar(parse_regex("(a||b)^"))
    assert classify_grammar(g).parallel_linear
    out = generate(g, 6)
    assert texts(out) == ["a||b", "a||b||a||b", "a||b||a||b||a||b", "eps"]

    single = to_parallel_linear_grammar(parse_regex("a"))
    assert [(p.lhs, format_term(p.rhs)) for p in single.productions] == [("S", "a")]


# (regex, the operator the error names): the first offender in pre-order
NON_FRAGMENT = [
    ("a.b", "."), ("a*", "*"), ("a@", "@"), ("0", "0"), ("(a.b)^", "."), ("a|b*", "*"),
    ("(a|b*)||0", "*"), ("a^||(b|0.c)", "."), ("(a*)^", "*"),
]


@pytest.mark.parametrize("text,operator", NON_FRAGMENT, ids=[text for text, _ in NON_FRAGMENT])
def test_conversion_rejects_non_fragment(text, operator):
    with pytest.raises(FragmentError) as info:
        to_parallel_linear_grammar(parse_regex(text))
    assert str(info.value) == f"'{operator}' is outside the parallel fragment"


def is_fragment(r):
    try:
        to_parallel_linear_grammar(r)
        return True
    except FragmentError:
        return False


def test_conversion_matches_enumeration_for_fragment():
    pool = [r for r in all_regexes(max_nodes=4) if is_fragment(r)]
    assert len(pool) > 100
    for r in pool:
        g = to_parallel_linear_grammar(r)
        cls = classify_grammar(g)
        assert cls.parallel_linear and cls.sp_regular
        got = generate(g, 4)
        want = regex_enumerate(r, "ab", 4)
        assert lang_equal(got, want), format_regex(r)


def test_a_rejected_long_word_tries_goals_linear_in_its_length(monkeypatch):
    # goals are positions of the word, not its sub-terms: twice the letters try about twice the goals
    searches = []

    class Recorded(_MemberSearch):
        def __init__(self, *args):
            super().__init__(*args)
            searches.append(self)

    monkeypatch.setattr("splang.regexes._MemberSearch", Recorded)
    r = parse_regex("(a.b)*")
    goals = []
    for pairs in (320, 640):  # 641 and 1,281 letters
        assert not matches(r, parse_term(".".join("ab" * pairs + "a")))
        goals.append(len(searches[-1].tried))
    assert goals[1] <= 2.1 * goals[0]


def test_a_shared_term_of_two_to_the_41_atoms_is_matched():
    # built in code, 40 levels of (b.t)||(t.c) over the level below: the search's recursion limit is capped by
    # the goals one pass may try, not by the term's atoms
    t = Leaf("a")
    for _ in range(40):
        t = par(seq(Leaf("b"), t), seq(t, Leaf("c")))
    assert not matches(parse_regex("(a|b|c)@"), t, ORDERED)
