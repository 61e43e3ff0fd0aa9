import itertools
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from splang.errors import EnumerationCapError, ModeMismatchError, TermSyntaxError
from splang.langs import (
    ClosureKind,
    FiniteLang,
    PowerKind,
    concat_lang,
    dump_lang,
    epsilon_lang,
    kleene_bounded,
    lang_equal,
    load_lang,
    par_lang,
    power,
    reverse_lang,
    union_lang,
    universe,
)
from splang.terms import COMMUTATIVE, DEFAULT_CAP, EPS, ORDERED, canonicalize, format_term, parse_term

from oracles import oracle_closure, oracle_power


def lang(*texts, mode=ORDERED):
    return FiniteLang.parse(texts, mode)


def texts(l):
    return [format_term(t) for t in l]


# ---------------------------------------------------------------------------
# the two closure fixtures

def test_parallel_power_of_mixed_pair():
    l = lang("a", "a||b")
    l2 = power(l, 2, PowerKind.PAR)
    assert texts(l2) == ["a||a", "a||a||b", "a||b||a", "a||b||a||b"]


def test_parallel_closure_bounded_is_union_of_powers():
    l = lang("a", "a||b")
    closed = kleene_bounded(l, ClosureKind.PAR_PLUS, 2)
    expected = union_lang(union_lang(epsilon_lang(ORDERED), l), power(l, 2, PowerKind.PAR))
    assert lang_equal(closed, expected)
    assert texts(closed) == ["a", "a||a", "a||a||b", "a||b", "a||b||a", "a||b||a||b", "eps"]


def test_sequential_and_parallel_squares():
    l = lang("a.b", "a||b")
    assert texts(power(l, 2, PowerKind.SEQ)) == [
        "(a||b).(a||b)",
        "(a||b).a.b",
        "a.b.(a||b)",
        "a.b.a.b",
    ]
    assert texts(power(l, 2, PowerKind.PAR)) == [
        "a.b||a.b",
        "a.b||a||b",
        "a||b||a.b",
        "a||b||a||b",
    ]


@pytest.mark.parametrize("n", [0, 1, 2])
def test_combined_closure_is_union_of_both(n):
    l = lang("a.b", "a||b")
    assert lang_equal(
        kleene_bounded(l, ClosureKind.SP, n),
        union_lang(
            kleene_bounded(l, ClosureKind.STAR, n),
            kleene_bounded(l, ClosureKind.PAR_PLUS, n),
        ),
    )


def test_combined_closure_of_one_atom():
    l = lang("a")
    assert texts(kleene_bounded(l, ClosureKind.SP, 2)) == ["a", "a.a", "a||a", "eps"]


# ---------------------------------------------------------------------------
# basic operations

def test_concat_identity_and_pairs():
    l = lang("a.b", "a||b")
    assert lang_equal(concat_lang(epsilon_lang(ORDERED), l), l)
    assert lang_equal(concat_lang(l, epsilon_lang(ORDERED)), l)
    assert texts(concat_lang(lang("a"), lang("a"))) == ["a.a"]


def test_par_identity():
    l = lang("a.b", "a||b")
    assert lang_equal(par_lang(epsilon_lang(ORDERED), l), l)
    assert texts(par_lang(lang("a", mode=COMMUTATIVE), lang("a", mode=COMMUTATIVE))) == ["a||a"]


def test_union_examples():
    assert texts(union_lang(lang("a"), lang("b"))) == ["a", "b"]
    l = lang("a||b")
    assert lang_equal(union_lang(l, FiniteLang(ORDERED, ())), l)
    assert texts(union_lang(l, l)) == ["a||b"]


def test_power_zero_and_one():
    l = lang("a.b", "a||b")
    assert texts(power(l, 0, PowerKind.SEQ)) == ["eps"]
    assert texts(power(l, 0, PowerKind.PAR)) == ["eps"]
    assert lang_equal(power(l, 1, PowerKind.SEQ), l)
    assert lang_equal(power(l, 1, PowerKind.PAR), l)


def test_power_recurrence():
    l = lang("a", "a||b")
    for n in range(3):
        assert lang_equal(power(l, n + 1, PowerKind.SEQ), concat_lang(power(l, n, PowerKind.SEQ), l))
        assert lang_equal(power(l, n + 1, PowerKind.PAR), par_lang(power(l, n, PowerKind.PAR), l))


def test_closure_monotone_in_bound():
    l = lang("a", "a||b")
    for kind in ClosureKind:
        for n in range(3):
            smaller = set(kleene_bounded(l, kind, n).terms)
            bigger = set(kleene_bounded(l, kind, n + 1).terms)
            assert smaller <= bigger


def test_closure_bound_zero():
    l = lang("a.b")
    for kind in ClosureKind:
        assert texts(kleene_bounded(l, kind, 0)) == ["eps"]


def test_powers_and_closures_stop_at_the_cap(monkeypatch):
    # over {a, b} in ordered mode the k-th power has 2^k words and the
    # closure up to n the sum of theirs (both for sp, less the shared a, b, eps)
    monkeypatch.setattr("splang.langs.DEFAULT_CAP", 8)
    l = lang("a", "b")
    for kind in PowerKind:
        assert len(power(l, 3, kind)) == 8
        with pytest.raises(EnumerationCapError, match=rf"^{kind.value} power exceeds the cardinality cap \(8\)$"):
            power(l, 4, kind)
    for kind, fits in ((ClosureKind.STAR, 2), (ClosureKind.PAR_PLUS, 2), (ClosureKind.SP, 1)):
        assert len(kleene_bounded(l, kind, fits)) <= 8
        with pytest.raises(EnumerationCapError, match=rf"^{kind.value} closure exceeds the cardinality cap \(8\)$"):
            kleene_bounded(l, kind, fits + 1)


def test_the_cap_counts_words_after_deduplication(monkeypatch):
    # commutative parallel powers of {a, b}: the k-th has k + 1 words
    monkeypatch.setattr("splang.langs.DEFAULT_CAP", 8)
    l = lang("a", "b", mode=COMMUTATIVE)
    assert len(power(l, 7, PowerKind.PAR)) == 8
    with pytest.raises(EnumerationCapError):
        power(l, 8, PowerKind.PAR)
    assert len(kleene_bounded(l, ClosureKind.PAR_PLUS, 2)) == 6
    with pytest.raises(EnumerationCapError):
        kleene_bounded(l, ClosureKind.PAR_PLUS, 3)


def count_products(monkeypatch):
    """Count the langs module's calls of seq and par from here on."""
    import splang.langs

    calls = {}
    for name in ("seq", "par"):
        def counted(*parts, _name=name, _compose=getattr(splang.langs, name), **mode):
            calls[_name] = calls.get(_name, 0) + 1
            return _compose(*parts, **mode)
        monkeypatch.setattr(splang.langs, name, counted)
    return calls


@pytest.mark.parametrize("kind", PowerKind)
def test_a_power_stops_inside_the_step_that_crosses_the_cap(monkeypatch, kind):
    # {a, b} ordered, cap 8: the first three steps build 2 + 4 + 8 products;
    # the fourth stops after its fifth row of two, at 10 words, not at 16
    monkeypatch.setattr("splang.langs.DEFAULT_CAP", 8)
    calls = count_products(monkeypatch)
    with pytest.raises(EnumerationCapError, match=rf"^{kind.value} power exceeds the cardinality cap \(8\)$"):
        power(lang("a", "b"), 4, kind)
    assert calls == {kind.value: 24}


def test_a_closure_stops_inside_the_step_that_crosses_the_cap(monkeypatch):
    # star closure of {a, b}, cap 8: the partial unions hold 3 and 7 words after
    # 2 + 4 products; the third step's first row takes the union to 9
    monkeypatch.setattr("splang.langs.DEFAULT_CAP", 8)
    calls = count_products(monkeypatch)
    with pytest.raises(EnumerationCapError, match=r"^star closure exceeds the cardinality cap \(8\)$"):
        kleene_bounded(lang("a", "b"), ClosureKind.STAR, 3)
    assert calls == {"seq": 8}


@pytest.mark.parametrize("mode", [ORDERED, COMMUTATIVE])
def test_powers_and_closures_stop_at_a_repeated_level(monkeypatch, mode):
    # the levels of {eps} are all {eps}, and those of the empty language are
    # {eps}, then empty for good: a huge bound needs one or two steps
    calls = count_products(monkeypatch)
    eps, empty, huge = epsilon_lang(mode), FiniteLang(mode, ()), 10**18
    for kind in PowerKind:
        assert power(eps, huge, kind) == eps
        assert power(empty, huge, kind) == empty
        assert power(empty, 0, kind) == eps
    for kind in ClosureKind:
        assert kleene_bounded(eps, kind, huge) == eps
        assert kleene_bounded(empty, kind, huge) == eps
    # one product eps.eps per power of {eps}, and one per composition of its
    # closures: star, par and the two of sp
    assert calls == {"seq": 3, "par": 3}


SMALL_WORDS = universe("ab", 2).terms  # eps, a, b and the eight 2-atom words


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.sampled_from(SMALL_WORDS), max_size=3),
    st.lists(st.sampled_from(SMALL_WORDS), max_size=3),
    st.sampled_from([ORDERED, COMMUTATIVE]),
    st.integers(0, 3),
    st.one_of(st.none(), st.integers(1, 30)),
)
def test_powers_closures_and_unions_match_the_set_oracle(words, others, mode, n, cap):
    # with a cap, a call raises exactly when the oracle's language exceeds it
    l, other = FiniteLang.of(words, mode), FiniteLang.of(others, mode)
    assert union_lang(l, other).terms == tuple(sorted(set(l.terms) | set(other.terms), key=format_term))
    cases = [(f"{k.value} power", lambda k=k: power(l, n, k), oracle_power(l.terms, n, k.value, mode))
             for k in PowerKind]
    cases += [(f"{k.value} closure", lambda k=k: kleene_bounded(l, k, n), oracle_closure(l.terms, k.value, n, mode))
              for k in ClosureKind]
    with mock.patch("splang.langs.DEFAULT_CAP", cap or DEFAULT_CAP):
        for operation, call, expected in cases:
            if cap is not None and len(expected) > cap:
                with pytest.raises(EnumerationCapError, match=rf"^{operation} exceeds the cardinality cap \({cap}\)$"):
                    call()
            else:
                assert call() == FiniteLang(mode, expected), operation


def test_mode_mismatch_raises():
    with pytest.raises(ModeMismatchError):
        concat_lang(lang("a"), lang("a", mode=COMMUTATIVE))
    with pytest.raises(ModeMismatchError):
        lang_equal(lang("a"), lang("a", mode=COMMUTATIVE))


@pytest.mark.parametrize("mode", [ORDERED, COMMUTATIVE])
def test_constructor_sorts_and_deduplicates(mode):
    raw = [parse_term(s) for s in ("b||a", "a.b", "eps", "(b||a).a", "a||b.a", "a", "b.a||a")]
    canon = [canonicalize(t, mode) for t in raw] * 2
    random.Random(3).shuffle(canon)
    assert FiniteLang(mode, tuple(canon)) == FiniteLang.of(raw, mode)


def test_languages_are_values():
    a, b = lang("a", "b.a"), FiniteLang(ORDERED, (parse_term("b.a"), parse_term("a")))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != lang("a", "b.a", mode=COMMUTATIVE) and a != lang("a") and a != a.terms
    for attr in ("mode", "terms", "_members"):
        with pytest.raises(AttributeError):
            setattr(a, attr, getattr(a, attr))


def test_lang_diffs_are_values():
    left, right = lang_equal(lang("a", "b"), lang("b", "c")), lang_equal(lang("a", "b"), lang("c", "b"))
    assert left == right and hash(left) == hash(right) and len({left, right}) == 1
    assert left != lang_equal(lang("a"), lang("a")) and left != False  # noqa: E712
    assert repr(left) == "LangDiff(equal=False, only_left=(a,), only_right=(c,))"
    with pytest.raises(AttributeError):
        left.equal = True


# ---------------------------------------------------------------------------
# reversal

def test_reverse_lang_examples():
    assert texts(reverse_lang(lang("a.b"))) == ["b.a"]
    assert texts(reverse_lang(lang("a||b"))) == ["a||b"]
    l = universe("ab", 3)
    assert lang_equal(reverse_lang(reverse_lang(l)), l)


def test_reverse_antidistributes_over_concat():
    u = universe("ab", 2)
    rng = random.Random(7)
    pool = [FiniteLang(ORDERED, tuple(rng.sample(u.terms, 3))) for _ in range(12)]
    for l1, l2 in itertools.product(pool, repeat=2):
        assert lang_equal(
            reverse_lang(concat_lang(l1, l2)),
            concat_lang(reverse_lang(l2), reverse_lang(l1)),
        )


# ---------------------------------------------------------------------------
# algebraic laws over sublanguage pools

def all_sublanguages(max_atoms):
    terms = universe("ab", max_atoms).terms
    out = []
    for mask in range(1 << len(terms)):
        out.append(FiniteLang(ORDERED, tuple(t for i, t in enumerate(terms) if mask >> i & 1)))
    return out


def test_epsilon_is_identity_for_all_sublanguages():
    eps = epsilon_lang(ORDERED)
    for l in all_sublanguages(2):  # 2^11 languages
        assert lang_equal(concat_lang(eps, l), l)
        assert lang_equal(concat_lang(l, eps), l)
        assert lang_equal(par_lang(eps, l), l)
        assert lang_equal(par_lang(l, eps), l)


def test_operations_associative():
    # exhaustively on the 1-atom sublanguages, then a seeded sample of larger ones
    small = all_sublanguages(1)
    rng = random.Random(11)
    bigger = rng.sample(all_sublanguages(2), 8)
    for pool in (small, bigger):
        for l1, l2, l3 in itertools.product(pool, repeat=3):
            assert lang_equal(
                concat_lang(concat_lang(l1, l2), l3), concat_lang(l1, concat_lang(l2, l3))
            )
            assert lang_equal(par_lang(par_lang(l1, l2), l3), par_lang(l1, par_lang(l2, l3)))


# ---------------------------------------------------------------------------
# equality reports

def test_lang_equal_ignores_input_order():
    assert lang_equal(lang("a", "b"), lang("b", "a"))


def test_lang_equal_mode_sensitivity():
    assert not lang_equal(lang("a||b||a"), lang("a||a||b"))
    assert lang_equal(lang("a||b||a", mode=COMMUTATIVE), lang("a||a||b", mode=COMMUTATIVE))


def test_empty_differs_from_epsilon():
    diff = lang_equal(FiniteLang(ORDERED, ()), epsilon_lang(ORDERED))
    assert not diff
    assert diff.only_right == (EPS,)
    assert "eps" in diff.report()


def test_report_caps_witnesses():
    l = universe("ab", 3)
    diff = lang_equal(l, FiniteLang(ORDERED, ()))
    lines = diff.report(max_witnesses=20).splitlines()
    assert len(lines) == 21  # 20 witnesses plus the elision line
    assert lines[-1].endswith("more")


# ---------------------------------------------------------------------------
# file format

def test_load_dump_round_trip():
    text = "mode: commutative\n# sample\nb||a\na.b  # inline comment\n"
    l = load_lang(text)
    assert l.mode is COMMUTATIVE
    assert texts(l) == ["a.b", "a||b"]
    assert load_lang(dump_lang(l)) == l


def test_load_requires_header():
    with pytest.raises(TermSyntaxError):
        load_lang("a.b\n")
    with pytest.raises(TermSyntaxError):
        load_lang("mode: sideways\na\n")


def test_membership_respects_mode():
    l = lang("a||b", mode=COMMUTATIVE)
    assert parse_term("b||a") in l
    assert parse_term("b||a") not in lang("a||b")
