import copy
import gc
import itertools
import pickle
import sys
import time
from sys import getrefcount

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from splang import terms
from splang._lex import tokenize
from splang.errors import EnumerationCapError, TermSyntaxError
from splang.langs import FiniteLang
from splang.terms import (
    COMMUTATIVE,
    EPS,
    ORDERED,
    Eps,
    Leaf,
    Par,
    Seq,
    TermClass,
    atoms_count,
    atoms_multiset,
    canonicalize,
    classify_term,
    depth,
    enumerate_terms,
    format_term,
    is_parallel_word,
    is_sequential_word,
    length,
    par,
    parse_term,
    reverse_term,
    seq,
    symbols_of,
    _node,
)

from oracles import binary_universe


def pt(text: str):
    return parse_term(text)


atoms_st = st.sampled_from("ab").map(Leaf)
terms_st = st.recursive(
    st.just(EPS) | atoms_st,
    lambda inner: st.builds(lambda cs: seq(*cs), st.lists(inner, min_size=2, max_size=3))
    | st.builds(lambda cs: par(*cs), st.lists(inner, min_size=2, max_size=3)),
    max_leaves=10,
)


# ---------------------------------------------------------------------------
# parsing and printing

@pytest.mark.parametrize(
    "text,expected",
    [
        ("a.b", Seq((Leaf("a"), Leaf("b")))),
        ("(a||b).a", Seq((Par((Leaf("a"), Leaf("b"))), Leaf("a")))),
        ("a.(b.c)", Seq((Leaf("a"), Leaf("b"), Leaf("c")))),
        ("eps || a", Leaf("a")),
        ("eps", EPS),
        ("a", Leaf("a")),
        ("a||b||c", Par((Leaf("a"), Leaf("b"), Leaf("c")))),
    ],
)
def test_parse_term(text, expected):
    assert pt(text) == expected


@pytest.mark.parametrize(
    "term,expected",
    [
        (Seq((Par((Leaf("a"), Leaf("b"))), Leaf("a"))), "(a||b).a"),
        (Leaf("a"), "a"),
        (EPS, "eps"),
        (Par((Seq((Leaf("a"), Leaf("b"))), Leaf("c"))), "a.b||c"),
    ],
)
def test_format_term(term, expected):
    assert format_term(term) == expected


@pytest.mark.parametrize("bad", ["a..b", "ab", "(a", "a||", "a |b", "A", "a.8", ""])
def test_parse_errors_carry_offsets(bad):
    with pytest.raises(TermSyntaxError):
        pt(bad)


def test_parse_error_offset_points_at_culprit():
    with pytest.raises(TermSyntaxError) as err:
        pt("a.!b")
    assert err.value.offset == 2


# ---------------------------------------------------------------------------
# nodes: hashing, equality, immutability

def test_seq_and_par_of_the_same_children_differ():
    children = (Leaf("a"), Leaf("b"))
    s, p = Seq(children), Par(children)
    assert s != p and p != s
    assert hash(s) != hash(p)
    assert len({s, p}) == 2 and s in {s, p} and p in {s, p}


def alternating(levels):
    """A term built bottom-up in code, `levels` levels of alternating Par and Seq."""
    t = Leaf("a")
    for level in range(levels):
        t = (Seq if level % 2 else Par)((Leaf("b"), t))
    return t


def test_a_deep_term_hashes_and_compares_without_recursion():
    t = alternating(10_000)
    assert hash(t) == hash(t)
    assert len({t}) == 1 and t in {t}
    assert t == t and not (t != t)
    assert t != t.children[1]


def test_two_deep_terms_built_apart_are_one_node():
    first, second = alternating(10_000), alternating(10_000)
    assert first == second and not (first != second) and first is second


def test_a_term_whose_hash_another_node_holds_is_interned_apart():
    # a stand-in for a hash collision: a node of `A_3.A_4`, held here, has the stored hash `A_1||A_2` will get
    children = (Leaf("A_1"), Leaf("A_2"))
    h = hash((Par._TAG, children))
    terms._sweep()
    assert children not in Par._interned
    holder = object.__new__(Seq)
    terms._init(holder, "children", (Leaf("A_3"), Leaf("A_4")))
    terms._init(holder, "_hash", h)
    terms._init(holder, "__hash__", h.__index__)
    Seq._interned[holder.children] = holder  # planted under its own children
    first = Par(children)
    assert first.__class__ is Par and first is not holder and hash(first) == h == hash(holder)
    assert first is Par(children) is par(*children) is terms._join(Par, *children)
    assert Seq(holder.children) is holder
    del holder  # each entry goes with its node at the next sweep
    terms._sweep()
    assert (Leaf("A_3"), Leaf("A_4")) not in Seq._interned and Par(children) is first
    del first
    terms._sweep()
    assert children not in Par._interned


@pytest.mark.parametrize("kind,children", [(Seq, (Leaf("a"), "b")), (Par, (Leaf("a"), 5))])
def test_a_constructor_refuses_a_child_that_is_not_a_term_and_interns_nothing(kind, children):
    # such a node would break `repr`, `format_term` and `canonicalize`
    sizes = [len(k._interned) for k in (Leaf, Seq, Par)]
    with pytest.raises(TypeError, match=f"{kind.__name__} children must be terms, got {children[1]!r}"):
        kind(children)
    assert [len(k._interned) for k in (Leaf, Seq, Par)] == sizes


def test_finding_a_node_calls_no_hash():
    # each kind's table is keyed on the node's field, which the dict hashes in
    # C: a hash-keyed table would call `hash` on every hit, and cost the
    # finite-language algebra about a tenth of its time
    a, b = Leaf("a"), Leaf("b")
    x, y = Par((a, b)), Seq((b, a))
    node, joined = Seq((x, b)), terms._join(Seq, x, y)
    calls = []

    def profile(frame, event, arg):
        if event == "c_call" and arg is hash:
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        found = [Leaf("a"), Seq(node.children), terms._join(Seq, x, y)]
    finally:
        sys.setprofile(None)
    assert found[0] is a and found[1] is node and found[2] is joined
    assert calls == []


# ---------------------------------------------------------------------------
# the intern tables and their sweep

def entries():
    return [*Leaf._interned.values(), *Seq._interned.values(), *Par._interned.values()]


def nodes_of(t):
    """Every node of `t`, its leaves and the COMMUTATIVE forms its nodes keep included."""
    found, stack = {}, [t]
    while stack:
        node = stack.pop()
        if id(node) not in found:
            found[id(node)] = node
            if node.__class__ is Seq or node.__class__ is Par:
                stack += node.children
                stack.append(getattr(node, "_canon", None) or node)
    return found


def built(spec):
    """The term of `spec`: a letter, or (seq or par, [specs])."""
    if spec.__class__ is str:
        return Leaf(spec)
    compose, parts = spec
    return compose(*map(built, parts))


specs_st = st.recursive(st.sampled_from("xyz"), lambda inner: st.tuples(st.sampled_from([seq, par]), st.lists(
    inner, min_size=2, max_size=3)), max_leaves=8)
steps_st = st.lists(st.one_of(
    st.tuples(st.just("build"), st.integers(0, 2), specs_st, st.none() | st.integers(0, 2)),
    st.tuples(st.just("drop"), st.integers(0, 2)),
    st.tuples(st.just("canonicalize"), st.integers(0, 2)),
    st.just(("sweep",)),
), max_size=12)


@settings(deadline=None)  # a sweep costs the whole table, which earlier tests and caches may have filled
@given(steps_st)
@example([("build", 0, (par, ["y", "x"]), None), ("canonicalize", 0), ("drop", 0)])  # the form is newer than its term
@example([("build", 0, (seq, ["x", (par, ["z", "y"])]), 0), ("build", 1, (seq, ["z", "x"]), 1), ("sweep",)])
def test_a_sweep_keeps_every_held_term_and_drops_every_other(steps):
    # the model: the spec each of three slots holds; a build may be given room
    # for only a few new entries, so that a sweep falls inside it. Nodes the
    # table held before are left out of the check; other tests hold no term
    # of x, y and z, so these are new nodes
    terms._sweep()
    before = {id(node) for node in entries()}
    slots, held = [None] * 3, [None] * 3
    for step in steps:
        i = step[1] if len(step) > 1 else None
        if step[0] == "build":
            if step[3] is not None:
                terms._room = step[3]
            slots[i], held[i] = built(step[2]), step[2]
        elif step[0] == "drop":
            slots[i] = held[i] = None
        elif step[0] == "canonicalize" and slots[i] is not None:
            canonicalize(slots[i], COMMUTATIVE)  # its nodes keep their forms, which may be newer than they
        elif step[0] == "sweep":
            terms._sweep()
    format_term.cache_clear()  # canonicalizing formats terms, and the cache holds them
    terms._sweep()
    kept = {}
    for t in slots:
        if t is not None:
            kept.update(nodes_of(t))
    assert {id(node) for node in entries()} - before == kept.keys() - before
    for t, spec in zip(slots, held):
        assert spec is None or built(spec) is t


def test_a_dropped_term_ten_thousand_levels_deep_is_swept_at_the_default_recursion_limit(monkeypatch):
    # one pass with a cascade: every entry is read once from its table's
    # snapshot, and a dropped node pushes its two children; passes repeated
    # over the per-kind tables would need one per level of the chain
    tests = []

    def counted(node):
        tests.append(None)
        return getrefcount(node) - 1  # this frame's own reference

    gc.collect()  # what earlier tests left in reference cycles goes now, not during the count
    terms._sweep()
    before = len(entries())
    t = alternating(10_000)
    assert len(entries()) > before
    del t
    started = len(entries())
    monkeypatch.setattr(terms, "getrefcount", counted)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1_000)
    try:
        terms._sweep()
    finally:
        sys.setrecursionlimit(limit)
    assert len(entries()) == before
    dropped = started - before  # the chain, bar a few inmost nodes earlier tests may hold
    assert dropped > 9_900 and len(tests) <= started + 3 * dropped


children_st = st.lists(terms_st.filter(lambda t: t is not EPS), min_size=2, max_size=4).map(tuple)


@settings(deadline=None)  # a sweep costs the whole table, which earlier tests and caches may have filled
@given(children_st)
@example((Leaf("a"), Leaf("b")))
def test_a_node_is_found_again_by_every_way_in_before_and_after_a_sweep(children):
    kinds = [kind for kind in (Seq, Par) if all(c.__class__ is not kind for c in children)]
    assume(kinds)
    if len(kinds) == 2:
        assert Seq(children) is not Par(children)
    for kind, tag, compose in ((Seq, 1, seq), (Par, 2, par)):
        if kind not in kinds:
            continue
        node = kind(children)
        assert hash(node) == hash((tag, children)) and node.children == children
        rest = children[1] if len(children) == 2 else _node(kind, children[1:])
        for _ in range(2):
            assert compose(*children) is node and _node(kind, children) is node
            assert terms._join(kind, children[0], rest) is node
            assert pickle.loads(pickle.dumps(node)) is node and copy.copy(node) is node and copy.deepcopy(node) is node
            terms._sweep()


def test_a_term_built_again_is_its_interned_node_before_and_after_a_sweep():
    text = "(q.r||s).(r||q.s)"
    t = parse_term(text)
    data, h, node = pickle.dumps(t), hash(t), id(t)
    assert pickle.loads(data) is t and copy.copy(t) is t and copy.deepcopy(t) is t
    del t  # until the next sweep the table holds the node, which is still the term's node
    assert id(parse_term(text)) == node and id(pickle.loads(data)) == node
    terms._sweep()
    t = pickle.loads(data)
    assert t is parse_term(text) and hash(t) == h
    assert pickle.loads(data) is t and copy.copy(t) is t and copy.deepcopy(t) is t


def test_a_node_hashes_as_the_tuple_of_its_kind_tag_and_field():
    # the values of the hash every set order, trace and CLI output depends on
    a, b = Leaf("a"), Leaf("b")
    assert hash(EPS) == hash((3,)) and hash(a) == hash((0, "a")) and hash(Leaf("A_2")) == hash((0, "A_2"))
    seq_children, par_children = (a, Par((a, b)), b), (Seq((a, b)), a, b)
    assert hash(Seq(seq_children)) == hash((1, seq_children))
    assert hash(Par(par_children)) == hash((2, par_children))


def test_hashing_a_term_enters_no_python_frame():
    # a Python `__hash__` would run once per node hashed: in a table's key,
    # in every set of words and in the `format_term` cache
    t, frames = parse_term("a.b||c"), []
    words = {t}
    format_term(t)

    def profile(frame, event, arg):
        if event == "call":
            frames.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        hash(t)
        assert t in words
        format_term(t)
    finally:
        sys.setprofile(None)
    assert frames == []


@pytest.mark.parametrize("mode,levels", [(ORDERED, 10_000), (COMMUTATIVE, 1_000)])
def test_a_second_copy_of_a_deep_term_canonicalizes(mode, levels):
    # COMMUTATIVE stops at 1,000 levels: `format_term` caches the text of
    # every Par child, which is quadratic in the depth
    first = canonicalize(alternating(levels), mode)
    assert canonicalize(alternating(levels), mode) is first


def test_a_term_ten_thousand_levels_deep_copies_and_pickles_to_itself():
    t = alternating(10_000)
    for clone in (pickle.loads(pickle.dumps(t)), copy.copy(t), copy.deepcopy(t)):
        assert clone is t


def test_a_shared_term_pickles_its_nodes_not_its_paths():
    # 40 levels of (b.t)||(t.c): about 2**41 atoms on 120 nodes, each written once
    t = Leaf("a")
    for _ in range(40):
        t = par(seq(Leaf("b"), t), seq(t, Leaf("c")))
    data = pickle.dumps(t)
    assert len(data) < 5_000 and pickle.loads(data) is t


@pytest.mark.parametrize("text", ["eps", "a", "A_2", "a.b||c", "(a||b).a", "(a.b||c).(b||a)"])
def test_pickle_and_copy_give_an_equal_term(text):
    t = parse_term(text, allow_upper=True)
    for clone in (pickle.loads(pickle.dumps(t)), copy.copy(t), copy.deepcopy(t)):
        assert type(clone) is type(t)
        assert clone == t and hash(clone) == hash(t)


@pytest.mark.parametrize("term,attr", [(EPS, "_hash"), (Leaf("a"), "symbol"), (pt("a.b||c"), "children")])
def test_terms_are_immutable(term, attr):
    with pytest.raises(AttributeError):
        setattr(term, attr, getattr(term, attr))
    with pytest.raises(AttributeError):
        delattr(term, attr)


def test_tokens_are_values():
    first, second = tokenize("a||b"), tokenize("a||b")
    assert first == second and list(map(hash, first)) == list(map(hash, second))
    assert first[0] != first[2] and len(set(first + second)) == 4
    with pytest.raises(AttributeError):
        first[0].text = "b"


@pytest.mark.parametrize("cls,children,message", [
    (Seq, (Leaf("a"),), "Seq needs at least two children"),
    (Par, (), "Par needs at least two children"),
    (Seq, (Leaf("a"), EPS), "Seq children must be flattened and eps-free"),
    (Par, (Leaf("a"), Par((Leaf("a"), Leaf("b")))), "Par children must be flattened and eps-free"),
])
def test_constructors_reject_non_canonical_children(cls, children, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        cls(children)


def checked(t):
    """`t` rebuilt bottom-up through the checked constructors."""
    if isinstance(t, (Eps, Leaf)):
        return t
    return type(t)(tuple(map(checked, t.children)))


def shares(t, mode):
    """The factor tuples of `t` the membership search reads: the ranges of
    its factors, and in COMMUTATIVE mode every sorted sub-multiset of a Par's,
    each once: so many copies of each run of equal children."""
    if isinstance(t, (Eps, Leaf)):
        return
    n = len(t.children)
    if isinstance(t, Par) and mode is COMMUTATIVE:
        runs = [tuple(run) for _, run in itertools.groupby(t.children)]
        for takes in itertools.product(*(range(len(run) + 1) for run in runs)):
            yield tuple(itertools.chain.from_iterable(run[:k] for run, k in zip(runs, takes)))
    else:
        for i in range(n + 1):
            for j in range(i, n + 1):
                yield t.children[i:j]


@given(terms_st, terms_st, st.sampled_from([ORDERED, COMMUTATIVE]))
def test_unchecked_builders_make_the_nodes_the_constructors_accept(x, y, mode):
    x, y = canonicalize(x, mode), canonicalize(y, mode)
    products = [seq(x, y), par(x, y, mode=mode)]
    built = products + [reverse_term(t, mode) for t in (x, y, *products)]
    for t in (x, y, *products):
        for share in dict.fromkeys(shares(t, mode)):  # each distinct share once: equal children repeat them
            if len(share) > 1:  # a range or sub-multiset of factors, as the membership search reads them
                built.append(_node(type(t), share))
                assert built[-1] == (par(*share, mode=mode) if isinstance(t, Par) else seq(*share))
    for t in built:
        rebuilt = checked(t)  # raises on a node that breaks the rule
        assert rebuilt == t and hash(rebuilt) == hash(t)
        clone = pickle.loads(pickle.dumps(t))
        assert type(clone) is type(t) and clone == t and hash(clone) == hash(t)


# ---------------------------------------------------------------------------
# canonical forms

def test_canonicalize_flattens_and_drops_identity():
    assert canonicalize(par(Leaf("b"), par(Leaf("a"), Leaf("a")))) == pt("b||a||a")
    assert canonicalize(seq(Leaf("a"), EPS, Leaf("b"))) == pt("a.b")


def test_every_term_is_canonical_for_ordered_at_any_depth():
    t = alternating(10_000)
    assert canonicalize(t, ORDERED) is t


def test_a_commutative_canonical_term_comes_back_itself():
    for t in enumerate_terms("abc", 4, COMMUTATIVE):
        assert canonicalize(t, COMMUTATIVE) is t
    t = Leaf("c")  # b||(b.(b||...c)): every Par in order
    for level in range(1_000):
        t = (Seq if level % 2 else Par)((Leaf("b"), t))
    assert canonicalize(t, COMMUTATIVE) is t


def test_commutative_canonicalize_sorts_a_term_a_thousand_levels_deep():
    t, expected = alternating(1_000), Par((Leaf("a"), Leaf("b")))  # only the innermost Par, b||a, is out of order
    for level in range(1, 1_000):
        expected = (Seq if level % 2 else Par)((Leaf("b"), expected))
    canon = canonicalize(t, COMMUTATIVE)
    assert canon is not t and canon is expected
    assert canonicalize(canon, COMMUTATIVE) is canon


def test_commutative_mode_sorts_parallel_children():
    assert canonicalize(pt("b||a||a"), COMMUTATIVE) == pt("a||a||b")
    # sorting is recursive and uses the canonical text order
    assert format_term(canonicalize(pt("b.a||a.b"), COMMUTATIVE)) == "a.b||b.a"


_tags = itertools.count()


def relabeled(t, tag: int):
    """`t` with each leaf x renamed X_tag: nodes that no other test has made,
    so no form or text is known for them yet."""
    if isinstance(t, Leaf):
        return Leaf(f"{t.symbol.upper()}_{tag}")
    if isinstance(t, Eps):
        return t
    return (seq if isinstance(t, Seq) else par)(*(relabeled(c, tag) for c in t.children))


def reference_canonical(t, mode, memo: dict):
    """The canonical form of `t` by plain recursion through the checked
    constructors, each node's computed once (`memo`)."""
    if isinstance(t, (Eps, Leaf)):
        return t
    if t not in memo:
        children = [reference_canonical(c, mode, memo) for c in t.children]
        if isinstance(t, Par) and mode is COMMUTATIVE:
            children.sort(key=format_term)
        memo[t] = type(t)(tuple(children))
    return memo[t]


@given(terms_st, terms_st, st.sampled_from([ORDERED, COMMUTATIVE]), st.booleans())
def test_overlapping_terms_canonicalize_in_either_order_as_the_reference(x, y, mode, backwards):
    tag = next(_tags)
    x, y = relabeled(x, tag), relabeled(y, tag)
    first, second = par(seq(y, x), x), seq(par(x, y), seq(y, x))  # sharing x, y and y.x
    if backwards:
        first, second = second, first
    forms = [canonicalize(first, mode), canonicalize(second, mode)]
    memo = {}
    assert forms == [reference_canonical(first, mode, memo), reference_canonical(second, mode, memo)]
    assert [canonicalize(first, mode), canonicalize(second, mode)] == forms


def test_a_term_is_canonicalized_once():
    t = relabeled(pt("(b.a||a).(b||a)||b.a"), next(_tags))
    form = canonicalize(t, COMMUTATIVE)
    assert form is not t
    hits = format_term.cache_info().hits
    assert canonicalize(t, COMMUTATIVE) is form and canonicalize(form, COMMUTATIVE) is form
    assert format_term.cache_info().hits == hits  # the form is read from the node, with no sort


def test_single_child_collapses():
    assert par(Leaf("a")) == Leaf("a")
    assert seq() == EPS


# ---------------------------------------------------------------------------
# metrics

@pytest.mark.parametrize(
    "text,lg,dp",
    [
        ("a||b||c", 1, 3),
        ("a.b.c", 3, 1),
        ("(a||b).a", 2, 2),
        ("eps", 0, 0),
        ("a", 1, 1),
    ],
)
def test_length_and_depth(text, lg, dp):
    t = pt(text)
    assert length(t) == lg
    assert depth(t) == dp


def test_atom_counts():
    assert atoms_count(pt("a||b||a")) == 3
    assert atoms_multiset(pt("a||b||a")) == {"a": 2, "b": 1}
    assert atoms_count(EPS) == 0
    assert atoms_multiset(EPS) == {}
    assert atoms_count(pt("(a||b).a")) == 3


def test_leaf_walks_take_a_term_ten_thousand_levels_deep():
    t = Leaf("c")  # a.(b||(a.(b||...c)))
    for level in range(10_000):
        t = seq(Leaf("a"), t) if level % 2 else par(Leaf("b"), t)
    assert list(symbols_of(t)) == ["a", "b"] * 5_000 + ["c"]
    assert atoms_count(t) == 10_001
    assert atoms_multiset(t) == {"a": 5_000, "b": 5_000, "c": 1}


def test_metrics_and_reversal_take_a_term_ten_thousand_levels_deep():
    t, rev, lg, dp = Leaf("c"), Leaf("c"), 1, 1  # a.(b||(a.(b||...c))), its reversal and metrics
    for level in range(10_000):
        if level % 2:
            t, rev, lg, dp = seq(Leaf("a"), t), seq(rev, Leaf("a")), lg + 1, max(dp, 1)
        else:
            t, rev, lg, dp = par(Leaf("b"), t), par(Leaf("b"), rev), max(lg, 1), dp + 1
        if level == 999:
            commutative = reverse_term(t, COMMUTATIVE)
    assert (length(t), depth(t)) == (lg, dp) == (5_001, 5_001)
    assert reverse_term(t) is rev
    assert reverse_term(reverse_term(t)) is t
    assert (length(rev), depth(rev)) == (lg, dp)
    node = commutative  # ...((b||c).a||b).a...: each Seq reversed, each Par sorted by its text
    for level in range(999, 0, -1):
        assert node.__class__ is (Seq if level % 2 else Par)
        assert node.children[1] == Leaf("a" if level % 2 else "b")
        node = node.children[0]
    assert node == Par((Leaf("b"), Leaf("c")))


def test_recurrences_hold_structurally():
    # over all pairs of the 3-atom universe: composing and canonicalizing
    # keeps the defining equations for both metrics
    uni = enumerate_terms("ab", 3)
    for x in uni:
        for y in uni:
            assert length(canonicalize(seq(x, y))) == length(x) + length(y)
            assert depth(canonicalize(seq(x, y))) == max(depth(x), depth(y))
            assert length(canonicalize(par(x, y))) == max(length(x), length(y))
            assert depth(canonicalize(par(x, y))) == depth(x) + depth(y)


def shared(levels):
    """A term built in code, `levels` levels of (b.t)||(t.c) over the level
    below: three nodes a level, but twice as many paths."""
    t = Leaf("a")
    for _ in range(levels):
        t = Par((Seq((Leaf("b"), t)), Seq((t, Leaf("c")))))
    return t


def reference_extents(t, memo: dict):
    """(length, depth) of `t` by plain recursion, each node's once (`memo`)."""
    if isinstance(t, Leaf):
        return 1, 1
    if t not in memo:
        lengths, depths = zip(*(reference_extents(c, memo) for c in t.children))
        memo[t] = (sum(lengths), max(depths)) if isinstance(t, Seq) else (max(lengths), sum(depths))
    return memo[t]


def reference_reverse(t, memo: dict):
    """The ORDERED reversal of `t` by plain recursion, each node's once (`memo`)."""
    if isinstance(t, Leaf):
        return t
    if t not in memo:
        children = tuple(reference_reverse(c, memo) for c in t.children)
        memo[t] = Seq(children[::-1]) if isinstance(t, Seq) else Par(children)
    return memo[t]


def test_a_shared_term_is_walked_once_per_node():
    t = shared(60)
    start = time.perf_counter()
    extents, reverse = (length(t), depth(t)), reverse_term(t)
    assert time.perf_counter() - start < 0.5
    assert extents == reference_extents(t, {}) == (61, 2 ** 60)
    # booleans: a failed assert would print the terms, whose text has 2**60 letters
    as_reference, involution = reverse is reference_reverse(t, {}), reverse_term(reverse) is t
    assert as_reference and involution
    # the COMMUTATIVE order is the text order, and the text doubles with each
    # level, so the sort keys cap this check at 16 levels (a million letters)
    t = relabeled(shared(16), next(_tags))
    start = time.perf_counter()
    form = canonicalize(t, COMMUTATIVE)
    assert time.perf_counter() - start < 0.5
    assert form is reference_canonical(t, COMMUTATIVE, {}) and form is not t


def test_a_term_two_thousand_levels_deep_is_formatted_and_collected():
    # built in code: the parser caps nesting. The cached texts grow with the
    # square of the depth, so 2,000 levels, not 10,000
    t = alternating(2_000)  # b.(b||b.(b||...(b||a)))
    assert format_term(t) == "b.(b||" * 1_000 + "a" + ")" * 1_000
    for mode in (ORDERED, COMMUTATIVE):  # "b.(" sorts before "b||"
        lang = FiniteLang.of([t.children[1], t], mode)
        assert lang.terms == (canonicalize(t, mode), canonicalize(t.children[1], mode))
    assert format_term(lang.terms[0]) == "b.(b||" * 999 + "b.(a||b" + ")" * 1_000


def test_zero_metrics_only_for_eps():
    for t in enumerate_terms("ab", 3):
        assert (length(t) == 0) == isinstance(t, Eps)
        assert (depth(t) == 0) == isinstance(t, Eps)


# ---------------------------------------------------------------------------
# reversal

def test_reverse_examples():
    assert reverse_term(pt("a||b")) == pt("a||b")
    assert reverse_term(pt("a.b")) == pt("b.a")
    assert reverse_term(pt("(c||d).a.b")) == pt("b.a.(c||d)")


def test_reverse_is_involution_and_preserves_metrics():
    for t in enumerate_terms("ab", 4):
        r = reverse_term(t)
        assert reverse_term(r) == t
        assert length(r) == length(t)
        assert depth(r) == depth(t)


# ---------------------------------------------------------------------------
# classification

@pytest.mark.parametrize(
    "text,cls",
    [
        ("a.b", TermClass.SEQUENTIAL),
        ("a||b", TermClass.PARALLEL),
        ("(a||b).a", TermClass.MIXED),
        ("a", TermClass.SEQUENTIAL),  # atoms prefer SEQUENTIAL in the single-valued form
        ("eps", TermClass.SEQUENTIAL),
    ],
)
def test_classify_term(text, cls):
    assert classify_term(pt(text)) == cls


def test_atoms_satisfy_both_word_predicates():
    assert is_sequential_word(Leaf("a")) and is_parallel_word(Leaf("a"))
    assert is_sequential_word(EPS) and is_parallel_word(EPS)
    assert not is_parallel_word(pt("a.b"))
    assert not is_sequential_word(pt("a||b"))


def test_classification_bounds_metrics():
    for t in enumerate_terms("ab", 4):
        if classify_term(t) == TermClass.PARALLEL:
            assert length(t) <= 1
        if classify_term(t) == TermClass.SEQUENTIAL:
            assert depth(t) <= 1


# ---------------------------------------------------------------------------
# enumeration

def test_enumerate_singleton_alphabet():
    assert enumerate_terms("a", 0) == (EPS,)
    assert {format_term(t) for t in enumerate_terms("a", 2)} == {"eps", "a", "a.a", "a||a"}


def test_enumerate_two_letters_two_atoms():
    # eps, both atoms, and all ordered two-atom pairs under each operator:
    # 1 + 2 + 2*(2*2) = 11
    uni = enumerate_terms("ab", 2)
    assert len(uni) == 11
    assert uni == binary_universe("ab", 2)


@pytest.mark.parametrize("mode", [ORDERED, COMMUTATIVE])
@pytest.mark.parametrize("max_atoms", [0, 1, 2, 3, 4, 5])
def test_enumerate_matches_independent_generator(mode, max_atoms):
    assert enumerate_terms("ab", max_atoms, mode) == binary_universe("ab", max_atoms, mode)


def test_enumerate_output_is_sorted_and_canonical():
    uni = enumerate_terms("ab", 3, COMMUTATIVE)
    keys = [format_term(t) for t in uni]
    assert keys == sorted(keys)
    for t in uni:
        assert canonicalize(t, COMMUTATIVE) == t


def test_enumerate_cap(monkeypatch):
    monkeypatch.setattr("splang.terms.DEFAULT_CAP", 100)
    with pytest.raises(EnumerationCapError):
        enumerate_terms("ab", 6)


@pytest.mark.parametrize("mode", [ORDERED, COMMUTATIVE])
def test_enumerate_cap_bounds_the_terms_eps_included(mode, monkeypatch):
    size = len(binary_universe("ab", 4, mode))
    monkeypatch.setattr("splang.terms.DEFAULT_CAP", size)
    assert len(enumerate_terms("ab", 4, mode)) == size
    monkeypatch.setattr("splang.terms.DEFAULT_CAP", size - 1)
    with pytest.raises(EnumerationCapError, match=rf"^term universe exceeds the cardinality cap \({size - 1}\)$"):
        enumerate_terms("ab", 4, mode)


def test_a_universe_past_the_cap_raises_within_the_level():
    # the cap is checked as each form's words are added: the level of 6 atoms over four letters is not finished
    with pytest.raises(EnumerationCapError, match=r"^term universe exceeds the cardinality cap \(200000\)$"):
        enumerate_terms("abcd", 6)


def test_enumerate_rejects_bad_alphabet():
    with pytest.raises(ValueError):
        enumerate_terms(["A"], 2)


# ---------------------------------------------------------------------------
# randomized structural properties

@given(terms_st, st.sampled_from([ORDERED, COMMUTATIVE]))
def test_canonicalize_idempotent(t, mode):
    once = canonicalize(t, mode)
    assert canonicalize(once, mode) == once


@given(terms_st)
def test_canonicalize_returns_an_ordered_term_itself(t):
    assert canonicalize(t, ORDERED) is t


@given(terms_st)
def test_parse_format_round_trip(t):
    canon = canonicalize(t)
    assert parse_term(format_term(canon)) == canon


@given(terms_st, terms_st, st.sampled_from([ORDERED, COMMUTATIVE]))
def test_constructors_build_canonical_terms_from_canonical_parts(x, y, mode):
    x, y = canonicalize(x, mode), canonicalize(y, mode)
    assert par(x, y, mode=mode) == canonicalize(par(x, y), mode)
    assert seq(x, y) == canonicalize(seq(x, y), mode)


@given(terms_st, terms_st, st.sampled_from([ORDERED, COMMUTATIVE]))
@example(EPS, pt("a||b"), COMMUTATIVE)  # an eps part gives the other
@example(pt("a"), pt("b.a"), ORDERED)  # a leaf and a part of either kind
@example(pt("a||b"), pt("a||b"), COMMUTATIVE)  # Par runs that interleave
@example(pt("a||a"), pt("a.b||b"), COMMUTATIVE)  # Par runs end to end
@example(pt("a.b||b"), pt("a||a"), COMMUTATIVE)  # the same runs the other way round interleave
def test_the_join_of_canonical_parts_is_the_node_seq_and_par_make(x, y, mode):
    x, y = canonicalize(x, mode), canonicalize(y, mode)
    assert terms._join(Seq, x, y, mode) is seq(x, y)
    assert terms._join(Par, x, y, mode) is par(x, y, mode=mode)


@given(terms_st, st.sampled_from([ORDERED, COMMUTATIVE]))
def test_terms_parsed_apart_are_equal_and_hash_equal(t, mode):
    text = format_term(canonicalize(t, mode))
    first, second = (canonicalize(parse_term(text), mode) for _ in range(2))
    assert first is second
    assert first == second and hash(first) == hash(second)
    assert len({first, second}) == 1


@given(terms_st, st.sampled_from([ORDERED, COMMUTATIVE]))
def test_a_term_read_back_copied_or_unpickled_is_the_same_node(t, mode):
    canon = canonicalize(t, mode)
    assert parse_term(format_term(canon)) is canon
    for clone in (pickle.loads(pickle.dumps(canon)), copy.copy(canon), copy.deepcopy(canon)):
        assert clone is canon


@given(terms_st, st.sampled_from([ORDERED, COMMUTATIVE]))
def test_reverse_involution_random(t, mode):
    canon = canonicalize(t, mode)
    reversed_ = reverse_term(canon, mode)
    assert reversed_ == canonicalize(reverse_term(canon), mode)
    assert reverse_term(reversed_, mode) == canon
