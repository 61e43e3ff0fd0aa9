"""Series-parallel terms.

A term is built from single-letter atoms with two associative operators:
sequential composition (written ``.``) and parallel composition (written
``||``), plus the empty word ``eps`` which is the identity of both. Terms are
kept in a canonical form:

* ``Seq``/``Par`` nodes are flattened (no same-kind direct child), have at
  least two children, and never contain ``eps``;
* in COMMUTATIVE mode the children of every ``Par`` node are additionally
  sorted, so parallel composition is order-blind. ``par(..., mode=mode)``
  sorts them, so ``seq`` and ``par`` build canonical terms from canonical
  parts. The constructors ``Seq(...)`` and ``Par(...)`` refuse a node that
  breaks the first rule; ``_node`` trusts its caller to keep it, so every term
  is canonical for ORDERED. Its callers are ``seq`` and ``par``, ``_join``
  (the product of two parts canonical for a mode, which the finite-language
  algebra and ``grammars.generate`` build their words with),
  ``reverse_term``, ``canonicalize`` and the membership search's shares.
  ``canonicalize`` sorts the Par nodes of a term built without the mode.

Nodes are hash-consed (Filliâtre & Conchon, "Type-safe modular hash-consing",
2006): there is one node per term, so two terms are equal exactly when they
are the same object, and ``==`` is ``is`` at any depth. Every node comes
from its kind's intern table, keyed on the node's field (`_node`, `_add`), so
the constructors, pickling and `copy` give back the node already made. Nodes
are immutable values (see ``_lex.Immutable``) with the fields ``()``,
``("symbol",)`` and ``("children",)``. Each computes its hash once, when it is
made, from its kind and its children's stored hashes, so a term hashes in
constant time at any depth, and not by its address (see `SPTerm`). The hash
is kept as the node's ``__hash__`` slot, a C callable, so hashing a node (in
a table's key, a set of words or the `format_term` cache) enters no Python
frame. The tables hold their nodes strongly and are swept by reference count
(`_sweep`, after Appel & Gonçalves, "Hash-consing garbage collection", 1993):
once they have doubled since the last sweep, every node that only its table
holds is dropped, and what it held is tested in turn, so a dead term goes in
one cascade, without recursion. The sweep reads ``sys.getrefcount``, so it
is specific to CPython. A Seq or Par node also keeps facts once they are
first asked for (see `_Product`): its COMMUTATIVE canonical form, its text,
and what the membership search reads, its Parikh vector in the one layout of
every grammar (`_WIDTH`) with its children's prefix sums (`_parikh`) and a
Par's runs of equal children (`_runs`). So a node is canonicalized,
formatted and summed once in its life, whatever grammar it is searched
against. Equal sub-terms are one node, so a term is a DAG: the walks over a
term (`_products`) visit each distinct node once, and a term that shares its
sub-terms costs its nodes, not its paths, also when it is pickled.

Lowercase leaves are alphabet atoms. Uppercase leaves, optionally indexed
(``A_12``), are reserved for the grammar layer, which reuses this algebra for
sentential forms. That layer's bounded engine also builds the bounded term
universe (`enumerate_terms`), from a grammar of canonical terms.

Text format (whitespace ignored): operands joined by the operators of
``_LEVELS``, loosest first, so ``.`` binds tighter than ``||``; an operand is
a letter, ``eps`` or a parenthesized term (``_parse_prim``).
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections import Counter
from enum import Enum
from sys import getrefcount

from ._lex import NONTERMINAL, Immutable, TokenStream, is_atom
from .errors import TermSyntaxError


class SemanticsMode(Enum):
    """How parallel composition is compared: order-sensitive or multiset."""

    ORDERED = "ordered"
    COMMUTATIVE = "commutative"


ORDERED = SemanticsMode.ORDERED
COMMUTATIVE = SemanticsMode.COMMUTATIVE


class SPTerm(Immutable):
    """Base class of term nodes.

    Nodes are immutable, slotted and interned: the constructors return the
    node of a term if its kind's intern table has one, so equality is
    identity, and comparing two terms of any depth, or finding one in a set
    or cache, never walks their children. Each node computes its hash once,
    when it is made, from a tag for its kind and its children's stored
    hashes, not from its address: hashing a term of any depth reads one
    slot, a set of terms iterates in the same order in every run under one
    hash seed, and a ``Seq`` does not hash like the ``Par`` of the same
    children. The hash keys no intern table: each kind's is keyed on the
    node's field. The hash is stored in `_hash`, and ``__hash__`` is a slot
    too, holding the bound ``__index__`` of that int: CPython hashes a node
    by calling that C callable, so a hash, a set or dict lookup and a cache
    hit enter no Python frame, where a ``__hash__`` method would enter one
    per node hashed.
    """

    __slots__ = ("_hash", "__hash__")
    __eq__ = object.__eq__  # one node per term
    __init__ = object.__init__  # `__new__` makes or finds the node

    def __repr__(self) -> str:
        return format_term(self)

    def __copy__(self, memo=None):  # one node per term, and immutable: the node is its own copy
        return self

    __deepcopy__ = __copy__


_init = object.__setattr__  # the constructors' way past Immutable.__setattr__


# The intern tables, one per kind (`_interned`): a Leaf's keyed on its symbol,
# a Seq's or Par's on the node's own children tuple, so a node adds no key
# object. A field makes one node, so no two nodes share a key, and two equal
# hashes are the dict's business: no collision path is needed. The tables
# hold their nodes strongly, and `_sweep` drops those nothing else holds once
# the tables have taken `_room` more entries.
_SWEPT_AT_LEAST = 4_096  # the fewest entries the tables are swept at
_room = _SWEPT_AT_LEAST  # the entries the tables take before the next sweep


def _sweep() -> None:
    """Drop from the intern tables every node that only its table holds.

    The sweep walks a snapshot of each table's nodes, newest first, and
    clears each slot as it reads it, so the node is held by its table, the
    sweep's local and the call's argument: a `sys.getrefcount` of 3 drops
    it. A dropped node releases its children and its COMMUTATIVE form
    (`_Product._canon`), so they go on a stack, and each node popped gets
    the same test: a dead term goes in one cascade from its root, whatever
    its kinds and depth. A node that an unread slot or another stack entry
    still holds counts one more, and is tested again when that one is read.
    So the sweep is one pass with no recursion, linear in the entries and
    the drops, and specific to CPython, whose counts it reads. The next
    sweep comes when the tables together have twice the entries left, and
    at least `_SWEPT_AT_LEAST`."""
    global _room
    for kind in (Seq, Par, Leaf):
        nodes, stack = [*kind._interned.values()], []
        while nodes or stack:
            node = stack.pop() if stack else nodes.pop()
            if getrefcount(node) == 3:
                if node.__class__ is Leaf:
                    del Leaf._interned[node.symbol]
                else:  # no local may name a child or the form, or its count would be one more
                    del node._interned[node.children]
                    stack += node.children
                    if getattr(node, "_canon", None) is not None:
                        stack.append(node._canon)
    left = len(Leaf._interned) + len(Seq._interned) + len(Par._interned)
    _room = max(_SWEPT_AT_LEAST, 2 * left) - left


class Eps(SPTerm):
    """The empty word; identity of both compositions, length = depth = 0."""

    __slots__ = ()

    def __new__(cls):
        return EPS


EPS = object.__new__(Eps)
_init(EPS, "_hash", hash((3,)))
_init(EPS, "__hash__", EPS._hash.__index__)


class Leaf(SPTerm):
    __slots__ = _fields = ("symbol",)
    _TAG = 0
    _interned: dict[str, Leaf] = {}

    def __new__(cls, symbol: str):
        leaf = Leaf._interned.get(symbol)
        if leaf is not None:
            return leaf
        if not (is_atom(symbol) or NONTERMINAL.fullmatch(symbol)):
            raise ValueError(f"leaf symbol must be a lowercase letter or a nonterminal name, got {symbol!r}")
        return _add(Leaf, "symbol", symbol)


class _Product(SPTerm):
    """A Seq or Par node: at least two children, each a term, none eps or of
    its own kind. The constructor, which pickling also uses, checks that rule
    on children from outside the package before it looks the node up; `_node`
    finds or builds the node without it.

    Slots hold facts that are made once, when first asked for: `_canon` is
    the node's COMMUTATIVE canonical form, which `canonicalize` sets: unset
    while it is not known, None when the node is its own form, else the
    form. No node is its own slot's value, and a form has as many nodes as
    its term, so it cannot hold the term: the slots make no reference
    cycle. `_text` is the text `format_term` made, `_sums` the prefix sums
    `_parikh` made and a Par's `_runs` those `_runs` made. A form is often
    newer than its term, and in the other kind's table when the term is a
    Seq, so `_sweep` follows `_canon` from a dropped node as it follows the
    children."""

    __slots__ = ("children", "_canon", "_text", "_sums")
    _fields = ("children",)
    _TAG: int
    _interned: dict[tuple, _Product]

    def __new__(cls, children: tuple[SPTerm, ...]):
        if len(children) < 2:
            raise ValueError(f"{cls.__name__} needs at least two children")
        for c in children:
            if not isinstance(c, SPTerm):
                raise TypeError(f"{cls.__name__} children must be terms, got {c!r}")
            if isinstance(c, (cls, Eps)):
                raise ValueError(f"{cls.__name__} children must be flattened and eps-free")
        return _node(cls, children)

    def __reduce__(self):
        """The term's distinct Seq and Par nodes as a flat list (`_flat`), so
        a deep term pickles and unpickles (`_rebuild`) without recursion."""
        return _rebuild, (_flat((self,))[0],)


def _flat(terms) -> tuple[list, list]:
    """The distinct Seq and Par nodes of `terms` in post-order (`_products`),
    each once, however many of the terms share it, and each child a leaf or
    the index of an earlier node; and each term as a leaf, eps or the index
    of its node."""
    at, nodes, seen = {}, [], set()
    for t in terms:
        for node in _products(t, seen=seen):
            at[id(node)] = len(nodes)
            nodes.append((node.__class__, tuple([c if c.__class__ is Leaf else at[id(c)] for c in node.children])))
    return nodes, [at.get(id(t), t) for t in terms]


def _built(nodes: list) -> list:
    """The nodes of a `_flat` list, each made by its checked constructor."""
    built = []
    for kind, children in nodes:
        built.append(kind(tuple([built[c] if c.__class__ is int else c for c in children])))
    return built


def _rebuild(nodes: list) -> SPTerm:
    """The last node of a pickled term."""
    return _built(nodes)[-1]


class Seq(_Product):
    __slots__ = ()
    _TAG = 1
    _interned = {}


class Par(_Product):
    __slots__ = ("_runs",)
    _TAG = 2
    _interned = {}


def _node(kind, children: tuple) -> _Product:
    """The `kind` (Seq or Par) node of `children`, found in the kind's table
    or made, but unchecked: `seq`, `par`, `_join`, `reverse_term`,
    `canonicalize` and the membership search's shares keep the rule of
    `_Product` by construction. The children are interned, so the key
    tuples compare them by identity; a node is never false."""
    return kind._interned.get(children) or _add(kind, "children", children)


def _add(kind, field: str, value) -> SPTerm:
    """The new `kind` node whose `field` is `value`, entered in the kind's
    table (`_interned`) under `value` itself. It gets its stored hash,
    ``hash((kind._TAG, value))``, twice: in `_hash`, and as the C callable
    of its `__hash__` slot, which hashes it with no Python frame (see
    `SPTerm`). The tables hold their nodes strongly: entering one sweeps them
    (`_sweep`) once they have taken `_room` entries since the last sweep, so
    a node nothing else holds lives until the next sweep, and a term built
    again before then is the node already made."""
    global _room
    node = object.__new__(kind)
    _init(node, field, value)
    h = hash((kind._TAG, value))
    _init(node, "_hash", h)
    _init(node, "__hash__", h.__index__)
    kind._interned[value] = node
    _room -= 1
    if _room <= 0:
        _sweep()
    return node


def _product(kind, parts: tuple, mode: SemanticsMode = ORDERED) -> SPTerm:
    """The `kind` (Seq or Par) node of `parts`, the children of a part of
    that kind inlined and eps dropped, and in COMMUTATIVE mode sorted; a
    single child is returned itself, and none gives eps."""
    flat: list[SPTerm] = []
    for p in parts:
        cls = p.__class__
        if cls is kind:
            flat += p.children
        elif cls is not Eps:
            flat.append(p)
    if len(flat) < 2:
        return flat[0] if flat else EPS
    if mode is COMMUTATIVE:
        flat.sort(key=format_term)
    return _node(kind, tuple(flat))


def _join(kind, x: SPTerm, y: SPTerm, mode: SemanticsMode = ORDERED) -> SPTerm:
    """The `kind` (Seq or Par) product of `x` and `y`, which must be
    canonical for `mode`: what `seq(x, y)` or `par(x, y, mode=mode)` gives,
    in one step, with `_node`'s lookup made here. An eps part gives the
    other part, and a part of `kind` gives its children. In COMMUTATIVE mode
    a Par's two runs of children are each sorted already, so they are sorted
    together only when they interleave."""
    cx = x.__class__
    if cx is Eps:
        return y
    cy = y.__class__
    if cy is Eps:
        return x
    xs = x.children if cx is kind else (x,)
    ys = y.children if cy is kind else (y,)
    children = xs + ys
    if kind is Par and mode is COMMUTATIVE and format_term(ys[0]) < format_term(xs[-1]):
        children = tuple(sorted(children, key=format_term))
    return kind._interned.get(children) or _add(kind, "children", children)


def seq(*parts: SPTerm) -> SPTerm:
    """Sequential composition with flattening, eps removal, and collapsing."""
    return _product(Seq, parts)


def par(*parts: SPTerm, mode: SemanticsMode = ORDERED) -> SPTerm:
    """Parallel composition with flattening, eps removal, collapsing, and in
    COMMUTATIVE mode sorting: parts canonical for `mode` give a canonical result."""
    return _product(Par, parts, mode)


def _products(t: SPTerm, known: str | None = None, seen: set | None = None) -> list:
    """The distinct Seq and Par nodes of `t`, each once and after its
    children: a post-order walk over visited ids with its own stack, so a
    deep term needs no recursion and a shared sub-term is walked once. A node
    below `t` whose slot `known` is set is left out, and so is what lies only
    below it. A walk given `seen`, the ids of the nodes earlier walks
    visited, leaves those out too and adds the ids of its own."""
    if t.__class__ is Leaf or t.__class__ is Eps:
        return []
    if seen is None:
        seen = set()
    elif id(t) in seen:
        return []
    order = []
    seen.add(id(t))
    nodes, rests = [t], [iter(t.children)]  # the path from `t`, and each node's children left to visit
    while rests:
        for c in rests[-1]:
            if c.__class__ is not Leaf and id(c) not in seen:
                seen.add(id(c))
                if known is None or not hasattr(c, known):
                    nodes.append(c)
                    rests.append(iter(c.children))
                    break
        else:
            rests.pop()
            order.append(nodes.pop())
    return order


def canonicalize(t: SPTerm, mode: SemanticsMode = ORDERED) -> SPTerm:
    """`t` in canonical form for `mode`. Idempotent. Every term is canonical
    for ORDERED, the constructors refusing any other, so `t` itself is
    returned. COMMUTATIVE sorts the children of every Par by `format_term`.
    Each node's form is recorded on the node (`_Product._canon`), so a term
    is canonicalized once in its life: a later call reads the slot, and a
    first call walks only the nodes whose form is not known yet, each once
    and after its children (`_products`), so a deep term needs no recursion.
    Sorting never changes a node's kind, so no node needs flattening; a node
    whose children come back unchanged and, for a Par, in order is its own
    form, so a term that is already canonical comes back itself."""
    if mode is ORDERED or t.__class__ is Leaf or t.__class__ is Eps:
        return t
    form = getattr(t, "_canon", t)  # t itself: not known yet
    if form is not t:
        return t if form is None else form
    for node in _products(t, "_canon"):
        children = tuple([c if c.__class__ is Leaf else c._canon or c for c in node.children])
        if node.__class__ is Par:
            keys = list(map(format_term, children))
            if any(map(operator.gt, keys, keys[1:])):
                children = tuple([children[i] for i in sorted(range(len(keys)), key=keys.__getitem__)])
        if children == node.children:
            _init(node, "_canon", None)
        else:
            form = _node(node.__class__, children)
            _init(form, "_canon", None)
            _init(node, "_canon", form)
    return t._canon or t


@functools.lru_cache(maxsize=None)
def format_term(t: SPTerm) -> str:
    """Minimal-parenthesization text for `t`; also the canonical sort key.
    A Seq or Par node's text is made once, from its children's, and kept on
    the node (`_Product._text`): a miss makes the texts of the nodes of `t`
    that have none, each after its children's (`_products`), so a deep term
    needs no recursion. The cache keeps the terms it formatted alive."""
    cls = t.__class__
    if cls is Leaf:
        return t.symbol
    if cls is Eps:
        return "eps"
    if cls is not Seq and cls is not Par:
        raise TypeError(f"not a term: {t!r}")
    for node in _products(t, "_text"):
        if node.__class__ is Par:  # children are leaves or Seq; "." binds tighter, so no parens needed
            text = "||".join([c.symbol if c.__class__ is Leaf else c._text for c in node.children])
        else:  # children are leaves or Par
            text = ".".join([c.symbol if c.__class__ is Leaf else f"({c._text})" for c in node.children])
        _init(node, "_text", text)
    return t._text


# A Parikh vector (Parikh, JACM 13, 1966) packs a term's atom count and its
# count of each leaf symbol into one int, _WIDTH bits a field, in one layout
# for every grammar: the atoms in field 0, a..z in fields 1..26 and any other
# symbol (a nonterminal leaf of a term built in code) in field 27, which no
# grammar's words fill. `_parikh` refuses a term of 2**64 atoms or more, which
# only a term that shares its sub-terms can have, so no field overflows: a
# share's vector is the sum of its factors', and the rest's is the whole's
# minus the share's.
_WIDTH = 64
_COUNT = (1 << _WIDTH) - 1  # the atom count's field
_UNITS = {chr(ord("a") + i - 1): 1 | 1 << _WIDTH * i for i in range(1, 27)}  # a letter's vector
_OTHER = 1 | 1 << _WIDTH * 27  # the vector of any other leaf


def _parikh(t: SPTerm) -> int:
    """The Parikh vector of `t`. A Seq or Par node keeps the prefix sums of
    its children's vectors, its own last (`_Product._sums`): a first call
    sums the nodes of `t` that have none, each once and after its children
    (`_products`), so a deep term needs no recursion. Raises OverflowError
    when `t` has 2**64 atoms or more (see `_WIDTH`)."""
    cls = t.__class__
    if cls is Leaf:
        return _UNITS.get(t.symbol, _OTHER)
    if cls is Eps:
        return 0
    if not hasattr(t, "_sums"):
        for node in _products(t, "_sums"):
            vecs = [_UNITS.get(c.symbol, _OTHER) if c.__class__ is Leaf else c._sums[-1] for c in node.children]
            if sum(map(_COUNT.__and__, vecs)) > _COUNT:  # the children's counts are exact: none was refused
                raise OverflowError(f"a term of 2**{_WIDTH} atoms or more has no Parikh vector")
            _init(node, "_sums", tuple(itertools.accumulate(vecs, initial=0)))
    return t._sums[-1]


def _runs(t: Par) -> tuple:
    """The children of `t` as a COMMUTATIVE read takes them: the first child
    of each run of equal ones, the run lengths and the firsts' Parikh
    vectors, made once and kept on the node (`Par._runs`)."""
    if not hasattr(t, "_runs"):
        firsts, counts = zip(*[(c, len(tuple(same))) for c, same in itertools.groupby(t.children)])
        _init(t, "_runs", (firsts, counts, tuple(map(_parikh, firsts))))
    return t._runs


def parse_term(text: str, *, allow_upper: bool = False) -> SPTerm:
    """Parse the term text format into a canonical ORDERED-mode term.

    Uppercase leaves are rejected unless `allow_upper` is set (the grammar
    layer sets it to parse sentential forms).
    """
    return TokenStream(text).whole(_LEVELS, _form if allow_upper else _parse_prim)


def _parse_prim(stream: TokenStream, allow_upper: bool = False) -> SPTerm:
    """An operand of a term: a letter, ``eps`` or a parenthesized term."""
    tok = stream.peek()
    if tok.kind == "LETTER":
        if tok.text.isupper() and not allow_upper:
            raise TermSyntaxError(f"uppercase letter {tok.text!r} not allowed in a plain term", tok.offset)
        stream.next()
        return Leaf(tok.text)
    if tok.kind == "EPS":
        stream.next()
        return EPS
    if stream.eat_op("("):
        inner = stream.infix(_LEVELS, _form if allow_upper else _parse_prim)
        stream.expect_op(")")
        return inner
    raise TermSyntaxError(f"expected a letter, 'eps' or '(', found {tok.text or 'end of input'!r}", tok.offset)


# an operand of a sentential form: `_parse_prim` with nonterminal leaves
_form = functools.partial(_parse_prim, allow_upper=True)
# the operator levels of the term text format, loosest first (see `TokenStream.infix`)
_LEVELS = (("||", par), (".", seq))


def _extents(t: SPTerm) -> tuple[int, int]:
    """`length` and `depth` of `t`, found in one bottom-up walk."""
    done = {}  # id of a Seq or Par node of `t` -> its extents
    for node in _products(t):
        lengths, depths = zip(*[done.get(id(c), (1, 1)) for c in node.children])
        done[id(node)] = (sum(lengths), max(depths)) if node.__class__ is Seq else (max(lengths), sum(depths))
    return done.get(id(t), (0, 0) if t.__class__ is Eps else (1, 1))


def length(t: SPTerm) -> int:
    """Sequential extent: atoms count 1, Seq sums, Par takes the max."""
    return _extents(t)[0]


def depth(t: SPTerm) -> int:
    """Parallel width: atoms count 1, Seq takes the max, Par sums."""
    return _extents(t)[1]


def symbols_of(t: SPTerm):
    """Leaf symbols of `t`, left to right, found with a stack, so deep terms
    need no recursion."""
    stack = [t]
    while stack:
        node = stack.pop()
        if node.__class__ is Leaf:
            yield node.symbol
        elif node.__class__ is not Eps:
            stack += reversed(node.children)


def atoms_count(t: SPTerm) -> int:
    return sum(1 for _ in symbols_of(t))


def atoms_multiset(t: SPTerm) -> Counter[str]:
    """Leaf symbols with multiplicity."""
    return Counter(symbols_of(t))


def reverse_term(t: SPTerm, mode: SemanticsMode = ORDERED) -> SPTerm:
    """Mirror the sequential structure: Seq children are reversed (and each
    reversed, bottom up), Par children re-sorted in COMMUTATIVE mode. An
    involution on terms canonical for `mode` that keeps length and depth."""
    done = {}  # id of a Seq or Par node of `t` -> its reversal
    for node in _products(t):
        children = [done.get(id(c), c) for c in node.children] if done else node.children
        done[id(node)] = _node(Seq, tuple(reversed(children))) if node.__class__ is Seq else par(*children, mode=mode)
    return done.get(id(t), t)


class TermClass(Enum):
    SEQUENTIAL = "SEQUENTIAL"
    PARALLEL = "PARALLEL"
    MIXED = "MIXED"


def is_sequential_word(t: SPTerm) -> bool:
    """True iff `t` contains no parallel composition (a plain word or eps)."""
    if isinstance(t, (Eps, Leaf)):
        return True
    if isinstance(t, Par):
        return False
    return all(is_sequential_word(c) for c in t.children)


def is_parallel_word(t: SPTerm) -> bool:
    """True iff `t` is eps, an atom, or a flat parallel bunch of atoms."""
    if isinstance(t, (Eps, Leaf)):
        return True
    if isinstance(t, Par):
        return all(isinstance(c, Leaf) for c in t.children)
    return False


def classify_term(t: SPTerm) -> TermClass:
    """Single-valued classification. Atoms and eps are both sequential and
    parallel words; this form prefers SEQUENTIAL for them (use the
    is_*_word predicates when the distinction matters)."""
    if is_sequential_word(t):
        return TermClass.SEQUENTIAL
    if is_parallel_word(t):
        return TermClass.PARALLEL
    return TermClass.MIXED


DEFAULT_CAP = 200_000


def enumerate_terms(alphabet, max_atoms: int, mode: SemanticsMode = ORDERED) -> tuple[SPTerm, ...]:
    """Every canonical term (for `mode`) with at most `max_atoms` atom
    occurrences, eps included, sorted by the canonical order.

    This is the universe of `term enum`, which the tests filter as their
    oracle: `grammars.generate` on a grammar of canonical terms, the engine
    of every bounded language of the package. Raises EnumerationCapError
    when more than DEFAULT_CAP terms would be produced. The last 64
    universes are cached.
    """
    from .grammars import _universe  # grammars imports this module

    return _universe(_letters(alphabet, max_atoms), max_atoms, mode, DEFAULT_CAP).terms


def _letters(alphabet, max_atoms: int) -> tuple[str, ...]:
    """The sorted distinct letters of `alphabet`, after checking the bounds
    of a bounded enumeration: lowercase letters and max_atoms >= 0."""
    letters = tuple(sorted(set(alphabet)))
    for c in letters:
        if not is_atom(c):
            raise ValueError(f"alphabet entries must be lowercase letters, got {c!r}")
    if max_atoms < 0:
        raise ValueError("max_atoms must be >= 0")
    return letters
