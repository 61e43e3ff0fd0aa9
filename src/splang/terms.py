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
  is canonical for ORDERED. ``canonicalize`` sorts the Par nodes of a term
  built without the mode.

Nodes are hash-consed (Filliâtre & Conchon, "Type-safe modular hash-consing",
2006): there is one live node per term, so two terms are equal exactly when
they are the same object, and ``==`` is ``is`` at any depth. Every node comes
from a weak table keyed on its stored hash (`_node`, `_add`), so the
constructors, pickling and `copy` give back the node that is already alive,
and the table keeps no node alive that nothing else holds. Nodes are
immutable values (see ``_lex.Immutable``) with the fields ``()``,
``("symbol",)`` and ``("children",)``. Each computes its hash once, when it is
made, from its kind and its children's stored hashes, so a term hashes in
constant time at any depth, and not by its address (see `SPTerm`). A Seq or
Par node also keeps facts once they are first asked for (see `_Product`): its
COMMUTATIVE canonical form, its text, and what the membership search reads,
its Parikh vector in the one layout of every grammar (`_WIDTH`) with its
children's prefix sums (`_parikh`) and a Par's runs of equal children
(`_runs`). So a node is canonicalized, formatted and summed once in its life,
whatever grammar it is searched against. Equal sub-terms are one node, so a
term is a DAG: the walks over a term (`_products`) visit each distinct node
once, and a term that shares its sub-terms costs its nodes, not its paths,
also when it is pickled.

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
import weakref
from collections import Counter
from enum import Enum

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
    live node of a term if there is one, so equality is identity, and
    comparing two terms of any depth, or finding one in a set or cache,
    never walks their children. Each node computes its hash once, when it
    is made, from a tag for its kind and its children's stored hashes, not
    from its address: hashing a term of any depth reads one slot, a set of
    terms iterates in the same order in every run under one hash seed, and a
    ``Seq`` does not hash like the ``Par`` of the same children.
    """

    __slots__ = ("_hash", "__weakref__")
    __eq__ = object.__eq__  # one node per term
    __init__ = object.__init__  # `__new__` makes or finds the node

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return format_term(self)

    def __copy__(self, memo=None):  # one node per term, and immutable: the node is its own copy
        return self

    __deepcopy__ = __copy__


_init = object.__setattr__  # the constructors' way past Immutable.__setattr__


class _Ref(weakref.ref):
    """A weak reference from the intern table to a node, which knows its key."""

    __slots__ = ("key",)


def _forget(ref: _Ref) -> None:
    """Drop the entry of a node that has died, unless a new node has taken
    its key (a deep term's deallocation can be deferred)."""
    table = _table if ref.key.__class__ is int else _spill
    if table.get(ref.key) is ref:
        del table[ref.key]


# The intern table: a stored hash -> a weak reference to the live node with
# that hash. An int key hashes and compares in C, where a (kind, children)
# key would call every child's `__hash__` at each lookup, insert and delete.
# A live node whose hash another live node holds in `_table` (a collision) is
# kept in `_spill` instead, keyed on its kind and field.
_table: dict[int, _Ref] = {}
_spill: dict[tuple, _Ref] = {}


class Eps(SPTerm):
    """The empty word; identity of both compositions, length = depth = 0."""

    __slots__ = ()

    def __new__(cls):
        return EPS


EPS = object.__new__(Eps)
_init(EPS, "_hash", hash((3,)))


class Leaf(SPTerm):
    __slots__ = _fields = ("symbol",)

    def __new__(cls, symbol: str):
        h = hash((0, symbol))
        ref = _table.get(h)
        leaf = None if ref is None else ref()
        if leaf.__class__ is Leaf and leaf.symbol == symbol:
            return leaf
        if not (is_atom(symbol) or NONTERMINAL.fullmatch(symbol)):
            raise ValueError(f"leaf symbol must be a lowercase letter or a nonterminal name, got {symbol!r}")
        return _add(Leaf, "symbol", symbol, h, leaf)


class _Product(SPTerm):
    """A Seq or Par node: at least two children, none eps or of its own kind.
    The constructor, which pickling also uses, checks that rule on children
    from outside the package; `_node` finds or builds the node without it.

    Slots hold facts that are made once, when first asked for: `_canon` is
    the node's COMMUTATIVE canonical form, which `canonicalize` sets: unset
    while it is not known, None when the node is its own form, else the
    form. No node is its own slot's value, and a form has as many nodes as
    its term, so it cannot hold the term: the slots make no reference
    cycle. `_text` is the text `format_term` made, `_sums` the prefix sums
    `_parikh` made and a Par's `_runs` those `_runs` made."""

    __slots__ = ("children", "_canon", "_text", "_sums")
    _fields = ("children",)
    _TAG: int

    def __new__(cls, children: tuple[SPTerm, ...]):
        if len(children) < 2:
            raise ValueError(f"{cls.__name__} needs at least two children")
        for c in children:
            if isinstance(c, (cls, Eps)):
                raise ValueError(f"{cls.__name__} children must be flattened and eps-free")
        return _node(cls, children)

    def __reduce__(self):
        """The term's distinct Seq and Par nodes in post-order (`_products`),
        each child a leaf or the index of an earlier node: a flat list, so a
        deep term pickles and unpickles (`_rebuild`) without recursion."""
        at, nodes = {}, []
        for node in _products(self):
            at[id(node)] = len(nodes)
            nodes.append((node.__class__, tuple([c if c.__class__ is Leaf else at[id(c)] for c in node.children])))
        return _rebuild, (nodes,)


def _rebuild(nodes: list) -> SPTerm:
    """The last node of a pickled term, each made by its checked constructor."""
    built = []
    for kind, children in nodes:
        built.append(kind(tuple([built[c] if c.__class__ is int else c for c in children])))
    return built[-1]


class Seq(_Product):
    __slots__ = ()
    _TAG = 1


class Par(_Product):
    __slots__ = ("_runs",)
    _TAG = 2


def _node(kind, children: tuple) -> _Product:
    """The `kind` (Seq or Par) node of `children`, hashed as the constructor
    does but unchecked: `seq`, `par`, `reverse_term`, `canonicalize` and the
    membership search's shares keep the rule of `_Product` by construction.
    The children are interned, so the tuples compare them by identity."""
    h = hash((kind._TAG, children))
    ref = _table.get(h)
    node = None if ref is None else ref()
    if node.__class__ is kind and node.children == children:
        return node
    return _add(kind, "children", children, h, node)


def _add(kind, field: str, value, h: int, holder) -> SPTerm:
    """The `kind` node whose `field` is `value` and stored hash `h`, which
    `_table` does not hold: under `h` it holds the live node `holder`, or
    None. The node is found in `_spill`, or made and entered in `_table` if
    `h` is free there, else in `_spill`."""
    if _spill:
        ref = _spill.get((kind, value))
        node = None if ref is None else ref()
        if node is not None:
            return node
    node = object.__new__(kind)
    _init(node, field, value)
    _init(node, "_hash", h)
    ref = _Ref(node, _forget)
    if holder is None:
        ref.key = h
        _table[h] = ref
    else:
        ref.key = (kind, value)
        _spill[ref.key] = ref
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


def seq(*parts: SPTerm) -> SPTerm:
    """Sequential composition with flattening, eps removal, and collapsing."""
    return _product(Seq, parts)


def par(*parts: SPTerm, mode: SemanticsMode = ORDERED) -> SPTerm:
    """Parallel composition with flattening, eps removal, collapsing, and in
    COMMUTATIVE mode sorting: parts canonical for `mode` give a canonical result."""
    return _product(Par, parts, mode)


def _products(t: SPTerm, known: str | None = None) -> list:
    """The distinct Seq and Par nodes of `t`, each once and after its
    children: a post-order walk over visited ids with its own stack, so a
    deep term needs no recursion and a shared sub-term is walked once. A node
    below `t` whose slot `known` is set is left out, and so is what lies only
    below it."""
    if t.__class__ is Leaf or t.__class__ is Eps:
        return []
    order, seen = [], set()
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
