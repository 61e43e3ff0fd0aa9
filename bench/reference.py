"""Independent reference semantics for checking splang's answers.

Nothing here imports splang. Terms use their own representation:

* ``""`` is the empty word, a one-letter string is an atom (uppercase letters
  stand for nonterminals inside grammar right-hand sides);
* ``(".", c1, c2, ...)`` is a sequential node and ``("|", c1, c2, ...)`` a
  parallel node, flattened and eps-free like splang's canonical form; in
  commutative mode the children of a parallel node are sorted by their text.

Languages are computed bottom-up as bounded sets (regexes by structural
recursion, grammars by a least fixpoint over nonterminals), which is a
different algorithm from the library's top-down split search, BFS derivation
and universe filtering. ``fmt`` reproduces splang's text format exactly, so a
library answer is checked by comparing texts.
"""

from __future__ import annotations

import re
from collections import Counter

ORDERED = "ordered"
COMMUTATIVE = "commutative"

EPS = ""

_FMT: dict = {}
_LETTERS: dict = {}


def is_seq(t) -> bool:
    return type(t) is tuple and t[0] == "."


def is_par(t) -> bool:
    return type(t) is tuple and t[0] == "|"


def fmt(t) -> str:
    """splang's minimal-parenthesization text, which is also its sort key."""
    text = _FMT.get(t)
    if text is None:
        if t == EPS:
            text = "eps"
        elif type(t) is str:
            text = t
        elif t[0] == ".":
            text = ".".join(f"({fmt(c)})" if is_par(c) else fmt(c) for c in t[1:])
        else:
            text = "||".join(fmt(c) for c in t[1:])
        _FMT[t] = text
    return text


def letters(t) -> str:
    """Atom occurrences of `t`, sorted, as one string."""
    out = _LETTERS.get(t)
    if out is None:
        if type(t) is str:
            out = t
        else:
            out = "".join(sorted("".join(letters(c) for c in t[1:])))
        _LETTERS[t] = out
    return out


def seq(*parts):
    flat: list = []
    for p in parts:
        if p == EPS:
            continue
        if is_seq(p):
            flat.extend(p[1:])
        else:
            flat.append(p)
    if not flat:
        return EPS
    if len(flat) == 1:
        return flat[0]
    return (".",) + tuple(flat)


def par(mode: str, *parts):
    flat: list = []
    for p in parts:
        if p == EPS:
            continue
        if is_par(p):
            flat.extend(p[1:])
        else:
            flat.append(p)
    if not flat:
        return EPS
    if len(flat) == 1:
        return flat[0]
    if mode == COMMUTATIVE:
        flat.sort(key=fmt)
    return ("|",) + tuple(flat)


def canonical(t, mode: str):
    """Canonical form of a (possibly unsorted) term for `mode`."""
    if type(t) is str:
        return t
    kids = [canonical(c, mode) for c in t[1:]]
    return seq(*kids) if t[0] == "." else par(mode, *kids)


def reverse(t, mode: str):
    """Mirror sequential structure; parallel children keep their order."""
    if type(t) is str:
        return t
    kids = [reverse(c, mode) for c in t[1:]]
    if t[0] == ".":
        return seq(*reversed(kids))
    return par(mode, *kids)


def width(t) -> int:
    """Children of the widest parallel node (1 when there is none)."""
    if type(t) is str:
        return 1
    own = len(t) - 1 if t[0] == "|" else 1
    return max([own] + [width(c) for c in t[1:]])


# ---------------------------------------------------------------------------
# Bounds: which partial results may still be part of an answer.

class AtomBound:
    """At most `n` atoms, all from `alphabet`."""

    def __init__(self, alphabet: str, n: int):
        self.alphabet = set(alphabet)
        self.n = n

    def ok(self, t) -> bool:
        found = letters(t)
        return len(found) <= self.n and set(found) <= self.alphabet


class SubMultisetBound:
    """Atoms must form a sub-multiset of the target's atoms."""

    def __init__(self, target):
        self.need = Counter(letters(target))
        self._memo: dict = {}

    def ok(self, t) -> bool:
        found = letters(t)
        hit = self._memo.get(found)
        if hit is None:
            hit = not (Counter(found) - self.need)
            self._memo[found] = hit
        return hit


def _product(combine, left: frozenset, right: frozenset, bound) -> frozenset:
    out = set()
    for x in left:
        for y in right:
            t = combine(x, y)
            if bound.ok(t):
                out.add(t)
    return frozenset(out)


def _closure(combine, inner: frozenset, bound) -> frozenset:
    """{eps} plus every combination of one or more members of `inner`."""
    out = {EPS}
    frontier = set(inner)
    while frontier:
        new = {t for t in frontier if t not in out and bound.ok(t)}
        out |= new
        frontier = _product(combine, frozenset(new), inner, bound) - out
    return frozenset(out)


# ---------------------------------------------------------------------------
# Regexes: ("0",) empty set, ("e",) eps, ("a", x) atom, ("cat"|"alt"|"par",
# parts...) and ("*"|"^"|"@", inner) closures.

_REGEX_PREC = {"alt": 0, "par": 1, "cat": 2}
_REGEX_SEP = {"alt": "|", "par": "||", "cat": "."}


def regex_text(r) -> str:
    kind = r[0]
    if kind == "0":
        return "0"
    if kind == "e":
        return "eps"
    if kind == "a":
        return r[1]
    if kind in ("*", "^", "@"):
        inner = regex_text(r[1])
        return (inner if r[1][0] in ("a", "e", "0") else f"({inner})") + kind
    return _REGEX_SEP[kind].join(
        f"({regex_text(p)})" if p[0] in _REGEX_PREC and _REGEX_PREC[p[0]] <= _REGEX_PREC[kind] else regex_text(p)
        for p in r[1:]
    )


def regex_lang(r, mode: str, bound) -> frozenset:
    """Every term matching `r` that satisfies `bound`."""
    kind = r[0]
    if kind == "0":
        return frozenset()
    if kind == "e":
        return frozenset({EPS})
    if kind == "a":
        return frozenset({r[1]}) if bound.ok(r[1]) else frozenset()
    if kind == "alt":
        out: frozenset = frozenset()
        for p in r[1:]:
            out |= regex_lang(p, mode, bound)
        return out
    if kind in ("cat", "par"):
        combine = seq if kind == "cat" else (lambda x, y: par(mode, x, y))
        acc = frozenset({EPS})
        for p in r[1:]:
            acc = _product(combine, acc, regex_lang(p, mode, bound), bound)
        return acc
    inner = regex_lang(r[1], mode, bound)
    if kind == "*":
        return _closure(seq, inner, bound)
    par_closure = _closure(lambda x, y: par(mode, x, y), inner, bound)
    if kind == "^":
        return par_closure
    return _closure(seq, inner, bound) | par_closure


# ---------------------------------------------------------------------------
# Grammars: {nonterminal: [rhs, ...]} with the start symbol first.

def grammar_lang(rules: dict, mode: str, bound) -> frozenset:
    """Words of the start symbol that satisfy `bound`: the least fixpoint of
    the productions, with no step budget."""
    langs = {nt: frozenset() for nt in rules}

    def value(form) -> frozenset:
        if form == EPS:
            return frozenset({EPS})
        if type(form) is str:
            if form.isupper():
                return langs[form]
            return frozenset({form}) if bound.ok(form) else frozenset()
        combine = seq if form[0] == "." else (lambda x, y: par(mode, x, y))
        acc = frozenset({EPS})
        for child in form[1:]:
            acc = _product(combine, acc, value(child), bound)
        return acc

    changed = True
    while changed:
        changed = False
        for nt, alternatives in rules.items():
            new = langs[nt].union(*(value(rhs) for rhs in alternatives))
            if new != langs[nt]:
                langs[nt] = new
                changed = True
    return langs[next(iter(rules))]


# ---------------------------------------------------------------------------
# Text: terms and grammars in splang's formats.

def parse(text: str):
    """Parse splang's term syntax into an ORDERED canonical reference term."""
    toks: list[str] = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif text.startswith("||", i):
            toks.append("||")
            i += 2
        elif text.startswith("eps", i):
            toks.append("eps")
            i += 3
        elif c in ".()" or c.isalpha():
            toks.append(c)
            i += 1
        else:
            raise ValueError(f"bad character {c!r} in {text!r}")
    pos = 0

    def parse_par():
        nonlocal pos
        parts = [parse_seq()]
        while pos < len(toks) and toks[pos] == "||":
            pos += 1
            parts.append(parse_seq())
        return par(ORDERED, *parts)

    def parse_seq():
        nonlocal pos
        parts = [parse_prim()]
        while pos < len(toks) and toks[pos] == ".":
            pos += 1
            parts.append(parse_prim())
        return seq(*parts)

    def parse_prim():
        nonlocal pos
        tok = toks[pos]
        pos += 1
        if tok == "(":
            inner = parse_par()
            if toks[pos] != ")":
                raise ValueError(f"unbalanced parentheses in {text!r}")
            pos += 1
            return inner
        if tok == "eps":
            return EPS
        return tok

    out = parse_par()
    if pos != len(toks):
        raise ValueError(f"trailing input in {text!r}")
    return out


_ALT_SPLIT = re.compile(r"(?<!\|)\|(?!\|)")


def parse_rules(text: str) -> dict:
    """Parse splang's grammar format into {nonterminal: [rhs, ...]}."""
    rules: dict = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, body = line.partition("->")
        rules.setdefault(head.strip(), []).extend(parse(alt) for alt in _ALT_SPLIT.split(body))
    return rules


def dump(words, mode: str) -> str:
    """splang's language file text for a set of canonical terms."""
    return "".join([f"mode: {mode}\n"] + [fmt(t) + "\n" for t in sorted(words, key=fmt)])
