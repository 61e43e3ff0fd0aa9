"""The benchmark's workloads: seeded inputs, the library calls that are
timed, and the reference answers they are checked against.

Each workload has two halves. `cases(seed, lib)` generates the inputs as
plain data (texts and parameters): the same seed always gives the same
cases. `prepare(case, lib)` parses those texts with the library, which is
set-up work, and returns an `Op`: the call that is timed, a `verdict` that
reduces its result to plain data, and an `expect` that computes the same
data from `reference`, never from the function being timed. References are
computed lazily, after the timed phase.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import reference as ref
from reference import COMMUTATIVE, EPS, ORDERED

DATA = Path(__file__).parent / "data"

FIXTURE_GRAMMARS = ("parallel_pairs", "branch_words", "a_fanout", "fan_tail")
FIXTURE_AUTOMATA = ("parallel_pairs", "a_fanout")  # the parallel-linear fixtures

# Unit and eps chains under a wide Par: `a` is in the language, but it needs
# more derivation steps than the membership budget (4 * atoms + 8) allows.
UNIT_CHAIN_GRAMMAR = "S -> A||A||A||A||a\nA -> B\nB -> C\nC -> eps\n"


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    verdict: Callable[[object], object]
    expect: Callable[[], object]


# ---------------------------------------------------------------------------
# Regex templates over two letters, in the reference regex form.

def _a(x):
    return ("a", x)


def _cat(*p):
    return ("cat",) + p


def _alt(*p):
    return ("alt",) + p


def _pp(*p):
    return ("par",) + p


def _star(r):
    return ("*", r)


def _pstar(r):
    return ("^", r)


def _spstar(r):
    return ("@", r)


REGEX_TEMPLATES = (
    lambda x, y: _pstar(_pp(_a(x), _a(y))),
    lambda x, y: _pstar(_alt(_a(x), _a(y))),
    lambda x, y: _pp(_a(x), _pstar(_a(y))),
    lambda x, y: _pp(_star(_alt(_cat(_a(x), _a(y)), _a(y))), _spstar(_a(x))),
    lambda x, y: _pp(_pstar(_cat(_a(x), _a(y))), _star(_alt(_a(y), _cat(_a(x), _a(x))))),
    lambda x, y: _alt(_star(_cat(_pp(_a(x), _a(y)), _a(x))), _pstar(_pp(_a(x), _a(y), _a(x)))),
    lambda x, y: _cat(_pp(_a(x), _pstar(_a(y))), _star(_alt(_a(y), _a(x)))),
    lambda x, y: _pstar(_pp(_spstar(_a(x)), _a(y))),
)
LETTER_PAIRS = (("a", "b"), ("b", "a"), ("a", "c"), ("c", "b"))


def _read(name: str) -> str:
    return (DATA / name).read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# Sampling members (and near misses) of a language in the reference model.

class _TooDeep(Exception):
    pass


def _sample_regex(r, mode, rng, depth=0):
    if depth > 8:
        raise _TooDeep
    kind = r[0]
    if kind == "0":
        raise _TooDeep
    if kind == "e":
        return EPS
    if kind == "a":
        return r[1]
    if kind == "alt":
        return _sample_regex(rng.choice(r[1:]), mode, rng, depth + 1)
    if kind == "cat":
        return ref.seq(*(_sample_regex(p, mode, rng, depth + 1) for p in r[1:]))
    if kind == "par":
        return ref.par(mode, *(_sample_regex(p, mode, rng, depth + 1) for p in r[1:]))
    if kind == "@":
        kind = rng.choice("*^")
    parts = [_sample_regex(r[1], mode, rng, depth + 1) for _ in range(rng.choice((0, 1, 2, 2, 3, 4)))]
    return ref.seq(*parts) if kind == "*" else ref.par(mode, *parts)


def _sample_rules(rules, mode, rng):
    def expand(form, depth):
        if form == EPS:
            return EPS
        if type(form) is str:
            if not form.isupper():
                return form
            if depth > 14:
                raise _TooDeep
            return expand(rng.choice(rules[form]), depth + 1)
        kids = [expand(c, depth) for c in form[1:]]
        return ref.seq(*kids) if form[0] == "." else ref.par(mode, *kids)

    return expand(next(iter(rules)), 0)


def _atoms_of(t):
    if type(t) is str:
        return [t] if t else []
    return [a for c in t[1:] for a in _atoms_of(c)]


def _mutate(t, mode, rng, alphabet):
    """A near miss: one atom added beside the top node, replaced or dropped."""
    how = rng.choice(("add", "swap", "drop"))
    if how == "add":
        return ref.par(mode, t, rng.choice(alphabet))
    count = len(_atoms_of(t))
    target = rng.randrange(count)
    seen = -1

    def walk(node):
        nonlocal seen
        if type(node) is str:
            seen += 1
            if seen != target:
                return node
            if how == "drop":
                return EPS
            return rng.choice([x for x in alphabet if x != node] or [node])
        kids = [walk(c) for c in node[1:]]
        return ref.seq(*kids) if node[0] == "." else ref.par(mode, *kids)

    return walk(t)


def _shuffled(t, rng):
    """The same commutative term with parallel children in random order."""
    if type(t) is str:
        return t
    kids = [_shuffled(c, rng) for c in t[1:]]
    if t[0] == "|":
        rng.shuffle(kids)
    return (t[0],) + tuple(kids)


def _query_term(sample, mode, rng, alphabet, accept: bool, want: int, max_atoms: int = 9):
    """A term of at most `max_atoms` atoms whose widest Par node has `want`
    children, or as close to it as sampling gets; a sampled member when
    `accept`, else a mutated member (the reference decides either way)."""
    best = EPS  # when sampling finds nothing small enough
    for _ in range(80):
        try:
            t = sample()
        except _TooDeep:
            continue
        if not accept and t != EPS:
            t = _mutate(t, mode, rng, alphabet)
        if len(_atoms_of(t)) > max_atoms or ref.width(t) > 7:
            continue
        if best == EPS or abs(ref.width(t) - want) < abs(ref.width(best) - want):
            best = t
            if ref.width(t) == want:
                break
    return best


def _text(t, mode, rng):
    return ref.fmt(_shuffled(t, rng) if mode == COMMUTATIVE else t)


class _RefCache:
    """Bounded reference languages, shared by queries on the same source."""

    def __init__(self):
        self._langs: dict = {}

    def member(self, key, lang_fn, mode, text) -> bool:
        t = ref.canonical(ref.parse(text), mode)
        slot = (key, mode, ref.letters(t))
        words = self._langs.get(slot)
        if words is None:
            words = self._langs[slot] = lang_fn(mode, ref.SubMultisetBound(t))
        return t in words

    def lang(self, key, lang_fn, mode, alphabet, n):
        slot = (key, mode, alphabet, n)
        words = self._langs.get(slot)
        if words is None:
            words = self._langs[slot] = lang_fn(mode, ref.AtomBound(alphabet, n))
        return words


def _random_grammars(rng, lib, count, alphabet=("a", "b")):
    """Seeds of `random_parallel_linear_grammar` whose sampled members are
    often small and parallel, with the grammar text of each."""
    out = []
    while len(out) < count:
        gseed = rng.randrange(1_000_000)
        text = lib.grammars.format_grammar(lib.grammars.random_parallel_linear_grammar(gseed, alphabet))
        rules = ref.parse_rules(text)
        probe = random.Random(gseed)
        usable = 0
        for _ in range(40):
            try:
                t = _sample_rules(rules, COMMUTATIVE, probe)
            except _TooDeep:
                continue
            usable += 2 <= ref.width(t) <= 4 and len(_atoms_of(t)) <= 9
        if usable >= 8:
            out.append({"seed": gseed, "text": text})
    return out


# ---------------------------------------------------------------------------
# decide: single verdicts.

PER_CELL = 2
FIXED_FROM = 5  # cells this wide are the same for every seed
SEEDED_MAX_ATOMS = 6  # narrower cells, drawn from the seed, stay this small


def decide_cases(seed: int, lib) -> list[dict]:
    """PER_CELL queries per cell of (source, mode, widest Par width, accept
    or reject). Every regex template and fixture goes up to width 7; the
    random grammars, whose cost varies most with the seed, stop at width 4,
    so the cost of a pool varies little from seed to seed."""
    rng = random.Random(seed)
    cases: list[dict] = []

    def add(cell, sample, alphabet, want, accept, case):
        for rep in range(PER_CELL):
            # the costliest cells are the same for every seed and the seeded
            # ones stay cheaper, so that the tail does not jump with the seed
            if want < FIXED_FROM:
                t = _query_term(lambda: sample(rng), case["mode"], rng, alphabet, accept, want, SEEDED_MAX_ATOMS)
            else:
                draw = random.Random(f"{cell}/{want}/{accept}/{rep}")
                t = _query_term(lambda: sample(draw), case["mode"], draw, alphabet, accept, want)
            cases.append(dict(case, term=_text(t, case["mode"], rng)))

    for index, template in enumerate(REGEX_TEMPLATES):
        seeded = rng.choice(LETTER_PAIRS)
        for mode in (ORDERED, COMMUTATIVE):
            for want in range(2, 8):
                x, y = seeded if want < FIXED_FROM else ("a", "b")
                regex = template(x, y)
                for accept in (True, False):
                    add(f"matches/{mode}/{index}", lambda g: _sample_regex(regex, mode, g), (x, y), want,
                        accept, {"op": "matches", "mode": mode, "regex": ref.regex_text(regex)})
    fixtures = [(name, _read(name + ".g")) for name in FIXTURE_GRAMMARS]
    randoms = [(f"random-{g['seed']}", g["text"]) for g in _random_grammars(rng, lib, 8)]
    for index, (name, text) in enumerate(fixtures + randoms):
        rules = ref.parse_rules(text)
        fixture = index < len(fixtures)
        for want in range(2, 8) if fixture else range(2, 5):
            for accept in (True, False) if fixture else ((want + index) % 2 == 0,):
                mode = (ORDERED, COMMUTATIVE)[(want + accept) % 2]
                add(f"is_member/{mode}/{name}", lambda g: _sample_rules(rules, mode, g), ("a", "b"), want,
                    accept, {"op": "is_member", "mode": mode, "grammar": name, "grammar_text": text})
                if name in FIXTURE_AUTOMATA or not fixture:
                    add(f"accepts/{name}", lambda g: _sample_rules(rules, COMMUTATIVE, g), ("a", "b"), want,
                        accept, {"op": "accepts", "mode": COMMUTATIVE, "grammar": name, "grammar_text": text})
    rng.shuffle(cases)
    return cases


def unit_chain_case() -> dict:
    return {"op": "is_member", "mode": ORDERED, "grammar": "unit-chain",
            "grammar_text": UNIT_CHAIN_GRAMMAR, "term": "a"}


class Decide:
    def __init__(self, lib):
        self.lib = lib
        self.refs = _RefCache()
        self._grammars: dict = {}
        self._automata: dict = {}
        self._regexes: dict = {}
        self._rules: dict = {}

    def _mode(self, name):
        return self.lib.terms.COMMUTATIVE if name == COMMUTATIVE else self.lib.terms.ORDERED

    # parsed sources, keyed by their text

    def _grammar(self, case):
        text = case["grammar_text"]
        if text not in self._grammars:
            self._grammars[text] = self.lib.grammars.parse_grammar(text)
        return self._grammars[text]

    def _automaton(self, case):
        text = case["grammar_text"]
        if text not in self._automata:
            if case["grammar"] in FIXTURE_AUTOMATA:
                aut = self.lib.automata.parse_automaton(_read(case["grammar"] + ".aut"))
            else:
                aut = self.lib.automata.from_linear_grammar(self._grammar(case))
            self._automata[text] = aut
        return self._automata[text]

    def _rules_of(self, case):
        text = case["grammar_text"]
        if text not in self._rules:
            self._rules[text] = ref.parse_rules(text)
        return self._rules[text]

    def prepare(self, case) -> Op:
        lib = self.lib
        t = lib.terms.parse_term(case["term"])
        text = case["term"]
        if case["op"] == "matches":
            r = self._regexes.get(case["regex"])
            if r is None:
                r = self._regexes[case["regex"]] = lib.regexes.parse_regex(case["regex"])
            mode = self._mode(case["mode"])
            return Op(
                f"matches/{case['mode']}",
                lambda: lib.regexes.matches(r, t, mode),
                bool,
                lambda: self.refs.member(
                    ("regex", case["regex"]), lambda m, b: ref.regex_lang(_parse_regex_ref(case["regex"]), m, b),
                    case["mode"], text),
            )
        lang_fn = lambda m, b: ref.grammar_lang(self._rules_of(case), m, b)  # noqa: E731
        if case["op"] == "is_member":
            g = self._grammar(case)
            mode = self._mode(case["mode"])
            return Op(
                f"is_member/{case['mode']}",
                lambda: lib.grammars.is_member(g, t, mode),
                bool,
                lambda: self.refs.member(("grammar", case["grammar_text"]), lang_fn, case["mode"], text),
            )
        aut = self._automaton(case)
        return Op(
            "accepts",
            lambda: lib.automata.accepts(aut, t),
            bool,
            lambda: self.refs.member(("grammar", case["grammar_text"]), lang_fn, COMMUTATIVE, text),
        )


@functools.lru_cache(maxsize=None)
def _parse_regex_ref(text: str):
    """Reference regex form of a text written by `ref.regex_text`."""
    for template in REGEX_TEMPLATES:
        for x, y in itertools.permutations("abc", 2):
            r = template(x, y)
            if ref.regex_text(r) == text:
                return r
    raise ValueError(f"not a template regex: {text!r}")


# ---------------------------------------------------------------------------
# enumerate: bounded-language jobs.

def enumerate_cases(seed: int, lib) -> list[dict]:
    """Every regex template at 4 atoms in both modes and the costliest at
    5 commutative atoms; both fixture automata at 5 atoms; every fixture
    grammar generated at 6 atoms in both modes; a few jobs over `abc`. The
    seed draws the random grammars and the pool order. Jobs on random
    grammars are sized to stay below the median job (over `ab`) or above
    it (over `abc`), and the regex jobs are the same for every seed, so the
    median and the tail fall on the same jobs whatever the seed."""
    rng = random.Random(seed)
    cases = []

    def regex_job(index, mode, alphabet, n):
        x, y = alphabet[0], alphabet[-1]
        cases.append({"op": "regex_enumerate", "mode": mode, "alphabet": alphabet, "n": n,
                      "regex": ref.regex_text(REGEX_TEMPLATES[index](x, y))})

    def grammar_job(op, mode, alphabet, n, name, text):
        cases.append({"op": op, "mode": mode, "alphabet": alphabet, "n": n, "grammar": name,
                      "grammar_text": text})

    for index in range(len(REGEX_TEMPLATES)):
        regex_job(index, ORDERED, "ab", 4)
        regex_job(index, COMMUTATIVE, "ab", 4)
    regex_job(3, COMMUTATIVE, "ab", 5)
    regex_job(3, COMMUTATIVE, "abc", 4)
    for name in FIXTURE_AUTOMATA:
        grammar_job("enumerate_accepted", COMMUTATIVE, "ab", 5, name, _read(name + ".g"))
    for g in _random_grammars(rng, lib, 2):
        grammar_job("enumerate_accepted", COMMUTATIVE, "ab", 3, f"random-{g['seed']}", g["text"])
    for g in _random_grammars(rng, lib, 2, ("a", "b", "c")):
        grammar_job("enumerate_accepted", COMMUTATIVE, "abc", 4, f"random-{g['seed']}", g["text"])
    for name in FIXTURE_GRAMMARS:
        for mode in (ORDERED, COMMUTATIVE):
            grammar_job("generate", mode, "ab", 6, name, _read(name + ".g"))
    for g in _random_grammars(rng, lib, 4):
        grammar_job("equality", COMMUTATIVE, "ab", 3, f"random-{g['seed']}", g["text"])
    rng.shuffle(cases)
    return cases


def _lang_verdict(lib):
    """A FiniteLang as (mode, member texts), in the library's own text."""
    return lambda lang: (lang.mode.value, tuple(map(lib.terms.format_term, lang.terms)))


def _ref_lang(mode, words):
    return (mode, tuple(sorted(ref.fmt(t) for t in words)))


class Enumerate(Decide):
    def prepare(self, case) -> Op:
        lib = self.lib
        mode = self._mode(case["mode"])
        n, alphabet = case["n"], case["alphabet"]
        label = f"{case['op']}/{case['mode']}/{alphabet}/{n}"
        if case["op"] == "regex_enumerate":
            r = lib.regexes.parse_regex(case["regex"])
            return Op(
                label,
                lambda: lib.regexes.regex_enumerate(r, alphabet, n, mode),
                _lang_verdict(lib),
                lambda: _ref_lang(case["mode"], self.refs.lang(
                    ("regex", case["regex"]), lambda m, b: ref.regex_lang(_parse_regex_ref(case["regex"]), m, b),
                    case["mode"], alphabet, n)),
            )
        expect = lambda: _ref_lang(case["mode"], self.refs.lang(  # noqa: E731
            ("grammar", case["grammar_text"]), lambda m, b: ref.grammar_lang(self._rules_of(case), m, b),
            case["mode"], alphabet, n))
        g = self._grammar(case)
        if case["op"] == "generate":
            return Op(label, lambda: lib.grammars.generate(g, n, 4 * n + 8, mode), _lang_verdict(lib), expect)
        aut = self._automaton(case)
        if case["op"] == "enumerate_accepted":
            return Op(label, lambda: lib.automata.enumerate_accepted(aut, alphabet, n), _lang_verdict(lib), expect)

        def equality():
            generated = lib.grammars.generate(g, n, 4 * n + 8, mode)
            accepted = lib.automata.enumerate_accepted(aut, alphabet, n)
            return generated, lib.langs.lang_equal(generated, accepted)

        return Op(
            label,
            equality,
            lambda result: (bool(result[1]),) + _lang_verdict(lib)(result[0]),
            lambda: (True,) + expect(),
        )


# ---------------------------------------------------------------------------
# algebra: finite-language operations.

def _random_lang(rng, mode, alphabet):
    """Four distinct terms of 1, 2, 3 and 1 atoms: a fixed shape, so that
    products and closures of such languages cost about the same for every
    seed."""
    words: list = []
    while len(words) < 4:
        atoms = [rng.choice(alphabet) for _ in range(1 + len(words) % 3)]
        t = atoms[0]
        for a in atoms[1:]:
            t = ref.seq(t, a) if rng.random() < 0.5 else ref.par(mode, t, a)
        if t not in words:
            words.append(t)
    return set(words)


def _lang_text(words, mode, rng):
    """Language file text, with members in random order and, in commutative
    mode, parallel children unsorted."""
    lines = [_text(t, mode, rng) for t in words]
    rng.shuffle(lines)
    return f"mode: {mode}\n" + "".join(line + "\n" for line in lines)


# (op, how many per pool)
ALGEBRA_OPS = (
    ("concat", 24), ("par", 24), ("union", 24), ("power", 24), ("kleene", 36),
    ("reverse", 24), ("equal", 24), ("roundtrip", 24),
)


def algebra_cases(seed: int, lib=None) -> list[dict]:
    """ALGEBRA_OPS on random languages of one shape, half in each mode. The
    costliest ops, powers and closures to 3, are the same for every seed so
    that the tail does not jump with the seed."""
    rng = random.Random(seed)
    cases = []
    for op, count in ALGEBRA_OPS:
        for i in range(count):
            mode = (ORDERED, COMMUTATIVE)[i % 2]
            alphabet = "abc" if i % 3 == 0 else "ab"
            case = {"op": op, "mode": mode}
            if op == "power":
                case.update(kind=("seq", "par")[i // 2 % 2], n=2 + i // 4 % 2)
            elif op == "kleene":
                case.update(kind=("star", "par", "sp")[i // 2 % 3], n=2 + i // 6 % 2)
            draw = random.Random(f"{op}/{i}") if case.get("n") == 3 else rng
            left = _random_lang(draw, mode, alphabet)
            case["left"] = _lang_text(left, mode, rng)
            if op in ("concat", "par", "union"):
                case["right"] = _lang_text(_random_lang(rng, mode, alphabet), mode, rng)
            elif op == "equal":
                same = i % 4 < 2
                right = left if same else left ^ {rng.choice(sorted(left, key=ref.fmt))}
                case["right"] = _lang_text(right or {EPS}, mode, rng)
            cases.append(case)
    rng.shuffle(cases)
    return cases


def _words(text: str, mode: str) -> set:
    return {ref.canonical(ref.parse(line), mode) for line in text.splitlines()[1:] if line.strip()}


def algebra_expect(case):
    mode = case["mode"]
    left = _words(case["left"], mode)
    op = case["op"]
    if op == "equal":
        return left == _words(case["right"], mode)
    if op == "roundtrip":
        return ref.dump(left, mode)
    seq_op = ref.seq
    par_op = lambda x, y: ref.par(mode, x, y)  # noqa: E731

    def product(combine, xs, ys):
        return {combine(x, y) for x in xs for y in ys}

    if op in ("concat", "par", "union"):
        right = _words(case["right"], mode)
        out = left | right if op == "union" else product(seq_op if op == "concat" else par_op, left, right)
    elif op == "power":
        out = {EPS}
        for _ in range(case["n"]):
            out = product(seq_op if case["kind"] == "seq" else par_op, out, left)
    elif op == "kleene":
        out = set()
        for combine in {"star": (seq_op,), "par": (par_op,), "sp": (seq_op, par_op)}[case["kind"]]:
            level = {EPS}
            out.add(EPS)
            for _ in range(case["n"]):
                level = product(combine, level, left)
                out |= level
    else:
        out = {ref.reverse(t, mode) for t in left}
    return _ref_lang(mode, out)


class Algebra:
    def __init__(self, lib):
        self.lib = lib

    def prepare(self, case) -> Op:
        lib = self.lib
        langs = lib.langs
        op = case["op"]
        expect = lambda: algebra_expect(case)  # noqa: E731
        label = f"{op}/{case['mode']}"
        if op == "roundtrip":
            text = case["left"]
            return Op(label, lambda: langs.dump_lang(langs.load_lang(text)), str, expect)
        left = langs.load_lang(case["left"])
        if op == "equal":
            right = langs.load_lang(case["right"])
            return Op(label, lambda: langs.lang_equal(left, right), bool, expect)
        if op in ("concat", "par", "union"):
            right = langs.load_lang(case["right"])
            fn = {"concat": "concat_lang", "par": "par_lang", "union": "union_lang"}[op]
            return Op(label, lambda: getattr(langs, fn)(left, right), _lang_verdict(lib), expect)
        if op == "power":
            kind, n = langs.PowerKind(case["kind"]), case["n"]
            return Op(label, lambda: langs.power(left, n, kind), _lang_verdict(lib), expect)
        if op == "kleene":
            kind, n = langs.ClosureKind(case["kind"]), case["n"]
            return Op(label, lambda: langs.kleene_bounded(left, kind, n), _lang_verdict(lib), expect)
        return Op(label, lambda: langs.reverse_lang(left), _lang_verdict(lib), expect)


# ---------------------------------------------------------------------------
# cli: one `splang` process per command.

def cli_cases(seed: int, lib) -> list[dict]:
    """Commands as argv lists whose file arguments name entries of `files`."""
    rng = random.Random(seed)
    grammar = _random_grammars(rng, lib, 1)[0]
    fixture = "a_fanout"
    rules = ref.parse_rules(grammar["text"])
    # the costliest commands (equiv, enumerations) are the same for every
    # seed, so that the tail does not jump with the seed
    x, y = "a", "b"
    regexes = [ref.regex_text(REGEX_TEMPLATES[index](x, y)) for index in (3, 4)]
    member = _query_term(lambda: _sample_rules(rules, COMMUTATIVE, rng), COMMUTATIVE, rng, ("a", "b"), True,
                         rng.randint(2, 4))
    fixture_rules = ref.parse_rules(_read(fixture + ".g"))
    accept = _query_term(lambda: _sample_rules(fixture_rules, COMMUTATIVE, rng), COMMUTATIVE, rng,
                         ("a", "b"), rng.random() < 0.5, rng.randint(2, 5))
    canon = _query_term(lambda: _sample_regex(rng.choice(REGEX_TEMPLATES)(x, y), COMMUTATIVE, rng),
                        COMMUTATIVE, rng, ("a", "b"), True, rng.randint(2, 7))
    langs = [_random_lang(rng, ORDERED, "ab") for _ in range(3)]
    files = {
        "random.g": grammar["text"],
        "fixture.g": _read(fixture + ".g"),
        "fixture.aut": _read(fixture + ".aut"),
        "l1.lang": _lang_text(langs[0], ORDERED, rng),
        "l2.lang": _lang_text(langs[1], ORDERED, rng),
        "l3.lang": _lang_text(langs[2], ORDERED, rng),
        "l1b.lang": _lang_text(langs[0], ORDERED, rng),
    }
    commands = [
        ["equiv", "fixture.g", "--max-atoms", "4"],
        ["regex", "enum", regexes[0], "--max-atoms", "4", "--alphabet", "ab"],
        ["regex", "enum", regexes[1], "--max-atoms", "4", "--alphabet", "ab", "--mode", "commutative"],
        ["automaton", "enum", "fixture.aut", "--max-atoms", "5"],
        ["automaton", "accepts", "fixture.aut", _text(accept, COMMUTATIVE, rng)],
        ["grammar", "member", "random.g", _text(member, COMMUTATIVE, rng), "--trace", "--mode", "commutative"],
        ["term", "canon", _text(canon, COMMUTATIVE, rng), "--mode", "commutative"],
        ["lang", "concat", "l1.lang", "l2.lang"],
        ["lang", "par", "l2.lang", "l3.lang"],
        ["lang", "closure", "l3.lang", "--kind", "sp", "--nmax", "2"],
        ["lang", "power", "l1.lang", "--kind", "par", "--n", "2"],
        ["lang", "equal", "l1.lang", "l1b.lang"],
    ]
    rng.shuffle(commands)
    return [{"argv": argv, "files": files} for argv in commands]


def cli_expect(argv: list[str], files: dict) -> tuple[int, str]:
    """(exit code, stdout) that `splang argv` must produce."""
    opts = {argv[i]: argv[i + 1] for i in range(len(argv) - 1) if argv[i].startswith("--")}
    mode = opts.get("--mode", ORDERED)
    n = int(opts.get("--max-atoms", 5))
    head = argv[:2]
    if argv[0] == "equiv":
        words = ref.grammar_lang(ref.parse_rules(files[argv[1]]), COMMUTATIVE, ref.AtomBound("ab", n))
        return 0, f"equal: {len(words)} words up to {n} atoms\n"
    if head == ["regex", "enum"]:
        rregex = _parse_regex_ref(argv[2])
        return 0, ref.dump(ref.regex_lang(rregex, mode, ref.AtomBound(opts["--alphabet"], n)), mode)
    rules_for = {"fixture.aut": "fixture.g"}
    if head == ["automaton", "enum"]:
        rules = ref.parse_rules(files[rules_for[argv[2]]])
        return 0, ref.dump(ref.grammar_lang(rules, COMMUTATIVE, ref.AtomBound("ab", n)), COMMUTATIVE)
    if head in (["automaton", "accepts"], ["grammar", "member"]):
        rules = ref.parse_rules(files[rules_for.get(argv[2], argv[2])])
        mode = COMMUTATIVE if argv[0] == "automaton" else mode
        t = ref.canonical(ref.parse(argv[3]), mode)
        hit = t in ref.grammar_lang(rules, mode, ref.SubMultisetBound(t))
        out = "true\n" if hit else "false\n"
        if hit and "--trace" in argv:  # the derivation runs from the start symbol to the word
            out += f"{next(iter(rules))}\n...\n{ref.fmt(t)}\n"
        return (0 if hit else 1), out
    if head == ["term", "canon"]:
        return 0, ref.fmt(ref.canonical(ref.parse(argv[2]), mode)) + "\n"
    lang_case = {"op": {"closure": "kleene"}.get(argv[1], argv[1]), "mode": ORDERED,
                 "left": files[argv[2]], "kind": opts.get("--kind"),
                 "n": int(opts.get("--nmax", opts.get("--n", 3)))}
    if argv[1] in ("concat", "par", "equal"):
        lang_case["right"] = files[argv[3]]
    result = algebra_expect(lang_case)
    if argv[1] == "equal":
        return (0 if result else 1), ""
    return 0, "mode: ordered\n" + "".join(w + "\n" for w in result[1])


def cli_verdict(argv: list[str], code: int, stdout: str) -> tuple[int, str]:
    """A trace's intermediate forms are not unique: keep its two ends."""
    if argv[:2] == ["grammar", "member"] and "--trace" in argv and code == 0:
        lines = stdout.splitlines()
        return code, f"{lines[0]}\n{lines[1]}\n...\n{lines[-1]}\n"
    return code, stdout
