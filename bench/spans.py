"""Spans around calls into splang's layers, installed from outside the library.

`Tracer.install` replaces every module's binding of each traced public
function with a timing wrapper (``from .terms import canonicalize`` leaves a
copy of the function in `langs`, `regexes`, `grammars` and `automata`, so
each copy is replaced), and `Tracer.uninstall` puts the originals back.
A span records its name, start, end, parent span and op id; spans stay in
memory and are written out when the run ends. Recursive self-calls are not
spanned. Generators (the partition enumerators) get one span per item drawn,
so their self time is separated from the caller's.

`format_term` is an `lru_cache` that doubles as a sort key; it is counted
through `cache_info()` and not wrapped.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import Counter, defaultdict

# defining module -> traced public functions (module-level names)
TRACED = {
    "_lex": ("tokenize",),
    "terms": ("parse_term", "canonicalize", "enumerate_terms", "reverse_term"),
    "_partitions": ("ordered_splits", "multiset_splits", "multiset_partitions", "distinct_permutations"),
    "langs": (
        "concat_lang", "par_lang", "union_lang", "power", "kleene_bounded", "reverse_lang",
        "lang_equal", "load_lang", "dump_lang", "universe",
    ),
    "regexes": ("parse_regex", "matches", "regex_enumerate", "to_parallel_linear_grammar"),
    "grammars": ("parse_grammar", "classify_grammar", "generate", "is_member", "format_grammar"),
    "automata": (
        "parse_automaton", "from_linear_grammar", "accepts", "runs_between",
        "enumerate_accepted", "serialize_automaton",
    ),
    "cli": ("main",),
}
GENERATORS = {"ordered_splits", "multiset_splits", "multiset_partitions"}
LAYER_PREFIX = {"_lex": "lex", "_partitions": "partitions"}

# wrapped functions whose result length is worth counting, by span name
SIZED = {
    "lex.tokenize": "lex.tokens",
    "terms.enumerate_terms": "terms.universe_terms",
    "regexes.regex_enumerate": "regexes.enum_words",
    "automata.enumerate_accepted": "automata.enum_words",
}
# (span name, parent span name) pairs counted as work an enumerator tested
TESTED = {
    ("regexes.matches", "regexes.regex_enumerate"): "regexes.enum_tested",
    ("automata.accepts", "automata.enumerate_accepted"): "automata.enum_tested",
}


class Tracer:
    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.op = -1
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_op.append(self.op)
        self.span_end.append(0)
        self._stack.append(idx)
        self.span_start.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.span_end[idx] = self.clock()
        self._stack.pop()

    def current(self) -> str | None:
        return self.names[self.span_name[self._stack[-1]]] if self._stack else None

    def parent_name(self) -> str | None:
        """Name of the span enclosing the innermost open one."""
        if len(self._stack) < 2:
            return None
        return self.names[self.span_name[self._stack[-2]]]

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        sized = SIZED.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.current() == name:
                return fn(*args, **kwargs)
            idx = self.open(name)
            try:
                tested = TESTED.get((name, self.parent_name()))
                if tested:
                    self.counts[tested] += 1
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if sized:
                self.counts[sized] += len(result)
            return result

        return wrapper

    def _wrap_generator(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            items = fn(*args, **kwargs)
            while True:
                idx = self.open(name)
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    self.close(idx)
                self.counts[name + ".yields"] += 1
                yield item

        return wrapper

    def _wrap_of(self, fn):
        """FiniteLang.of: also count terms offered and terms kept."""

        def of(terms, *args, **kwargs):
            idx = self.open("langs.of")
            try:
                offered = list(terms)
                result = fn(offered, *args, **kwargs)
            finally:
                self.close(idx)
            self.counts["langs.of.offered"] += len(offered)
            self.counts["langs.of.kept"] += len(result)
            return result

        return staticmethod(of)

    def install(self, modules: dict) -> None:
        """Wrap every binding of the traced functions in `modules`
        ({short name: module}, which must include the package itself)."""
        wrappers = {}
        for short, names in TRACED.items():
            layer = LAYER_PREFIX.get(short, short)
            for fname in names:
                original = getattr(modules[short], fname)
                span = f"{layer}.{fname}"
                wrap = self._wrap_generator if fname in GENERATORS else self._wrap
                wrappers[id(original)] = (original, wrap(span, original))
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, hit[1])
        lang_cls = modules["langs"].FiniteLang
        self._restore.append((lang_cls, "of", lang_cls.__dict__["of"]))
        lang_cls.of = self._wrap_of(lang_cls.__dict__["of"].__func__)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- results ------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, not counting time covered by child spans."""
        return self_times(
            [self.names[i] for i in self.span_name], self.span_start, self.span_end, self.span_parent
        )

    def calls(self) -> Counter:
        return Counter(self.names[i] for i in self.span_name)

    def write(self, path) -> None:
        """One line per span: name, start_ns, end_ns, parent index, op id."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("name\tstart_ns\tend_ns\tparent\top\n")
            for i in range(len(self.span_name)):
                out.write(
                    f"{self.names[self.span_name[i]]}\t{self.span_start[i]}\t{self.span_end[i]}\t"
                    f"{self.span_parent[i]}\t{self.span_op[i]}\n"
                )


def self_times(names, starts, ends, parents) -> dict[str, float]:
    """Each span's duration minus the time its child spans cover, summed per
    name, in seconds. Spans are in open order; `parents` holds the index of
    the enclosing span, or -1."""
    child = [0] * len(names)
    for i, parent in enumerate(parents):
        if parent >= 0:
            child[parent] += ends[i] - starts[i]
    out: dict[str, float] = defaultdict(float)
    for i, name in enumerate(names):
        out[name] += (ends[i] - starts[i] - child[i]) / 1e9
    return dict(out)


def layer_metrics(calls: Counter, self_s: dict, counts: Counter, format_term_info) -> dict[str, float]:
    """The per-layer metrics, from span calls and self times, counters and
    `format_term.cache_info()` deltas (hits, misses, final size)."""

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    hits, misses, size = format_term_info
    out = {
        "lex.tokenize.calls": calls["lex.tokenize"],
        "lex.tokenize.self_s": self_s.get("lex.tokenize", 0.0),
        "lex.tokens": counts["lex.tokens"],
        "terms.parse_term.self_s": self_s.get("terms.parse_term", 0.0),
        "terms.canonicalize.calls": calls["terms.canonicalize"],
        "terms.canonicalize.self_s": self_s.get("terms.canonicalize", 0.0),
        "terms.format_term.hits": hits,
        "terms.format_term.misses": misses,
        "terms.format_term.cache_size": size,
        "terms.enumerate_terms.calls": calls["terms.enumerate_terms"],
        "terms.enumerate_terms.self_s": self_s.get("terms.enumerate_terms", 0.0),
        "terms.universe_terms": counts["terms.universe_terms"],
        "partitions.ordered_splits.yields": counts["partitions.ordered_splits.yields"],
        "partitions.multiset_splits.yields": counts["partitions.multiset_splits.yields"],
        "partitions.multiset_partitions.yields": counts["partitions.multiset_partitions.yields"],
        "partitions.self_s": sum(v for k, v in self_s.items() if k.startswith("partitions.")),
        "langs.of.calls": calls["langs.of"],
        "langs.of.self_s": self_s.get("langs.of", 0.0),
        "langs.of.dedup_ratio": ratio(counts["langs.of.kept"], counts["langs.of.offered"]),
    }
    for fname in ("concat_lang", "par_lang", "kleene_bounded", "lang_equal", "load_lang", "dump_lang"):
        out[f"langs.{fname}.self_s"] = self_s.get(f"langs.{fname}", 0.0)
    out.update({
        "regexes.parse_regex.self_s": self_s.get("regexes.parse_regex", 0.0),
        "regexes.matches.calls": calls["regexes.matches"],
        "regexes.matches.self_s": self_s.get("regexes.matches", 0.0),
        "regexes.regex_enumerate.self_s": self_s.get("regexes.regex_enumerate", 0.0),
        "regexes.enum_hit_ratio": ratio(counts["regexes.enum_words"], counts["regexes.enum_tested"]),
        "grammars.parse_grammar.self_s": self_s.get("grammars.parse_grammar", 0.0),
        "grammars.classify_grammar.self_s": self_s.get("grammars.classify_grammar", 0.0),
        "grammars.is_member.calls": calls["grammars.is_member"],
        "grammars.is_member.self_s": self_s.get("grammars.is_member", 0.0),
        "grammars.generate.self_s": self_s.get("grammars.generate", 0.0),
        "automata.accepts.calls": calls["automata.accepts"],
        "automata.runs_between.calls": calls["automata.runs_between"],
        "automata.runs_between.self_s": self_s.get("automata.runs_between", 0.0),
        "automata.enumerate_accepted.self_s": self_s.get("automata.enumerate_accepted", 0.0),
        "automata.enum_hit_ratio": ratio(counts["automata.enum_words"], counts["automata.enum_tested"]),
        "automata.from_linear_grammar.self_s": self_s.get("automata.from_linear_grammar", 0.0),
        "automata.parse_automaton.self_s": self_s.get("automata.parse_automaton", 0.0),
        "cli.main.self_s": self_s.get("cli.main", 0.0),
    })
    return out
