"""The package namespace and what each CLI command imports.

`splang` re-exports its submodules' public names but imports none of them
until a name is used, and the CLI imports the grammar, regex and automaton
modules only in the handlers that run them. No module uses dataclasses, so
no command loads `dataclasses` or the `inspect` module it imports. A library
call leaves no reference cycle behind, so what it built is freed when it
returns, without the cyclic garbage collector, and the table of interned
terms lets go of every term nothing else holds at its next sweep."""

import ast
import copy
import gc
import importlib
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import splang
from splang import automata, grammars, langs, regexes, terms
from splang._lex import Immutable, tokenize
from splang.automata import SeqTransition
from splang.errors import EnumerationCapError
from splang.grammars import MembershipResult
from splang.terms import COMMUTATIVE

# every name the package has re-exported since the start, by defining submodule
EXPORTS = {
    "errors": [
        "EnumerationCapError", "FragmentError", "ModeMismatchError",
        "NotParallelLinearError", "SplangError", "TermSyntaxError",
    ],
    "terms": [
        "COMMUTATIVE", "EPS", "ORDERED", "Eps", "Leaf", "Par", "SemanticsMode", "SPTerm", "Seq",
        "TermClass", "atoms_count", "atoms_multiset", "canonicalize", "classify_term", "depth",
        "enumerate_terms", "format_term", "is_parallel_word", "is_sequential_word", "length", "par",
        "parse_term", "reverse_term", "seq",
    ],
    "langs": [
        "ClosureKind", "FiniteLang", "LangDiff", "PowerKind", "concat_lang", "dump_lang",
        "kleene_bounded", "lang_equal", "load_lang", "par_lang", "power", "reverse_lang",
        "union_lang", "universe",
    ],
    "regexes": [
        "Regex", "format_regex", "matches", "parse_regex", "regex_enumerate",
        "to_parallel_linear_grammar",
    ],
    "grammars": [
        "Grammar", "GrammarClass", "Production", "classify_grammar", "format_grammar", "generate",
        "is_member", "parse_grammar", "random_parallel_linear_grammar",
    ],
    "automata": [
        "BranchingAutomaton", "accepts", "automaton_alphabet", "enumerate_accepted",
        "from_linear_grammar", "parse_automaton", "runs_between", "serialize_automaton", "to_grammar",
    ],
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names]


def test_every_exported_name_is_its_submodules_object():
    wrong = [name for module, name in NAMES
             if getattr(splang, name) is not getattr(importlib.import_module(f"splang.{module}"), name)]
    assert wrong == []
    assert set(splang.__all__) == {name for _, name in NAMES} <= set(dir(splang))
    assert len(splang.__all__) == len(NAMES)


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from splang import *", namespace)
    assert all(namespace[name] is getattr(splang, name) for _, name in NAMES)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        splang.no_such_name
    assert not hasattr(splang, "no_such_name")


SRC = str(Path(splang.__file__).resolve().parents[1])
DATACLASSES = ("dataclasses", "inspect")
HEAVY = ("splang.grammars", "splang.regexes", "splang.automata", "splang._partitions", *DATACLASSES)


def loaded_after(argv, cwd):
    """The splang modules, and `dataclasses` and `inspect` if loaded, that a
    fresh interpreter holds after `main(argv)`."""
    script = (
        "import json, sys, splang.cli\n"
        "code = splang.cli.main(sys.argv[1:])\n"
        "names = sorted(m for m in sys.modules if m.startswith('splang') or m in ('dataclasses', 'inspect'))\n"
        "print(json.dumps([code, names]), file=sys.stderr)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script, *argv], cwd=cwd, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=SRC))
    code, modules = json.loads(proc.stderr.splitlines()[-1])
    assert code == 0, proc.stderr
    return set(modules)


@pytest.mark.parametrize(
    "argv,absent",
    [
        (["term", "canon", "b||a.a"], HEAVY),
        (["lang", "concat", "l.lang", "l.lang"], HEAVY),
        (["grammar", "member", "g.g", "a||b"], ("splang.automata", *DATACLASSES)),
        (["regex", "match", "(a||b)^", "a||b"], ("splang.automata", *DATACLASSES)),
        (["automaton", "accepts", "x.aut", "a"], DATACLASSES),
        (["automaton", "accepts", "f.aut", "a||a"], ("splang._partitions", *DATACLASSES)),
        (["equiv", "g.g"], ("splang._partitions", *DATACLASSES)),
    ],
    ids=["term", "lang", "grammar", "regex", "automaton", "automaton-fork", "equiv"],
)
def test_a_command_imports_only_the_modules_it_runs(tmp_path, argv, absent):
    (tmp_path / "l.lang").write_text("mode: ordered\na\nb\n", encoding="utf-8")
    (tmp_path / "g.g").write_text("S -> a||b\n", encoding="utf-8")
    (tmp_path / "x.aut").write_text("states: p q\ninitial: p\nfinal: q\nseq: p a q\n", encoding="utf-8")
    (tmp_path / "f.aut").write_text("states: p q r s\ninitial: p\nfinal: q\nseq: r a s\n"
                                    "fork: F p -> {r, r}\njoin: J {s, s} -> q\npar: F * J\n", encoding="utf-8")
    loaded = loaded_after(argv, tmp_path)
    assert "splang.cli" in loaded
    assert loaded.isdisjoint(absent)


# ---------------------------------------------------------------------------
# value classes

def value_samples():
    """One instance of every value class, by class."""
    g = splang.parse_grammar("S -> a.S | eps | A||b\nA -> a\n")
    aut = splang.parse_automaton(
        "states: p q r s\ninitial: p\nfinal: q\nseq: r a s\n"
        "fork: F p -> {r, r}\njoin: J {s, s} -> q\npar: F {a,a;a} J\n"
    )
    left, right = splang.FiniteLang.parse(["a", "b.a"]), splang.FiniteLang.parse(["a"])
    values = [
        tokenize("a")[0], splang.EPS, splang.parse_term("a"), splang.parse_term("a.b"), splang.parse_term("a||b"),
        left, splang.lang_equal(left, right),
        *map(splang.parse_regex, ["0", "eps", "a", "a.b", "a|b", "a||b", "a*", "a^", "a@"]),
        g.productions[0], g, splang.classify_grammar(g), splang.is_member(g, splang.parse_term("a.a")),
        aut.seqs[0], aut.forks[0], aut.joins[0], aut.pars[0], aut,
    ]
    return {type(v): v for v in values}


def value_classes(cls=Immutable):
    for sub in cls.__subclasses__():
        yield sub
        yield from value_classes(sub)


def test_every_value_class_has_a_sample():
    abstract = {splang.SPTerm, splang.terms._Product, splang.Regex}
    assert set(value_samples()) == set(value_classes()) - abstract


@pytest.mark.parametrize("value", list(value_samples().values()), ids=lambda v: type(v).__name__)
def test_values_copy_pickle_and_refuse_assignment(value):
    for clone in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(clone) is type(value)
        assert clone == value and hash(clone) == hash(value)
    for name in value._fields or ("_hash",):  # read nothing: eps has no attribute, so only the refusal may raise
        with pytest.raises(AttributeError, match=f"^{type(value).__name__} is immutable$"):
            setattr(value, name, None)
        with pytest.raises(AttributeError, match=f"^{type(value).__name__} is immutable$"):
            delattr(value, name)


def test_the_value_constructor_takes_fields_by_position_or_keyword():
    Production, t = splang.Production, splang.parse_term("a")
    assert Production("S", t) == Production("S", rhs=t) == Production(rhs=t, lhs="S")
    assert Production("S", t) != Production("A", t) and Production("S", t) != ("S", t)
    assert repr(SeqTransition("p", "a", "q")) == "SeqTransition(src='p', label='a', dst='q')"
    too_many = (True, None, splang.ORDERED, None)
    for args, kwargs in [((True,), {}), (too_many, {}), ((True,), {"member": True}), ((True,), {"trace": None})]:
        with pytest.raises(TypeError):
            MembershipResult(*args, **kwargs)


# ---------------------------------------------------------------------------
# memory goes back when a call returns

def library_calls():
    """(name, call) pairs covering every bounded engine, search and
    compiler, the cap errors raised inside `generate` included."""
    g = grammars.parse_grammar("S -> A.B | A||S | a\nA -> a||b | eps\nB -> b | B.b\n")
    linear = grammars.parse_grammar("S -> a||S | b||A\nA -> a | eps\n")
    aut = automata.from_linear_grammar(linear)
    left, right = langs.FiniteLang.parse(["a", "a.b", "a||b"]), langs.FiniteLang.parse(["b", "eps"])
    word = terms.parse_term("a||a||b")
    return [
        ("generate ordered", lambda: grammars.generate(g, 5)),
        ("generate commutative", lambda: grammars.generate(g, 5, mode=COMMUTATIVE)),
        ("generate over its cap", lambda: grammars.generate(g, 6, cap=5)),
        ("regex_enumerate", lambda: regexes.regex_enumerate(regexes.parse_regex("(a.b)*||c^|a@"), "abc", 4)),
        ("matches", lambda: regexes.matches(regexes.parse_regex("(b.a)*|(c||a)@"), terms.parse_term("b.a"))),
        ("enumerate_accepted", lambda: automata.enumerate_accepted(aut, "ab", 4)),
        ("universe", lambda: langs.universe("ab", 4, COMMUTATIVE)),
        ("enumerate_terms", lambda: terms.enumerate_terms("ab", 4)),
        ("enumerate_terms over its cap", lambda: terms.enumerate_terms("abc", 8)),
        ("is_member", lambda: grammars.is_member(g, terms.parse_term("(a||b).b.b"))),
        ("accepts", lambda: automata.accepts(aut, word)),
        ("from_linear_grammar", lambda: automata.from_linear_grammar(linear)),
        ("to_grammar", lambda: automata.to_grammar(aut)),
        ("concat_lang", lambda: langs.concat_lang(left, right)),
        ("par_lang", lambda: langs.par_lang(left, right)),
        ("union_lang", lambda: langs.union_lang(left, right)),
        ("power", lambda: langs.power(left, 3, langs.PowerKind.PAR)),
        ("kleene_bounded", lambda: langs.kleene_bounded(left, langs.ClosureKind.SP, 3)),
        ("reverse_lang", lambda: langs.reverse_lang(left)),
        ("lang_equal", lambda: langs.lang_equal(left, right)),
        ("load_lang", lambda: langs.load_lang(langs.dump_lang(left))),
        ("regex_alphabet", lambda: regexes.regex_alphabet(regexes.parse_regex("(a.b)*||c^"))),
        # a term no other test builds, so its nodes get their forms here
        ("canonicalize", lambda: terms.canonicalize(terms.parse_term("(q.p||p).(r||q)||q"), COMMUTATIVE)),
        ("to_parallel_linear_grammar", lambda: regexes.to_parallel_linear_grammar(regexes.parse_regex("(a||b)^|c"))),
    ]


def test_a_call_leaves_no_cyclic_garbage():
    regexes._compile.cache_clear()  # so `matches` compiles its regex
    grammars._universe.cache_clear()  # and the universes are generated
    calls = library_calls()
    gc.collect()
    gc.disable()
    gc.freeze()  # what earlier tests left alive is not traced again after each call
    try:
        for name, call in calls:
            try:
                call()
            except EnumerationCapError:
                pass
            assert gc.collect() == 0, name
    finally:
        gc.unfreeze()
        gc.enable()


def test_the_intern_table_keeps_no_dropped_term_alive():
    def entries():
        return len(terms.Leaf._interned) + len(terms.Seq._interned) + len(terms.Par._interned)

    def live_nodes():
        terms.format_term.cache_clear()  # the text cache holds every term it formatted
        gc.collect()
        terms._sweep()  # the tables hold a dropped node until they are swept
        return entries()

    def deep_term():
        t = terms.Leaf("a")
        for level in range(10_000):
            t = (terms.Seq if level % 2 else terms.Par)((terms.Leaf("b"), t))
        return entries()

    def canonical_deep_term():
        t = terms.Leaf("a")  # b||(b.(...(b||a))): the form has a new node at every level but the few inmost
        for level in range(1_000):
            t = (terms.Seq if level % 2 else terms.Par)((terms.Leaf("b"), t))
        built = entries()
        assert terms.canonicalize(t, COMMUTATIVE) is not t
        return entries() - built  # the forms, which the term's nodes keep

    def tenth_power():
        return len(langs.power(langs.FiniteLang.parse(["a", "b"]), 10, langs.PowerKind.SEQ))

    def queried_deep_term():
        t = terms.Leaf("a")  # the membership facts each node keeps go with the node
        for level in range(1_000):
            t = (terms.Seq if level % 2 else terms.Par)((terms.Leaf("b"), t))
        g = grammars.parse_grammar("S -> a | b.S | b||S\n")
        return [bool(grammars.is_member(g, t, mode)) for mode in (terms.ORDERED, COMMUTATIVE)]

    before = live_nodes()
    assert deep_term() > before and live_nodes() == before
    assert canonical_deep_term() > 900 and live_nodes() == before
    assert tenth_power() == 1024 and live_nodes() == before
    assert queried_deep_term() == [True, True] and live_nodes() == before


def test_no_nested_helper_names_itself_or_a_sibling():
    # a closure cell holding its own function, or a sibling that names it back, is a cycle that keeps
    # everything the enclosing call built until the collector runs
    found = []
    for path in sorted(Path(splang.__file__).parent.glob("*.py")):
        for outer in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(outer, ast.FunctionDef):
                helpers = [node for node in ast.walk(outer) if isinstance(node, ast.FunctionDef) and node is not outer]
                names = {helper.name for helper in helpers}
                found += [(path.name, outer.name, helper.name) for helper in helpers
                          if any(isinstance(n, ast.Name) and n.id in names for n in ast.walk(helper))]
    assert found == []
