"""splang: a workbench for series-parallel languages.

Submodules:

* ``terms`` — the series-parallel term algebra (parse, print, canonical
  forms, length/depth metrics, reversal, the bounded term universe);
* ``langs`` — finite languages with concatenation, parallel product, union,
  powers, three bounded Kleene closures, reversal, and equality reports;
* ``regexes`` — regular expressions with sequential, parallel, and combined
  closures: matching and bounded enumeration through a compile to sp
  grammars, and the parallel-fragment compiler to parallel-linear grammars;
* ``grammars`` — grammars over series-parallel right-hand sides:
  classification, exact generation up to an atom bound, level by level
  (the package's one bounded engine, term universes included), and exact
  membership with derivation traces (its one membership engine);
* ``automata`` — fork/join branching automata: runs, acceptance and bounded
  enumeration through a compile to a commutative sp grammar (a nonterminal
  per state pair joined by a path), and the construction from
  parallel-linear grammars;
* ``cli`` — the ``splang`` command-line front end.

The package re-exports the public names of ``errors`` and of the first five
submodules (listed in ``__all__``). Importing the package imports none of
them: each name loads on first use from its submodule (PEP 562), so a
``splang`` process that only handles terms never compiles the grammar,
regex and automaton modules.
"""

import importlib

# every public name, by the submodule that defines it
_EXPORTS = {
    "errors": (
        "EnumerationCapError", "FragmentError", "ModeMismatchError",
        "NotParallelLinearError", "SplangError", "TermSyntaxError",
    ),
    "terms": (
        "COMMUTATIVE", "EPS", "ORDERED", "Eps", "Leaf", "Par", "SemanticsMode",
        "SPTerm", "Seq", "TermClass", "atoms_count", "atoms_multiset",
        "canonicalize", "classify_term", "depth", "enumerate_terms",
        "format_term", "is_parallel_word", "is_sequential_word", "length", "par",
        "parse_term", "reverse_term", "seq",
    ),
    "langs": (
        "ClosureKind", "FiniteLang", "LangDiff", "PowerKind", "concat_lang",
        "dump_lang", "kleene_bounded", "lang_equal", "load_lang", "par_lang",
        "power", "reverse_lang", "union_lang", "universe",
    ),
    "regexes": (
        "Regex", "format_regex", "matches", "parse_regex", "regex_enumerate",
        "to_parallel_linear_grammar",
    ),
    "grammars": (
        "Grammar", "GrammarClass", "Production", "classify_grammar",
        "format_grammar", "generate", "is_member", "parse_grammar",
        "random_parallel_linear_grammar",
    ),
    "automata": (
        "BranchingAutomaton", "accepts", "automaton_alphabet",
        "enumerate_accepted", "from_linear_grammar", "parse_automaton",
        "runs_between", "serialize_automaton", "to_grammar",
    ),
}
_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_SUBMODULE)
__version__ = "0.1.0"


def __getattr__(name: str):
    # a submodule's name is not in the table: raising lets `from splang
    # import automata` fall back to importing the submodule
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_SUBMODULE[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
