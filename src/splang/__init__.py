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
"""

from .errors import (
    EnumerationCapError,
    FragmentError,
    ModeMismatchError,
    NotParallelLinearError,
    SplangError,
    TermSyntaxError,
)
from .terms import (
    COMMUTATIVE,
    EPS,
    ORDERED,
    Eps,
    Leaf,
    Par,
    SemanticsMode,
    SPTerm,
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
)
from .langs import (
    ClosureKind,
    FiniteLang,
    LangDiff,
    PowerKind,
    concat_lang,
    dump_lang,
    kleene_bounded,
    lang_equal,
    load_lang,
    par_lang,
    power,
    reverse_lang,
    union_lang,
    universe,
)
from .regexes import (
    Regex,
    format_regex,
    matches,
    parse_regex,
    regex_enumerate,
    to_parallel_linear_grammar,
)
from .grammars import (
    Grammar,
    GrammarClass,
    Production,
    classify_grammar,
    format_grammar,
    generate,
    is_member,
    parse_grammar,
    random_parallel_linear_grammar,
)
from .automata import (
    BranchingAutomaton,
    accepts,
    automaton_alphabet,
    enumerate_accepted,
    from_linear_grammar,
    parse_automaton,
    runs_between,
    serialize_automaton,
    to_grammar,
)

__version__ = "0.1.0"
