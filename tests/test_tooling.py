"""The benchmark's tracer looks up library functions by name; a function
removed from the library must fail here before it breaks `bench/run.py
--trace 1` and the bench self-tests."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_in_the_library():
    spans = load_spans()
    missing = [
        f"{short}.{name}"
        for short, names in spans.TRACED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"splang.{short}"), name, None))
    ]
    assert missing == []
    assert spans.GENERATORS <= {name for names in spans.TRACED.values() for name in names}


def test_every_library_hook_the_bench_names_exists():
    # bench/worker.py loads these submodules by name
    from splang import _lex, _partitions, automata, cli, grammars, langs, regexes, terms  # noqa: F401

    # bench/worker.py and bench/cli_child.py read the format cache's counters
    terms.format_term.cache_info()
    # bench/spans.py wraps FiniteLang.of as a staticmethod
    assert isinstance(langs.FiniteLang.__dict__["of"], staticmethod)
    # bench/workloads.py passes generate a positional max_steps, which it ignores
    g = grammars.parse_grammar("S -> a | a.S\n")
    n = 2
    lang = grammars.generate(g, n, 4 * n + 8, terms.COMMUTATIVE)
    assert lang == grammars.generate(g, n, mode=terms.COMMUTATIVE)
    assert [terms.format_term(w) for w in lang] == ["a", "a.a"]


def test_no_library_module_imports_the_brute_force_partitions():
    # `_partitions` stays for the bench's tracer and the tests' oracles; no other library module names it at all
    modules = (Path(__file__).resolve().parents[1] / "src" / "splang").glob("*.py")
    assert [m.name for m in sorted(modules) if m.name != "_partitions.py" and "_partitions" in m.read_text()] == []
