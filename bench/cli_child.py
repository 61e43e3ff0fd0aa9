"""`splang` with spans: time the import of `splang.cli`, run `main` with every
traced binding wrapped, and write the spans' summary as JSON to STATS.

    python3 bench/cli_child.py STATS [splang arguments ...]
"""

import json
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))


def main() -> int:
    stats_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import splang.cli
    from splang import _lex, _partitions, automata, cli, grammars, langs, regexes, terms

    import_s = time.perf_counter() - t0
    from spans import Tracer

    tracer = Tracer()
    tracer.install({"splang": sys.modules["splang"], "_lex": _lex, "_partitions": _partitions,
                    "terms": terms, "langs": langs, "regexes": regexes, "grammars": grammars,
                    "automata": automata, "cli": cli})
    t1 = time.perf_counter()
    try:
        code = splang.cli.main(argv)
    finally:
        main_s = time.perf_counter() - t1
        tracer.uninstall()
        sys.stdout.flush()
    info = terms.format_term.cache_info()
    with open(stats_path, "w", encoding="utf-8") as out:
        json.dump({
            "import_s": import_s,
            "main_s": main_s,
            "calls": tracer.calls(),
            "self_s": tracer.self_times(),
            "counts": tracer.counts,
            "format_term": [info.hits, info.misses, info.currsize],
            "spans": len(tracer.span_name),
        }, out)
    return code


if __name__ == "__main__":
    sys.exit(main())
