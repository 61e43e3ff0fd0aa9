"""Tests of the benchmark itself (not part of the library's test suite):

    python3 -m pytest -q bench/selftest.py
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "tests")]

import reference as ref  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

LIB = worker.load_library()


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    samples = [float(i) for i in range(1, 101)]
    assert worker.tail(samples) == (90.0, 90.0, 10)
    value, pct, beyond = worker.tail([float(i) for i in range(1, 1001)])
    assert (value, pct, beyond) == (990.0, 99.0, 10)
    assert sum(s > value for s in range(1, 1001)) == 10


def test_tail_of_a_short_run_is_its_maximum():
    assert worker.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_windowed_tail_takes_the_median_window():
    # windows of two rounds; the third window has a slow burst, and the last,
    # partial window is ignored
    size = worker.WINDOW
    window = [float(i) for i in range(1, size + 1)]
    burst = [x * 10 for x in window]
    value, pct, beyond = worker.windowed_tail(window + window + burst + window[:60], pool=size // 2)
    assert (value, pct, beyond) == (size - 10.0, 100.0 * (size - 10) / size, 10)
    assert worker.windowed_tail([1.0, 2.0, 3.0], pool=3) == worker.tail([1.0, 2.0, 3.0])


def test_self_time_subtracts_child_spans():
    # a [0, 100] holds b [10, 40] (which holds c [20, 30]) and d [50, 90]
    names = ["a", "b", "c", "d"]
    starts = [0, 10, 20, 50]
    ends = [100, 40, 30, 90]
    parents = [-1, 0, 1, 0]
    got = spans.self_times(names, starts, ends, parents)
    assert got == pytest.approx({"a": 30e-9, "b": 20e-9, "c": 10e-9, "d": 40e-9})


def test_tracer_spans_nest_and_recursive_self_calls_are_not_spanned():
    ticks = iter(range(0, 1000, 10))
    tracer = spans.Tracer(clock=lambda: next(ticks))
    inner = tracer._wrap("m.inner", lambda: None)

    def recurse(n):
        return inner() if n == 0 else wrapped(n - 1)

    wrapped = tracer._wrap("m.outer", recurse)
    wrapped(3)
    assert tracer.calls() == {"m.outer": 1, "m.inner": 1}
    assert list(tracer.span_parent) == [-1, 0]
    assert tracer.self_times() == pytest.approx({"m.outer": 20e-9, "m.inner": 10e-9})


def test_install_wraps_every_binding_and_uninstall_restores_them():
    original = LIB.terms.canonicalize
    holders = [LIB.terms, LIB.langs, LIB.regexes, LIB.grammars, LIB.automata, LIB.splang]
    assert all(m.canonicalize is original for m in holders)
    tracer = spans.Tracer()
    tracer.install(vars(LIB))
    try:
        wrapped = LIB.langs.canonicalize
        assert wrapped is not original
        assert all(m.canonicalize is wrapped for m in holders)
        t = LIB.terms.parse_term("b||(a||c).a")
        LIB.langs.FiniteLang.of([t, t])
    finally:
        tracer.uninstall()
    assert all(m.canonicalize is original for m in holders)
    calls = tracer.calls()
    assert calls["langs.of"] == 1 and calls["terms.canonicalize"] == 2 and calls["lex.tokenize"] == 1
    assert tracer.counts["langs.of.offered"] == 2 and tracer.counts["langs.of.kept"] == 1


@pytest.mark.parametrize("name", ["decide", "enumerate", "algebra", "cli"])
def test_a_seed_fixes_the_workload(name):
    cases = getattr(workloads, f"{name}_cases")
    assert cases(7, LIB) == cases(7, LIB)
    assert cases(7, LIB) != cases(8, LIB)


def _fake_library(**replacements):
    """The real modules, except named functions of `regexes` swapped for fakes."""
    fake_regexes = types.SimpleNamespace(**vars(LIB.regexes))
    for fname, fn in replacements.items():
        setattr(fake_regexes, fname, fn)
    return types.SimpleNamespace(**dict(vars(LIB), regexes=fake_regexes))


def test_the_answer_check_catches_a_wrong_answer():
    real = LIB.regexes.matches
    lib = _fake_library(matches=lambda r, t, mode: not real(r, t, mode))
    runner = workloads.Decide(lib)
    cases = [c for c in workloads.decide_cases(3, LIB) if c["op"] == "matches"][:4]
    ops = [runner.prepare(case) for case in cases]
    phase = worker.run_phase(ops, 0.01)
    assert phase["failed"] == 0
    worker.check(ops, phase)
    assert phase["failed"] == len(phase["latencies"])
    assert all("wrong answer" in key for key in phase["errors"])


def test_the_real_library_passes_the_same_check():
    runner = workloads.Decide(LIB)
    ops = [runner.prepare(case) for case in workloads.decide_cases(3, LIB)[:20]]
    phase = worker.run_phase(ops, 0.01)
    worker.check(ops, phase)
    assert phase["failed"] == 0


def test_exceptions_count_as_failed_ops():
    def broken(r, t, mode):
        raise RuntimeError("boom")

    runner = workloads.Decide(_fake_library(matches=broken))
    cases = [c for c in workloads.decide_cases(3, LIB) if c["op"] == "matches"][:2]
    phase = worker.run_phase([runner.prepare(case) for case in cases], 0.01)
    assert phase["failed"] == len(phase["latencies"]) > 0


def test_the_unit_chain_defect_is_reported_beside_the_timed_ops():
    (defect,) = worker.known_defects("decide", workloads.Decide(LIB))
    assert defect["expected"] is True
    assert defect["wrong"] == (defect["got"] is not True)


def test_reference_regex_semantics_agree_with_the_test_oracle():
    import oracles

    universe = oracles.binary_universe("ab", 3, LIB.terms.ORDERED)
    texts = {LIB.terms.format_term(t): t for t in universe}
    for regex in oracles.all_regexes(max_nodes=3):
        mirror = _regex_ref(regex)
        words = {ref.fmt(t) for t in ref.regex_lang(mirror, ref.ORDERED, ref.AtomBound("ab", 3))}
        expected = {text for text, t in texts.items() if oracles.naive_matches(regex, t)}
        assert words == expected, LIB.regexes.format_regex(regex)


def _regex_ref(r):
    rx = LIB.regexes
    if isinstance(r, rx.EmptySet):
        return ("0",)
    if isinstance(r, rx.EpsLit):
        return ("e",)
    if isinstance(r, rx.AtomLit):
        return ("a", r.symbol)
    for cls, kind in ((rx.Cat, "cat"), (rx.Alt, "alt"), (rx.ParProd, "par")):
        if isinstance(r, cls):
            return (kind,) + tuple(_regex_ref(p) for p in r.parts)
    kind = {rx.CloseSeq: "*", rx.ClosePar: "^", rx.CloseSP: "@"}[type(r)]
    return (kind, _regex_ref(r.inner))


def test_reference_text_matches_the_library():
    for text in ("b||(a||c).a", "(a.b||c).eps.(b||b||a)", "eps", "a"):
        for mode_name, mode in ((ref.ORDERED, LIB.terms.ORDERED), (ref.COMMUTATIVE, LIB.terms.COMMUTATIVE)):
            lib_text = LIB.terms.format_term(LIB.terms.canonicalize(LIB.terms.parse_term(text), mode))
            assert ref.fmt(ref.canonical(ref.parse(text), mode_name)) == lib_text


def test_benchmark_json_lists_the_spec_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    spec = json.loads((BENCH / "spec.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in bench["workloads"]] == [w["name"] for w in spec["workloads"]]
    for key in ("end_to_end", "per_layer"):
        assert [{k: m[k] for k in bench[key][0]} for m in spec[key]] == bench[key]
    import run

    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    layers = spans.layer_metrics(spans.Counter(), {}, spans.Counter(), (0, 0, 0))
    names = {m["name"] for m in bench["per_layer"]}
    assert set(layers) | {"cli.import_s", "cli.process_overhead_s"} <= names


def test_without_sources_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "decide", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
