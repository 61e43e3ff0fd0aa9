"""Run one workload in a fresh interpreter on the cases read from stdin;
print `ready` when set up, then one JSON line with the timed phase's results.

Every workload gets its own interpreter because splang keeps process-wide
caches (`format_term` is an unbounded `lru_cache`, `_enumerate_cached` keeps
64 universes), so a warm cache must not leak from one workload into the next.

    python3 bench/worker.py --workload decide --seconds 10 [--trace] [--setup-only] < cases.json
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import types
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def load_library():
    sys.path.insert(0, str(ROOT / "src"))
    import splang
    from splang import _lex, _partitions, automata, cli, grammars, langs, regexes, terms

    return types.SimpleNamespace(
        splang=splang, _lex=_lex, _partitions=_partitions, terms=terms, langs=langs,
        regexes=regexes, grammars=grammars, automata=automata, cli=cli,
    )


# A shared (virtual) machine can change speed by a quarter and more for tens
# of seconds at a time, for every process alike. A fixed piece of pure
# Python work (no splang), timed between ops, measures that speed; each op's
# latency is scaled by NOMINAL_CALIBRATION_S / (the next calibration's time),
# which reports it at one fixed machine speed. Raw figures are kept beside.
NOMINAL_CALIBRATION_S = 0.002
CALIBRATE_EVERY_S = 0.25
_CAL_KEYS = [(i % 7, (i * 31) % 13, chr(97 + i % 26)) for i in range(10000)]


def calibrate() -> float:
    """Seconds the calibration work takes now: median of three, with the
    garbage collector off so that the library's heap does not count."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            counts: dict = {}
            for key in _CAL_KEYS:
                counts[key] = counts.get(key, 0) + 1
            sorted(counts.items(), key=lambda kv: (str(kv[0]), kv[1]))
            times.append(time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


def run_phase(ops, seconds: float, tracer=None) -> dict:
    """Closed loop, one client: run the ops in pool order, round after
    round, until `seconds` have passed, calibrating the machine's speed
    between ops every CALIBRATE_EVERY_S. A result that differs from the same
    op's first result counts as failed here; first results are checked
    against the reference afterwards."""
    first: list = [None] * len(ops)
    runs = [0] * len(ops)
    latencies: list[float] = []
    calibrations: list[tuple[int, float]] = []  # (ops done before it, seconds)
    errors: Counter = Counter()
    failed = 0
    clock = time.perf_counter
    start = last_calibration = clock()
    deadline = start + seconds
    i = 0
    while True:
        k = i % len(ops)
        if tracer is not None:
            tracer.op = i
        t0 = clock()
        try:
            result = ops[k].call()
        except Exception as exc:  # counted as a failed op, and the run goes on
            result = exc
        t1 = clock()
        latencies.append(t1 - t0)
        i += 1
        if isinstance(result, Exception):
            failed += 1
            errors[f"{ops[k].label}: {type(result).__name__}"] += 1
        elif runs[k] == 0:
            first[k] = result
            runs[k] = 1
        else:
            runs[k] += 1
            if result != first[k]:
                failed += 1
                errors[f"{ops[k].label}: result changed between rounds"] += 1
        if t1 >= deadline or t1 - last_calibration >= CALIBRATE_EVERY_S:
            if tracer is not None:
                tracer.op = -1
            calibrations.append((i, calibrate()))
            last_calibration = clock()
        if t1 >= deadline:
            break
    if tracer is not None:
        tracer.op = -1
    return {"elapsed": t1 - start, "latencies": latencies, "calibrations": calibrations, "first": first,
            "runs": runs, "failed": failed, "errors": errors}


def scaled(phase: dict) -> list[float]:
    """Each op's latency at the nominal machine speed, from the calibration
    that followed it."""
    out = []
    done = 0
    for upto, seconds in phase["calibrations"]:
        factor = NOMINAL_CALIBRATION_S / seconds
        out.extend(lat * factor for lat in phase["latencies"][done:upto])
        done = upto
    return out


def check(ops, phase) -> None:
    """Compare each op's first result with its reference answer; a wrong
    answer fails every run of that op."""
    for op, result, runs in zip(ops, phase["first"], phase["runs"]):
        if runs and op.verdict(result) != op.expect():
            phase["failed"] += runs
            phase["errors"][f"{op.label}: wrong answer"] += runs


def throughput(pool: int, latencies: list[float]) -> float:
    """Ops per second over the ops' own time: the median over complete
    rounds of the pool, or over all ops when no round completed."""
    rounds = [sum(latencies[i:i + pool]) for i in range(0, len(latencies) - pool + 1, pool)]
    if not rounds:
        return len(latencies) / sum(latencies)
    return statistics.median(pool / seconds for seconds in rounds)


WINDOW = 200  # fewest ops in one window of the tail


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile that has
    at least 10 samples beyond it, or the maximum when there are fewer than
    11 samples."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def windowed_tail(latencies: list[float], pool: int) -> tuple[float, float, int]:
    """The tail of each window of whole rounds holding at least WINDOW ops,
    then the median over windows (with the window's percentile and samples
    beyond). The percentile depends only on the pool size, so it stays put
    when the library gets faster; the median discounts the moments when the
    shared machine itself slows. Without a whole window: the tail of all."""
    size = pool * -(-WINDOW // pool)
    windows = [tail(latencies[i:i + size]) for i in range(0, len(latencies) - size + 1, size)]
    if not windows:
        return tail(latencies)
    return statistics.median(w[0] for w in windows), windows[0][1], windows[0][2]


class CliRunner:
    """Each op is one `splang` process on files in a scratch directory
    inside the checkout; with tracing, the process is `cli_child.py`, which
    times `main` in-process and reports its spans."""

    def __init__(self, lib, traced: bool):
        self.lib = lib
        self.traced = traced
        self.workdir = Path(tempfile.mkdtemp(prefix=".bench-work-", dir=ROOT))
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
        self.children: list[dict] = []
        self._written = False

    def prepare(self, case):
        from workloads import Op, cli_expect, cli_verdict

        if not self._written:
            for name, text in case["files"].items():
                (self.workdir / name).write_text(text, encoding="utf-8")
            self._written = True
        argv = case["argv"]
        return Op(
            " ".join(argv[:2]) if argv[0] != "equiv" else "equiv",
            lambda: self.run(argv),
            lambda result: cli_verdict(argv, *result),
            lambda: cli_expect(argv, case["files"]),
        )

    def run(self, argv) -> tuple[int, str]:
        if not self.traced:
            proc = subprocess.run([sys.executable, "-m", "splang.cli", *argv], cwd=self.workdir,
                                  env=self.env, capture_output=True, text=True, timeout=60)
            return proc.returncode, proc.stdout
        stats = self.workdir / "child-stats.json"
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, str(BENCH / "cli_child.py"), str(stats), *argv],
                              cwd=self.workdir, env=self.env, capture_output=True, text=True, timeout=60)
        wall = time.perf_counter() - t0
        child = json.loads(stats.read_text(encoding="utf-8"))
        stats.unlink()
        child["process_overhead_s"] = wall - child["main_s"]
        self.children.append(child)
        return proc.returncode, proc.stdout

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def cases_for(name: str, seed: int, lib) -> list[dict]:
    import workloads

    return getattr(workloads, f"{name}_cases")(seed, lib)


def build(name: str, cases: list[dict], lib, traced: bool):
    import workloads

    if name == "cli":
        runner = CliRunner(lib, traced)
    else:
        runner = {"decide": workloads.Decide, "enumerate": workloads.Enumerate,
                  "algebra": workloads.Algebra}[name](lib)
    return runner, [runner.prepare(case) for case in cases]


def known_defects(name: str, runner) -> list[dict]:
    """Queries the library is known to answer wrongly, run outside the timed
    phase so that a fix shows here without changing the timed work."""
    if name != "decide":
        return []
    import workloads

    op = runner.prepare(workloads.unit_chain_case())
    got, expected = op.verdict(op.call()), op.expect()
    return [{"name": "unit-chain-membership", "grammar": workloads.UNIT_CHAIN_GRAMMAR, "term": "a",
             "expected": expected, "got": got, "wrong": got != expected}]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("decide", "enumerate", "algebra", "cli"))
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    lib = load_library()
    from spans import Tracer, layer_metrics

    in_process = args.workload != "cli"
    tracer = Tracer() if args.trace and in_process else None
    if tracer is not None:
        tracer.install(vars(lib))
    runner, ops = build(args.workload, json.load(sys.stdin), lib, args.trace)
    try:
        print("ready", flush=True)
        if args.setup_only:
            return 0
        phase = run_phase(ops, args.seconds, tracer)
        format_info = lib.terms.format_term.cache_info()
        if tracer is not None:
            tracer.uninstall()
        check(ops, phase)
        defects = known_defects(args.workload, runner)
    finally:
        if not in_process:
            runner.close()

    usage = resource.getrusage(resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN)
    latencies = scaled(phase)
    value, pct, beyond = windowed_tail(latencies, len(ops))
    calibration = statistics.median(c for _, c in phase["calibrations"])
    out = {
        "attempted": len(phase["latencies"]),
        "failed": phase["failed"],
        "errors": dict(phase["errors"]),
        "elapsed_s": phase["elapsed"],
        "ops_per_s": throughput(len(ops), latencies),
        "op_p50_ms": 1000 * statistics.median(latencies),
        "op_tail_ms": 1000 * value,
        "op_tail_percentile": pct,
        "op_tail_beyond": beyond,
        "raw": {
            "ops_per_s": throughput(len(ops), phase["latencies"]),
            "op_p50_ms": 1000 * statistics.median(phase["latencies"]),
            "op_tail_ms": 1000 * windowed_tail(phase["latencies"], len(ops))[0],
            "calibration_s": calibration,
            "machine_speed": NOMINAL_CALIBRATION_S / calibration,
        },
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "pool": len(ops),
        "format_term_cache_size": format_info.currsize,
        "known_defects": defects,
    }
    if args.trace:
        if tracer is not None:
            layers = layer_metrics(tracer.calls(), tracer.self_times(), tracer.counts,
                                   (format_info.hits, format_info.misses, format_info.currsize))
            layers["cli.import_s"] = 0.0
            layers["cli.process_overhead_s"] = 0.0
            trace_dir = ROOT / ".bench-trace"
            trace_dir.mkdir(exist_ok=True)
            tracer.write(trace_dir / f"{args.workload}.spans.tsv")
            out["spans"] = len(tracer.span_name)
        else:
            layers = _merge_children(runner.children)
            out["spans"] = sum(c["spans"] for c in runner.children)
        out["layers"] = layers
    print(json.dumps(out), flush=True)
    return 0


def _merge_children(children: list[dict]) -> dict:
    """Per-layer metrics over every traced `splang` process: counts and self
    times are summed; per-process costs are medians."""
    from spans import layer_metrics

    calls, self_s, counts = Counter(), Counter(), Counter()
    hits = misses = size = 0
    for child in children:
        calls.update(child["calls"])
        self_s.update(child["self_s"])
        counts.update(child["counts"])
        hits += child["format_term"][0]
        misses += child["format_term"][1]
        size = max(size, child["format_term"][2])
    layers = layer_metrics(calls, dict(self_s), counts, (hits, misses, size))
    layers["cli.import_s"] = statistics.median(c["import_s"] for c in children)
    layers["cli.process_overhead_s"] = statistics.median(c["process_overhead_s"] for c in children)
    return layers


if __name__ == "__main__":
    sys.exit(main())
