"""splang benchmark: seeded workloads against the library and the CLI, each
answer checked against an independent reference.

    python3 bench/run.py --workload decide --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --seed 1               # every workload, one row each

With one workload the last line of stdout is a JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics of a separate traced run with
`--trace 1`. Lines before it starting with `#` record the environment and
what the run saw. Run from the root of a source checkout: the library is
imported from `src/`.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("decide", "enumerate", "algebra", "cli")
SETUPS = 5  # fresh interpreters set up per run; setup_s is their median
# Workers (and the splang processes they start) hash with one fixed seed: set
# and dict order steers the library's searches, and a random order per
# process moved the costliest ops' latency by up to a quarter.

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


class WorkerError(RuntimeError):
    pass


def worker(workload: str, cases: str, seconds: float, trace: bool, setup_only: bool = False):
    """Run bench/worker.py on `cases` (JSON); return (seconds until it
    printed `ready`, its result)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seconds", repr(seconds)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=dict(os.environ, PYTHONHASHSEED="0"), stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True)
    try:
        proc.stdin.write(cases)
        proc.stdin.close()
        first = proc.stdout.readline()
        ready = time.perf_counter() - t0
        rest = proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait()
    if code != 0 or first.strip() != "ready":
        raise WorkerError(f"worker for {workload} exited with code {code}")
    return ready, (None if setup_only else json.loads(rest.strip().splitlines()[-1]))


def generate(workload: str, seed: int) -> str:
    """The workload's cases for `seed`, as JSON for the workers' stdin."""
    import worker as bench_worker

    return json.dumps(bench_worker.cases_for(workload, seed, bench_worker.load_library()))


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in (ROOT / "src").rglob("*.py"))


def environment() -> dict:
    return {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "dont_write_bytecode": sys.flags.dont_write_bytecode,
        "src_lines": src_lines(),
    }


def run_untraced(workload: str, seed: int, seconds: float) -> dict:
    """SETUPS fresh interpreters are set up, the last one also runs the
    timed phase. Each set-up time is scaled to the nominal machine speed by
    a calibration just before it, as the worker scales op latencies."""
    import worker as bench_worker

    cases = generate(workload, seed)
    setups, raw = [], []
    for i in range(SETUPS):
        factor = bench_worker.NOMINAL_CALIBRATION_S / bench_worker.calibrate()
        ready, result = worker(workload, cases, seconds, False, setup_only=i < SETUPS - 1)
        raw.append(ready)
        setups.append(ready * factor)
    result["setup_s"] = statistics.median(setups)
    result["raw"]["setup_s"] = statistics.median(raw)
    return result


def run_traced(workload: str, seed: int, seconds: float) -> dict:
    """Half the time untraced and half traced, each in a fresh interpreter;
    their throughput ratio is the tracing overhead."""
    cases = generate(workload, seed)
    _, plain = worker(workload, cases, seconds / 2, False)
    _, traced = worker(workload, cases, seconds / 2, True)
    env = environment()
    layers = traced["layers"]
    layers.update({
        "trace.ops_per_s": traced["ops_per_s"],
        "trace.overhead_ratio": traced["ops_per_s"] / plain["ops_per_s"],
        "trace.spans": traced["spans"],
        "env.nproc": env["nproc"],
        "env.dont_write_bytecode": env["dont_write_bytecode"],
        "src.lines": env["src_lines"],
    })
    traced["attempted"] += plain["attempted"]
    traced["failed"] += plain["failed"]
    for key, count in plain["errors"].items():
        traced["errors"][key] = traced["errors"].get(key, 0) + count
    return traced


def layer_units() -> dict:
    spec = json.loads((BENCH / "spec.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    result = run_traced(workload, seed, seconds) if trace else run_untraced(workload, seed, seconds)
    print("# env " + json.dumps(environment()))
    info = {k: result[k] for k in ("pool", "errors", "known_defects", "format_term_cache_size",
                                   "op_tail_percentile", "op_tail_beyond", "raw") if k in result}
    print("# info " + json.dumps(info))
    if trace:
        units = layer_units()
        metrics = {name: {"value": result["layers"][name], "unit": unit} for name, unit in units.items()}
    else:
        metrics = {name: {"value": result[name], "unit": unit} for name, unit in END_TO_END.items()}
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def report(seed: int, seconds: float) -> None:
    """Every workload, one row each. fail_ratio counts wrong answers,
    exceptions and the known-defect queries run beside the timed ops."""
    print("# env " + json.dumps(environment()))
    header = ("workload", "setup_s", "ops_per_s", "op_p50_ms", "op_tail_ms", "tail_pct", "peak_rss_mb",
              "fail_ratio", "known_defects")
    print("  ".join(f"{h:>13}" for h in header))
    for workload in WORKLOADS:
        r = run_untraced(workload, seed, seconds)
        wrong = [d["name"] for d in r["known_defects"] if d["wrong"]]
        fail_ratio = (r["failed"] + len(wrong)) / (r["attempted"] + len(r["known_defects"]))
        row = (workload, f"{r['setup_s']:.3f}", f"{r['ops_per_s']:.1f}", f"{r['op_p50_ms']:.3f}",
               f"{r['op_tail_ms']:.2f}", f"p{r['op_tail_percentile']:.2f}/{r['attempted']}",
               f"{r['peak_rss_mb']:.1f}", f"{fail_ratio:.5f}", ",".join(wrong) or "-")
        print("  ".join(f"{v:>13}" for v in row))
    print("units: setup_s s, ops_per_s 1/s, op_p50_ms ms, op_tail_ms ms (percentile/ops), peak_rss_mb MB")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="splang benchmark")
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "splang" / "__init__.py").is_file():
        print(f"error: no splang sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.workload == "all":
            report(args.seed, args.seconds)
        else:
            print(json.dumps(one(args.workload, args.seed, args.seconds, bool(args.trace))))
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
