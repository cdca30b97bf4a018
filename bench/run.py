"""Benchmark of boolreg: one workload per run, outputs checked, one JSON line.

    python3 bench/run.py --workload leaf_heavy|large_table|cli --seed N \\
        --seconds S --trace 0|1

Runs the self-tests of the benchmark's own checks, times the workload's
set-up in two probe processes (the first also computes the expected outputs
for the seed), then runs the workload itself in a child process
(workloads.py) with an address-space limit, one thread for BLAS and OpenMP,
and a deadline.  The last line of stdout is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1).  The lines
before it repeat the metrics for people, with sample counts, the failure
ratio and per-operation medians.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import selftest
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("leaf_heavy", "large_table", "cli")
SETUP_PROBES = 2  # set-up is also timed in the workload process: 3 samples
# RLIMIT_AS of each workload's process and its CLI subprocesses: an operation
# that outgrows it fails with MemoryError instead of starving the machine.
ADDRESS_SPACE = {"leaf_heavy": 2 << 30, "large_table": 3 << 30, "cli": 2 << 30}
RUN_DEADLINE_S = 170
PROBE_TIMEOUT_S = 60
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
P90_MIN_SAMPLES = 100  # ten samples beyond the 90th percentile


class ChildFailed(Exception):
    pass


def run_child(workload: str, argv: list[str], timeout: float, stdin: bytes = b"") -> dict:
    limit = ADDRESS_SPACE[workload]

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    # A session of its own, so that a timeout kills the CLI subprocesses too.
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "workloads.py"), "--workload", workload, *argv],
        cwd=ROOT, env={**os.environ, **{name: "1" for name in THREAD_VARS}},
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        preexec_fn=limit_memory, start_new_session=True)
    try:
        out, err = proc.communicate(stdin, timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        raise ChildFailed(f"workload process exceeded {timeout:.0f} s") from None
    sys.stderr.write(err.decode(errors="replace"))
    lines = out.decode(errors="replace").splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"workload process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def end_to_end(workload: str, child: dict, setups: list[float]) -> tuple[dict, list[str]]:
    walls = [p["wall"] for p in child["passes"]]
    ops = [t for p in child["passes"] for _, t in p["ops"]]
    metrics = {
        "pass_s": (statistics.median(walls), "s"),
        "op_s_p50": (statistics.median(ops), "s"),
        "peak_rss_mib": (child["peak_rss_kib"] / 1024.0, "MiB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    if len(ops) >= P90_MIN_SAMPLES:
        p90 = f"{statistics.quantiles(ops, n=10)[-1]:.4f} s ({len(ops)} operations)"
    else:
        p90 = (f"not reported: {len(ops)} operations, a p90 needs "
               f"{P90_MIN_SAMPLES} (ten beyond it)")
    notes = [
        f"  pass_s        {metrics['pass_s'][0]:.4f} s   median of {len(walls)} passes",
        f"  op_s_p50      {metrics['op_s_p50'][0]:.4f} s   median of {len(ops)} operations",
        f"  op_s_p90      {p90}",
        f"  peak_rss_mib  {metrics['peak_rss_mib'][0]:.1f} MiB"
        + ("   largest CLI invocation" if workload == "cli" else "   workload process"),
        f"  setup_s       {metrics['setup_s'][0]:.4f} s   median of {len(setups)} set-ups",
    ]
    return metrics, notes


def per_layer(child: dict) -> tuple[dict, list[str]]:
    layers = spans.median_metrics(child["layers"])
    traced = [p["wall"] for p in child["passes"] if p["traced"]]
    untraced = [p["wall"] for p in child["passes"] if not p["traced"]]
    layers["boolfn.save_table.self_s"] = child["save_table_s"]
    layers["cli.import_s"] = child["import_s"]
    layers["trace_overhead"] = statistics.median(traced) / statistics.median(untraced)
    layers["fail_ratio"] = child["failed"] / child["attempted"]
    metrics = {name: (layers[name], unit) for name, (unit, _) in spans.LAYER_METRICS.items()}
    notes = [f"  {name:32s} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    notes.append(f"  ({len(traced)} traced and {len(untraced)} untraced passes; "
                 "per-pass medians)")
    return metrics, notes


def op_medians(child: dict) -> list[str]:
    by_name: dict[str, list[float]] = {}
    for p in child["passes"]:
        if not p["traced"]:
            for name, t in p["ops"]:
                by_name.setdefault(name, []).append(t)
    return [f"  {name:36s} {statistics.median(ts):.4f} s" for name, ts in by_name.items()]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    start = time.perf_counter()

    if not (ROOT / "src" / "boolreg" / "__init__.py").is_file():
        print(f"error: no library sources at {ROOT / 'src' / 'boolreg'}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    problems = selftest.run()
    if problems:
        for problem in problems:
            print(f"self-test failed: {problem}", file=sys.stderr)
        return 3

    common = ["--seed", str(args.seed)]
    try:
        probes = [run_child(args.workload, common + ["--prepare"] + ["--expected"] * (k == 0),
                            PROBE_TIMEOUT_S) for k in range(SETUP_PROBES)]
        child = run_child(args.workload,
                          common + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                          RUN_DEADLINE_S - (time.perf_counter() - start),
                          json.dumps(probes[0]["expected"]).encode())
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups = [probe["setup_s"] for probe in probes] + [child["setup_s"]]

    if args.trace:
        metrics, notes = per_layer(child)
    else:
        metrics, notes = end_to_end(args.workload, child, setups)
    attempted, failed = child["attempted"], child["failed"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print("\n".join(notes))
    print(f"  fail_ratio    {failed}/{attempted} = {failed / attempted:.4g}")
    print("  per operation, median of the untraced passes:")
    print("\n".join(op_medians(child)))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
