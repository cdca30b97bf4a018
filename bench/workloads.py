"""One workload of the benchmark, run in its own child process.

    python3 bench/workloads.py --workload NAME --seed N --prepare [--expected]
    python3 bench/workloads.py --workload NAME --seed N --seconds S --trace 0|1 < EXPECTED

With ``--prepare`` the process only times its set-up (library import, input
construction and warm-up) and prints it, with ``--expected`` also the
expected outputs for the seed, recomputed independently (see checks.py).
Without it, the process reads those expected outputs as JSON from stdin,
times its own set-up, then runs passes over the workload's operation list in
a closed loop: one caller, each operation starting when the previous one and
its output check have finished.  It stops starting passes once another pass
would end past ``--seconds``.  Every output is checked; a failed operation
is counted, never fatal.  The process prints one JSON line of raw samples,
which ``run.py`` turns into the reported metrics.  Its peak memory is its
own high-water mark, so the expected outputs are computed in another process:
their recomputation would otherwise set the peak.

With ``--trace 1`` passes alternate untraced and traced, so the traced run
measures its own overhead; traced passes record spans around every call
into the library's layers (see spans.py).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

SETUP_START = time.perf_counter()

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(ROOT / "src"))
# CLI subprocesses find the library the same way.
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)}

import numpy as np  # noqa: E402  (import time counts as set-up)

import boolreg as br  # noqa: E402
import checks  # noqa: E402
import spans  # noqa: E402
from run import WORKLOADS  # noqa: E402

PARAMS = (0.05, 0.3, 0.05)  # eps, delta, gamma of the decompositions
MIST_PARAMS = (0.02, 0.3, 0.05)  # of check_quasi_mist: many leaves, many quadrant calls
OP_TIMEOUT_S = 60
MC_SAMPLES = 1 << 20
DELTA = 0.3
Q_EPS, Q_DELTA, Q_CAP = 0.001, 0.3, 3  # Q_CAP = floor(1 / Q_DELTA)
IMPORT_PROBE = "import time; t = time.perf_counter(); import boolreg; print(time.perf_counter() - t)"

# The library functions the benchmark itself calls.  They are looked up on
# this namespace at call time, so a traced pass can wrap them.
API_NAMES = ("decompose", "decompose_homogeneous", "check_quasi_mist", "wht", "inverse_wht",
             "all_noisy_influences", "stability", "restrict", "derivative",
             "stability_mc_detail", "is_quasirandom", "max_mean_shift", "save_table")


class OpTimeout(Exception):
    pass


class Op:
    """One operation: ``run()`` produces the output, ``summarize`` turns it
    into the seed-independent record compared with reference.json (None when
    the output depends on the seed), and ``check(output, summary)`` lists
    invariant violations and mismatches with independent recomputations."""

    def __init__(self, name, run, check, summarize=None):
        self.name = name
        self.run = run
        self.check = check
        self.summarize = summarize


def decomposition_op(name, f, run) -> Op:
    return Op(name, run,
              check=lambda result, summary: checks.check_decomposition(br, f, PARAMS, result, summary),
              summarize=lambda result: checks.tree_summary(br, result))


def leaf_heavy(api, ctx, seed) -> list[Op]:
    """Many small leaves: per-leaf analysis, tree splits and walks."""
    p, mist_p = br.RegularityParams(*PARAMS), br.RegularityParams(*MIST_PARAMS)
    tribes, maj = br.tribes(4, 4), br.majority(11)
    mist_fn = br.to_zero_one(br.tribes(3, 4))
    for f in (tribes, maj, mist_fn):
        br.subset_sizes(f.n)
    return [
        decomposition_op("decompose.tribes_4_4", tribes, lambda: api.decompose(tribes, p)),
        decomposition_op("decompose_homogeneous.majority_11", maj,
                         lambda: api.decompose_homogeneous(maj, p, 11)),
        Op("check_quasi_mist.tribes_3_4",
           lambda: api.check_quasi_mist(mist_fn, 0.5, mist_p, 0.6, 0.5),
           check=lambda report, summary: checks.check_mist(summary),
           summarize=lambda report: report.to_dict()),
    ]


def large_table_inputs(seed):
    """The table and the restrict/derivative coordinates of a seed."""
    n = 22
    rng = np.random.default_rng(seed)
    i, j = (int(v) for v in rng.integers(0, n, size=2))
    v = 1 if rng.integers(0, 2) == 0 else -1
    return br.random_pm_one(n, seed), i, j, v


def large_table_expected(seed) -> dict:
    f, i, j, v = large_table_inputs(seed)
    coeffs = checks.spectrum(f.values)
    plus, minus = checks.halves(f.values, i)
    dplus, dminus = checks.halves(f.values, j)
    best, best_shift = checks.max_mean_shift(f.values)
    return {
        "table": checks.digest(f.values),
        "spectrum": checks.digest(coeffs),
        "influences": [float(x) for x in checks.noisy_influences(coeffs, DELTA)],
        "stability": [checks.stability(coeffs, r / 10) for r in range(1, 10)],
        "quasirandom": list(checks.quasirandom_witness(coeffs, Q_EPS, Q_CAP)),
        "restrict": checks.digest(checks.on_both_halves(plus if v == 1 else minus)),
        "derivative": checks.digest(checks.on_both_halves((dplus - dminus) / 2.0)),
        "shift": [[[k, x] for k, x in best.items()], best_shift],
    }


def large_table(api, ctx, seed) -> list[Op]:
    """The same kernels and driver on one 2^22-entry (32 MiB) table."""
    f, i, j, v = large_table_inputs(seed)
    dictator = br.dictator(f.n, 0)
    br.subset_sizes(f.n)
    p = br.RegularityParams(*PARAMS)
    state = {}

    def run_wht():
        state.pop("g", None)
        state["g"] = api.wht(f)
        return state["g"]

    def check_inverse(h, _):
        return checks.same_bits(h.values, ctx.expected["table"], "inverse_wht(wht(f))")

    def check_mc(result, _):
        est, err = result
        exact = ctx.expected["stability"][4]  # rho = 0.5
        if err > 0.0 and abs(est - exact) <= 6.0 * err:
            return []
        return [f"Monte-Carlo estimate {est} +- {err} is more than 6 standard errors "
                f"from the exact stability {exact}"]

    def check_quasirandom(verdict, _):
        actual = [verdict.ok, verdict.witness_mask, verdict.witness_value]
        return checks.close(actual, ctx.expected["quasirandom"], "is_quasirandom")

    def check_shift(result, _):
        restriction, shift = result
        pairs, best_shift = ctx.expected["shift"]
        best = {k: x for k, x in pairs}
        if restriction != best:
            return [f"max_mean_shift picked {restriction}, expected {best}"]
        return checks.close(shift, best_shift, "max_mean_shift")

    return [
        Op("wht", run_wht,
           check=lambda g, _: checks.same_bits(g.coeffs, ctx.expected["spectrum"], "wht")),
        Op("inverse_wht", lambda: api.inverse_wht(state["g"]), check=check_inverse),
        Op("all_noisy_influences", lambda: api.all_noisy_influences(f, DELTA),
           check=lambda infl, _: checks.close([float(x) for x in infl],
                                              ctx.expected["influences"], "influences")),
        Op("stability.rho_0.1_to_0.9",
           lambda: [api.stability(state["g"], r / 10) for r in range(1, 10)],
           check=lambda stab, _: checks.close(stab, ctx.expected["stability"], "stability")),
        Op("restrict", lambda: api.restrict(f, i, v),
           check=lambda g, _: checks.same_bits(g.values, ctx.expected["restrict"], "restrict")),
        Op("derivative", lambda: api.derivative(f, j),
           check=lambda g, _: checks.same_bits(g.values, ctx.expected["derivative"], "derivative")),
        Op("stability_mc_detail", lambda: api.stability_mc_detail(f, 0.5, MC_SAMPLES, seed),
           check=check_mc),
        Op("is_quasirandom", lambda: api.is_quasirandom(state["g"], Q_EPS, Q_DELTA),
           check=check_quasirandom),
        Op("max_mean_shift.k_1", lambda: api.max_mean_shift(f, 1), check=check_shift),
        decomposition_op("decompose.dictator_22", dictator, lambda: api.decompose(dictator, p)),
    ]


CLI_COMMANDS = (
    ("analyze.maj_3", ["analyze", "--fn", "maj:3"]),
    ("mist.maj_3", ["mist", "--fn", "maj:3", "--rho", ".5"]),
    ("mist_pipeline.maj_5", ["mist", "--fn", "maj:5", "--rho", ".5", "--eps", ".2", "--delta", ".3",
                             "--gamma", ".25", "--q-eps", ".6", "--q-delta", ".5"]),
    ("decompose_hom_dot.maj_5", ["decompose", "--fn", "maj:5", "--eps", ".2", "--delta", ".3",
                                 "--gamma", ".25", "--hom", "--dot", ".bench_work/tree.dot"]),
    ("analyze.file_T20", ["analyze", "--fn", "file:.bench_work/T20.txt"]),
    ("decompose.tribes_3_4", ["decompose", "--fn", "tribes:3,4", "--eps", ".05", "--delta", ".3",
                              "--gamma", ".05"]),
)


def cli(api, ctx, seed) -> list[Op]:
    """``python -m boolreg`` subprocesses, one at a time."""
    WORK.mkdir(exist_ok=True)
    table = br.random_pm_one(20, seed)
    api.save_table(table, str(WORK / "T20.txt"))

    def invoke(argv):
        if ctx.traced:
            spans_file = WORK / "cli-spans.json"
            cmd = [sys.executable, str(BENCH / "traced_cli.py"), str(spans_file), *argv]
        else:
            cmd = [sys.executable, "-m", "boolreg", *argv]
        proc = subprocess.run(cmd, cwd=ROOT, env=ENV, capture_output=True, timeout=OP_TIMEOUT_S)
        if ctx.traced:
            ctx.tracer.adopt(json.loads(spans_file.read_text()))
        ctx.cli_log.append((len(proc.stdout), proc.returncode))
        return proc

    def summarize(proc):
        summary = {"exit": proc.returncode, "report": json.loads(proc.stdout)}
        if "--dot" in proc.args:
            summary["dot"] = (ROOT / proc.args[-1]).read_text()
        return summary

    def check_report(proc, summary):
        if proc.returncode != 0:
            return [f"exit code {proc.returncode}: {proc.stderr.decode(errors='replace')[-200:]}"]
        report = json.loads(proc.stdout)
        if "energy_history" in report:
            return checks.check_decomposition_report(report, _arity(report["function"]))
        if "certified_bound" in report:
            return checks.check_mist(report)
        return []

    def check_table(proc, _):
        problems = check_report(proc, None)
        report = json.loads(proc.stdout)
        actual = {key: report.get(key) for key in ctx.expected}
        return problems + checks.close(actual, ctx.expected, "analyze file:T20")

    ops = []
    for name, argv in CLI_COMMANDS:
        seeded = "file:" in " ".join(argv)
        ops.append(Op(name, lambda argv=argv: invoke(argv),
                      check=check_table if seeded else check_report,
                      summarize=None if seeded else summarize))
    return ops


def _arity(spec: str) -> int:
    kind, _, arg = spec.partition(":")
    numbers = [int(tok) for tok in arg.split(",")]
    return numbers[0] * numbers[1] if kind == "tribes" else numbers[0]


def cli_expected(seed) -> dict:
    return checks.expected_analyze(br.random_pm_one(20, seed).values, 0.0)


BUILDERS = {"leaf_heavy": leaf_heavy, "large_table": large_table, "cli": cli}
EXPECTED = {"leaf_heavy": lambda seed: {}, "large_table": large_table_expected,
            "cli": cli_expected}


def api_namespace() -> SimpleNamespace:
    return SimpleNamespace(**{name: getattr(br, name) for name in API_NAMES})


@contextlib.contextmanager
def deadline(seconds: float):
    """Raise OpTimeout in the main thread after ``seconds``."""
    def fire(signum, frame):
        raise OpTimeout(f"operation exceeded {seconds} s")

    previous = signal.signal(signal.SIGALRM, fire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def run_op(op: Op, ctx, op_id: str) -> tuple[float, list[str]]:
    """Time one operation, then check its output outside the timed region.

    A full garbage collection first, untimed, gives every operation the same
    collector state.  The library's recursive tree walks leave reference
    cycles (a nested function that calls itself holds its own closure cell)
    that keep leaf lists alive until the collector runs, so without it the
    peak RSS would depend on when earlier work was collected.
    """
    gc.collect()
    start = time.perf_counter()
    traced = ctx.tracer.operation(op_id, f"op.{op.name}") if ctx.traced else contextlib.nullcontext()
    try:
        with deadline(OP_TIMEOUT_S), traced:
            output = op.run()
    except Exception as exc:  # a failing operation is counted, and the run goes on
        return time.perf_counter() - start, [f"{op.name}: {type(exc).__name__}: {exc}"]
    elapsed = time.perf_counter() - start
    try:
        summary = op.summarize(output) if op.summarize else None
        problems = op.check(output, summary)
        if summary is not None:
            if ctx.record is not None:
                ctx.record[op.name] = summary
            else:
                problems = problems + checks.compare(summary, ctx.reference[op.name])
    except Exception as exc:  # a malformed output is a failed operation
        problems = [f"{type(exc).__name__}: {exc}"]
    return elapsed, [f"{op.name}: {p}" for p in problems]


def load_reference(workload: str) -> dict:
    with open(BENCH / "reference.json", encoding="ascii") as fp:
        return json.load(fp)[workload]


def new_context(expected, tracer=None, record=None, reference=None) -> SimpleNamespace:
    return SimpleNamespace(expected=expected, tracer=tracer, traced=False, record=record,
                           reference=reference, cli_log=[])


def run_passes(ops, ctx, api, seconds: float, trace: bool) -> dict:
    passes, layers, problems = [], [], []
    attempted = failed = 0
    loop_start = time.perf_counter()
    k = 0
    while True:
        pass_start = time.perf_counter()
        traced = ctx.traced = trace and k % 2 == 1
        if traced:
            ctx.tracer.install(api)
        ctx.cli_log.clear()
        op_times = []
        for op in ops:
            elapsed, op_problems = run_op(op, ctx, f"p{k}.{op.name}")
            op_times.append([op.name, elapsed])
            attempted += 1
            if op_problems:
                failed += 1
                problems += op_problems
        if traced:
            ctx.tracer.uninstall()
            pass_spans = ctx.tracer.take()
            spans.settle(pass_spans)
            row = spans.pass_metrics(pass_spans)
            row["cli.stdout_bytes"] = sum(size for size, _ in ctx.cli_log)
            row["cli.exit_codes"] = sum(code for _, code in ctx.cli_log)
            layers.append(row)
        ctx.traced = False
        passes.append({"traced": traced, "ops": op_times,
                       "wall": sum(t for _, t in op_times)})
        k += 1
        now = time.perf_counter()
        if now - loop_start + (now - pass_start) > seconds and (not trace or k >= 2):
            break
    return {"passes": passes, "layers": layers, "attempted": attempted,
            "failed": failed, "problems": problems}


def import_seconds(samples: int = 3) -> list[float]:
    """In-process import time of ``boolreg`` in fresh interpreters."""
    return [float(subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=ENV,
                                 check=True, capture_output=True, timeout=OP_TIMEOUT_S).stdout)
            for _ in range(samples)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--prepare", action="store_true")
    parser.add_argument("--expected", action="store_true")
    args = parser.parse_args()

    api = api_namespace()
    tracer = spans.Tracer() if args.trace else None
    expected = None if args.prepare else json.load(sys.stdin)
    ctx = new_context(expected, tracer, reference=load_reference(args.workload))
    if tracer is not None:
        tracer.install(api)
    with tracer.operation("setup", "op.setup") if tracer else contextlib.nullcontext():
        ops = BUILDERS[args.workload](api, ctx, args.seed)
    if tracer is not None:
        tracer.uninstall()
        tracer.take()
    setup_s = time.perf_counter() - SETUP_START
    if args.prepare:
        print(json.dumps({"setup_s": setup_s,
                          "expected": EXPECTED[args.workload](args.seed) if args.expected else None}))
        return 0

    out = run_passes(ops, ctx, api, args.seconds, bool(args.trace))
    out["setup_s"] = setup_s
    # The workload process's own peak; for cli, that of the largest CLI
    # invocation (its only children so far).
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    out["peak_rss_kib"] = resource.getrusage(who).ru_maxrss
    if tracer is not None:
        out["import_s"] = statistics.median(import_seconds())
        setup_spans = tracer.finished[0]
        own = spans.self_times(setup_spans)
        out["save_table_s"] = sum(t for s, t in zip(setup_spans, own) if s.name == "boolfn.save_table")
        WORK.mkdir(exist_ok=True)
        with open(WORK / f"trace-{args.workload}-{args.seed}.jsonl", "w", encoding="ascii") as fp:
            for batch in tracer.finished:
                for span in batch:
                    fp.write(json.dumps(span.to_json()) + "\n")
    for problem in out["problems"][:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
