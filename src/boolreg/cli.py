"""Command-line front end: analyze, decompose, mist.

Reports are JSON on stdout (single line unless --pretty).  Variable indices
in function specs and in all output are 1-based (x1 is the first variable);
the library itself is 0-based.  Exit codes: 0 ok (also when the reader
closes stdout early, as ``| head`` does), 1 usage or parse error, 2 budget
exceeded, 3 numeric precondition violated, 4 internal error or out of memory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import families
from .boolfn import PM_ONE, REAL, BooleanFunction, load_table, mask_vars, mean, norm2, wht
from .dtree import to_dot
from .errors import BudgetExceededError, PreconditionError
from .noise import _check_delta, expansion_influences, stability
from .regularity import RegularityParams, decompose, decompose_homogeneous, decomposition_report
from .stablest import check_quasi_mist, mist_slack, to_zero_one

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BUDGET = 2
EXIT_PRECONDITION = 3
EXIT_INTERNAL = 4


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; this CLI reserves 2 for budget
    # exhaustion, so route usage problems through our own exception.
    def error(self, message):
        raise UsageError(message)


def parse_function_spec(spec: str) -> BooleanFunction:
    """Builtins: maj:n, parity:i,j,..., dictator:i, tribes:w,s, random:n,seed,
    constant:n,c; or file:<path> in the truth-table text format."""
    kind, _, arg = spec.partition(":")
    try:
        if kind == "maj":
            return families.majority(int(arg))
        if kind == "parity":
            indices = [int(tok) for tok in arg.split(",") if tok]
            if not indices:
                raise UsageError("parity needs at least one variable index")
            if min(indices) < 1:
                raise UsageError("parity indices are 1-based")
            n = max(indices)
            return families.parity(n, [i - 1 for i in indices])
        if kind == "dictator":
            i = int(arg)
            if i < 1:
                raise UsageError("dictator index is 1-based")
            return families.dictator(i, i - 1)
        if kind == "tribes":
            w, s = (int(tok) for tok in arg.split(","))
            return families.tribes(w, s)
        if kind == "random":
            n, seed = (int(tok) for tok in arg.split(","))
            return families.random_pm_one(n, seed)
        if kind == "constant":
            n_tok, c_tok = arg.split(",")
            return families.constant(int(n_tok), float(c_tok))
        if kind == "file":
            return load_table(arg)
    except UsageError:
        raise
    except (ValueError, OSError) as exc:
        raise UsageError(f"bad function spec {spec!r}: {exc}") from exc
    raise UsageError(f"unknown function kind {kind!r} in {spec!r}")


def _emit(report: dict, pretty: bool) -> None:
    # strict JSON: a NaN or infinity raises ValueError (exit 3) before anything is printed
    print(json.dumps(report, sort_keys=True, indent=2 if pretty else None, allow_nan=False))
    sys.stdout.flush()  # so that a closed stdout shows here, not at exit


def cmd_analyze(args) -> int:
    f = parse_function_spec(args.fn)
    _check_delta(args.delta)
    ghat = wht(f)
    magnitudes = np.abs(ghat.coeffs)
    order = np.lexsort((np.arange(magnitudes.size), -magnitudes))
    top = [
        {"vars": [v + 1 for v in mask_vars(int(mask))], "value": float(ghat.coeffs[mask])}
        for mask in order[:16]
    ]
    report = {
        "function": args.fn,
        "n": f.n,
        "range_tag": f.range_tag,
        "mean": mean(f),
        "norm2": norm2(f),
        "delta": args.delta,
        "top_coefficients": top,
        "noisy_influences": [float(v) for v in expansion_influences(ghat, args.delta)],
        "stability": {f"{rho:.1f}": stability(ghat, rho) for rho in
                      (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)},
    }
    _emit(report, args.pretty)
    return EXIT_OK


def cmd_decompose(args) -> int:
    f = parse_function_spec(args.fn)
    p = RegularityParams(eps=args.eps, delta=args.delta, gamma=args.gamma)
    if args.hom:
        var_cap = f.n if args.var_cap is None else args.var_cap
        result = decompose_homogeneous(f, p, var_cap)
    else:
        result = decompose(f, p)
    report = decomposition_report(result, p, homogeneous=args.hom)
    report["function"] = args.fn
    if args.dot:
        dot_text = to_dot(result.tree, p.delta)
        try:
            with open(args.dot, "w", encoding="ascii") as fp:
                fp.write(dot_text)
        except OSError as exc:
            raise UsageError(f"cannot write DOT file {args.dot!r}: {exc}") from exc
    _emit(report, args.pretty)
    return EXIT_BUDGET if result.exhausted else EXIT_OK


def cmd_mist(args) -> int:
    f = parse_function_spec(args.fn)
    if f.range_tag == PM_ONE:
        f = to_zero_one(f)
    elif f.range_tag == REAL:
        raise PreconditionError("mist needs a {-1,+1}- or [0,1]-valued function")
    pipeline_flags = (args.eps, args.delta, args.gamma, args.q_eps, args.q_delta)
    if any(v is not None for v in pipeline_flags):
        if any(v is None for v in pipeline_flags):
            raise UsageError("pipeline mode needs all of --eps --delta --gamma --q-eps --q-delta")
        p = RegularityParams(eps=args.eps, delta=args.delta, gamma=args.gamma)
        report = check_quasi_mist(f, args.rho, p, args.q_eps, args.q_delta).to_dict()
    else:
        report = mist_slack(f, args.rho).to_dict()
    report["function"] = args.fn
    _emit(report, args.pretty)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="boolreg", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="spectrum, influences, and stability profile")
    analyze.add_argument("--fn", required=True, help="function spec, e.g. maj:3 or file:table.txt")
    analyze.add_argument("--delta", type=float, default=0.0, help="noise rate for influences")
    analyze.add_argument("--pretty", action="store_true")
    analyze.set_defaults(run=cmd_analyze)

    decomp = sub.add_parser("decompose", help="regularity decomposition into a decision tree")
    decomp.add_argument("--fn", required=True)
    decomp.add_argument("--eps", type=float, required=True, help="influence threshold")
    decomp.add_argument("--delta", type=float, required=True, help="noise rate")
    decomp.add_argument("--gamma", type=float, required=True, help="allowed bad leaf mass")
    decomp.add_argument("--hom", action="store_true", help="homogeneous variant")
    decomp.add_argument("--var-cap", type=int, default=None,
                        help="query-set cap for --hom (default n)")
    decomp.add_argument("--dot", metavar="PATH", default=None, help="write the tree as DOT")
    decomp.add_argument("--pretty", action="store_true")
    decomp.set_defaults(run=cmd_decompose)

    mist = sub.add_parser("mist", help="stability against the Gaussian quadrant bound")
    mist.add_argument("--fn", required=True)
    mist.add_argument("--rho", type=float, required=True)
    mist.add_argument("--eps", type=float, default=None, help="pipeline influence threshold")
    mist.add_argument("--delta", type=float, default=None, help="pipeline noise rate")
    mist.add_argument("--gamma", type=float, default=None, help="pipeline bad-mass allowance")
    mist.add_argument("--q-eps", type=float, default=None, help="quasirandomness threshold")
    mist.add_argument("--q-delta", type=float, default=None, help="quasirandomness degree rate")
    mist.add_argument("--pretty", action="store_true")
    mist.set_defaults(run=cmd_mist)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # a value past the float64 range ends the run with one error line
        # rather than a warning on stderr and a report holding an infinity
        with np.errstate(over="raise", invalid="raise"):
            return args.run(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except FloatingPointError as exc:
        print(f"error: out of float64 range: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except BrokenPipeError:
        # the reader has gone; point stdout at devnull so that the flush at
        # interpreter exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return EXIT_INTERNAL
    except RuntimeError as exc:  # the drivers' internal-invariant guards
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
