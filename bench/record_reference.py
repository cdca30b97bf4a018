"""Record reference.json: the seed-independent outputs of every workload.

    python3 bench/record_reference.py

Runs one pass of each workload (seed 0) with every invariant check on, and
writes each operation's summary for the operations whose output does not
depend on the seed.  Every benchmark run compares against this file, so
re-record it only in a change whose purpose is to change those outputs.
"""

from __future__ import annotations

import json
import sys

import workloads


def main() -> int:
    reference = {}
    for name in workloads.WORKLOADS:
        ctx = workloads.new_context(workloads.EXPECTED[name](0), record={})
        ops = workloads.BUILDERS[name](workloads.api_namespace(), ctx, 0)
        problems = [p for op in ops for p in workloads.run_op(op, ctx, f"record.{op.name}")[1]]
        if problems:
            print("\n".join(problems), file=sys.stderr)
            return 1
        reference[name] = ctx.record
    with open(workloads.BENCH / "reference.json", "w", encoding="ascii") as fp:
        json.dump(reference, fp, sort_keys=True, separators=(",", ":"))
        fp.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
