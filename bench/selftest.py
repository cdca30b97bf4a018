"""Self-tests of the benchmark's own arithmetic and checks.

    python3 bench/selftest.py

run.py runs them before every measurement.  They cover the self-time
arithmetic on a synthetic span tree, the attribution of transforms to the
regularity and stablest layers, and that the reference comparison and the
invariants catch a perturbed output while accepting round-off below 1e-12.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import checks
import spans

BENCH = Path(__file__).resolve().parent


def _expect(problems: list[str], condition: bool, what: str) -> None:
    if not condition:
        problems.append(what)


def _self_time_problems() -> list[str]:
    problems = []
    S = spans.Span
    tree = [S("op", 0.0, 10.0, None, "p0"), S("a", 1.0, 4.0, 0, "p0"),
            S("a1", 2.0, 3.0, 1, "p0"), S("b", 5.0, 9.0, 0, "p0")]
    _expect(problems, spans.self_times(tree) == [3.0, 2.0, 1.0, 4.0],
            f"nested self times: {spans.self_times(tree)}")
    # Overlapping children are covered once; a child outside its parent is clipped.
    overlap = [S("op", 0.0, 10.0, None, "p0"), S("x", 1.0, 4.0, 0, "p0"),
               S("y", 3.0, 6.0, 0, "p0"), S("z", 8.0, 12.0, 0, "p0")]
    _expect(problems, spans.self_times(overlap)[0] == 3.0,
            f"overlapping children: {spans.self_times(overlap)}")

    run = [S("op.decompose", 0.0, 10.0, None, "p0"),
           S("regularity.decompose", 0.0, 9.0, 0, "p0",
             {"passes": 2, "leaves": 4, "leaf_bytes": 512}),
           S("boolfn.wht", 1.0, 2.0, 1, "p0", {"points": 16, "bytes": 16 * 6 * 16}),
           S("boolfn.wht", 3.0, 4.0, 1, "p0", {"points": 16, "bytes": 16 * 6 * 16}),
           S("stablest.check_quasi_mist", 10.0, 20.0, None, "p0"),
           S("boolfn.wht", 10.5, 11.0, 4, "p0", {"points": 16, "bytes": 16 * 6 * 16}),
           S("regularity.decompose", 11.0, 12.0, 4, "p0"),
           S("boolfn.wht", 12.0, 13.0, 4, "p0", {"points": 16, "bytes": 16 * 6 * 16}),
           S("stablest.quadrant_prob", 13.0, 13.5, 4, "p0")]
    row = spans.pass_metrics(run)
    # The transform before the inner decompose is the global one, not a repeat.
    expected = {"boolfn.wht.calls": 4, "boolfn.wht.points": 64, "regularity.leaf_transforms": 2,
                "stablest.leaf_transforms": 1, "regularity.passes": 2, "dtree.leaves": 4,
                "dtree.leaf_table_bytes": 512, "regularity.transforms_per_leaf": 0.5,
                "regularity.self_s": 8.0, "stablest.quadrant_prob.calls": 1}
    for key, value in expected.items():
        _expect(problems, row[key] == value, f"pass_metrics {key} = {row[key]}, expected {value}")
    return problems


def _reference_problems() -> list[str]:
    problems = []
    with open(BENCH / "reference.json", encoding="ascii") as fp:
        reference = json.load(fp)
    tree = reference["leaf_heavy"]["decompose.tribes_4_4"]
    _expect(problems, checks.compare(copy.deepcopy(tree), tree) == [], "identical copy rejected")

    def perturbed(edit) -> list[str]:
        out = copy.deepcopy(tree)
        edit(out)
        return checks.compare(out, tree)

    def nudge(delta):
        def edit(t):
            t["energy_history"][3][1] += delta
        return edit

    _expect(problems, perturbed(nudge(1e-14)) == [], "round-off of 1e-14 rejected")
    _expect(problems, perturbed(nudge(1e-9)) != [], "energy perturbed by 1e-9 accepted")
    _expect(problems, perturbed(lambda t: t["leaves"][5].__setitem__(2, t["leaves"][5][2] ^ 1)) != [],
            "changed leaf path accepted")
    _expect(problems, perturbed(lambda t: t.__setitem__("iterations", t["iterations"] + 1)) != [],
            "changed pass count accepted")
    _expect(problems, perturbed(lambda t: t.__setitem__("exhausted", True)) != [],
            "changed exhausted flag accepted")
    _expect(problems, perturbed(lambda t: t["leaves"].pop()) != [], "dropped leaf accepted")
    cli_run = reference["cli"]["analyze.maj_3"]
    _expect(problems, checks.compare(dict(cli_run, exit=2), cli_run) != [],
            "changed exit code accepted")

    # The invariants reject a stalled ledger, a too-deep tree and excess bad mass.
    history = [[0, 0.5], [1, 0.5]]
    _expect(problems, checks.decomposition_invariants(history, 1, 0.0, [1, 1], 4, (0.1, 0.1, 0.1))
            != [], "stalled ledger accepted")
    _expect(problems, checks.decomposition_invariants([[0, 0.5]], 5, 0.0, [0], 4, (0.1, 0.1, 0.1))
            != [], "depth above n accepted")
    _expect(problems, checks.decomposition_invariants([[0, 0.5]], 0, 0.5, [0], 4, (0.1, 0.1, 0.1))
            != [], "bad mass above gamma accepted")
    mist = copy.deepcopy(reference["leaf_heavy"]["check_quasi_mist.tribes_3_4"])
    mist["certified_bound"] = mist["stab"] - 1e-6
    _expect(problems, checks.check_mist(mist) != [], "certified bound below stab accepted")
    return problems


def run() -> list[str]:
    return _self_time_problems() + _reference_problems()


if __name__ == "__main__":
    failures = run()
    for failure in failures:
        print(f"FAIL {failure}")
    print("self-tests: " + ("ok" if not failures else f"{len(failures)} failed"))
    sys.exit(1 if failures else 0)
