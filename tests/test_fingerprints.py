"""A recorded corpus of trees: every public view of the drivers' trees, byte
for byte.

Each case runs ``decompose``, ``decompose_homogeneous`` or
``check_quasi_mist`` on a small function (n <= 12) and records, for its
tree, every leaf's (id, depth, path), ``next_leaf_id``, ``tree_depth``, a
digest of ``evaluate_table``, the ``to_dot`` text, the
``decomposition_report`` JSON, a digest of each array of the leaf
statistics, and the tree's ``energy`` and ``bad_leaf_mass`` as hex; a
pipeline case also records its report.  The corpus was recorded before
the tree was held as arrays, so it pins that change to the old outputs.

Run this file as a script to record the corpus again:
``PYTHONPATH=src python tests/test_fingerprints.py``.
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import numpy as np

from boolreg import (
    REAL,
    ZERO_ONE,
    BooleanFunction,
    RegularityParams,
    bad_leaf_mass,
    check_quasi_mist,
    decompose,
    decompose_homogeneous,
    decomposition_report,
    dictator,
    energy,
    evaluate_table,
    leaves,
    majority,
    random_pm_one,
    to_dot,
    to_zero_one,
    tree_depth,
    tribes,
)
from boolreg import stablest
from oracles import random_real_unit

CORPUS = pathlib.Path(__file__).with_name("data") / "tree_fingerprints.json"

PARAMS = RegularityParams(0.05, 0.3, 0.05)
FINE = RegularityParams(0.02, 0.3, 0.05)


def functions() -> dict[str, BooleanFunction]:
    rng = np.random.default_rng(26)
    return {
        "tribes_3_3": tribes(3, 3),
        "majority_9": majority(9),
        "dictator_8_3": dictator(8, 3),
        "random_pm_one_8": random_pm_one(8, 5),
        "zero_one_9": BooleanFunction(9, rng.integers(0, 2, 1 << 9).astype(float), ZERO_ONE),
        "real_8": BooleanFunction(8, random_real_unit(rng, 8)),
    }


def tree_record(result, p: RegularityParams, homogeneous: bool) -> dict:
    t = result.tree
    stats = result.leaf_stats
    return {
        "leaves": [[leaf.id, depth, [list(step) for step in leaf.fixed.items()]] for leaf, depth in leaves(t)],
        "next_leaf_id": t.next_leaf_id,
        "tree_depth": tree_depth(t),
        "evaluate_table": hashlib.sha256(evaluate_table(t).tobytes()).hexdigest(),
        "dot": to_dot(t, p.delta),
        "report": json.dumps(decomposition_report(result, p, homogeneous)),
        "leaf_stats": [hashlib.sha256(a.tobytes()).hexdigest() for a in stats],
        "energy": energy(t, p.delta).hex(),
        "bad_leaf_mass": bad_leaf_mass(t, p.eps, p.delta).hex(),
    }


def mist_record(f: BooleanFunction, p: RegularityParams, q_eps: float) -> dict:
    """The pipeline's report, and the record of the tree it decomposed."""
    results = []

    def keep(*args, **kwargs):
        results.append(run(*args, **kwargs))
        return results[-1]

    run, stablest._decompose = stablest._decompose, keep
    try:
        report = check_quasi_mist(f, 0.5, p, q_eps, 0.5)
    finally:
        stablest._decompose = run
    record = {"report": json.dumps(report.to_dict())}
    if results:
        record["tree"] = tree_record(results[0], p, False)
    return record


def corpus() -> dict:
    out = {}
    for name, f in functions().items():
        out[f"decompose.{name}"] = tree_record(decompose(f, PARAMS), PARAMS, False)
        out[f"decompose_homogeneous.{name}"] = tree_record(decompose_homogeneous(f, PARAMS, f.n), PARAMS, True)
        out[f"decompose_homogeneous.{name}.cap_2"] = tree_record(decompose_homogeneous(f, PARAMS, 2), PARAMS, True)
        if f.range_tag != REAL:
            out[f"check_quasi_mist.{name}"] = mist_record(f if f.range_tag == ZERO_ONE else to_zero_one(f), FINE, 0.6)
    out["decompose.tribes_3_4.fine"] = tree_record(decompose(tribes(3, 4), FINE), FINE, False)
    return out


def dump(records: dict) -> str:
    """One case a line, in name order."""
    lines = (f"{json.dumps(name)}: {json.dumps(record, separators=(',', ':'))}" for name, record in sorted(records.items()))
    return "{\n" + ",\n".join(lines) + "\n}\n"


def test_trees_keep_their_recorded_fingerprints():
    assert dump(corpus()) == CORPUS.read_text()


if __name__ == "__main__":
    CORPUS.write_text(dump(corpus()))
