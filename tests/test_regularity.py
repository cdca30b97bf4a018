"""Decomposition postconditions, homogeneity, order-invariance, tower bound."""

import itertools
import json
import math
import pathlib
import sys

import numpy as np
import pytest

from boolreg import (
    BooleanFunction,
    DecisionTree,
    PM_ONE,
    PreconditionError,
    RegularityParams,
    constant,
    decompose,
    decompose_homogeneous,
    decomposition_report,
    dictator,
    energy,
    evaluate_table,
    leaves,
    majority,
    parity,
    random_pm_one,
    singleton,
    split_leaves,
    tower,
    tree_depth,
    tribes,
)
from boolreg import dtree, noise, regularity
from boolreg.noise import all_noisy_influences
from oracles import compensated_sum

DATA = pathlib.Path(__file__).with_name("data")


def blend3() -> BooleanFunction:
    """f = x1 when x2 = +1, else x3; every variable matters."""
    idx = np.arange(8)
    x = lambda i: 1 - 2 * ((idx >> i) & 1)
    return BooleanFunction(3, np.where(x(1) == 1, x(0), x(2)).astype(float), PM_ONE)


def levels_query_vars(tree: DecisionTree) -> list[set[int]]:
    """Set of queried variables per level; homogeneous trees have singletons.
    Step d of a leaf's path is the variable its depth-d ancestor queries."""
    per_level: dict[int, set[int]] = {}
    for leaf, _ in leaves(tree):
        for depth, var in enumerate(leaf.fixed):
            per_level.setdefault(depth, set()).add(var)
    return [per_level[d] for d in sorted(per_level)]


def check_postconditions(f, p, result):
    np.testing.assert_array_equal(evaluate_table(result.tree), f.values)
    assert result.bad_mass <= p.gamma
    assert tree_depth(result.tree) <= min(p.budget, f.n)
    assert result.iterations <= p.budget
    phis = [phi for _, phi in result.ledger.history]
    assert all(phi <= 1.0 + 1e-9 for phi in phis)
    gains = [b - a for a, b in zip(phis, phis[1:])]
    assert all(g > p.eps * p.delta * p.gamma for g in gains)
    assert sum(2.0 ** -d for _, d in leaves(result.tree)) == pytest.approx(1.0, abs=1e-12)


def test_decompose_dictator():
    f = dictator(1, 0)
    p = RegularityParams(0.5, 0.5, 0.5)
    r = decompose(f, p)
    assert r.iterations == 1
    assert tree_depth(r.tree) == 1
    assert p.budget == pytest.approx(8.0)
    assert r.bad_mass == 0.0
    assert all(np.ptp(leaf.fn.values) == 0.0 for leaf, _ in leaves(r.tree))
    check_postconditions(f, p, r)


def test_decompose_constant_no_iterations():
    r = decompose(constant(4, 1.0), RegularityParams(0.5, 0.5, 0.5))
    assert r.iterations == 0
    assert tree_depth(r.tree) == 0


def test_decompose_parity10_no_iterations():
    # all ten influences are (0.7)^9 = 0.040 <= 0.1
    r = decompose(parity(10), RegularityParams(0.1, 0.3, 0.1))
    assert r.iterations == 0
    assert r.bad_mass == 0.0


def test_decompose_structured_corpus():
    cases = [
        (majority(5), RegularityParams(0.2, 0.3, 0.25)),
        (majority(3), RegularityParams(0.2, 0.5, 0.2)),
        (tribes(2, 2), RegularityParams(0.2, 0.3, 0.25)),
        (parity(4, [0, 1]), RegularityParams(0.2, 0.5, 0.2)),
        (blend3(), RegularityParams(0.3, 0.2, 0.25)),
        (random_pm_one(8, 123), RegularityParams(0.1, 0.5, 0.2)),
    ]
    for f, p in cases:
        check_postconditions(f, p, decompose(f, p))


def test_decompose_splits_are_deterministic():
    f = majority(5)
    p = RegularityParams(0.2, 0.3, 0.25)
    a = decomposition_report(decompose(f, p), p, homogeneous=False)
    b = decomposition_report(decompose(f, p), p, homogeneous=False)
    assert a == b


def test_decompose_norm_precondition():
    f = BooleanFunction(3, np.full(8, 1.5))
    with pytest.raises(PreconditionError):
        decompose(f, RegularityParams(0.5, 0.5, 0.5))


def test_params_validation():
    with pytest.raises(ValueError):
        RegularityParams(0.0, 0.5, 0.5)
    with pytest.raises(ValueError):
        RegularityParams(0.5, 0.0, 0.5)
    with pytest.raises(ValueError):
        RegularityParams(0.5, 0.5, 1.5)


def test_homogeneous_dictator():
    r = decompose_homogeneous(dictator(1, 0), RegularityParams(0.5, 0.5, 0.5), var_cap=1)
    assert r.homogeneous_vars == [0]
    assert len(leaves(r.tree)) == 2
    assert not r.exhausted


def test_homogeneous_constant():
    r = decompose_homogeneous(constant(3, 1.0), RegularityParams(0.5, 0.5, 0.5), var_cap=3)
    assert r.homogeneous_vars == []
    assert r.iterations == 0


def test_homogeneous_blend_covers_all_vars():
    f = blend3()
    p = RegularityParams(0.4, 0.1, 0.25)
    r = decompose_homogeneous(f, p, var_cap=3)
    assert not r.exhausted
    assert sorted(r.homogeneous_vars) == [0, 1, 2]
    assert all(np.ptp(leaf.fn.values) == 0.0 for leaf, _ in leaves(r.tree))
    assert all(len(level) == 1 for level in levels_query_vars(r.tree))
    np.testing.assert_array_equal(evaluate_table(r.tree), f.values)
    assert r.bad_mass <= p.gamma


def test_homogeneous_levels_follow_query_order():
    f = blend3()
    r = decompose_homogeneous(f, RegularityParams(0.4, 0.1, 0.25), var_cap=3)
    assert [next(iter(level)) for level in levels_query_vars(r.tree)] == r.homogeneous_vars


def test_homogeneous_leaves_are_restrictions():
    f = blend3()
    r = decompose_homogeneous(f, RegularityParams(0.4, 0.1, 0.25), var_cap=3)
    for leaf, depth in leaves(r.tree):
        assert set(leaf.fixed) == set(r.homogeneous_vars)
        assert depth == len(r.homogeneous_vars)


def test_homogeneous_depth_recurrence():
    f = blend3()
    r = decompose_homogeneous(f, RegularityParams(0.4, 0.1, 0.25), var_cap=3)
    depths = r.ledger.depths
    assert depths[0] == 0
    for before, after in zip(depths, depths[1:]):
        assert after <= before + 2 ** before


def test_homogeneous_var_cap_exhaustion():
    f = blend3()
    r = decompose_homogeneous(f, RegularityParams(0.4, 0.1, 0.25), var_cap=1)
    assert r.exhausted
    assert r.bad_mass > 0.25
    assert len(r.homogeneous_vars) <= 1
    np.testing.assert_array_equal(evaluate_table(r.tree), f.values)  # partial tree still computes f


def test_homogeneous_var_cap_zero():
    r = decompose_homogeneous(dictator(2, 0), RegularityParams(0.5, 0.5, 0.5), var_cap=0)
    assert r.exhausted
    assert r.homogeneous_vars == []
    assert len(leaves(r.tree)) == 1


def test_homogeneous_matches_plain_gain_guarantee():
    f = majority(3)
    p = RegularityParams(0.4, 0.1, 0.25)  # influences 0.4525 > 0.4 at the root
    r = decompose_homogeneous(f, p, var_cap=3)
    phis = [phi for _, phi in r.ledger.history]
    assert r.iterations >= 1
    assert all(b - a > p.eps * p.delta * p.gamma for a, b in zip(phis, phis[1:]))


def test_split_order_invariance():
    rng = np.random.default_rng(73)
    for trial in range(5):
        n = 5
        f = BooleanFunction(n, rng.normal(size=1 << n) / 8.0)
        subset = sorted(rng.choice(n, size=3, replace=False).tolist())
        reference = None
        for perm in itertools.permutations(subset):
            t = singleton(f)
            for var in perm:
                t = split_leaves(t, dict.fromkeys((leaf.id for leaf in t.leaves), var))
            tables = sorted((tuple(sorted(leaf.fixed.items())), tuple(leaf.fn.values))
                            for leaf, _ in leaves(t))
            e = energy(t, 0.3)
            if reference is None:
                reference = (tables, e)
            else:
                assert tables == reference[0]
                assert e == pytest.approx(reference[1], abs=1e-12)


def test_tower_values():
    assert [tower(k) for k in range(5)] == [1, 2, 4, 16, 65536]
    assert tower(5) == math.inf
    with pytest.raises(ValueError):
        tower(-1)


def test_homogeneous_size_within_tower_bound():
    f = blend3()
    p = RegularityParams(0.4, 0.1, 0.25)
    r = decompose_homogeneous(f, p, var_cap=3)
    bound = tower(int(p.budget))
    cap = 3 if bound == math.inf else min(bound, 3)
    assert len(r.homogeneous_vars) <= cap


def test_report_shape():
    f = majority(3)
    p = RegularityParams(0.4, 0.1, 0.25)
    rep = decomposition_report(decompose_homogeneous(f, p, 3), p, homogeneous=True)
    assert rep["status"] == "ok"
    assert rep["homogeneous"] is True
    assert rep["num_query_vars"] == len(rep["query_vars"])
    assert all(v >= 1 for v in rep["query_vars"])  # 1-based rendering
    assert {"id", "depth", "mass", "mean", "max_influence"} <= set(rep["leaves"][0])
    assert sum(row["mass"] for row in rep["leaves"]) == pytest.approx(1.0)


def test_params_reject_nan_and_an_underflowing_budget():
    # eps * delta * gamma underflows to 0: the budget is infinite, not a ZeroDivisionError
    with pytest.raises(ValueError, match="must be finite"):
        RegularityParams(1e-200, 0.5, 1e-200)
    nan = float("nan")
    for args, message in [((nan, 0.3, 0.05), "eps must be positive"),
                          ((0.05, nan, 0.05), "delta must lie in"),
                          ((0.05, 0.3, nan), "gamma must lie in")]:
        with pytest.raises(ValueError, match=message):
            RegularityParams(*args)


def test_params_reject_an_infinite_eps():
    # its reports would hold an infinity, which is not JSON
    with pytest.raises(ValueError, match="eps must be finite, got inf"):
        RegularityParams(math.inf, 0.3, 0.05)
    with pytest.raises(ValueError, match="eps must be positive, got -inf"):
        RegularityParams(-math.inf, 0.3, 0.05)


def test_report_reads_leaf_stats_bit_for_bit():
    # the carried kernel results equal a fresh analysis of every leaf table
    p = RegularityParams(0.05, 0.3, 0.05)
    for f, result in [(tribes(3, 3), decompose(tribes(3, 3), p)),
                      (majority(7), decompose_homogeneous(majority(7), p, 7))]:
        rows = decomposition_report(result, p, homogeneous=False)["leaves"]
        assert [row["id"] for row in rows] == [leaf.id for leaf, _ in leaves(result.tree)]
        for row, (leaf, _) in zip(rows, leaves(result.tree)):
            assert row["mean"] == float(leaf.fn.values.mean())
            assert row["max_influence"] == float(all_noisy_influences(leaf.fn, p.delta).max())


def test_tribes_4_5_keeps_its_recorded_tree():
    # n = 20 and tie-heavy: within a tribe the influences are equal, so most
    # bad leaves take their variable from the ambient sums.  The record holds
    # each leaf's id, path (variable, value), split variable and maximum
    # influence (hex), and the ledger's (iteration, phi hex, depth)
    want = json.loads((DATA / "decompose_tribes_4_5.json").read_text())
    result = decompose(tribes(4, 5), RegularityParams(0.05, 0.3, 0.05))
    stats = result.leaf_stats
    assert [[leaf.id, [list(step) for step in leaf.fixed.items()], var, top.hex()] for leaf, var, top
            in zip(result.tree.leaves, stats.variables.tolist(), stats.max_influences.tolist())] == want["leaves"]
    assert [[i, phi.hex(), depth] for (i, phi), depth
            in zip(result.ledger.history, result.ledger.depths)] == want["ledger"]


def test_energies_do_not_depend_on_the_builtin_sum(monkeypatch):
    # from Python 3.12 on the builtin sum compensates the rounding of floats
    # (compensated_sum), which moved 5 of the 13 recorded phi values here:
    # the driver adds its energies left to right, and energy() reads its
    # leaves as arrays, so no float goes through the builtin sum
    want = json.loads((DATA / "decompose_tribes_4_5.json").read_text())
    p = RegularityParams(0.05, 0.3, 0.05)
    tree_energy = energy(decompose(tribes(4, 5), p).tree, p.delta)
    monkeypatch.setattr(regularity, "sum", compensated_sum, raising=False)
    monkeypatch.setattr(dtree, "sum", compensated_sum, raising=False)
    result = decompose(tribes(4, 5), p)
    assert [[i, phi.hex(), depth] for (i, phi), depth
            in zip(result.ledger.history, result.ledger.depths)] == want["ledger"]
    assert energy(result.tree, p.delta) == tree_energy


def dtree_calls_per_pass(f, p, var_cap):
    """Python-level calls into functions defined in boolreg/dtree.py during
    each pass of decompose_homogeneous; a pass starts at its level's
    analysis."""
    counts = []

    def profile(frame, event, arg):
        code = frame.f_code
        if event != "call":
            return
        if code.co_name == "analyze" and code.co_filename == noise.__file__:
            counts.append(0)
        elif code.co_filename == dtree.__file__ and counts:
            counts[-1] += 1

    sys.setprofile(profile)
    try:
        result = decompose_homogeneous(f, p, var_cap)
    finally:
        sys.setprofile(None)
    assert len(counts) == result.iterations + 1
    return counts


def test_a_pass_splits_its_level_without_per_leaf_python():
    # majority(k) queries one new variable a pass, so the pass before the
    # last splits 2^(k-2) leaves; a tree held as leaf objects made a Python
    # call per split leaf (511 and 8,191 in all), the array split makes the
    # same few calls whatever the level's size
    p = RegularityParams(0.05, 0.3, 0.05)
    small, large = (dtree_calls_per_pass(majority(k), p, k) for k in (9, 13))
    assert len(small) == 10 and len(large) == 14
    assert len(set(small[:-1])) == 1 and set(small[:-1]) == set(large[:-1])
    assert small[-1] == large[-1]
