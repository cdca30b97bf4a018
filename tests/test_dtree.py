"""Decision trees: splitting, evaluation, energy accounting, bad-leaf mass,
and walks that leave no reference cycles behind."""

import gc
import itertools
import json
import pathlib
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boolreg import (
    BooleanFunction,
    RegularityParams,
    bad_leaf_mass,
    check_quasi_mist,
    constant,
    decompose,
    decompose_homogeneous,
    decomposition_report,
    dictator,
    energy,
    evaluate,
    evaluate_table,
    has_small_noisy_influences,
    infer_range_tag,
    leaves,
    majority,
    noisy_influence,
    parity,
    random_pm_one,
    singleton,
    split_leaves,
    stability,
    subset_sizes,
    to_dot,
    to_zero_one,
    tree_depth,
    tribes,
    wht,
)
from boolreg.dtree import _analysis
from oracles import (
    RefLeaf,
    brute_restriction_mean,
    random_real_unit,
    ref_dot,
    ref_evaluate,
    ref_leaves,
    ref_split,
)

DATA = pathlib.Path(__file__).with_name("data")


def test_singleton_energy_parity():
    t = singleton(parity(2, [0, 1]))
    assert energy(t, 0.5) == pytest.approx(0.25, abs=1e-15)


def test_singleton_energy_constants():
    assert energy(singleton(constant(3, 1.0)), 0.2) == pytest.approx(1.0, abs=1e-15)
    assert energy(singleton(constant(3, 0.0)), 0.9) == pytest.approx(0.0, abs=1e-15)


def test_evaluate_singleton():
    f = majority(3)
    t = singleton(f)
    for b in range(8):
        assert evaluate(t, b) == f.values[b]


def test_evaluate_after_split_equals_f():
    f = majority(3)
    t = split_leaves(singleton(f), {0: 0})
    for b in range(8):
        assert evaluate(t, b) == f.values[b]
    np.testing.assert_array_equal(evaluate_table(t), f.values)


def test_evaluate_walks_by_bits():
    # two-level tree with constant leaves: query x1 then x2 on the plus side
    f = parity(2, [0, 1])
    t = split_leaves(singleton(f), {0: 0})
    plus_leaf = next(leaf for leaf, _ in leaves(t) if leaf.fixed.get(0) == 1)
    t = split_leaves(t, {plus_leaf.id: 1})
    # x1=+1, x2=+1 -> b=0b00: product is +1
    assert evaluate(t, 0b00) == 1.0
    # x1=+1, x2=-1 -> b=0b10
    assert evaluate(t, 0b10) == -1.0
    # x1=-1 lands in the unsplit branch
    assert evaluate(t, 0b01) == -1.0


def test_split_product_leaves():
    t = split_leaves(singleton(parity(2, [0, 1])), {0: 0})
    got = sorted((leaf.fixed[0], tuple(leaf.fn.values)) for leaf, depth in leaves(t))
    x2 = dictator(2, 1).values
    assert got == sorted([(1, tuple(x2)), (-1, tuple(-x2))])
    assert all(depth == 1 for _, depth in leaves(t))


def test_split_energy_increment_identity():
    f = parity(2, [0, 1])
    delta = 0.5
    before = energy(singleton(f), delta)
    after = energy(split_leaves(singleton(f), {0: 0}), delta)
    assert before == pytest.approx(0.25, abs=1e-15)
    assert after == pytest.approx(0.5, abs=1e-15)
    assert after - before == pytest.approx(delta * noisy_influence(f, 0, delta), abs=1e-12)


def test_split_irrelevant_variable_keeps_energy():
    f = parity(3, [0, 1])  # x3 irrelevant
    t = singleton(f)
    assert energy(split_leaves(t, {0: 2}), 0.4) == pytest.approx(energy(t, 0.4), abs=1e-12)


def test_energy_increment_identity_random_corpus():
    rng = np.random.default_rng(53)
    for _ in range(25):
        n = int(rng.integers(2, 8))
        f = BooleanFunction(n, random_real_unit(rng, n))
        i = int(rng.integers(n))
        for delta in (0.1, 0.3, 0.5, 0.9):
            lhs = energy(split_leaves(singleton(f), {0: i}), delta)
            rhs = stability(wht(f), 1.0 - delta) + delta * noisy_influence(f, i, delta)
            assert abs(lhs - rhs) <= 1e-9


def test_complete_tree_energy_is_mean_square():
    rng = np.random.default_rng(59)
    for n in (2, 4, 6):
        f = BooleanFunction(n, rng.normal(size=1 << n))
        t = singleton(f)
        for var in range(n):
            t = split_leaves(t, dict.fromkeys((leaf.id for leaf in t.leaves), var))
        assert all(np.ptp(leaf.fn.values) == 0.0 for leaf, _ in leaves(t))
        for delta in (0.2, 0.8):
            expected = float((f.values ** 2).mean())
            assert energy(t, delta) == pytest.approx(expected, abs=1e-9)


def test_energy_monotone_under_random_splits():
    rng = np.random.default_rng(61)
    for _ in range(10):
        n = int(rng.integers(3, 7))
        f = BooleanFunction(n, random_real_unit(rng, n))
        delta = float(rng.uniform(0.05, 1.0))
        t = singleton(f)
        current = energy(t, delta)
        for _ in range(4):
            leaf, _ = leaves(t)[int(rng.integers(len(leaves(t))))]
            options = [v for v in range(n) if v not in leaf.fixed]
            if not options:
                continue
            t = split_leaves(t, {leaf.id: int(rng.choice(options))})
            nxt = energy(t, delta)
            assert nxt >= current - 1e-12
            assert nxt <= float((f.values ** 2).mean()) + 1e-9
            current = nxt


def test_evaluate_equals_f_for_random_split_sequences():
    rng = np.random.default_rng(67)
    n = 6
    f = BooleanFunction(n, rng.normal(size=1 << n))
    t = singleton(f)
    for _ in range(12):
        all_leaves = leaves(t)
        leaf, _ = all_leaves[int(rng.integers(len(all_leaves)))]
        options = [v for v in range(n) if v not in leaf.fixed]
        if not options:
            continue
        t = split_leaves(t, {leaf.id: int(rng.choice(options))})
        np.testing.assert_array_equal(evaluate_table(t), f.values)


def test_leaf_mass_sums_to_one():
    rng = np.random.default_rng(71)
    t = singleton(majority(3))
    t = split_leaves(t, {0: 1})
    t = split_leaves(t, {leaves(t)[0][0].id: 2})
    assert sum(2.0 ** -d for _, d in leaves(t)) == pytest.approx(1.0, abs=1e-15)


def test_no_repeat_split_rejected():
    t = split_leaves(singleton(majority(3)), {0: 1})
    leaf, _ = leaves(t)[0]
    with pytest.raises(ValueError):
        split_leaves(t, {leaf.id: 1})


def test_split_unknown_leaf():
    with pytest.raises(KeyError):
        split_leaves(singleton(majority(3)), {99: 0})


def three_leaf_tree():
    t = split_leaves(singleton(majority(5)), {0: 0})
    return split_leaves(t, {leaves(t)[0][0].id: 1})  # leaves 3, 4 under x1=+1, then 2


def test_split_leaves_ids_follow_leaf_order():
    t = three_leaf_tree()
    assert [leaf.id for leaf, _ in leaves(t)] == [3, 4, 2]
    many = split_leaves(t, {2: 3, 3: 4})  # dict order does not matter
    one_by_one = split_leaves(split_leaves(t, {3: 4}), {2: 3})
    assert [(leaf.id, leaf.fixed) for leaf, _ in leaves(many)] == \
        [(leaf.id, leaf.fixed) for leaf, _ in leaves(one_by_one)]
    assert [leaf.id for leaf, _ in leaves(many)] == [5, 6, 4, 7, 8]
    assert many.next_leaf_id == 9
    np.testing.assert_array_equal(evaluate_table(many), majority(5).values)


def test_split_leaves_shares_untouched_branches():
    t = three_leaf_tree()
    split = split_leaves(t, {3: 2})
    assert split.leaves[2] is t.leaves[1] and split.leaves[3] is t.leaves[2]
    assert all(a is b for a, b in zip(split_leaves(t, {}).leaves, t.leaves, strict=True))


def test_integer_arguments_become_ints():
    f = majority(3)
    t = split_leaves(singleton(f), {0: np.int64(1)})
    t = split_leaves(t, dict.fromkeys((leaf.id for leaf in t.leaves), np.int32(2)))
    assert all(type(var) is int for leaf, _ in leaves(t) for var in leaf.fixed)
    assert json.dumps([leaf.fixed for leaf, _ in leaves(t)]) == \
        '[{"1": 1, "2": 1}, {"1": 1, "2": -1}, {"1": -1, "2": 1}, {"1": -1, "2": -1}]'
    assert [evaluate(t, np.uint8(b)) for b in range(8)] == list(f.values)
    with pytest.raises(TypeError, match="integer"):
        split_leaves(t, {3: np.float64(0)})
    with pytest.raises(TypeError, match="integer"):
        split_leaves(t, dict.fromkeys((leaf.id for leaf in t.leaves), 0.0))
    with pytest.raises(TypeError, match="integer"):
        evaluate(t, 3.0)


def test_split_leaves_errors():
    t = three_leaf_tree()
    with pytest.raises(KeyError):
        split_leaves(t, {3: 2, 99: 2})
    with pytest.raises(IndexError):
        split_leaves(t, {3: 5})
    with pytest.raises(ValueError):
        split_leaves(t, {2: 0})


def test_leaf_fixed_matches_restriction():
    f = majority(3)
    t = split_leaves(singleton(f), {0: 0})
    for leaf, depth in leaves(t):
        assert depth == len(leaf.fixed) == 1
        for b in range(8):
            forced = b
            for var, v in leaf.fixed.items():
                forced = (forced & ~(1 << var)) if v == 1 else (forced | (1 << var))
            assert leaf.fn.values[b] == f.values[forced]


def test_persistence():
    t0 = singleton(majority(3))
    t1 = split_leaves(t0, {0: 0})
    assert len(leaves(t0)) == 1  # original untouched
    assert len(leaves(t1)) == 2
    assert tree_depth(t0) == 0 and tree_depth(t1) == 1


def test_bad_leaf_mass_constant_leaves():
    t = singleton(constant(3, 1.0))
    assert bad_leaf_mass(t, 0.5, 0.5) == 0.0


def test_bad_leaf_mass_dictator():
    assert bad_leaf_mass(singleton(dictator(2, 0)), 0.5, 0.5) == 1.0


def test_bad_leaf_mass_maj3_delta_zero():
    assert bad_leaf_mass(singleton(majority(3)), 0.6, 0.0) == 0.0


def test_to_dot():
    t = split_leaves(singleton(majority(3)), {0: 1})
    dot = to_dot(t, 0.3)
    assert dot.startswith("digraph")
    assert '"x2"' in dot
    assert '[label="+1"]' in dot and '[label="-1"]' in dot
    assert "depth=1" in dot and "mean=" in dot and "max_inf=" in dot


@pytest.mark.parametrize("name, tree", [
    ("dot_tribes_2_2.txt", lambda: decompose(tribes(2, 2), RegularityParams(0.05, 0.3, 0.05)).tree),
    ("dot_majority_5_homogeneous.txt",
     lambda: decompose_homogeneous(majority(5), RegularityParams(0.2, 0.3, 0.25), 5).tree),
])
def test_to_dot_text_is_pinned(name, tree):
    # the whole text, byte for byte: node names in preorder, and each
    # internal node's edges after both of its subtrees
    assert to_dot(tree(), 0.3) == (DATA / name).read_text()


def test_energy_delta_validation():
    with pytest.raises(ValueError):
        energy(singleton(majority(3)), 0.0)


def random_tree(f, rng, splits):
    t = singleton(f)
    for _ in range(splits):
        splittable = [leaf for leaf, _ in leaves(t) if leaf.free]
        if not splittable:
            break
        leaf = splittable[rng.integers(len(splittable))]
        t = split_leaves(t, {leaf.id: leaf.free[rng.integers(len(leaf.free))]})
    return t


@pytest.mark.parametrize("seed", range(6))
def test_split_axis_from_the_fixed_variables(seed):
    # a split finds its axis as n - 1 - j less the fixed variables above j;
    # the children must be the halves along the axis that the count of free
    # variables above j gives
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 10))
    f = BooleanFunction(n, rng.normal(size=1 << n))
    for _ in range(20):
        t = random_tree(f, rng, int(rng.integers(0, 2 * n)))
        splittable = [leaf for leaf, _ in leaves(t) if leaf.free]
        if not splittable:
            continue
        leaf = splittable[rng.integers(len(splittable))]
        j = leaf.free[rng.integers(len(leaf.free))]
        axis = sum(v > j for v in leaf.free)
        split = split_leaves(t, {leaf.id: j})
        children = [child for child, _ in leaves(split) if child.id >= t.next_leaf_id]
        for child, bit in zip(children, (0, 1)):
            assert np.array_equal(child.table, np.take(leaf.table, bit, axis=axis))
            assert np.shares_memory(child.table, f.values)


def check_compact_leaf_statistics(t):
    """energy and bad_leaf_mass analyse each depth's compact spectra in one
    batch; the ambient route transforms the 2^n table leaf.fn."""
    for delta in (0.1, 0.3, 1.0):
        want = sum(2.0 ** -depth * stability(wht(leaf.fn), 1.0 - delta) for leaf, depth in leaves(t))
        assert energy(t, delta) == pytest.approx(want, rel=0.0, abs=1e-12)
        for eps in (0.01, 0.1, 0.3):
            want = sum(2.0 ** -depth for leaf, depth in leaves(t)
                       if not has_small_noisy_influences(leaf.fn, eps, delta).ok)
            assert bad_leaf_mass(t, eps, delta) == want


@pytest.mark.parametrize("seed", range(6))
def test_compact_leaf_statistics_match_the_ambient_ones(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 8))
    f = BooleanFunction(n, random_real_unit(rng, n))
    check_compact_leaf_statistics(random_tree(f, rng, int(rng.integers(0, 2 * n))))


TABLE_KINDS = {
    "pm_one": lambda rng, n: rng.choice([-1.0, 1.0], 1 << n),
    "zero_one": lambda rng, n: rng.integers(0, 2, 1 << n).astype(float),
    "ternary": lambda rng, n: rng.integers(-1, 2, 1 << n).astype(float),
    "real": random_real_unit,
}


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 8), st.sampled_from(sorted(TABLE_KINDS)), st.integers(0, 2**32 - 1),
       st.sampled_from(["hand", "plain", "homogeneous"]))
def test_compact_leaf_statistics_match_the_ambient_ones_on_any_tree(n, kind, seed, builder):
    # Boolean-valued tables too, whose leaf.fn spectra are int32 counts, and
    # the drivers' trees as well as hand-built ones
    rng = np.random.default_rng(seed)
    values = TABLE_KINDS[kind](rng, n)
    f = BooleanFunction(n, values, infer_range_tag(values))
    if builder == "hand":
        t = random_tree(f, rng, int(rng.integers(0, 2 * n)))
    elif builder == "plain":
        t = decompose(f, PARAMS).tree
    else:
        t = decompose_homogeneous(f, PARAMS, n).tree
    check_compact_leaf_statistics(t)


def test_leaves_without_free_variables():
    # every leaf of a full split is a constant: Stab = value^2, influences 0
    f = majority(5)
    t = singleton(f)
    for v in range(5):
        t = split_leaves(t, dict.fromkeys((leaf.id for leaf in t.leaves), v))
    assert all(leaf.table.size == 1 for leaf, _ in leaves(t))
    assert energy(t, 0.3) == 1.0
    assert bad_leaf_mass(t, 1e-12, 0.3) == 0.0
    dot = to_dot(t, 0.3)
    assert dot.count("max_inf=0\"") == 32
    assert dot.count("mean=1\\nmax_inf") + dot.count("mean=-1\\nmax_inf") == 32
    # a one-entry table is its own spectrum: each leaf's mean is its value,
    # bit for bit (-0.0 and subnormals too), and its Stab the value squared
    values = np.array([0.5, -0.0, 5e-324, -1.0, 0.25, 1e-310, -0.75, 0.0])
    t = singleton(BooleanFunction(3, values))
    for v in range(3):
        t = split_leaves(t, dict.fromkeys((leaf.id for leaf in t.leaves), v))
    stats = _analysis(t, np.inf, 0.3)
    in_order = np.array([leaf.table.item() for leaf in t.leaves])
    assert stats.means.tobytes() == in_order.tobytes()
    assert stats.stabs.tobytes() == np.square(in_order).tobytes()


@pytest.mark.parametrize("homogeneous", [False, True])
@pytest.mark.parametrize("f", [tribes(3, 4), majority(7), BooleanFunction(8, random_real_unit(np.random.default_rng(4), 8))],
                         ids=["tribes", "maj", "real"])
def test_leaf_tables_are_read_only_views_of_the_root_table(f, homogeneous):
    result = decompose_homogeneous(f, PARAMS, f.n) if homogeneous else decompose(f, PARAMS)
    final = leaves(result.tree)
    assert len(final) > 1
    for leaf, depth in final:
        assert leaf.table.shape == (2,) * (f.n - depth)
        assert not leaf.table.flags.writeable
        assert np.shares_memory(leaf.table, f.values)


def test_a_split_copies_no_table():
    # the 512 children of a depth-8 tree at n = 20 hold 8 MiB of values as
    # copies; as views they cost only their leaf objects
    t = singleton(random_pm_one(20, 0))
    for v in range(8):
        t = split_leaves(t, dict.fromkeys((leaf.id for leaf in t.leaves), v))
    splits = {leaf.id: 8 for leaf, _ in leaves(t)}
    tracemalloc.start()
    try:
        split_leaves(t, splits)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("f, depth, tables", [(dictator(18, 0), 1, 2.753), (random_pm_one(18, 0), 6, 2.247)],
                         ids=["dictator", "depth-6"])
def test_energy_holds_the_spectra_and_one_batch(f, depth, tables):
    # the level's compact spectra and the product buffer are a table each;
    # the tables are transformed in batches of 32 KiB, or one leaf at a time
    # if larger: on the dictator tree, whose leaves hold 2^17 entries, the
    # leaf's transform and its scratch add 0.75 of a table.  A level
    # transformed as one array peaked at 3.32 tables on both trees, and the
    # per-leaf transforms beside a half buffer at 3.25 and 2.75
    t = singleton(f)
    for v in range(depth):
        t = split_leaves(t, dict.fromkeys((leaf.id for leaf in t.leaves), v))
    subset_sizes(18)
    tracemalloc.start()
    try:
        energy(t, 0.3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= (tables + 0.05) * 8 * (1 << 18)


def test_leaf_fn_holds_one_table():
    # the fresh ambient table is handed over to BooleanFunction, which adopts
    # it: 1.25 tables at the peak with the pm_one check's temporaries; a
    # writeable table was copied once more, 2.25 tables
    n = 20
    f = random_pm_one(n, 0)
    leaf = split_leaves(singleton(f), {0: 3}).leaves[1]
    tracemalloc.start()
    try:
        g = leaf.fn
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 8 * (1 << n)
    assert not g.values.flags.writeable


def test_bad_leaf_mass_rejects_nan():
    t = singleton(majority(3))
    with pytest.raises(ValueError, match="eps must be positive, got nan"):
        bad_leaf_mass(t, float("nan"), 0.3)
    with pytest.raises(ValueError, match="delta must lie in"):
        bad_leaf_mass(t, 0.1, float("nan"))


def test_bad_leaf_mass_and_dot_validate_parameters():
    t = singleton(majority(3))
    with pytest.raises(ValueError):
        bad_leaf_mass(t, 0.0, 0.3)
    with pytest.raises(ValueError):
        bad_leaf_mass(t, 0.1, 1.5)
    with pytest.raises(ValueError):
        to_dot(t, -0.1)


PARAMS = RegularityParams(eps=0.05, delta=0.3, gamma=0.05)
MIST_PARAMS = RegularityParams(eps=0.02, delta=0.3, gamma=0.05)


def first_leaf_split(t):
    leaf = leaves(t)[0][0]
    return split_leaves(t, {leaf.id: leaf.free[0]})


# each operation takes a finished decomposition of tribes(3, 4); var_cap 1
# exhausts the homogeneous run, and tribes(3, 4) is quasirandom at q_eps 0.6
# but not at 0.05, where the pipeline skips its decomposition
OPERATIONS = {
    "decompose": lambda r: decompose(tribes(3, 4), PARAMS),
    "decompose_homogeneous": lambda r: decompose_homogeneous(majority(7), PARAMS, 7),
    "decompose_homogeneous_exhausted": lambda r: decompose_homogeneous(majority(7), PARAMS, 1),
    "check_quasi_mist": lambda r: check_quasi_mist(to_zero_one(tribes(3, 4)), 0.5, MIST_PARAMS, 0.6, 0.5),
    "check_quasi_mist_not_quasirandom":
        lambda r: check_quasi_mist(to_zero_one(tribes(3, 4)), 0.5, MIST_PARAMS, 0.05, 0.5),
    "leaves": lambda r: leaves(r.tree),
    "tree_depth": lambda r: tree_depth(r.tree),
    "split_leaves": lambda r: first_leaf_split(r.tree),
    "evaluate_table": lambda r: evaluate_table(r.tree),
    "energy": lambda r: energy(r.tree, 0.3),
    "bad_leaf_mass": lambda r: bad_leaf_mass(r.tree, 0.05, 0.3),
    "to_dot": lambda r: to_dot(r.tree, 0.3),
    "decomposition_report": lambda r: decomposition_report(r, PARAMS, False),
}


@pytest.mark.parametrize("name", sorted(OPERATIONS))
def test_operations_leave_no_cyclic_garbage(name):
    # a tree or leaf list kept alive by a cycle holds its leaves, and
    # through their views the root table, until the cycle collector runs
    op = OPERATIONS[name]
    result = decompose(tribes(3, 4), PARAMS)
    op(result)  # first-call caches are not garbage
    gc.collect()
    gc.disable()
    try:
        op(result)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_a_replaced_leaf_is_freed_without_the_cycle_collector():
    gc.collect()
    gc.disable()
    try:
        t = split_leaves(singleton(majority(5)), {0: 2})
        walked = leaves(t)
        replaced = weakref.ref(walked[1][0])
        t = split_leaves(t, {replaced().id: 0})  # drops the old tree
        assert replaced() is not None
        del walked
        assert replaced() is None
        assert [leaf.id for leaf, _ in leaves(t)] == [1, 3, 4]
    finally:
        gc.enable()


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 7), st.booleans(), st.integers(0, 2**32 - 1), st.data())
def test_leaf_sequence_matches_the_node_graph_tree(n, real, seed, data):
    # whatever the order of the splits, the leaves under each node stay
    # consecutive with the node's variable at their path step depth: the
    # tree walks, evaluation and DOT text equal the node-graph reference's
    rng = np.random.default_rng(seed)
    values = random_real_unit(rng, n) if real else rng.choice([-1.0, 1.0], 1 << n)
    t, ref, ref_next = singleton(BooleanFunction(n, values)), RefLeaf(0, {}), 1
    for _ in range(data.draw(st.integers(1, 6))):
        splittable = [leaf for leaf, _ in leaves(t) if leaf.free]
        if not splittable:
            break
        chosen = data.draw(st.lists(st.sampled_from(range(len(splittable))), min_size=1, unique=True))
        splits = {splittable[i].id: data.draw(st.sampled_from(splittable[i].free)) for i in chosen}
        t = split_leaves(t, splits)
        ids = itertools.count(ref_next, 2)
        ref, ref_next = ref_split(ref, splits, ids), next(ids)
        expected = ref_leaves(ref)
        assert [(leaf.id, depth, list(leaf.fixed.items())) for leaf, depth in leaves(t)] == \
            [(leaf.id, depth, list(leaf.fixed.items())) for leaf, depth in expected]
        assert tree_depth(t) == max(depth for _, depth in expected)
        assert t.next_leaf_id == ref_next
        reference = [ref_evaluate(ref, values, b) for b in range(1 << n)]
        assert [evaluate(t, b) for b in range(1 << n)] == reference
        np.testing.assert_array_equal(evaluate_table(t), reference)
        tops = _analysis(t, np.inf, 0.3).max_influences.tolist()
        labels = {leaf.id: f"mean={brute_restriction_mean(values, leaf.fixed):.6g}\\nmax_inf={top:.6g}"
                  for (leaf, _), top in zip(expected, tops)}
        assert to_dot(t, 0.3) == ref_dot(ref, labels)
