"""The spectral leaf path: half-butterfly restriction, the leaf kernel over
the compact layout and its exact tie-break, and the drivers against the
earlier per-pass design (the same trees and decisions exactly, floats within
1e-12); and the compact leaf tables against chains of ``restrict``."""

import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from boolreg import (
    PM_ONE,
    REAL,
    ZERO_ONE,
    BooleanFunction,
    FourierExpansion,
    RegularityParams,
    bad_leaf_mass,
    check_quasi_mist,
    decompose,
    decompose_homogeneous,
    dictator,
    evaluate_table,
    leaves,
    majority,
    noisy_influence,
    random_pm_one,
    restrict,
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
from boolreg import boolfn, regularity, stablest
from boolreg.noise import (
    INFLUENCE_SLACK,
    _analyzer,
    _fold_sums,
    _influence_powers,
    _powers,
    expansion_influences,
)
from boolreg.boolfn import _degree_weights
from boolreg.regularity import _split_rows
from oracles import (
    ambient_spectrum,
    exact_influences,
    exact_profile,
    exact_stability,
    mask_gather_influences,
    power_stability,
    reference_decompose,
    reference_decompose_homogeneous,
)

# Tables whose spectra are computed exactly in doubles (small dyadic
# values), so every derived spectrum equals a fresh transform bit for bit.
EXACT_KINDS = {
    PM_ONE: (-1.0, 1.0),
    ZERO_ONE: (0.0, 1.0),
    REAL: tuple(k / 4 for k in range(-4, 5)),
}


@st.composite
def tables(draw, max_n=7, exact=True):
    """(function, whether its spectra are exact)."""
    n = draw(st.integers(1, max_n))
    kinds = list(EXACT_KINDS) + ([] if exact else [None])
    kind = draw(st.sampled_from(kinds))
    if kind is None:  # arbitrary reals
        elements = st.floats(-1.0, 1.0, allow_nan=False)
        return BooleanFunction(n, draw(arrays(np.float64, 1 << n, elements=elements)), REAL), False
    values = draw(arrays(np.float64, 1 << n, elements=st.sampled_from(EXACT_KINDS[kind])))
    return BooleanFunction(n, values, kind), True


params = st.builds(
    RegularityParams,
    eps=st.sampled_from([0.01, 0.05, 0.1, 0.2]),
    delta=st.sampled_from([0.1, 0.3, 0.5, 1.0]),
    gamma=st.sampled_from([0.05, 0.1, 0.25]),
)


# the gate for floats whose evaluation order changed
FLOAT_TOL = 1e-12


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def close(a: float, b: float) -> bool:
    return abs(a - b) <= FLOAT_TOL


def free_rows(free, count=1) -> np.ndarray:
    """``count`` rows of the free variables ``free``, as the analyzer and
    ``_split_rows`` take them."""
    return np.tile(np.array(free, dtype=np.int64), (count, 1))


@settings(max_examples=150, deadline=None)
@given(tables(exact=False), st.data())
def test_half_butterfly_is_the_restricted_spectrum(case, data):
    f, exact = case
    path = data.draw(st.lists(st.integers(0, f.n - 1), unique=True, max_size=3))
    signs = data.draw(st.lists(st.sampled_from([1, -1]), min_size=len(path), max_size=len(path)))
    frees, rows = free_rows(range(f.n)), wht(f).coeffs.reshape(1, -1)
    g = f
    for var, v in zip(path, signs):
        frees, children = _split_rows(rows, frees, np.array([var]))
        assert children.shape == (2, 1 << frees.shape[1])
        assert np.array_equal(frees[0], frees[1])
        frees, rows = frees[:1], children[0 if v == 1 else 1].reshape(1, -1)
        g = restrict(g, var, v)
    free = tuple(frees[0].tolist())
    assert free == tuple(i for i in range(f.n) if i not in path)
    derived = ambient_spectrum(f.n, free, rows[0])
    fresh = wht(g).coeffs
    if exact:
        assert same_bits(derived, fresh)
    else:
        np.testing.assert_allclose(derived, fresh, rtol=0.0, atol=1e-12)


def spike_table(n: int, value: float, mask: int) -> np.ndarray:
    """2^n coefficients equal to ``value`` but a 1.0 at ``mask``."""
    coeffs = np.full(1 << n, value)
    coeffs[mask] = 1.0
    return coeffs


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 10).flatmap(
           lambda n: arrays(np.float64, 1 << n, elements=st.floats(-1.0, 1.0, allow_nan=False))),
       st.floats(0.0, 1.0))
@example(spike_table(8, 0.03235096053373199, 11), 0.0)  # Stab_1 1.27e-15 relative from exact
def test_kernel_matches_power_and_mask_gather(coeffs, delta):
    g = FourierExpansion(coeffs.size.bit_length() - 1, coeffs)
    for rho in (1.0 - delta, delta):
        assert exactly_close(stability(g, rho), exact_stability(coeffs, rho), coeffs.size)
    influences = expansion_influences(g, delta)
    assert influences.shape == (g.n,)
    assert all(exactly_close(value, exact, coeffs.size)
               for value, exact in zip(influences.tolist(), exact_influences(coeffs, delta)))


def exactly_close(value: float, exact: Fraction, terms: int) -> bool:
    """Within the forward-error bound of a computed sum of ``terms``
    nonnegative terms, beyond what squares that underflow (at most 2^-1075
    each, a few thousand of them) can lose.

    The bound is gamma_k = k u / (1 - k u) with u = 2^-53 (Higham, Accuracy
    and Stability of Numerical Algorithms, Lemma 3.1 and section 4.2): a
    sum of N terms in any order of pairwise additions of disjoint partial
    sums takes each term through at most N - 1 roundings, and the kernels
    form each term rho^|S| coeff(S)^2 with at most four more: two products
    (the square and the product by the power, or the two products of
    ``_weighted_squares``) and the power, which is within one ulp (2u), so
    k = N + 3.
    """
    k = terms + 3
    u = Fraction(1, 2 ** 53)
    return abs(Fraction(value) - exact) <= k * u / (1 - k * u) * exact + Fraction(2.0 ** -1060)


def test_stabilities_of_one_spectrum_share_one_profile(monkeypatch):
    calls = []
    degree_weights = boolfn._degree_weights
    monkeypatch.setattr(boolfn, "_degree_weights",
                        lambda squares: calls.append(squares.shape) or degree_weights(squares))
    g = wht(random_pm_one(12, 5))
    values = [stability(g, rho / 10) for rho in range(1, 10)]
    # _degree_weights recurses on its partial sums, over fewer columns
    assert [shape for shape in calls if shape[1] == 1 << 12] == [(1, 1 << 12)]
    assert values == [float(g.profile @ _powers(rho / 10, 12)) for rho in range(1, 10)]


@pytest.mark.parametrize("n", [14, 16, 18])
def test_kernel_matches_mask_gather_on_large_tables(n):
    # the public influences and the drivers' analyzer fold the weighted
    # squares, so they agree with the gather within FLOAT_TOL (relative for
    # the influences), and the analyzer exactly on the split variable of a
    # bad leaf (eps is tiny here)
    rng = np.random.default_rng(n)
    coeffs = rng.uniform(-1.0, 1.0, 1 << n) / 2.0 ** (n / 2)
    g = FourierExpansion(n, coeffs)
    # a second spectrum, over all variables but one, for the drivers'
    # buffer-reusing path: run after the first, a stale buffer would show
    free = tuple(v for v in range(n) if v != n // 2)
    other = rng.uniform(-1.0, 1.0, 1 << (n - 1)) / 2.0 ** (n / 2)
    spectra = [(tuple(range(n)), coeffs, coeffs),
               (free, other, ambient_spectrum(n, free, other))]
    for delta in (0.05, 0.3, 1.0):
        gathered = mask_gather_influences(coeffs, delta)
        assert np.all(np.abs(expansion_influences(g, delta) - gathered) <= FLOAT_TOL * gathered)
        assert abs(stability(g, 1.0 - delta) - power_stability(coeffs, 1.0 - delta)) <= \
            FLOAT_TOL * power_stability(coeffs, 1.0 - delta)
        analyze = _analyzer(n, delta, 1e-6)
        for spectrum_free, compact, ambient in spectra:
            [stats] = analyze(free_rows(spectrum_free), compact.reshape(1, -1))
            influences = mask_gather_influences(ambient, delta)
            assert close(stats.stab, power_stability(ambient, 1.0 - delta))
            assert stats.var == int(influences.argmax())
            assert close(stats.max_influence, influences.max())


@pytest.mark.parametrize("n", [3, 11, 16, 22])
def test_power_table_matches_full_power(n):
    sizes = subset_sizes(n)
    wide = sizes.astype(np.int64)
    for rho in (0.0, 0.1, 1.0 / 3.0, 0.5, 1.0 - 0.3, 0.95, 1.0):
        assert same_bits(_powers(rho, n)[sizes], np.float64(rho) ** wide)


@pytest.mark.parametrize("n", [3, 11, 16, 22])
def test_upper_influence_weights_are_the_stability_powers(n):
    # analyze.influences weights ghat(S)^2, S containing j, over m free
    # variables by the upper half of the first 2^m influence weights:
    # (1-delta)^(|S|-1), with the bits of the Stab_{1-delta} power of S - {j}
    # that the energy identity is stated with
    sizes = subset_sizes(n)
    for delta in (0.0, 0.1, 1.0 / 3.0, 0.3, 0.5, 1.0):
        weights = _influence_powers(delta, n)[sizes]
        for m in sorted({1, n // 2, n}):
            want = _powers(1.0 - delta, n)[subset_sizes(m - 1)]
            assert same_bits(weights[1 << (m - 1):1 << m], want)


@pytest.mark.parametrize("m", [0, 1, 2, 8, 9, 12, 16, 17, 20])
def test_degree_weights_sum_each_mask_size(m):
    rng = np.random.default_rng(m)
    sizes = subset_sizes(m)
    # integer squares: every partial sum is exact, so any order gives the same bits
    rows = rng.integers(-1 << 10, 1 << 10, (1 if m > 16 else 3, 1 << m)).astype(np.float64)
    squares = rows * rows
    want = np.array([np.bincount(sizes, row, minlength=m + 1) for row in squares])
    assert same_bits(_degree_weights(squares), want)
    squares = rng.uniform(0.0, 1.0, squares.shape) / squares.shape[1]
    want = np.array([np.bincount(sizes, row, minlength=m + 1) for row in squares])
    np.testing.assert_allclose(_degree_weights(squares), want, rtol=0.0, atol=FLOAT_TOL)


boolean_tables = st.integers(1, 8).flatmap(lambda n: st.sampled_from([PM_ONE, ZERO_ONE]).flatmap(
    lambda kind: arrays(np.float64, 1 << n, elements=st.sampled_from(EXACT_KINDS[kind])).map(
        lambda values: BooleanFunction(n, values, kind))))


@settings(max_examples=100, deadline=None)
@given(boolean_tables)
def test_profile_is_the_exact_degree_weights(f):
    g = wht(f)
    assert [w.hex() for w in g.profile] == [float(w).hex() for w in exact_profile(f.values)]
    assert not g.profile.flags.writeable


@settings(max_examples=80, deadline=None)
@given(boolean_tables, params, st.booleans())
def test_leaf_profiles_are_exact_on_boolean_tables(f, p, homogeneous):
    # every partial sum of ghat^2 is an integer over 4^n below 2^53 of them
    result = decompose_homogeneous(f, p, f.n) if homogeneous else decompose(f, p)
    for leaf, depth in leaves(result.tree):
        stats = result.leaf_stats[leaf.id]
        want = exact_profile(leaf.table.ravel())
        assert len(stats.profile) == f.n - depth + 1
        assert [w.hex() for w in stats.profile] == [float(w).hex() for w in want]
        assert sum(stats.profile) == Fraction(int((leaf.table * leaf.table).sum()), leaf.table.size)
        assert close(stats.stab, float(sum(w * Fraction(1.0 - p.delta) ** k for k, w in enumerate(want))))


@settings(max_examples=80, deadline=None)
@given(boolean_tables, params, st.booleans())
def test_bad_leaf_mass_and_dot_read_the_drivers_leaf_stats(f, p, homogeneous):
    result = decompose_homogeneous(f, p, f.n) if homogeneous else decompose(f, p)
    assert bad_leaf_mass(result.tree, p.eps, p.delta) == result.bad_mass
    labels = re.findall(r'label="L(\d+)\\n[^"]*\\nmax_inf=([^"]*)"', to_dot(result.tree, p.delta))
    assert dict(labels) == {str(leaf_id): f"{stats.max_influence:.6g}"
                            for leaf_id, stats in result.leaf_stats.items()}


def addressing(n: int) -> BooleanFunction:
    """The 4-bit addressing function: index bits 0-3 give an address a, and
    f = 1 - 2 * (bit 4 + a of the index); bits past n - 1 read 0."""
    x = np.arange(1 << n)
    return BooleanFunction(n, 1.0 - 2.0 * ((x >> (4 + (x & 15))) & 1), PM_ONE)


@pytest.mark.parametrize("build, tables", [(addressing, 4.565), (lambda n: dictator(n, 0), 4.503)],
                         ids=["addressing", "dictator"])
def test_plain_driver_peak(build, tables):
    # f is built untraced.  The root spectrum and its split, the product
    # buffer and the influence weights are a table of 2^n doubles each, and
    # the half buffer half of one: 4.5 tables.  Split group by group, the
    # drivers peaked at 4.565 and 4.503 tables here; gathering a pass's rows
    # into one copy by a mask raised decompose(tribes(4,5)) from 4.50 to 6.00
    n = 18
    f = build(n)
    subset_sizes(n)
    tracemalloc.start()
    try:
        result = decompose(f, RegularityParams(0.05, 0.3, 0.05))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.iterations >= 1
    assert peak <= (tables + 0.05) * 8 * (1 << n)


@pytest.mark.parametrize("run", [
    lambda: decompose(tribes(4, 4), RegularityParams(0.05, 0.3, 0.05)),
    lambda: decompose_homogeneous(majority(11), RegularityParams(0.05, 0.3, 0.05), 11),
    lambda: check_quasi_mist(to_zero_one(tribes(3, 4)), 0.5, RegularityParams(0.02, 0.3, 0.05), 0.6, 0.5),
], ids=["plain_tribes_4_4", "homogeneous_majority_11", "pipeline_tribes_3_4"])
def test_one_leaf_analysis_per_pass(monkeypatch, run):
    # the root's, and one batch of all new leaves at the end of each pass
    calls, results = [], []
    analyzer, loop = regularity._analyzer, regularity._decompose

    def counting_analyzer(*args):
        analyze = analyzer(*args)

        def counted(frees, rows):
            calls.append(len(rows))
            return analyze(frees, rows)

        counted.influences = analyze.influences
        return counted

    def recording_loop(*args, **kwargs):
        results.append(loop(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(regularity, "_analyzer", counting_analyzer)
    monkeypatch.setattr(regularity, "_decompose", recording_loop)
    monkeypatch.setattr(stablest, "_decompose", recording_loop)
    run()
    [result] = results
    assert result.iterations > 1
    assert len(calls) == result.iterations + 1


@pytest.mark.parametrize("run", [
    lambda: decompose(tribes(4, 4), RegularityParams(0.05, 0.3, 0.05)),
    lambda: decompose_homogeneous(majority(11), RegularityParams(0.05, 0.3, 0.05), 11),
    lambda: check_quasi_mist(to_zero_one(tribes(3, 4)), 0.5, RegularityParams(0.02, 0.3, 0.05), 0.6, 0.5),
], ids=["plain_tribes_4_4", "homogeneous_majority_11", "pipeline_tribes_3_4"])
def test_no_tree_walk_per_pass(monkeypatch, run):
    # a pass reads the energy, the bad mass and the depth from its level;
    # summing them over a walk of the tree took one walk per pass
    walks, results = [], []
    walk, loop = regularity.leaves, regularity._decompose

    def recording_loop(*args, **kwargs):
        monkeypatch.setattr(regularity, "leaves", lambda t: walks.append(t) or walk(t))
        results.append(loop(*args, **kwargs))
        monkeypatch.setattr(regularity, "leaves", walk)
        return results[-1]

    monkeypatch.setattr(regularity, "_decompose", recording_loop)
    monkeypatch.setattr(stablest, "_decompose", recording_loop)
    run()
    [result] = results
    assert result.iterations > 1
    assert walks == []
    assert not hasattr(regularity, "_tally")


@settings(max_examples=100, deadline=None)
@given(tables(max_n=8, exact=False), params, st.data())
def test_ledger_depths_are_the_tree_depths(case, p, data):
    # the loop counts its level's depth instead of walking the tree: a plain
    # pass adds one level, a homogeneous pass one per new query variable,
    # and a run stopped by var_cap keeps the depth it reached
    f, _ = case
    plain = decompose(f, p)
    assert plain.ledger.depths == list(range(plain.iterations + 1))
    assert plain.ledger.depths[-1] == tree_depth(plain.tree)
    homogeneous = decompose_homogeneous(f, p, data.draw(st.integers(0, f.n)))
    assert homogeneous.ledger.depths[-1] == tree_depth(homogeneous.tree)
    assert homogeneous.ledger.depths[-1] == len(homogeneous.homogeneous_vars)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 8), st.data())
def test_a_batch_over_different_free_sets_gives_each_rows_results(n, data):
    # rows of one depth split at different ranks in a plain pass; each row
    # gets exactly what it gets alone, but for its profile and Stab, whose
    # matrix products may block by the row count (on Boolean tables the
    # profile is exact all the same)
    m = data.draw(st.integers(1, n))
    count = data.draw(st.integers(1, min(6, 1 << (n - m))))  # a batch fits the product buffer
    frees = np.array([sorted(data.draw(st.permutations(range(n)))[:m]) for _ in range(count)])
    js = np.array([data.draw(st.sampled_from(free)) for free in frees.tolist()])
    elements = st.floats(-1.0, 1.0, allow_nan=False)
    rows = data.draw(arrays(np.float64, (count, 1 << m), elements=elements)) / 2.0 ** (m / 2)
    analyze = _analyzer(n, data.draw(st.sampled_from([0.1, 0.3, 1.0])), 1e-6)
    rest, children = _split_rows(rows, frees, js)
    sums, batch = analyze.influences(frees, rows, js), analyze(frees, rows)
    for r in range(count):
        one = slice(r, r + 1)
        rest_alone, children_alone = _split_rows(rows[one], frees[one], js[one])
        assert np.array_equal(rest[2 * r:2 * r + 2], rest_alone)
        assert same_bits(children[2 * r:2 * r + 2], children_alone)
        assert same_bits(sums[one], analyze.influences(frees[one], rows[one], js[one]))
        [alone] = analyze(frees[one], rows[one])
        assert (batch[r].mean, batch[r].var, batch[r].max_influence) == (alone.mean, alone.var, alone.max_influence)
        np.testing.assert_allclose(batch[r].profile, alone.profile, rtol=0.0, atol=FLOAT_TOL)
        assert close(batch[r].stab, alone.stab)


def test_analyzer_holds_three_buffers_of_2_to_the_n():
    # the product buffer and the influence weights (2^n doubles each) and
    # the half buffer (2^(n-1)), plus the degree sums' temporaries (about
    # 2 * 7/64 of 2^n doubles here) and ufunc buffers; a weight table per
    # rho would be a fourth 2^n
    n = 18
    subset_sizes(n)
    root = wht(random_pm_one(n, 5)).coeffs.reshape(1, -1)
    frees = free_rows(range(n))
    tracemalloc.start()
    try:
        analyze = _analyzer(n, 0.3, 1e-6)  # a bad root: its tie-break runs too
        assert analyze(frees, root)[0].bad(1e-6)
        analyze.influences(frees, root, np.array([3]))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * 8 * (1 << n)


@settings(max_examples=150, deadline=None)
@given(tables(exact=False), st.data())
def test_compact_leaf_tables_are_restrictions(case, data):
    f, _ = case
    t = singleton(f)
    for _ in range(data.draw(st.integers(0, 6))):
        splittable = [leaf for leaf, _ in leaves(t) if leaf.free]
        if not splittable:
            break
        leaf = data.draw(st.sampled_from(splittable))
        t = split_leaves(t, {leaf.id: data.draw(st.sampled_from(leaf.free))})
    final = leaves(t)
    assert sum(leaf.table.size for leaf, _ in final) == 1 << f.n
    assert same_bits(evaluate_table(t), f.values)
    for leaf, depth in final:
        assert leaf.table.size == 1 << (f.n - depth)
        assert not leaf.table.flags.writeable
        g = f
        for var, v in leaf.fixed.items():  # in path order
            g = restrict(g, var, v)
        assert same_bits(leaf.fn.values, g.values)
        assert leaf.fn.range_tag == g.range_tag


@settings(max_examples=60, deadline=None)
@given(tables(max_n=6, exact=False), params, st.booleans())
def test_final_leaf_tables_hold_2_to_the_n_values(case, p, homogeneous):
    f, _ = case
    result = decompose_homogeneous(f, p, f.n) if homogeneous else decompose(f, p)
    assert sum(leaf.table.size for leaf, _ in leaves(result.tree)) == 1 << f.n


def tree_rows(tree):
    return [(leaf.id, depth, sorted(leaf.fixed.items())) for leaf, depth in leaves(tree)]


def check_against_reference(result, want, p):
    assert tree_rows(result.tree) == tree_rows(want["tree"])
    assert [it for it, _ in result.ledger.history] == [it for it, _ in want["history"]]
    assert all(close(phi, want_phi) for (_, phi), (_, want_phi)
               in zip(result.ledger.history, want["history"]))
    assert result.bad_mass == want["bad_mass"]  # a sum of the same powers of 2
    assert result.iterations == want["iterations"]
    assert result.homogeneous_vars == want["query_vars"]
    assert result.exhausted == want["exhausted"]
    assert set(result.leaf_stats) == {leaf.id for leaf, _ in leaves(result.tree)}
    for leaf, _ in leaves(result.tree):
        coeffs = wht(leaf.fn).coeffs
        stats = result.leaf_stats[leaf.id]
        influences = mask_gather_influences(coeffs, p.delta)
        assert stats.mean == float(coeffs[0])
        assert close(stats.max_influence, float(influences.max()))
        assert stats.bad(p.eps) == (influences.max() > p.eps + INFLUENCE_SLACK)
        if stats.bad(p.eps):
            assert stats.var == int(influences.argmax())


@settings(max_examples=80, deadline=None)
@given(tables(max_n=6), params)
def test_decompose_matches_reference_driver(case, p):
    f, _ = case
    check_against_reference(decompose(f, p), reference_decompose(f, p), p)


@settings(max_examples=80, deadline=None)
@given(tables(max_n=6), params, st.data())
def test_decompose_homogeneous_matches_reference_driver(case, p, data):
    f, _ = case
    var_cap = data.draw(st.integers(0, f.n))
    check_against_reference(decompose_homogeneous(f, p, var_cap),
                            reference_decompose_homogeneous(f, p, var_cap), p)


@pytest.mark.parametrize("eps", [0.05, 0.02])
def test_tie_break_keeps_the_reference_trees(eps):
    # Within a tribe the influences are equal, and the compact sums break
    # those ties differently from the ambient ones on some bad leaves here
    f, p = tribes(3, 4), RegularityParams(eps, 0.3, 0.05)
    check_against_reference(decompose(f, p), reference_decompose(f, p), p)
    check_against_reference(decompose_homogeneous(f, p, f.n),
                            reference_decompose_homogeneous(f, p, f.n), p)


def eps_at(threshold: float) -> float:
    """An eps with eps + INFLUENCE_SLACK == threshold to the last bit."""
    eps = threshold - INFLUENCE_SLACK
    for _ in range(8):
        if eps + INFLUENCE_SLACK == threshold:
            return eps
        eps = np.nextafter(eps, np.inf if eps + INFLUENCE_SLACK < threshold else -np.inf)
    raise AssertionError(f"no eps reaches {threshold}")


@pytest.mark.parametrize("f, delta, below, bad", [
    # one top variable each; the compact fold sums random_pm_one(6, 0)'s top
    # influence one ulp above the ambient sum, and random_pm_one(5, 4)'s one
    # ulp below
    (random_pm_one(6, 0), 0.1, 0, False),
    (random_pm_one(5, 4), 0.3, 1, True),
], ids=["random_6_0_good", "random_5_4_bad"])
def test_threshold_decided_by_the_ambient_sums(f, delta, below, bad):
    coeffs = wht(f).coeffs
    top = mask_gather_influences(coeffs, delta).max()
    threshold = top
    for _ in range(below):
        threshold = np.nextafter(threshold, 0.0)
    p = RegularityParams(eps_at(threshold), delta, 0.05)
    weights = _influence_powers(delta, f.n)[subset_sizes(f.n)]
    compact = _fold_sums(((weights * coeffs) * coeffs).reshape(1, -1))
    assert compact.max() != top  # so the band decides this case
    [stats] = _analyzer(f.n, delta, p.eps)(free_rows(range(f.n)), coeffs.reshape(1, -1))
    assert stats.max_influence == top
    assert stats.bad(p.eps) == bad
    result = decompose(f, p)
    assert (result.iterations > 0) == bad
    check_against_reference(result, reference_decompose(f, p), p)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 9), st.data())
def test_compact_kernel_matches_power_and_mask_gather(n, data):
    free = tuple(sorted(data.draw(st.sets(st.integers(0, n - 1)))))
    m = len(free)
    r = data.draw(st.integers(1, 1 << (n - m)))  # a batch fits the product buffer
    elements = st.floats(-1.0, 1.0, allow_nan=False)
    rows = data.draw(arrays(np.float64, (r, 1 << m), elements=elements)) / 2.0 ** (m / 2)
    delta = data.draw(st.sampled_from([0.0, 0.1, 0.3, 1.0]))
    weights = _influence_powers(delta, m)[subset_sizes(m)]
    folded = _fold_sums((weights * rows) * rows)
    for row, row_influences in zip(rows, folded):
        want = mask_gather_influences(row, delta)
        assert np.all(np.abs(row_influences - want) <= FLOAT_TOL)
    eps = data.draw(st.sampled_from([1e-6, 0.01, 0.1]))
    analyze = _analyzer(n, delta, eps)
    for _ in range(2):  # the second run would see a stale buffer
        for row, stats in zip(rows, analyze(free_rows(free, r), rows)):
            ambient = ambient_spectrum(n, free, row)
            influences = mask_gather_influences(ambient, delta)
            assert stats.mean == row[0]
            assert close(stats.stab, power_stability(ambient, 1.0 - delta))
            assert close(stats.max_influence, influences.max())
            assert stats.bad(eps) == (influences.max() > eps + INFLUENCE_SLACK)
            if stats.bad(eps):
                assert stats.var == int(influences.argmax())


def split_points(f, tree):
    """(depth, variable, subfunction) of every internal node, in preorder.
    The node at depth d on a leaf's path is the path's first d steps, and
    step d is the variable it queries."""
    subfunctions = {(): f}  # by path prefix
    nodes = {}
    for leaf, _ in leaves(tree):
        path = tuple(leaf.fixed.items())
        for depth, (var, value) in enumerate(path):
            g = subfunctions[path[:depth]]
            nodes.setdefault(path[:depth], (depth, var, g))
            if path[:depth + 1] not in subfunctions:
                subfunctions[path[:depth + 1]] = restrict(g, var, value)
    return list(nodes.values())


@pytest.mark.parametrize("f", [tribes(4, 4), majority(9)] +
                         [random_pm_one(8, seed) for seed in (3, 17, 2024)],
                         ids=["tribes_4_4", "majority_9", "random_8_3", "random_8_17",
                              "random_8_2024"])
def test_energy_identity_pass_by_pass(f):
    # A good leaf is never split again, so pass k splits exactly the bad
    # leaves at depth k - 1: the internal nodes at that depth.
    p = RegularityParams(0.02, 0.3, 0.05)
    result = decompose(f, p)
    assert result.iterations >= 1
    splits = split_points(f, result.tree)
    assert max(depth for depth, _, _ in splits) == result.iterations - 1
    for k in range(1, result.iterations + 1):
        predicted = p.delta * sum(2.0 ** -depth * noisy_influence(g, var, p.delta)
                                  for depth, var, g in splits if depth == k - 1)
        gain = result.ledger.history[k][1] - result.ledger.history[k - 1][1]
        assert gain == pytest.approx(predicted, rel=0.0, abs=1e-12)


@pytest.mark.parametrize("driver", [decompose, lambda f, p: decompose_homogeneous(f, p, f.n)],
                         ids=["plain", "homogeneous"])
def test_energy_identity_guard_catches_drift(monkeypatch, driver):
    split = regularity._split_rows

    def drifting(rows, frees, js):
        rest, children = split(rows, frees, js)
        return rest, children * 1.001

    monkeypatch.setattr(regularity, "_split_rows", drifting)
    with pytest.raises(RuntimeError, match="internal error: .*restriction identity"):
        driver(majority(5), RegularityParams(0.05, 0.3, 0.05))
