"""The spectral leaf path: half-butterfly restriction, the leaf kernel over
the compact layout and its exact tie-break, and the drivers against the
earlier per-pass design (the same trees and decisions exactly, floats within
1e-12); and the compact leaf tables against chains of ``restrict``."""

import re
import tracemalloc
from fractions import Fraction
from unittest import mock

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
    parity,
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
from boolreg import boolfn, dtree, noise, regularity, stablest
from boolreg.dtree import _analysis
from boolreg.noise import (
    INFLUENCE_SLACK,
    _ambient_sums,
    _analyzer,
    _bad,
    _fold_sums,
    _gather_weights,
    _influence_powers,
    _powers,
    _weighted_squares,
    expansion_influences,
)
from boolreg.boolfn import _butterfly, _degree_weights
from oracles import (
    ambient_spectrum,
    cube,
    exact_influences,
    exact_profile,
    exact_stability,
    half_buffer_sum,
    mask_gather_influences,
    pairwise_sum,
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
    """``count`` rows of the free variables ``free``, as the analyzer takes
    them."""
    return np.tile(np.array(free, dtype=np.int64), (count, 1))


@settings(max_examples=150, deadline=None)
@given(tables(exact=False), st.data())
def test_half_butterfly_is_the_restricted_spectrum(case, data):
    f, exact = case
    path = data.draw(st.lists(st.integers(0, f.n - 1), unique=True, max_size=3))
    signs = data.draw(st.lists(st.sampled_from([1, -1]), min_size=len(path), max_size=len(path)))
    frees, rows = free_rows(range(f.n)), wht(f).coeffs.reshape(1, -1)
    analyze = _analyzer(f.n, 0.3, 1e-6)
    g = f
    for var, v in zip(path, signs):
        frees, children, _ = analyze.split(frees, rows, np.array([var]))
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
            stats = analyze(free_rows(spectrum_free), compact.reshape(1, -1))
            influences = mask_gather_influences(ambient, delta)
            assert close(stats.stabs[0], power_stability(ambient, 1.0 - delta))
            assert stats.variables[0] == int(influences.argmax())
            assert close(stats.max_influences[0], influences.max())


@pytest.mark.parametrize("n", [3, 11, 16, 22])
def test_power_table_matches_full_power(n):
    sizes = subset_sizes(n)
    wide = sizes.astype(np.int64)
    for rho in (0.0, 0.1, 1.0 / 3.0, 0.5, 1.0 - 0.3, 0.95, 1.0):
        assert same_bits(_powers(rho, n)[sizes], np.float64(rho) ** wide)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 13), st.data())
def test_gathered_weights_are_the_fancy_index(n, data):
    # every m = 0 .. n, below the gather's row width and above it; the
    # powers are any doubles, -0.0 and subnormals included
    powers = data.draw(arrays(np.float64, n + 1, elements=st.floats(allow_nan=False)))
    for m in range(n + 1):
        out = np.full(1 << m, np.nan)
        assert _gather_weights(powers, m, out) is out
        assert same_bits(out, powers[subset_sizes(m)])


@pytest.mark.parametrize("n", [3, 11, 16, 22])
def test_upper_influence_weights_are_the_stability_powers(n):
    # analyze.split weights ghat(S)^2, S containing j, over m free
    # variables by the influence powers from the first on, gathered over
    # the other m - 1: (1-delta)^(|S|-1), with the bits of the Stab_{1-delta}
    # power of S - {j} that the energy identity is stated with
    for delta in (0.0, 0.1, 1.0 / 3.0, 0.3, 0.5, 1.0):
        powers = _influence_powers(delta, n)
        for m in sorted({1, n // 2, n}):
            want = _powers(1.0 - delta, n)[subset_sizes(m - 1)]
            assert same_bits(_gather_weights(powers[1:], m - 1, np.empty(1 << (m - 1))), want)


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
    # the profiles are padded to n + 1 columns: W^k = 0 past a leaf's m
    result = decompose_homogeneous(f, p, f.n) if homogeneous else decompose(f, p)
    stats = result.leaf_stats
    for (leaf, depth), padded_profile, stab in zip(leaves(result.tree), stats.profiles.tolist(), stats.stabs):
        want = exact_profile(leaf.table.ravel())
        profile = padded_profile[:f.n - depth + 1]
        assert len(padded_profile) == f.n + 1 and padded_profile[len(profile):] == [0.0] * depth
        assert [w.hex() for w in profile] == [float(w).hex() for w in want]
        assert sum(profile) == Fraction(int((leaf.table * leaf.table).sum()), leaf.table.size)
        assert close(stab, float(sum(w * Fraction(1.0 - p.delta) ** k for k, w in enumerate(want))))


@settings(max_examples=80, deadline=None)
@given(boolean_tables, params, st.booleans())
def test_bad_leaf_mass_and_dot_read_the_drivers_leaf_stats(f, p, homogeneous):
    # the driver's statistics are, field by field, a fresh analysis of its
    # tree, bit for bit but for the Stabs: a matrix-vector product whose
    # kernel blocks rows, so that their last bits depend on the batch a leaf
    # is analysed in (a level in the driver, a depth's final leaves here)
    result = decompose_homogeneous(f, p, f.n) if homogeneous else decompose(f, p)
    fresh = _analysis(result.tree, p.eps, p.delta)
    assert batch_bits(result.leaf_stats._replace(stabs=fresh.stabs)) == batch_bits(fresh)
    np.testing.assert_allclose(result.leaf_stats.stabs, fresh.stabs, rtol=0.0, atol=FLOAT_TOL)
    assert bad_leaf_mass(result.tree, p.eps, p.delta) == result.bad_mass
    labels = re.findall(r'label="L(\d+)\\n[^"]*\\nmax_inf=([^"]*)"', to_dot(result.tree, p.delta))
    assert dict(labels) == {str(leaf.id): f"{top:.6g}"
                            for leaf, top in zip(result.tree.leaves, result.leaf_stats.max_influences)}


def addressing(n: int) -> BooleanFunction:
    """The 4-bit addressing function: index bits 0-3 give an address a, and
    f = 1 - 2 * (bit 4 + a of the index); bits past n - 1 read 0."""
    x = np.arange(1 << n)
    return BooleanFunction(n, 1.0 - 2.0 * ((x >> (4 + (x & 15))) & 1), PM_ONE)


@pytest.mark.parametrize("build, tables", [(addressing, 2.552), (lambda n: dictator(n, 0), 2.035)],
                         ids=["addressing", "dictator"])
def test_plain_driver_peak(build, tables):
    # f is built untraced.  The product buffer is a table of 2^n doubles,
    # and the root's int32 counts and their split half of one each: 2
    # tables, and the tie scratch half of one more once a tie reaches the
    # ambient sums, as on the addressing function but never on a dictator.
    # The drivers peak at 2.552 and 2.035 tables here; a 2^n weight table
    # took one more, and float64 spectra another
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

        counted.split = analyze.split
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
    # summing them over a walk of the tree took one walk per pass.  The
    # tree is split as arrays, so the loop builds no Leaf object at all
    built, results = [], []
    init, loop = dtree.Leaf.__init__, regularity._decompose

    def recording_loop(*args, **kwargs):
        monkeypatch.setattr(dtree.Leaf, "__init__", lambda leaf, *at: built.append(at) or init(leaf, *at))
        results.append(loop(*args, **kwargs))
        monkeypatch.setattr(dtree.Leaf, "__init__", init)
        return results[-1]

    monkeypatch.setattr(regularity, "_decompose", recording_loop)
    monkeypatch.setattr(stablest, "_decompose", recording_loop)
    run()
    [result] = results
    assert result.iterations > 1
    assert built == []
    assert not hasattr(regularity, "leaves") and not hasattr(regularity, "_tally")


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
    rest, children, sums = analyze.split(frees, rows, js)
    batch = analyze(frees, rows)
    for r in range(count):
        one = slice(r, r + 1)
        rest_alone, children_alone, sums_alone = analyze.split(frees[one], rows[one], js[one])
        assert np.array_equal(rest[2 * r:2 * r + 2], rest_alone)
        assert same_bits(children[2 * r:2 * r + 2], children_alone)
        assert same_bits(sums[one], sums_alone)
        alone = analyze(frees[one], rows[one])
        assert (batch.means[r], batch.variables[r], batch.max_influences[r]) == \
            (alone.means[0], alone.variables[0], alone.max_influences[0])
        np.testing.assert_allclose(batch.profiles[r], alone.profiles[0], rtol=0.0, atol=FLOAT_TOL)
        assert close(batch.stabs[r], alone.stabs[0])


def test_analyzer_holds_its_product_and_half_buffers():
    # the product buffer (2^n doubles) and the tie scratch (2^(n-1)), plus
    # the degree sums' temporaries (about 2 * 7/64 of 2^n doubles here) and
    # ufunc buffers: 1.58 tables; a 2^n weight table would be one more.  The
    # children that the split returns (a float64 table here) count on top
    n = 18
    subset_sizes(n)
    root = wht(tribes(3, 6)).coeffs.reshape(1, -1)
    frees = free_rows(range(n))
    tracemalloc.start()
    try:
        analyze = _analyzer(n, 0.3, 1e-6)  # a bad root whose variables all tie: its tie-break runs too
        assert _bad(analyze(frees, root).max_influences[0], 1e-6)
        _, children, _ = analyze.split(frees, root, np.array([3]))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.8 * 8 * (1 << n) + children.nbytes


def batch_bits(batch) -> list:
    """Each array of an analysis or split batch as its dtype, shape and bytes."""
    return [(a.dtype, a.shape, a.tobytes()) for a in batch]


def padded(f: BooleanFunction, n: int) -> np.ndarray:
    """f's table on n >= f.n variables, the low n - f.n of them dummies."""
    return np.repeat(f.values, 1 << (n - f.n))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 7), st.sampled_from([0.1, 0.3]), st.data())
def test_a_reused_analyzer_gives_a_fresh_ones_bits(n, delta, data):
    # one analyzer through interleaved analyses and split batches of
    # different widths, each call's results bit for bit a fresh analyzer's:
    # the product buffer and the tie scratch hold nothing between calls, as
    # each chunk of the scratch is zeroed again before its rows are written.
    # A parity root ties on every variable (at n = 1 its one influence, 1.0,
    # sits at the threshold), so the ambient sums run
    eps = 1e-6 if n > 1 else eps_at(1.0)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    pool = [parity(n).values, padded(majority(n - 1 + n % 2), n), random_pm_one(n, 0).values,
            rng.integers(-1, 2, 1 << n).astype(float), rng.normal(size=1 << n)]
    if n >= 4:
        pool.append(padded(tribes(2, n // 2), n))
    calls = [("analyze", [(0, {})])]  # the parity root
    for _ in range(data.draw(st.integers(1, 5))):
        kind = data.draw(st.sampled_from(["analyze", "split"]))
        depth = data.draw(st.integers(0, n - (kind == "split")))
        rows = []
        for _ in range(data.draw(st.integers(1, min(3, 1 << depth)))):
            fixed = data.draw(st.permutations(range(n)))[:depth]
            rows.append((data.draw(st.integers(0, len(pool) - 1)),
                         {v: data.draw(st.integers(0, 1)) for v in fixed}))
        calls.insert(data.draw(st.integers(0, len(calls))), (kind, rows))
    analyze, ambient = _analyzer(n, delta, eps), 0
    for kind, rows in calls:
        frees = np.array([[v for v in range(n) if v not in bits] for _, bits in rows],
                         dtype=np.int64).reshape(len(rows), -1)
        tables = [cube(pool[k], n, bits) for k, bits in rows]
        spectra = np.array([_butterfly(table).reshape(-1) / table.size for table in tables])
        if all(np.array_equal(table, np.rint(table)) for table in tables):  # as int32 counts
            spectra = np.rint(spectra * 2.0 ** n).astype(np.int32)
        if kind == "analyze":
            with mock.patch.object(noise, "_ambient_sums", wraps=noise._ambient_sums) as sums:
                got = analyze(frees, spectra)
            ambient += sums.call_count
            want = _analyzer(n, delta, eps)(frees, spectra)
            assert batch_bits(got) == batch_bits(want)
        else:
            js = np.array([data.draw(st.sampled_from(free)) for free in frees.tolist()])
            got = analyze.split(frees, spectra, js)
            want = _analyzer(n, delta, eps).split(frees, spectra, js)
            assert batch_bits(got) == batch_bits(want)
    assert ambient > 0


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12), st.sampled_from([0.1, 0.3, 1.0]), st.booleans(), st.data())
def test_ambient_sums_are_the_half_buffer_sums(n, delta, counts, data):
    # every pair's batched sum is bit for bit the scatter of its masks into a
    # zeroed 2^(n-1) buffer and its numpy sum: half buffers under 8 entries,
    # within one 128-entry block and longer, any fixed set, 1 to m candidates
    # per row and several rows of one width per batch, chunked in the scratch
    m = data.draw(st.integers(1, n))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    frees = np.array([sorted(data.draw(st.permutations(range(n)))[:m])
                      for _ in range(data.draw(st.integers(1, 4)))], dtype=np.int64)
    rows = (rng.integers(-(1 << n), (1 << n) + 1, (len(frees), 1 << m)).astype(np.int32) if counts
            else rng.normal(size=(len(frees), 1 << m)) * 2.0 ** -rng.integers(0, 30, (len(frees), 1)))
    pairs = [(slot, k) for slot in range(len(frees))
             for k in sorted(data.draw(st.permutations(range(m)))[:data.draw(st.integers(1, m))])]
    assert_half_buffer_sums(n, delta, frees, rows, pairs)


@pytest.mark.parametrize("n, fixed", [(15, {7, 9, 12}), (15, {0, 3, 8, 10, 11, 14}),
                                      (16, {7, 8, 9, 10, 11, 12}), (16, {1, 12, 13})])
def test_long_ambient_sums_are_the_half_buffer_sums(n, fixed):
    # half buffers of 2^14 and 2^15 doubles, beyond numpy's 8192-entry
    # reduction buffer, with fixed variables at positions 7-12, which drop
    # out of the batched rows only if numpy sums long runs as their halves
    rng = np.random.default_rng(n + len(fixed))
    frees = np.array([[v for v in range(n) if v not in fixed]] * 2, dtype=np.int64)
    m = frees.shape[1]
    rows = rng.normal(size=(2, 1 << m)) * 10.0 ** rng.integers(-8, 8, (2, 1 << m))
    assert_half_buffer_sums(n, 0.3, frees, rows, [(slot, k) for slot in range(2) for k in range(m)])


def assert_half_buffer_sums(n: int, delta: float, frees: np.ndarray, rows: np.ndarray, pairs) -> None:
    m = frees.shape[1]
    products = np.empty(rows.shape)
    _weighted_squares(rows, _gather_weights(_influence_powers(delta, n), m, np.empty(1 << m)), products)
    slots, ranks = (np.array(column, dtype=np.int64) for column in zip(*pairs))
    sums = _ambient_sums(n, frees, products, slots, ranks, np.empty(1 << (n - 1)))
    want = [half_buffer_sum(n, frees[slot].tolist(), products[slot], k) for slot, k in pairs]
    assert [v.hex() for v in sums.tolist()] == [v.hex() for v in want]


def test_numpy_sums_in_the_order_the_ambient_rule_assumes():
    # _ambient_sums drops a half buffer's zeros because numpy sums float64
    # runs in a fixed pairwise order and a row of sum(axis=1) as its 1-D sum;
    # terms of mixed magnitudes round differently in any other order
    rng = np.random.default_rng(23)
    premise = "a numpy change broke the premise of the ambient tie rule (noise._ambient_sums)"
    for p in range(17):  # 2^13 and longer: beyond numpy's 8192-entry reduction buffer
        for _ in range(8 if p < 13 else 2):
            height = int(rng.integers(1, 9 if p < 13 else 3))
            rows = rng.random((height, 1 << p)) * 10.0 ** rng.integers(-8, 8, (1, 1 << p))
            for row, total in zip(rows, rows.sum(axis=1).tolist()):
                assert float(row.sum()) == 0.0 + pairwise_sum(row.tolist()), f"length 2^{p}: {premise}"
                assert total == float(row.sum()), f"rows of length 2^{p}: {premise}"


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
    stats = result.leaf_stats
    assert {len(a) for a in stats} == {len(result.tree.leaves)}
    for leaf, mean, var, top in zip(result.tree.leaves, stats.means, stats.variables, stats.max_influences):
        coeffs = wht(leaf.fn).coeffs
        influences = mask_gather_influences(coeffs, p.delta)
        assert mean == float(coeffs[0])
        assert close(top, float(influences.max()))
        assert _bad(top, p.eps) == (influences.max() > p.eps + INFLUENCE_SLACK)
        if _bad(top, p.eps):
            assert var == int(influences.argmax())


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
    stats = _analyzer(f.n, delta, p.eps)(free_rows(range(f.n)), coeffs.reshape(1, -1))
    assert stats.max_influences[0] == top
    assert _bad(stats.max_influences[0], p.eps) == bad
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
        stats = analyze(free_rows(free, r), rows)
        for row, mean, stab, var, top in zip(rows, stats.means, stats.stabs, stats.variables, stats.max_influences):
            ambient = ambient_spectrum(n, free, row)
            influences = mask_gather_influences(ambient, delta)
            assert mean == row[0]
            assert close(stab, power_stability(ambient, 1.0 - delta))
            assert close(top, influences.max())
            assert _bad(top, eps) == (influences.max() > eps + INFLUENCE_SLACK)
            if _bad(top, eps):
                assert var == int(influences.argmax())


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


def drift_splits(monkeypatch, drift):
    """Make the drivers' analyzers hand each split's children through drift."""
    analyzer = regularity._analyzer

    def drifting_analyzer(*args):
        analyze = analyzer(*args)
        split = analyze.split

        def drifting(frees, rows, js):
            rest, children, influences = split(frees, rows, js)
            return rest, drift(children), influences

        analyze.split = drifting
        return analyze

    monkeypatch.setattr(regularity, "_analyzer", drifting_analyzer)


@pytest.mark.parametrize("driver", [decompose, lambda f, p: decompose_homogeneous(f, p, f.n)],
                         ids=["plain", "homogeneous"])
def test_energy_identity_guard_catches_drift(monkeypatch, driver):
    # float64 rows, as on tables that are not Boolean-valued: a drift of 0.1%
    monkeypatch.setattr(boolfn, "_counts", lambda f: None)
    drift_splits(monkeypatch, lambda children: children * 1.001)
    with pytest.raises(RuntimeError, match="internal error: .*restriction identity"):
        driver(majority(5), RegularityParams(0.05, 0.3, 0.05))


@pytest.mark.parametrize("driver", [decompose, lambda f, p: decompose_homogeneous(f, p, f.n)],
                         ids=["plain", "homogeneous"])
def test_energy_identity_guard_catches_one_count_of_drift(monkeypatch, driver):
    # int32 counts, as on Boolean-valued tables: one child's top coefficient
    # is one count (2^-11) off, which moves the energy by about 3e-6
    def drift(children):
        assert children.dtype == np.int32
        children[:1, -1] += 1  # a round may split no leaf
        return children

    drift_splits(monkeypatch, drift)
    with pytest.raises(RuntimeError, match="internal error: .*restriction identity"):
        driver(majority(11), RegularityParams(0.05, 0.3, 0.05))
