"""Tables of -1.0, +0.0 and 1.0 transform and decompose as int32 counts at
scale 2^-n: every result has the bits of the float64 path, which the other
tables keep, and the drivers hold half the bytes per spectrum."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from boolreg import (
    PM_ONE,
    REAL,
    ZERO_ONE,
    BooleanFunction,
    RegularityParams,
    all_noisy_influences,
    check_quasi_mist,
    decompose,
    decompose_homogeneous,
    decomposition_report,
    dictator,
    parity,
    random_pm_one,
    subset_sizes,
    to_zero_one,
    wht,
)
from boolreg import boolfn
from boolreg.noise import (
    _analyzer,
    _coefficients,
    _influence_powers,
    expansion_influences,
    has_small_noisy_influences,
)

# (range tag, entries); -0.0 and fractions keep the float path
KINDS = {
    "pm_one": (PM_ONE, (-1.0, 1.0)),
    "zero_one": (ZERO_ONE, (0.0, 1.0)),
    "signs": (REAL, (-1.0, 0.0, 1.0)),
    "minus_zero": (ZERO_ONE, (0.0, 1.0, -0.0)),
    "fractional": (ZERO_ONE, (0.0, 0.25, 0.5, 1.0)),
}

params = st.builds(
    RegularityParams,
    eps=st.sampled_from([0.01, 0.05, 0.1, 0.2]),
    delta=st.sampled_from([0.1, 0.3, 0.5, 1.0]),
    gamma=st.sampled_from([0.05, 0.1, 0.25]),
)


@st.composite
def tables(draw):
    n = draw(st.integers(1, 10))
    tag, entries = KINDS[draw(st.sampled_from(sorted(KINDS)))]
    return BooleanFunction(n, draw(arrays(np.float64, 1 << n, elements=st.sampled_from(entries))), tag)


def result_text(r) -> str:
    """Every output of a driver run, floats by their repr (their bits)."""
    return repr([[(leaf.id, leaf.fixed) for leaf in r.tree.leaves], r.tree.next_leaf_id, r.iterations,
                 r.ledger.history, r.ledger.depths, r.bad_mass, r.homogeneous_vars, r.exhausted,
                 [(a.dtype.str, a.tolist()) for a in r.leaf_stats]])


def outputs(f: BooleanFunction, p: RegularityParams, var_cap: int, rho: float) -> list:
    plain, homogeneous = decompose(f, p), decompose_homogeneous(f, p, var_cap)
    out = [wht(f).coeffs.tobytes(), all_noisy_influences(f, p.delta).tobytes(),
           repr([has_small_noisy_influences(f, eps, p.delta) for eps in (0.01, 0.1, 0.3)]),
           result_text(plain), result_text(homogeneous),
           json.dumps(decomposition_report(plain, p, False)),
           json.dumps(decomposition_report(homogeneous, p, True))]
    g = {PM_ONE: to_zero_one, ZERO_ONE: lambda f: f}.get(f.range_tag)
    if g is not None:
        out.append(repr(check_quasi_mist(g(f), rho, p, 0.6, 0.5)))
    return out


def boolean(values: np.ndarray) -> bool:
    return all(v in (-1.0, 1.0) or (v == 0.0 and not np.signbit(v)) for v in values.tolist())


@settings(max_examples=200, deadline=None)
@given(tables(), params, st.data())
def test_counts_give_the_float_paths_bits(f, p, data):
    counts = boolfn._counts(f)
    assert (counts is not None) == boolean(f.values)
    if counts is not None:
        assert (counts * 2.0 ** -f.n).tobytes() == wht(f).coeffs.tobytes()
    var_cap = data.draw(st.integers(0, f.n))
    rho = data.draw(st.sampled_from([0.0, 0.3, 0.9]))
    counted = outputs(f, p, var_cap, rho)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(boolfn, "_counts", lambda f: None)
        assert outputs(f, p, var_cap, rho) == counted


def test_counts_that_could_round_below_the_normal_range_are_widened():
    # 1 - delta = 15 * 2^-53: the degree-21 weight is below 2^(2n - 1022),
    # so the analyzer computes from the coefficients the counts stand for
    n, delta = 21, 1.0 - 15 * 2.0 ** -53
    f = random_pm_one(n, 4)
    frees = np.arange(n).reshape(1, -1)
    counts, coeffs = boolfn._counts(f).reshape(1, -1), wht(f).coeffs.reshape(1, -1)
    analyze = _analyzer(n, delta, 1e-6)
    assert [a.tobytes() for a in analyze(frees, counts)] == [a.tobytes() for a in analyze(frees, coeffs)]
    js = np.array([7])
    assert analyze.split(frees, counts, js)[2].tobytes() == analyze.split(frees, coeffs, js)[2].tobytes()


@settings(max_examples=100, deadline=None)
@given(tables(), st.sampled_from([0.0, 0.3, 0.999, 1.0 - 2.0 ** -45, 1.0]))
def test_influences_of_the_counts_have_the_coefficients_bits(f, delta):
    assert all_noisy_influences(f, delta).tobytes() == expansion_influences(wht(f), delta).tobytes()


@pytest.mark.parametrize("delta, widened", [(0.0, False), (1.0, False), (1.0 - 2.0 ** -45, False),
                                            (1.0 - 2.0 ** -53, True)])
def test_influences_of_the_counts_at_n_20(delta, widened):
    # at 1 - delta = 2^-53 the degree-20 weight, 2^-1007, is below 2^(2n -
    # 1022), so the counts are widened to coefficients first (a power of two
    # as the weight, it leaves every product exact either way)
    n = 20
    f = random_pm_one(n, 6)
    counts = boolfn._counts(f)
    assert (_coefficients(counts, _influence_powers(delta, n), n)[1] == 1.0) == widened
    assert all_noisy_influences(f, delta).tobytes() == expansion_influences(wht(f), delta).tobytes()


def test_influences_of_high_degree_alone_are_widened():
    # f = chi_{x1..x20} * g(x21, x22, x23): every set in f's spectrum has
    # degree >= 20, so the influences of x21..x23 are sums of degree >= 21
    # terms, each below the normal range, and 1 - delta = 1e-15 has mantissa
    # bits that unwidened counts would round off there
    n, delta = 23, 1.0 - 1e-15
    g = np.array([-1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, -1.0])  # over index bits 20..22
    f = BooleanFunction(n, parity(n, list(range(20))).values * np.repeat(g, 1 << 20), PM_ONE)
    ghat = wht(f)
    assert all_noisy_influences(f, delta).tobytes() == expansion_influences(ghat, delta).tobytes()
    frees, js = np.arange(n).reshape(1, -1), np.array([21])
    analyze = _analyzer(n, delta, 1e-6)
    _, _, from_counts = analyze.split(frees, boolfn._counts(f).reshape(1, -1), js)
    assert from_counts.tobytes() == analyze.split(frees, ghat.coeffs.reshape(1, -1), js)[2].tobytes()


def peak_tables(fn, n: int) -> float:
    """The peak traced allocation of fn(), in tables of 2^n doubles."""
    subset_sizes(n)
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / (8 << n)


def test_plain_driver_holds_int32_spectra():
    # the product buffer (a table), and the root counts and their split
    # (half a table each): 2 tables, as no tie allocates the tie scratch
    # (half a table); a 2^n weight table took one more, and float64 spectra
    # another
    f = dictator(18, 0)
    assert peak_tables(lambda: decompose(f, RegularityParams(0.05, 0.3, 0.05)), 18) <= 2.6


def test_has_small_analyses_the_counts():
    # the product buffer and the counts, as all_noisy_influences holds
    # them: 1.54 tables, with no degree sums and, as no tie reaches the
    # ambient sums, no tie scratch; with those it took 2.23 tables, and a
    # 2^n weight table and a float64 spectrum took 1.5 more
    f = random_pm_one(18, 5)
    assert peak_tables(lambda: has_small_noisy_influences(f, 1e-6, 0.3), 18) <= 1.6

