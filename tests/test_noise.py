"""Noise stability, noisy influence, and the small-influence predicate."""

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
    all_noisy_influences,
    constant,
    derivative,
    dictator,
    has_small_noisy_influences,
    majority,
    noisy_influence,
    norm2,
    parity,
    random_pm_one,
    restrict,
    stability,
    stability_mc,
    stability_mc_detail,
    subset_sizes,
    tribes,
    wht,
)
from boolreg.noise import INFLUENCE_SLACK, expansion_influences
from oracles import brute_noisy_influence, brute_stability, mask_gather_influences


def test_stability_dictator():
    g = wht(dictator(3, 0))
    for rho in (0.0, 0.3, 0.5, 1.0):
        assert stability(g, rho) == pytest.approx(rho, abs=1e-15)


def test_stability_maj3_closed_form():
    g = wht(majority(3))
    for rho in np.linspace(0.0, 1.0, 11):
        assert stability(g, rho) == pytest.approx(0.75 * rho + 0.25 * rho ** 3, abs=1e-12)
    assert stability(g, 0.5) == pytest.approx(0.40625, abs=1e-15)


def test_stability_constant():
    g = wht(constant(4, 0.7))
    for rho in (0.0, 0.4, 1.0):
        assert stability(g, rho) == pytest.approx(0.49, abs=1e-12)


def test_stability_matches_kernel_oracle():
    rng = np.random.default_rng(31)
    for n in (2, 4, 6):
        f = BooleanFunction(n, rng.normal(size=1 << n))
        g = wht(f)
        for rho in (0.0, 0.25, 0.8, 1.0):
            assert stability(g, rho) == pytest.approx(brute_stability(f.values, rho), abs=1e-10)


def test_stability_range_and_monotonicity():
    rng = np.random.default_rng(37)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        f = BooleanFunction(n, rng.normal(size=1 << n))
        g = wht(f)
        values = [stability(g, rho) for rho in np.linspace(0.0, 1.0, 21)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
        assert all(-1e-12 <= v <= norm2(f) + 1e-9 for v in values)


def test_stability_rho_validation():
    g = wht(dictator(2, 0))
    with pytest.raises(ValueError):
        stability(g, -0.1)
    with pytest.raises(ValueError):
        stability(g, 1.1)


def test_stability_mc_rho_one_exact():
    assert stability_mc(dictator(2, 0), 1.0, 1000, seed=1) == 1.0


def test_stability_mc_dictator():
    est = stability_mc(dictator(3, 0), 0.6, 10 ** 6, seed=42)
    assert est == pytest.approx(0.6, abs=0.005)


def test_stability_mc_maj3():
    est = stability_mc(majority(3), 0.5, 10 ** 6, seed=42)
    assert est == pytest.approx(0.40625, abs=0.005)


def test_stability_mc_deterministic():
    a = stability_mc_detail(majority(3), 0.4, 50_000, seed=9)
    b = stability_mc_detail(majority(3), 0.4, 50_000, seed=9)
    assert a == b


def test_stability_mc_within_three_sigma():
    rng = np.random.default_rng(41)
    for _ in range(10):
        n = int(rng.integers(2, 8))
        f = BooleanFunction(n, rng.integers(0, 2, size=1 << n) * 2.0 - 1.0, PM_ONE)
        rho = float(rng.uniform(0.0, 1.0))
        exact = stability(wht(f), rho)
        est, stderr = stability_mc_detail(f, rho, 200_000, seed=int(rng.integers(1 << 30)))
        assert abs(est - exact) <= 3.0 * stderr + 1e-12


def test_stability_mc_validation():
    with pytest.raises(ValueError):
        stability_mc(dictator(2, 0), 0.5, 0, seed=1)


def test_noisy_influence_dictator():
    for delta in (0.0, 0.3, 1.0):
        assert noisy_influence(dictator(2, 0), 0, delta) == pytest.approx(1.0, abs=1e-15)


def test_noisy_influence_product():
    for delta in (0.0, 0.25, 0.9):
        assert noisy_influence(parity(2, [0, 1]), 0, delta) == pytest.approx(1.0 - delta, abs=1e-15)


def test_noisy_influence_maj3():
    for delta in (0.0, 0.2, 0.7):
        expected = 0.25 + 0.25 * (1.0 - delta) ** 2
        assert noisy_influence(majority(3), 0, delta) == pytest.approx(expected, abs=1e-15)
    assert noisy_influence(majority(3), 0, 0.0) == pytest.approx(0.5, abs=1e-15)


def test_noisy_influence_two_paths_agree():
    rng = np.random.default_rng(43)
    for _ in range(15):
        n = int(rng.integers(2, 9))
        f = BooleanFunction(n, rng.normal(size=1 << n))
        delta = float(rng.uniform(0.0, 1.0))
        for i in range(n):
            via_formula = noisy_influence(f, i, delta)
            via_derivative = stability(wht(derivative(f, i)), 1.0 - delta)
            assert abs(via_formula - via_derivative) <= 1e-12


def test_noisy_influence_matches_kernel_oracle():
    rng = np.random.default_rng(47)
    f = BooleanFunction(5, rng.normal(size=32))
    for i in (0, 4):
        for delta in (0.1, 0.6):
            assert noisy_influence(f, i, delta) == pytest.approx(
                brute_noisy_influence(f.values, i, delta), abs=1e-10)


def test_noisy_influence_validation():
    with pytest.raises(IndexError):
        noisy_influence(dictator(2, 0), 2, 0.5)
    with pytest.raises(ValueError):
        noisy_influence(dictator(2, 0), 0, 1.5)


def test_variable_indices_are_integers():
    # a float index is refused as split_leaves and evaluate refuse it, not
    # by numpy's indexing or by a shift; numpy integers are indices
    f = majority(5)
    for call in (lambda i: noisy_influence(f, i, 0.3), lambda i: restrict(f, i, 1),
                 lambda i: derivative(f, i)):
        for i in (2.5, 1.0, np.float64(1)):
            with pytest.raises(TypeError, match="integer"):
                call(i)
    assert noisy_influence(f, np.int64(2), 0.3) == noisy_influence(f, 2, 0.3)
    assert np.array_equal(restrict(f, np.int64(1), -1).values, restrict(f, 1, -1).values)
    assert np.array_equal(derivative(f, np.int32(4)).values, derivative(f, 4).values)


def test_has_small_constant_ok():
    verdict = has_small_noisy_influences(constant(3, 1.0), 0.01, 0.5)
    assert verdict.ok and verdict.violator is None


def test_has_small_dictator_violation():
    verdict = has_small_noisy_influences(dictator(3, 0), 0.5, 0.5)
    assert not verdict.ok
    assert verdict.violator == 0
    assert verdict.value == pytest.approx(1.0, abs=1e-15)


def test_has_small_parity10_ok():
    f = parity(10)
    influences = all_noisy_influences(f, 0.3)
    assert influences[0] == pytest.approx(0.7 ** 9, abs=1e-12)
    assert has_small_noisy_influences(f, 0.1, 0.3).ok


def test_has_small_tie_breaks_low_index():
    verdict = has_small_noisy_influences(parity(4), 0.1, 0.5)
    assert not verdict.ok and verdict.violator == 0


def test_has_small_validation():
    with pytest.raises(ValueError):
        has_small_noisy_influences(dictator(2, 0), 0.0, 0.5)


def test_has_small_rejects_nan():
    with pytest.raises(ValueError, match="eps must be positive, got nan"):
        has_small_noisy_influences(dictator(2, 0), float("nan"), 0.5)
    with pytest.raises(ValueError, match="delta must lie in"):
        has_small_noisy_influences(dictator(2, 0), 0.1, float("nan"))


def test_expansion_influences_rejects_delta_outside_0_1():
    # at delta = 1.5 the weights (-0.5)^(|S|-1) alternate in sign, and at
    # delta = -0.5 majority(5) got an influence of 1.063
    g = wht(majority(5))
    for delta in (1.5, -0.5, float("nan")):
        with pytest.raises(ValueError, match=rf"delta must lie in \[0, 1\], got {delta}"):
            expansion_influences(g, delta)


def check_decided_as_the_gather(f: BooleanFunction, eps: float, delta: float) -> None:
    # the verdict is the threshold decision on the mask-gather influences,
    # and the violator their argmax, ties to the lowest index
    influences = mask_gather_influences(wht(f).coeffs, delta)
    worst = int(influences.argmax())
    verdict = has_small_noisy_influences(f, eps, delta)
    assert verdict.ok == (not influences[worst] > eps + INFLUENCE_SLACK)
    if not verdict.ok:
        assert verdict.violator == worst
        assert abs(verdict.value - influences[worst]) <= 1e-12 * influences[worst]


@pytest.mark.parametrize("f", [majority(7), majority(9), majority(11), tribes(3, 4), tribes(4, 4)],
                         ids=["majority_7", "majority_9", "majority_11", "tribes_3_4", "tribes_4_4"])
@pytest.mark.parametrize("delta", [0.0, 0.1, 0.3, 1.0])
def test_has_small_decides_as_the_gather_on_symmetric_functions(f, delta):
    # symmetric variables tie exactly, so the fold sums alone could name
    # another violator (on majority(7) at delta = 0.1, variable 2 for 0)
    top = float(mask_gather_influences(wht(f).coeffs, delta).max())
    for eps in (0.01, 0.05, 0.2, top * (1.0 - 1e-10), top - INFLUENCE_SLACK, top * (1.0 + 1e-10)):
        check_decided_as_the_gather(f, eps, delta)


@st.composite
def small_tables(draw):
    n = draw(st.integers(1, 10))
    kind = draw(st.sampled_from([PM_ONE, ZERO_ONE, REAL]))
    elements = (st.floats(-1.0, 1.0, allow_nan=False) if kind == REAL
                else st.sampled_from((-1.0, 1.0) if kind == PM_ONE else (0.0, 1.0)))
    return BooleanFunction(n, draw(arrays(np.float64, 1 << n, elements=elements)), kind)


@settings(max_examples=150, deadline=None)
@given(small_tables(), st.sampled_from([0.01, 0.05, 0.1, 0.2]), st.sampled_from([0.0, 0.1, 0.3, 1.0]))
def test_has_small_decides_as_the_gather(f, eps, delta):
    check_decided_as_the_gather(f, eps, delta)


def test_has_small_holds_at_most_four_tables():
    # the int32 counts (half a table) and the analyzer's product buffer (2^n
    # doubles): 1.54 tables here, as all_noisy_influences holds; the degree
    # sums' temporaries and a half buffer took 2.23 tables, and a
    # 2^n weight table and a float64 spectrum 3.75
    n = 18
    f = random_pm_one(n, 5)
    subset_sizes(n)
    tracemalloc.start()
    try:
        assert not has_small_noisy_influences(f, 1e-6, 0.3).ok
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * 8 * (1 << n)
