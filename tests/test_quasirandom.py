"""Quasirandomness scans, the influence lower bound, and mean-shift search."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from boolreg import (
    BooleanFunction,
    BudgetExceededError,
    all_noisy_influences,
    constant,
    degree_cap,
    dictator,
    influence_quasirandom_bound,
    is_quasirandom,
    majority,
    max_mean_shift,
    mean,
    parity,
    random_pm_one,
    subset_sizes,
    wht,
)
from oracles import brute_restriction_mean, exact_max_mean_shift, per_subset_max_mean_shift


def test_degree_cap():
    assert degree_cap(0.5) == 2
    assert degree_cap(0.1) == 10
    assert degree_cap(1.0) == 1
    assert degree_cap(1.0 / 3.0) == 3
    with pytest.raises(ValueError):
        degree_cap(0.0)


def test_parity2_witness():
    v = is_quasirandom(wht(parity(2)), 0.9, 0.5)
    assert not v.ok
    assert v.witness_mask == 0b11
    assert v.witness_value == pytest.approx(1.0, abs=1e-15)


def test_parity11_low_degree_clean():
    v = is_quasirandom(wht(parity(11)), 1e-9, 0.1)  # cap 10 < degree 11
    assert v.ok


def test_witness_is_max_magnitude_lowest_mask():
    coeffs = np.zeros(8)
    coeffs[0b001] = 0.4
    coeffs[0b010] = -0.6
    coeffs[0b100] = 0.6
    from boolreg import FourierExpansion
    v = is_quasirandom(FourierExpansion(3, coeffs), 0.5, 0.5)
    assert v.witness_mask == 0b010 and v.witness_value == pytest.approx(-0.6)


def test_verdict_matches_brute_scan():
    rng = np.random.default_rng(79)
    for _ in range(20):
        n = int(rng.integers(3, 11))
        f = random_pm_one(n, int(rng.integers(1 << 30)))
        delta = float(rng.choice([1.0, 0.5, 1.0 / 3.0, 0.25]))
        eps = float(rng.uniform(0.0, 0.3))
        cap = degree_cap(delta)
        coeffs = wht(f).coeffs
        sizes = subset_sizes(n)
        violating = [m for m in range(1, 1 << n)
                     if sizes[m] <= cap and abs(coeffs[m]) > eps]
        v = is_quasirandom(wht(f), eps, delta)
        assert v.ok == (not violating)
        if violating:
            best = max(abs(coeffs[m]) for m in violating)
            assert abs(coeffs[v.witness_mask]) == pytest.approx(best, abs=0)
            assert v.witness_mask == min(m for m in violating if abs(coeffs[m]) == best)


def test_influence_bound_product():
    bound = influence_quasirandom_bound(parity(2), [0, 1], 0.5)
    assert bound == pytest.approx(0.5, abs=1e-15)
    assert all_noisy_influences(parity(2), 0.5)[0] == pytest.approx(0.5, abs=1e-15)


def test_influence_bound_dictator():
    for delta in (0.3, 0.9):
        assert influence_quasirandom_bound(dictator(2, 0), [0], delta) == pytest.approx(1.0)


def test_influence_bound_accepts_mask():
    assert influence_quasirandom_bound(parity(2), 0b11, 0.5) == pytest.approx(0.5)


def test_influence_bound_never_exceeds_influence():
    rng = np.random.default_rng(83)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        f = BooleanFunction(n, rng.normal(size=1 << n))
        delta = float(rng.choice([1.0, 0.5, 1.0 / 3.0, 0.25]))
        size = int(rng.integers(1, degree_cap(delta) + 1))
        if size > n:
            continue
        subset = sorted(rng.choice(n, size=size, replace=False).tolist())
        bound = influence_quasirandom_bound(f, subset, delta)
        influences = all_noisy_influences(f, delta)
        for i in subset:
            assert bound <= influences[i] + 1e-12


def test_influence_bound_validation():
    with pytest.raises(ValueError):
        influence_quasirandom_bound(parity(3), [], 0.5)
    with pytest.raises(ValueError):
        influence_quasirandom_bound(parity(3), [0, 1, 2], 0.5)  # |S|=3 > cap 2


def test_quasirandom_thresholds_reject_nan():
    nan = float("nan")
    with pytest.raises(ValueError, match="delta must be positive, got nan"):
        degree_cap(nan)
    g = wht(parity(3, [0, 1]))
    with pytest.raises(ValueError, match="eps must be nonnegative, got nan"):
        is_quasirandom(g, nan, 0.5)
    with pytest.raises(ValueError, match="delta must be positive, got nan"):
        is_quasirandom(g, 0.1, nan)
    with pytest.raises(ValueError, match="delta must be positive, got nan"):
        influence_quasirandom_bound(parity(3), [0], nan)


def test_influence_bound_transforms_once(monkeypatch):
    import boolreg.boolfn

    calls = []
    butterfly = boolreg.boolfn._butterfly
    monkeypatch.setattr(boolreg.boolfn, "_butterfly", lambda values, *args, **kwargs:
                        calls.append(values.size) or butterfly(values, *args, **kwargs))
    f = random_pm_one(10, 3)
    bound = influence_quasirandom_bound(f, [2, 7], 0.3)
    assert calls == [1 << 10]
    coeff = wht(f).coeffs[(1 << 2) | (1 << 7)]
    assert bound == pytest.approx(0.7 * coeff * coeff, rel=1e-15, abs=0.0)


def test_max_mean_shift_constant():
    restriction, shift = max_mean_shift(constant(3, 1.0), 2)
    assert restriction == {}
    assert shift == 0.0


def test_max_mean_shift_product():
    restriction, shift = max_mean_shift(parity(2), 2)
    assert shift == pytest.approx(1.0)
    assert len(restriction) == 2


def test_max_mean_shift_maj3():
    restriction, shift = max_mean_shift(majority(3), 1)
    assert shift == pytest.approx(0.5)
    assert restriction == {0: 1}  # lexicographically first among the six ties


def test_max_mean_shift_matches_enumeration_oracle():
    rng = np.random.default_rng(89)
    f = BooleanFunction(4, rng.normal(size=16))
    _, shift = max_mean_shift(f, 2)
    base = mean(f)
    best = 0.0
    for i in range(4):
        for j in range(4):
            if i >= j:
                continue
            for vi in (1, -1):
                for vj in (1, -1):
                    best = max(best, abs(brute_restriction_mean(f.values, {i: vi, j: vj}) - base))
    for i in range(4):
        for vi in (1, -1):
            best = max(best, abs(brute_restriction_mean(f.values, {i: vi}) - base))
    assert shift == pytest.approx(best, abs=1e-12)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 12).flatmap(lambda n: st.tuples(
           st.sampled_from([(-1.0, 1.0), (0.0, 1.0)]).flatmap(
               lambda kind: arrays(np.float64, 1 << n, elements=st.sampled_from(kind))),
           st.integers(0, min(3, n)))))
def test_max_mean_shift_matches_per_subset_search_on_boolean_tables(case):
    # every mean is exact, and distinct shifts differ by at least 2^-25 relative
    values, k = case
    f = BooleanFunction(values.size.bit_length() - 1, values)
    restriction, shift = max_mean_shift(f, k)
    want_restriction, want_shift = per_subset_max_mean_shift(f, k)
    assert restriction == want_restriction
    assert shift.hex() == want_shift.hex()


def symmetric_real(n: int, rng) -> BooleanFunction:
    """A real function of the number of -1 inputs: every variable ties."""
    return BooleanFunction(n, rng.normal(size=n + 1)[np.bitwise_count(np.arange(1 << n))])


@pytest.mark.parametrize("seed", range(12))
def test_max_mean_shift_matches_exact_search_on_real_tables(seed):
    # seeded tables, so that distinct shifts are far apart; the exact ties
    # are x_i = +1 against x_i = -1, always, and across all variables of a
    # symmetric function
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 9))
    tables = [BooleanFunction(n, rng.normal(size=1 << n)), symmetric_real(n, rng)]
    for f in tables:
        for k in range(min(n, 3 if n <= 6 else 2) + 1):
            restriction, shift = max_mean_shift(f, k)
            want_restriction, want_shift = exact_max_mean_shift(f.values, k)
            assert restriction == want_restriction
            assert abs(Fraction(shift) - want_shift) <= Fraction(1e-12)


def test_max_mean_shift_tie_of_opposite_values_goes_to_plus():
    # the per-subset search let rounding decide: here it picked x_6 = -1
    f = BooleanFunction(6, np.random.default_rng(0).normal(size=64))
    assert per_subset_max_mean_shift(f, 1)[0] == {5: -1}
    assert max_mean_shift(f, 1)[0] == exact_max_mean_shift(f.values, 1)[0] == {5: 1}


def test_max_mean_shift_budget():
    with pytest.raises(BudgetExceededError):
        max_mean_shift(random_pm_one(24, 1), 12)


def test_restriction_mean_lemma_both_directions():
    rng = np.random.default_rng(97)
    for _ in range(40):
        n = int(rng.integers(3, 11))
        f = random_pm_one(n, int(rng.integers(1 << 30)))
        delta = float(rng.choice([1.0, 0.5, 1.0 / 3.0, 0.25]))
        k = min(degree_cap(delta), n)
        coeffs = wht(f).coeffs
        sizes = subset_sizes(n)
        in_range = (sizes >= 1) & (sizes <= k)
        eps = float(np.max(np.abs(coeffs[in_range]))) if in_range.any() else 0.0
        _, shift = max_mean_shift(f, k)
        # quasirandom at its own threshold => restrictions barely move the mean
        assert is_quasirandom(wht(f), eps, delta).ok
        assert shift <= 2.0 ** k * eps + 1e-12
        # small max shift => quasirandom at that shift
        assert is_quasirandom(wht(f), shift + 1e-12, delta).ok
