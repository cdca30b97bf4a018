"""The table kernels against their index-gather and radix-2 references, bit
for bit: the blocked butterfly (with small blocks and strips, so that the
strip stages run on small tables), wht and inverse_wht, restrict and
derivative, and the parity and tribes families; and the memory each of
them holds at its peak."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from boolreg import (
    REAL,
    BooleanFunction,
    FourierExpansion,
    derivative,
    dictator,
    inverse_wht,
    parity,
    restrict,
    tribes,
    wht,
)
from boolreg import boolfn
from oracles import brute_derivative, gather_parity, gather_restrict, gather_tribes, radix2_butterfly


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@st.composite
def kernel_tables(draw, max_n=12):
    """A table of 2^n doubles, n <= max_n: reals with magnitudes from 1e-5
    to 1e5, or a {-1,+1} or {0,1} table."""
    size = 1 << draw(st.integers(0, max_n))
    kind = draw(st.sampled_from(["real", "pm_one", "zero_one"]))
    if kind == "real":
        mantissas = draw(arrays(np.float64, size, elements=st.floats(-1.0, 1.0, allow_nan=False)))
        exponents = draw(arrays(np.int64, size, elements=st.integers(-5, 5)))
        return mantissas * 10.0 ** exponents
    values = (-1.0, 1.0) if kind == "pm_one" else (0.0, 1.0)
    return draw(arrays(np.float64, size, elements=st.sampled_from(values)))


def real_table(rng, n):
    return rng.normal(size=1 << n) * 10.0 ** rng.integers(-5, 6, size=1 << n)


@settings(max_examples=300, deadline=None)
@given(kernel_tables(), st.integers(1, 4), st.data())
def test_blocked_butterfly_is_the_radix2_loop_bit_for_bit(values, block_bits, data):
    strip_bits = data.draw(st.integers(0, block_bits))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(boolfn, "_BLOCK_BITS", block_bits)
        mp.setattr(boolfn, "_STRIP_BITS", strip_bits)
        out = boolfn._butterfly(values)
    assert same_bits(out, radix2_butterfly(values))


@pytest.mark.parametrize("n", [18, 19, 20])
def test_shipped_blocking_is_the_radix2_loop_bit_for_bit(n):
    values = real_table(np.random.default_rng(n), n)
    assert n > boolfn._BLOCK_BITS  # the strip stages run
    assert same_bits(boolfn._butterfly(values), radix2_butterfly(values))


@settings(max_examples=100, deadline=None)
@given(kernel_tables(max_n=10).filter(lambda values: values.size > 1))
def test_wht_and_inverse_are_the_radix2_loop_bit_for_bit(values):
    n = values.size.bit_length() - 1
    g = wht(BooleanFunction(n, values, REAL))
    assert same_bits(g.coeffs, radix2_butterfly(values) / values.size)
    assert same_bits(inverse_wht(g).values, radix2_butterfly(g.coeffs))


@settings(max_examples=100, deadline=None)
@given(kernel_tables(max_n=10).filter(lambda values: values.size > 1))
def test_restrict_and_derivative_are_the_gathers_bit_for_bit(values):
    n = values.size.bit_length() - 1
    f = BooleanFunction(n, values, REAL)
    for i in range(n):
        for v in (1, -1):
            assert same_bits(restrict(f, i, v).values, gather_restrict(values, i, v))
        assert same_bits(derivative(f, i).values, brute_derivative(values, i))


def test_transforms_adopt_their_fresh_arrays():
    f = BooleanFunction(3, np.arange(8.0), REAL)
    for arr in (wht(f).coeffs, inverse_wht(wht(f)).values, restrict(f, 1, 1).values,
                derivative(f, 1).values, parity(3).values, tribes(2, 2).values):
        assert arr.flags.owndata and not arr.flags.writeable
    # a caller's writable array is still copied
    values = np.arange(8.0)
    g = BooleanFunction(3, values, REAL)
    values[0] = 7.0
    assert g.values[0] == 0.0
    coeffs = np.ones(8)
    h = FourierExpansion(3, coeffs)
    coeffs[0] = 0.0
    assert h.coeffs[0] == 1.0


@pytest.mark.parametrize("w, s", [(w, s) for w in range(1, 17) for s in range(1, 17 // w + 1)])
def test_tribes_is_the_index_construction_bit_for_bit(w, s):
    assert same_bits(tribes(w, s).values, gather_tribes(w, s))


def test_parity_is_the_popcount_construction_bit_for_bit():
    rng = np.random.default_rng(11)
    for n in range(1, 17):
        cases = [list(range(n)), []] + [[int(i) for i in np.nonzero(rng.integers(0, 2, n))[0]]
                                        for _ in range(4)]
        for subset in cases:
            mask = sum(1 << i for i in subset)
            assert same_bits(parity(n, subset).values, gather_parity(n, mask))
        assert same_bits(parity(n).values, gather_parity(n, (1 << n) - 1))
        i = int(rng.integers(0, n))
        assert same_bits(dictator(n, i).values, gather_parity(n, 1 << i))


def peak_doubles(fn) -> float:
    """The peak traced allocation of fn(), in doubles."""
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 8


def test_kernels_hold_one_table_at_their_peak():
    n = 20
    f = BooleanFunction(n, np.random.default_rng(3).normal(size=1 << n), REAL)
    g = wht(f)
    for name, fn in [("wht", lambda: wht(f)), ("inverse_wht", lambda: inverse_wht(g)),
                     ("restrict", lambda: restrict(f, 5, -1)), ("derivative", lambda: derivative(f, 5))]:
        assert peak_doubles(fn) <= 1.5 * (1 << n), name


def test_families_hold_one_table_at_their_peak():
    n = 20
    for name, fn in [("dictator", lambda: dictator(n, 0)), ("tribes", lambda: tribes(4, 5))]:
        assert peak_doubles(fn) <= 1.5 * (1 << n), name
