"""The table kernels against their index-gather and radix-2 references, bit
for bit: the blocked butterfly (with small blocks and strips, so that the
strip stages run on small tables), wht and inverse_wht, restrict and
derivative, the families and ``to_zero_one``; and the memory each of them,
and the influence kernels, holds at its peak."""

import contextlib
import io
import math
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
    all_noisy_influences,
    constant,
    derivative,
    dictator,
    infer_range_tag,
    inverse_wht,
    majority,
    parity,
    random_pm_one,
    read_table,
    restrict,
    to_zero_one,
    tribes,
    wht,
)
from boolreg import boolfn, families, stablest
from boolreg.noise import expansion_influences
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


@contextlib.contextmanager
def blocking(block_bits: int, strip_bits: int, workers: int):
    """The butterfly with the given block and strip sizes, shared among
    ``workers`` from the smallest table on."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(boolfn, "_BLOCK_BITS", block_bits)
        mp.setattr(boolfn, "_STRIP_BITS", strip_bits)
        mp.setattr(boolfn, "_WORKERS", workers)
        mp.setattr(boolfn, "_PARALLEL_ENTRIES", 1)
        yield


@settings(max_examples=300, deadline=None)
@given(kernel_tables(), st.integers(1, 4), st.data())
def test_blocked_butterfly_is_the_radix2_loop_bit_for_bit(values, block_bits, data):
    strip_bits = data.draw(st.integers(0, block_bits))
    want = radix2_butterfly(values)
    for workers in (1, 2, 3):  # with shares of every table, down to one entry
        with blocking(block_bits, strip_bits, workers):
            out = boolfn._butterfly(values)
        assert same_bits(out, want), workers


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 8), st.integers(1, 9), st.integers(1, 5), st.data())
def test_a_batch_of_tables_is_transformed_column_by_column(n, tables, block_bits, data):
    # dtree._spectra transforms a depth's leaf tables as the columns of one
    # array; each column gets the radix-2 loop's bits, whatever the count of
    # tables (not a power of two too) and the blocking it leads to
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    columns = np.array([real_table(rng, n) for _ in range(tables)])
    strip_bits = data.draw(st.integers(0, block_bits))
    for workers in (1, 2, 3):
        with blocking(block_bits, strip_bits, workers):
            out = boolfn._butterfly(columns.T, tables=tables)
        assert out.flags.c_contiguous
        for column, values in zip(out.T, columns):
            assert same_bits(np.ascontiguousarray(column), radix2_butterfly(values)), workers


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


def test_transforms_adopt_their_fresh_arrays(monkeypatch):
    handed = []

    def record(arr):
        handed.append(arr)
        return handover(arr)

    handover = boolfn._handover
    for module in (boolfn, families, stablest):
        monkeypatch.setattr(module, "_handover", record)
    f = BooleanFunction(3, np.arange(8.0), REAL)
    ghat = wht(f)
    for name, build in [("wht", lambda: wht(f).coeffs), ("inverse_wht", lambda: inverse_wht(ghat).values),
                        ("restrict", lambda: restrict(f, 1, 1).values),
                        ("derivative", lambda: derivative(f, 1).values),
                        ("parity", lambda: parity(3).values), ("tribes", lambda: tribes(2, 2).values),
                        ("majority", lambda: majority(3).values),
                        ("random_pm_one", lambda: random_pm_one(3, 0).values),
                        ("constant", lambda: constant(3, 0.5).values),
                        ("to_zero_one", lambda: to_zero_one(parity(3)).values),
                        ("read_table", lambda: read_table(io.StringIO("n=1\n1\n-1\n")).values)]:
        handed.clear()
        arr = build()
        # the stored table is the very buffer handed over, not a copy of it
        assert arr.ctypes.data == handed[-1].ctypes.data and arr.size == handed[-1].size, name
        assert arr.flags.owndata and not arr.flags.writeable, name
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


@pytest.mark.parametrize("n", [1, 2, 5, 16, 17, 18])
def test_families_are_their_one_line_expressions_bit_for_bit(n):
    # n > 16: random_pm_one draws its table in more than one chunk
    assert n <= 16 or 1 << n > families._CHUNK
    for seed in (0, 1, 12345):
        f = random_pm_one(n, seed)
        assert same_bits(f.values, np.random.default_rng(seed).integers(0, 2, size=1 << n) * 2.0 - 1.0)
        assert same_bits(to_zero_one(f).values, (1.0 - f.values) / 2.0)
    for c in (1.0, -1.0, 0.0, -0.0, 0.25, 0.5, 1.5, -2.0, -3.5):
        g = constant(n, c)
        assert same_bits(g.values, np.full(1 << n, c))
        assert g.range_tag == infer_range_tag(np.full(1 << n, c)), c  # the tag of a scan
    for c in (math.nan, math.inf):  # tagged as a scan tags them, then refused
        assert infer_range_tag(np.float64(c)) == infer_range_tag(np.full(1 << n, c))
        with pytest.raises(ValueError, match="non-finite"):
            constant(n, c)
    if n % 2:
        assert same_bits(majority(n).values,
                         np.where(2 * boolfn.subset_sizes(n) < n, 1.0, -1.0))


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
    f = random_pm_one(n, 1)
    for name, fn in [("dictator", lambda: dictator(n, 0)), ("tribes", lambda: tribes(4, 5)),
                     ("random_pm_one", lambda: random_pm_one(n, 2)), ("constant", lambda: constant(n, 0.5)),
                     ("to_zero_one", lambda: to_zero_one(f))]:
        assert peak_doubles(fn) <= 1.5 * (1 << n), name
    assert peak_doubles(lambda: majority(n - 1)) <= 1.5 * (1 << (n - 1)), "majority"


def test_influences_hold_a_spectrum_and_one_table_at_their_peak():
    # the int32 counts (half a table) and the array that the weights are
    # gathered into and the products formed in: 1.51 tables, and 1.01 from a
    # spectrum; a 2^n weight table and a float64 spectrum took 2.13
    n = 20
    f = random_pm_one(n, 1)
    assert peak_doubles(lambda: all_noisy_influences(f, 0.3)) <= 1.7 * (1 << n)
    g = wht(f)
    assert peak_doubles(lambda: expansion_influences(g, 0.3)) <= 1.05 * (1 << n)
