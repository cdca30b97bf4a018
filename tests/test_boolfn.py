"""Core representation: transforms, restrictions, derivatives, table IO."""

import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boolreg import (
    PM_ONE,
    REAL,
    ZERO_ONE,
    BooleanFunction,
    FourierExpansion,
    derivative,
    dictator,
    infer_range_tag,
    inverse_wht,
    majority,
    mean,
    norm2,
    parity,
    read_table,
    restrict,
    subset_sizes,
    wht,
    write_table,
)
from boolreg import boolfn
from boolreg.boolfn import mask_of, mask_vars
from oracles import brute_wht, per_line_table_values, per_value_table_text


def rand_pm(rng, n):
    return BooleanFunction(n, rng.integers(0, 2, size=1 << n) * 2.0 - 1.0, PM_ONE)


def test_wht_dictator_n2():
    g = wht(dictator(2, 0))
    expected = np.zeros(4)
    expected[0b01] = 1.0
    np.testing.assert_allclose(g.coeffs, expected, atol=1e-15)


def test_wht_maj3():
    g = wht(majority(3))
    expected = np.zeros(8)
    expected[0b001] = expected[0b010] = expected[0b100] = 0.5
    expected[0b111] = -0.5
    np.testing.assert_allclose(g.coeffs, expected, atol=1e-15)
    # independent defining-sum transform agrees
    np.testing.assert_allclose(g.coeffs, brute_wht(majority(3).values), atol=1e-12)


def test_wht_constant_one():
    g = wht(BooleanFunction(3, np.ones(8), PM_ONE))
    assert g.coeffs[0] == pytest.approx(1.0, abs=1e-15)
    np.testing.assert_allclose(g.coeffs[1:], 0.0, atol=1e-15)


def test_wht_matches_brute_on_random():
    rng = np.random.default_rng(11)
    for n in (2, 3, 4, 5):
        f = BooleanFunction(n, rng.normal(size=1 << n))
        np.testing.assert_allclose(wht(f).coeffs, brute_wht(f.values), atol=1e-12)


def test_inverse_wht_zero():
    g = FourierExpansion(3, np.zeros(8))
    np.testing.assert_array_equal(inverse_wht(g).values, np.zeros(8))


def test_inverse_wht_constant_half():
    coeffs = np.zeros(4)
    coeffs[0] = 0.5
    np.testing.assert_allclose(inverse_wht(FourierExpansion(2, coeffs)).values, 0.5, atol=1e-15)


def test_roundtrip_maj3():
    f = majority(3)
    back = inverse_wht(wht(f))
    np.testing.assert_allclose(back.values, f.values, atol=1e-12)
    assert back.range_tag == REAL


def test_roundtrip_random():
    rng = np.random.default_rng(5)
    for n in (1, 4, 8):
        f = BooleanFunction(n, rng.normal(size=1 << n))
        np.testing.assert_allclose(inverse_wht(wht(f)).values, f.values, atol=1e-12)


def test_parseval_random():
    rng = np.random.default_rng(7)
    for n in range(1, 13):
        f = BooleanFunction(n, rng.normal(size=1 << n))
        g = wht(f)
        assert abs(float(np.sum(g.coeffs ** 2)) - norm2(f)) <= 1e-9 * max(1.0, norm2(f))


def test_restrict_product():
    f = parity(2, [0, 1])  # x1 * x2
    g = restrict(f, 0, 1)
    np.testing.assert_allclose(g.values, dictator(2, 1).values, atol=1e-15)
    assert g.n == 2 and g.range_tag == PM_ONE


def test_restrict_maj3_is_or_like():
    g = restrict(majority(3), 0, 1)
    for b in range(8):
        x2 = 1 - 2 * ((b >> 1) & 1)
        x3 = 1 - 2 * ((b >> 2) & 1)
        expected = -1.0 if (x2 == -1 and x3 == -1) else 1.0
        assert g.values[b] == expected


def test_restrict_irrelevant_coordinate():
    f = majority(3)
    once = restrict(f, 1, -1)
    twice = restrict(once, 1, 1)  # coordinate already irrelevant: no-op
    np.testing.assert_array_equal(twice.values, once.values)


def test_restrict_bad_args():
    f = majority(3)
    with pytest.raises(IndexError):
        restrict(f, 3, 1)
    with pytest.raises(ValueError):
        restrict(f, 0, 2)


def test_derivative_dictator():
    d = derivative(dictator(2, 0), 0)
    np.testing.assert_allclose(d.values, 1.0, atol=1e-15)
    assert d.range_tag == REAL


def test_derivative_product():
    d = derivative(parity(2, [0, 1]), 0)
    np.testing.assert_allclose(d.values, dictator(2, 1).values, atol=1e-15)


def test_derivative_maj3():
    # D_1 Maj3 = 1/2 - (1/2) x2 x3, read off the spectrum
    g = wht(derivative(majority(3), 0))
    expected = np.zeros(8)
    expected[0b000] = 0.5
    expected[0b110] = -0.5
    np.testing.assert_allclose(g.coeffs, expected, atol=1e-12)


def test_derivative_fourier_consistency():
    rng = np.random.default_rng(13)
    for n in (3, 5, 8):
        f = BooleanFunction(n, rng.normal(size=1 << n))
        fhat = wht(f)
        for i in range(n):
            dhat = wht(derivative(f, i)).coeffs
            for mask in range(1 << n):
                if (mask >> i) & 1:
                    assert abs(dhat[mask]) <= 1e-12
                else:
                    assert abs(dhat[mask] - fhat.coeffs[mask | (1 << i)]) <= 1e-12


def test_restriction_linearity():
    rng = np.random.default_rng(17)
    for n in (3, 6, 10):
        f = BooleanFunction(n, rng.normal(size=1 << n))
        fhat = wht(f).coeffs
        for i, v in ((0, 1), (n - 1, -1)):
            rhat = wht(restrict(f, i, v)).coeffs
            for mask in range(1 << n):
                if (mask >> i) & 1:
                    assert abs(rhat[mask]) <= 1e-12
                else:
                    assert abs(rhat[mask] - (fhat[mask] + v * fhat[mask | (1 << i)])) <= 1e-12


def test_restrict_derivative_commute():
    rng = np.random.default_rng(19)
    f = BooleanFunction(5, rng.normal(size=32))
    a = derivative(restrict(f, 2, -1), 4)
    b = restrict(derivative(f, 4), 2, -1)
    np.testing.assert_allclose(a.values, b.values, atol=1e-15)


def test_mean_norm2_examples():
    f = parity(2, [0, 1])
    assert mean(f) == pytest.approx(0.0, abs=1e-15)
    assert norm2(f) == pytest.approx(1.0, abs=1e-15)

    half = BooleanFunction(3, np.full(8, 0.5), ZERO_ONE)
    assert mean(half) == pytest.approx(0.5, abs=1e-15)
    assert norm2(half) == pytest.approx(0.25, abs=1e-15)

    assert mean(majority(3)) == pytest.approx(0.0, abs=1e-15)
    assert norm2(majority(3)) == pytest.approx(1.0, abs=1e-15)


def test_subset_sizes():
    sizes = subset_sizes(4)
    assert [sizes[0], sizes[0b1010], sizes[0b1111]] == [0, 2, 4]
    assert not sizes.flags.writeable
    for n in (1, 4, 9, 16):
        sizes = subset_sizes(n)
        assert sizes.dtype == np.uint8
        np.testing.assert_array_equal(sizes, np.bitwise_count(np.arange(1 << n)))


def test_mask_helpers():
    assert mask_of([3, 0], 4) == 0b1001
    assert mask_of([], 4) == 0
    assert mask_vars(0b1001) == [0, 3]
    assert mask_vars(0) == []
    for bad in ([4], [-1]):
        with pytest.raises(ValueError, match="out of range for n=4"):
            mask_of(bad, 4)
    with pytest.raises(ValueError):
        mask_vars(-1)


def test_validation():
    with pytest.raises(ValueError):
        BooleanFunction(0, np.ones(1))
    with pytest.raises(ValueError):
        BooleanFunction(25, np.ones(4))  # n cap precedes the length check
    with pytest.raises(ValueError):
        BooleanFunction(2, np.ones(3))
    with pytest.raises(ValueError):
        BooleanFunction(2, np.array([1.0, -1.0, 0.5, 1.0]), PM_ONE)
    with pytest.raises(ValueError):
        BooleanFunction(1, np.array([0.5, 1.5]), ZERO_ONE)
    with pytest.raises(ValueError):
        BooleanFunction(1, np.array([np.nan, 1.0]))
    with pytest.raises(ValueError):
        BooleanFunction(2, np.ones(4), "weird")


def test_values_are_frozen():
    f = majority(3)
    with pytest.raises(ValueError):
        f.values[0] = 7.0


def test_infer_range_tag():
    assert infer_range_tag(np.array([1.0, -1.0])) == PM_ONE
    assert infer_range_tag(np.array([0.0, 0.3, 1.0])) == ZERO_ONE
    assert infer_range_tag(np.array([1.5, 0.0])) == REAL


def test_table_io_roundtrip():
    rng = np.random.default_rng(23)
    f = BooleanFunction(4, rng.normal(size=16))
    buf = io.StringIO()
    write_table(f, buf)
    buf.seek(0)
    back = read_table(buf)
    assert back.n == 4
    np.testing.assert_array_equal(back.values, f.values)  # 17 digits round-trip doubles


def test_table_format():
    buf = io.StringIO()
    write_table(dictator(1, 0), buf)
    assert buf.getvalue() == "n=1\n1\n-1\n"


TABLE_ENTRIES = {
    PM_ONE: [-1.0, 1.0],
    ZERO_ONE: [0.0, 1.0, -0.0, 5e-324, 0.1, 1 / 3],
    REAL: [-0.0, 5e-324, 1e308, -1e308, 0.1, 1 / 3, -2.5e-7, 123456789.125],
}


@pytest.mark.parametrize("tag", [PM_ONE, ZERO_ONE, REAL])
@pytest.mark.parametrize("n", [3, 17])  # 2^17 lines are two formatting batches
def test_table_text_matches_per_value_formatting(tag, n):
    rng = np.random.default_rng(n)
    entries = TABLE_ENTRIES[tag]
    values = np.resize(np.array(entries), 1 << n)  # every entry appears
    values[len(entries):] = rng.choice(entries, size=values.size - len(entries))
    f = BooleanFunction(n, values, tag)
    buf = io.StringIO()
    write_table(f, buf)
    # line by line through numpy: pytest's diff of two 2^17-line strings takes minutes
    np.testing.assert_array_equal(buf.getvalue().split("\n"), per_value_table_text(f).split("\n"))


# Entries of the first and of the second batch of a 2^17-line table: a
# batch of -1.0, +0.0 and 1.0 only is written from a lookup, any other batch
# is formatted value by value
BATCH_ENTRIES = {
    "pm_one": ([-1.0, 1.0], [-1.0, 1.0]),
    "zero_one": ([0.0, 1.0], [0.0, 1.0]),
    "signs": ([-1.0, 0.0, 1.0], [-1.0, 0.0, 1.0]),
    "minus_zero": ([0.0, 1.0], [0.0, 1.0, -0.0]),
    "real": ([-1.0, 0.0, 1.0], [-1.0, 0.0, 1.0, 0.5, -2.5e-7]),
}


@pytest.mark.parametrize("kind", BATCH_ENTRIES)
def test_boolean_batches_are_written_as_formatted(kind):
    n = 17
    rng = np.random.default_rng(7)
    batches = []
    for entries in BATCH_ENTRIES[kind]:
        batch = rng.choice(entries, size=1 << (n - 1))
        batch[:len(entries)] = entries  # every entry appears
        batches.append(batch)
    f = BooleanFunction(n, np.concatenate(batches))
    buf = io.StringIO()
    write_table(f, buf)
    lines = buf.getvalue().split("\n")
    np.testing.assert_array_equal(lines, per_value_table_text(f).split("\n"))
    assert ("-0" in lines) == (kind == "minus_zero")


def test_table_read_infers_tag():
    buf = io.StringIO("n=1\n1\n-1\n")
    assert read_table(buf).range_tag == PM_ONE
    buf = io.StringIO("n=1\n0.25\n1\n")
    assert read_table(buf).range_tag == ZERO_ONE


def test_table_read_errors():
    with pytest.raises(ValueError):
        read_table(io.StringIO("k=1\n1\n-1\n"))
    with pytest.raises(ValueError):
        read_table(io.StringIO("n=2\n1\n-1\n"))
    with pytest.raises(ValueError):
        read_table(io.StringIO("n=1\n1\nfoo\n"))


def table_text(n, lines):
    return io.StringIO(f"n={n}\n" + "".join(f"{line}\n" for line in lines))


@pytest.mark.parametrize("n, lines, message", [
    (2, ["1", "-1"], "truth table truncated: expected 4 values, got 2"),
    (1, ["1", "foo"], "bad value on line 3: 'foo'"),
    (2, ["1", "", "1", "1"], "bad value on line 3: ''"),
    (2, ["1", " x ", "1"], "bad value on line 3: 'x'"),  # a bad value before the end
    (1, ["1", "inf"], "truth table contains non-finite entries"),
    # past the first batch of lines read at once
    (17, ["0.5"] * 70000 + ["nan?"], "bad value on line 70002: 'nan?'"),
    (17, ["0.5"] * 70000, "truth table truncated: expected 131072 values, got 70000"),
])
def test_table_read_messages(n, lines, message):
    with pytest.raises(ValueError) as info:
        read_table(table_text(n, lines))
    assert str(info.value) == message


# lines read in bulk (exactly 1, -1 or 0) and lines that float() reads,
# accepts or refuses
BULK_LINES = ["1", "-1", "0"]
OTHER_LINES = ["-0", " 1", "1 ", "+1", "0.5", "-1.0", "1e0", "\uff11", "1\r", "1_0", "inf", "", "  ", "x",
               "01", "--1", "-", "10", "-1 x", "\ud800"]


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4),
       st.lists(st.one_of(st.sampled_from(BULK_LINES), st.sampled_from(OTHER_LINES)), max_size=24),
       st.booleans(), st.integers(1, 40))
def test_table_read_matches_a_per_line_parse(n, lines, final_newline, block):
    body = "\n".join(lines) + ("\n" if final_newline and lines else "")
    expected = per_line_table_values(n, body)
    # a few characters per block put the block ends on every kind of line
    with mock.patch.object(boolfn, "_TABLE_BLOCK", block):
        try:
            got = read_table(io.StringIO(f"n={n}\n{body}")).values
        except ValueError as exc:
            got = str(exc)
    if isinstance(expected, str):
        assert got == expected
    else:
        assert isinstance(got, np.ndarray) and got.tobytes() == expected.tobytes()


def test_table_read_ignores_what_follows_the_table():
    f = read_table(table_text(1, [" 0.25 ", "1", "", "  "]))
    np.testing.assert_array_equal(f.values, [0.25, 1.0])


@pytest.mark.parametrize("lines, message", [
    (["1", "-1", "1", "1", "1"], "line 4 follows the last of the 2 values: '1'"),
    (["1", "-1", "", " trailing text "], "line 5 follows the last of the 2 values: 'trailing text'"),
])
def test_table_read_rejects_what_follows_the_table(lines, message):
    with pytest.raises(ValueError) as info:
        read_table(table_text(1, lines))
    assert str(info.value) == message
