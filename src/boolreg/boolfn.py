"""Dense representation of functions on the hypercube and their spectra.

A function f : {-1,1}^n -> R is stored as a table of length 2^n.  Table
index b encodes the point x with

    x_i = +1  when bit i of b is 0,
    x_i = -1  when bit i of b is 1.

Every module in this package inherits this convention; the parity of a
coordinate set S then evaluates as (-1)^popcount(b & S), which makes the
Walsh-Hadamard butterfly and all Fourier bookkeeping index-compatible.

Variable indices are 0-based throughout the library.  User-facing output
(CLI reports, DOT labels) renders variable i as ``x<i+1>``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import IO, Iterable

import numpy as np

from .errors import PreconditionError

PM_ONE = "pm_one"
ZERO_ONE = "zero_one"
REAL = "real"
RANGE_TAGS = (PM_ONE, ZERO_ONE, REAL)

MAX_VARS = 24
MEAN_SQUARE_TOL = 1e-9

_READ_CHUNK = 1 << 16  # table lines parsed per batch


def check_arity(n: int) -> None:
    """Refuse a variable count outside [1, MAX_VARS], before anything of
    2^n entries is allocated."""
    if not 1 <= n <= MAX_VARS:
        raise ValueError(f"variable count must be in [1, {MAX_VARS}], got {n}")


@lru_cache(maxsize=None)
def subset_sizes(n: int) -> np.ndarray:
    """Read-only uint8 array of popcounts for all masks 0 .. 2^n - 1."""
    sizes = np.zeros(1 << n, dtype=np.uint8)
    for i in range(n):
        sizes[1 << i: 1 << (i + 1)] = sizes[: 1 << i] + 1
    sizes.setflags(write=False)
    return sizes


def _freeze(values: Iterable[float]) -> np.ndarray:
    """A read-only float64 copy of the values; a read-only float64 array
    that owns its data is adopted as it is."""
    if (isinstance(values, np.ndarray) and values.dtype == np.float64
            and values.flags.owndata and not values.flags.writeable):
        return values
    arr = np.array(values, dtype=np.float64, copy=True)
    arr.setflags(write=False)
    return arr


def _handover(arr: np.ndarray) -> np.ndarray:
    """Mark a fresh array read-only, for a constructor to adopt."""
    arr.setflags(write=False)
    return arr


def infer_range_tag(values: np.ndarray) -> str:
    """Classify a value table: exact {-1,+1}, within [0,1], or general real."""
    if np.all(np.isin(values, (-1.0, 1.0))):
        return PM_ONE
    if np.all((values >= 0.0) & (values <= 1.0)):
        return ZERO_ONE
    return REAL


@dataclass(frozen=True, eq=False)
class BooleanFunction:
    """A real-valued function on {-1,1}^n as a dense table of length 2^n.

    ``range_tag`` records the intended codomain: ``pm_one`` means every
    entry is exactly -1 or +1, ``zero_one`` means every entry lies in
    [0,1], ``real`` makes no promise.  Instances are immutable; the value
    table is stored read-only.
    """

    n: int
    values: np.ndarray
    range_tag: str = REAL

    def __post_init__(self):
        check_arity(self.n)
        if self.range_tag not in RANGE_TAGS:
            raise ValueError(f"unknown range tag {self.range_tag!r}")
        arr = _freeze(self.values)
        if arr.ndim != 1 or arr.size != 1 << self.n:
            raise ValueError(f"value table must have length 2^{self.n}, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("value table contains non-finite entries")
        if self.range_tag == PM_ONE and not np.all(np.isin(arr, (-1.0, 1.0))):
            raise ValueError("range tag pm_one requires every entry in {-1, +1}")
        if self.range_tag == ZERO_ONE and not np.all((arr >= 0.0) & (arr <= 1.0)):
            raise ValueError("range tag zero_one requires every entry in [0, 1]")
        object.__setattr__(self, "values", arr)

    @property
    def size(self) -> int:
        return 1 << self.n

    def require_unit_mean_square(self) -> None:
        """Raise when E[f^2] exceeds 1 beyond the shared tolerance."""
        ms = norm2(self)
        if ms > 1.0 + MEAN_SQUARE_TOL:
            raise PreconditionError(f"mean square E[f^2] = {ms} exceeds 1")


@dataclass(frozen=True, eq=False)
class FourierExpansion:
    """Coefficient table indexed by subset masks: bit i of S set means i in S."""

    n: int
    coeffs: np.ndarray

    def __post_init__(self):
        check_arity(self.n)
        arr = _freeze(self.coeffs)
        if arr.ndim != 1 or arr.size != 1 << self.n:
            raise ValueError(f"coefficient table must have length 2^{self.n}")
        object.__setattr__(self, "coeffs", arr)


_BLOCK_BITS = 16  # the low stages run on contiguous blocks of 2^16 doubles (512 KiB)
_STRIP_BITS = 12  # the high stages run on strips of 2^12 columns (32 KiB rows)


def _stages(x: np.ndarray, buf: np.ndarray) -> None:
    """Every radix-2 stage along axis 0 of x, in place, with buf (x's shape)
    as the other half of a ping-pong pair.

    A stage writes row 2k plus row 2k+1 to row k and row 2k minus row 2k+1
    to row k + rows/2.  That combines the rows differing in the lowest bit
    of the current row index and rotates the index right by one bit, so
    stage t combines the rows differing in bit t of the original index, and
    after all log2(rows) stages every row is back in its place.
    """
    half = x.shape[0] >> 1
    src, dst = x, buf
    for _ in range(x.shape[0].bit_length() - 1):
        np.add(src[0::2], src[1::2], out=dst[:half])
        np.subtract(src[0::2], src[1::2], out=dst[half:])
        src, dst = dst, src
    if src is not x:
        np.copyto(x, src)


def _butterfly(values: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform, O(n 2^n), into one fresh
    float64 array: out[S] = sum_b values[b] * (-1)^popcount(b & S).

    The stages are blocked for the cache.  With b = min(n, _BLOCK_BITS), the
    low b stages (index bits 0 .. b-1) run on each contiguous block of 2^b
    entries in turn; the high n - b stages run on the (2^(n-b), 2^b) view
    of the table, one strip of columns at a time.  The only other memory is
    one scratch array of max(2^b, 2^(n-b) * strip width) entries.

    Radix-2 keeps every bit.  Each stage maps a pair (u, v) of entries that
    differ in one index bit to (u + v, u - v), and the stages run in bit
    order 0 .. n-1 for every entry, so each output is the result of the
    same sequence of float64 adds and subtracts as the textbook in-place
    butterfly (h = 1, 2, 4, ...), whatever the blocking: the output is
    bit-identical to it on every input, real tables included.
    """
    a = np.array(values, dtype=np.float64)
    n = a.size.bit_length() - 1
    b = min(n, _BLOCK_BITS)
    rows = 1 << (n - b)
    width = 1 << min(b, _STRIP_BITS)
    scratch = np.empty(max(1 << b, rows * width))
    grid = a.reshape(rows, 1 << b)
    low = scratch[:1 << b].reshape(-1, 1)
    for block in grid:
        _stages(block.reshape(-1, 1), low)
    if rows > 1:
        high = scratch[:rows * width].reshape(rows, width)
        for c in range(0, 1 << b, width):
            _stages(grid[:, c:c + width], high)
    return a


def wht(f: BooleanFunction) -> FourierExpansion:
    """Walsh-Hadamard transform: coefficient at mask S is E[f * parity_S]."""
    a = _butterfly(f.values)
    np.divide(a, f.size, out=a)
    return FourierExpansion(f.n, _handover(a))


def inverse_wht(g: FourierExpansion) -> BooleanFunction:
    """Evaluate the expansion back to a value table; range tag becomes real."""
    return BooleanFunction(g.n, _handover(_butterfly(g.coeffs)), REAL)


def restrict(f: BooleanFunction, i: int, v: int) -> BooleanFunction:
    """Fix coordinate i to v in {-1,+1}, keeping the ambient arity n.

    The result ignores bit i of the input index entirely, so restricting
    again on i is a no-op apart from the recorded value.
    """
    _check_index(f, i)
    if v not in (-1, 1):
        raise ValueError(f"restriction value must be +1 or -1, got {v!r}")
    pairs = f.values.reshape(-1, 2, 1 << i)
    out = np.empty(f.size)
    out.reshape(pairs.shape)[...] = pairs[:, :1] if v == 1 else pairs[:, 1:]
    return BooleanFunction(f.n, _handover(out), f.range_tag)


def derivative(f: BooleanFunction, i: int) -> BooleanFunction:
    """Directional derivative along coordinate i.

    (D_i f)(x) = (f with x_i := +1  minus  f with x_i := -1) / 2, stored on
    the same ambient cube; the output does not depend on bit i.
    """
    _check_index(f, i)
    pairs = f.values.reshape(-1, 2, 1 << i)
    out = np.empty(f.size)
    # each difference is formed on both halves: copying one half of out to
    # the other would make numpy buffer the overlapping source
    np.subtract(pairs[:, :1], pairs[:, 1:], out=out.reshape(pairs.shape))
    np.divide(out, 2.0, out=out)
    return BooleanFunction(f.n, _handover(out), REAL)


def mean(f: BooleanFunction) -> float:
    """E[f], the empty-set Fourier coefficient."""
    return float(np.mean(f.values))


def norm2(f: BooleanFunction) -> float:
    """E[f^2], the squared 2-norm under the uniform measure."""
    return float(np.mean(f.values * f.values))


def _check_index(f: BooleanFunction, i: int) -> None:
    if not 0 <= i < f.n:
        raise IndexError(f"variable index {i} out of range for n={f.n}")


def mask_of(indices: Iterable[int], n: int) -> int:
    """The bitmask of 0-based variable indices, each in [0, n)."""
    mask = 0
    for i in indices:
        if not 0 <= i < n:
            raise ValueError(f"variable index {i} out of range for n={n}")
        mask |= 1 << i
    return mask


def mask_vars(mask: int) -> list[int]:
    """The 0-based variables of a nonnegative bitmask, ascending."""
    if mask < 0:
        raise ValueError(f"mask must be nonnegative, got {mask}")
    return [i for i in range(mask.bit_length()) if (mask >> i) & 1]


# --- truth-table text format -------------------------------------------------
#
# First line "n=<k>", then exactly 2^k lines, one value per line in
# increasing index order; only blank lines may follow.  Writers emit 17
# significant digits so tables round-trip exactly.

def write_table(f: BooleanFunction, fp: IO[str]) -> None:
    fp.write(f"n={f.n}\n")
    for v in f.values:
        fp.write(f"{v:.17g}\n")


def read_table(fp: IO[str]) -> BooleanFunction:
    header = fp.readline().strip()
    if not header.startswith("n="):
        raise ValueError(f"expected header 'n=<k>', got {header!r}")
    try:
        n = int(header[2:])
    except ValueError as exc:
        raise ValueError(f"malformed variable count in header {header!r}") from exc
    check_arity(n)
    arr = np.empty(1 << n)
    done = 0
    while done < arr.size:
        want = min(_READ_CHUNK, arr.size - done)
        lines = list(itertools.islice(fp, want))
        try:
            arr[done:done + len(lines)] = np.fromiter(map(float, lines), np.float64, len(lines))
        except ValueError:
            for k, line in enumerate(lines):
                try:
                    float(line)
                except ValueError as exc:
                    raise ValueError(f"bad value on line {done + k + 2}: {line.strip()!r}") from exc
            raise
        if len(lines) < want:
            raise ValueError(f"truth table truncated: expected {arr.size} values, "
                             f"got {done + len(lines)}")
        done += want
    for k, line in enumerate(fp, start=done + 2):
        if line.strip():
            raise ValueError(f"line {k} follows the last of the {done} values: {line.strip()!r}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("truth table contains non-finite entries")
    return BooleanFunction(n, _handover(arr), infer_range_tag(arr))


def save_table(f: BooleanFunction, path: str) -> None:
    with open(path, "w", encoding="ascii") as fp:
        write_table(f, fp)


def load_table(path: str) -> BooleanFunction:
    with open(path, "r", encoding="ascii") as fp:
        return read_table(fp)
