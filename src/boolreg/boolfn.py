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

import contextvars
import itertools
import math
import operator
import os
import threading
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import IO, Iterable

import numpy as np

from .errors import PreconditionError

PM_ONE = "pm_one"
ZERO_ONE = "zero_one"
REAL = "real"
RANGE_TAGS = (PM_ONE, ZERO_ONE, REAL)

MAX_VARS = 24
MEAN_SQUARE_TOL = 1e-9

_TABLE_CHUNK = 1 << 16  # table lines formatted, and values scanned, per batch
_TABLE_BLOCK = 1 << 15  # characters of table text read and parsed per batch

# Mask bits whose sizes one matrix product of ``_degree_weights`` sums by.
_DEGREE_BITS = 8


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


def _cube(out: np.ndarray, n: int, at: dict[int, int]) -> np.ndarray:
    """The view of a 2^n array whose index bit v equals ``at[v]`` for every
    variable in ``at``, shaped (2,) * (number of other variables); its
    index bit k is the k-th other variable in ascending order."""
    # reshape axis k holds bit n-1-k, i.e. variable n-1-k
    index = tuple(at[v] if v in at else slice(None) for v in reversed(range(n)))
    return out.reshape((2,) * n)[index + (...,)]


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


# The bits of 1.0 and the mask that clears a double's sign bit.
_ONE_BITS = np.float64(1.0).view(np.uint64)
_MAGNITUDE = np.uint64((1 << 63) - 1)


def _boolean_valued(values: np.ndarray) -> bool:
    """Whether every value of a 1-D float64 array is exactly -1.0, +0.0 or
    1.0, read from the bits of a block at a time: -0.0 and every other
    value fail."""
    bits = values.view(np.uint64)
    for start in range(0, bits.size, _TABLE_CHUNK):
        block = bits[start:start + _TABLE_CHUNK]
        if not np.all((block == 0) | ((block & _MAGNITUDE) == _ONE_BITS)):
            return False
    return True


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

    def require_unit_mean_square(self) -> float:
        """E[f^2], raising when it exceeds 1 beyond the shared tolerance."""
        ms = norm2(self)
        if ms > 1.0 + MEAN_SQUARE_TOL:
            raise PreconditionError(f"mean square E[f^2] = {ms} exceeds 1")
        return ms


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

    @cached_property
    def profile(self) -> np.ndarray:
        """The read-only degree profile W^k = sum over |S| = k of coeff(S)^2,
        k = 0 .. n, computed at the first read and kept: the coefficients
        are read-only, so it cannot go stale.  Exact on the spectra of
        {-1,1}- and {0,1}-valued tables (see ``_degree_weights``)."""
        return _handover(_degree_weights(np.square(self.coeffs).reshape(1, -1))[0])


def _indicator(values: np.ndarray, width: int) -> np.ndarray:
    """The read-only (len(values), width) 0/1 matrix whose row r has its one
    at values[r]."""
    return _handover(np.equal.outer(values, np.arange(width)).astype(np.float64))


@lru_cache(maxsize=None)
def _degree_matrix(b: int) -> np.ndarray:
    """The (2^b, b + 1) 0/1 matrix whose row l has its one at |l|."""
    return _indicator(subset_sizes(b), b + 1)


@lru_cache(maxsize=None)
def _diagonal_matrix(b: int, a: int) -> np.ndarray:
    """The ((b + 1)(a + 1), a + b + 1) 0/1 matrix whose row (i, j) has its
    one at i + j."""
    return _indicator(np.add.outer(np.arange(b + 1), np.arange(a + 1)).ravel(), a + b + 1)


def _degree_weights(squares: np.ndarray) -> np.ndarray:
    """Per row of ``squares`` (rows in the 2^m mask layout of m variables),
    the sums over the masks of each size 0 .. m.

    A mask is a low part l over b <= _DEGREE_BITS variables and a high part
    h over the a = m - b others, and |S| = |l| + |h|.  One matrix product
    sums each block of 2^b entries by |l|; the same reduction of its
    transpose sums the blocks by |h|, and a last product adds the (|l|,
    |h|) sums by |l| + |h|.  The weights are 0 and 1, so the sums are exact
    whenever their partial sums are, as on Boolean tables.
    """
    rows, size = squares.shape
    m = size.bit_length() - 1
    # the low part is the largest of ceil(m / _DEGREE_BITS) near-equal parts
    b = m if m <= _DEGREE_BITS else math.ceil(m / math.ceil(m / _DEGREE_BITS))
    low = squares.reshape(-1, 1 << b) @ _degree_matrix(b)
    if b == m:
        return low
    by_low = low.reshape(rows, -1, b + 1).transpose(0, 2, 1).reshape(rows * (b + 1), -1)
    return _degree_weights(by_low).reshape(rows, -1) @ _diagonal_matrix(b, m - b)


# The CPUs this process may run on, read once: the butterfly gives each one
# a share of a table of at least _PARALLEL_ENTRIES entries.
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_PARALLEL_ENTRIES = 1 << 21


def _in_parallel(task, parts: int, workers: int) -> None:
    """task(w, start, stop) for the w-th of min(workers, parts) contiguous
    shares [start, stop) of range(parts): share 0 in the caller, the others
    on threads, each under a copy of the caller's context (so numpy's error
    state holds in them too).  A share whose thread cannot start runs in the
    caller.  Every thread is joined before the first share's error, if any,
    is raised.  A task calls only numpy and its own module's functions: the
    benchmark's tracer (bench/spans.py) wraps cross-module bindings with one
    span stack, which threads must not share.
    """
    shares = min(workers, parts)
    if shares <= 1:
        task(0, 0, parts)
        return
    bounds = [parts * w // shares for w in range(shares + 1)]
    errors: list[BaseException | None] = [None] * shares

    def run(w: int) -> None:
        try:
            task(w, bounds[w], bounds[w + 1])
        except BaseException as exc:  # raised in the caller, after the joins
            errors[w] = exc

    threads = []
    try:
        for w in range(1, shares):
            thread = threading.Thread(target=contextvars.copy_context().run, args=(run, w))
            try:
                thread.start()
            except RuntimeError:  # no thread to be had
                run(w)
            else:
                threads.append(thread)
        run(0)
    finally:
        for thread in threads:
            thread.join()
    for error in errors:
        if error is not None:
            raise error


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


def _butterfly(values: np.ndarray, dtype: type = np.float64, tables: int = 1) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform, O(n 2^n), into one fresh
    C-ordered array of ``dtype``: out[S] = sum_b values[b] * (-1)^popcount(b
    & S).  With ``tables`` = t > 1, values is a (2^n, t) array, and each of
    its columns is transformed, in one batch.

    The stages are blocked for the cache.  With b = min(n, _BLOCK_BITS -
    ceil(log2 t)), or 0 if that is negative, the low b stages (index bits
    0 .. b-1) run on each contiguous block of 2^b rows (2^b * t entries) in
    turn; the high n - b stages run on the (2^(n-b), 2^b * t) view of the
    array, one strip of columns (at most 2^_STRIP_BITS) at a time.  The
    only other memory is one scratch array of max(2^b * t, 2^(n-b) * strip
    width) entries.

    An array of _PARALLEL_ENTRIES entries or more is shared among k =
    ``_WORKERS`` workers (``_in_parallel``): the blocks, and then the
    strips, are independent, so each worker takes a contiguous share of
    them, in its own slot of the same scratch array.  The strips are
    narrowed to a power of two until k of them fit in it, so the scratch
    keeps its size, whatever k; as many workers run the blocks as blocks
    fit in it.

    Radix-2 keeps every bit.  Each stage maps a pair (u, v) of entries that
    differ in one index bit to (u + v, u - v), and the stages run in bit
    order 0 .. n-1 for every entry, so each output is the result of the
    same sequence of float64 adds and subtracts as the textbook in-place
    butterfly (h = 1, 2, 4, ...), whatever the blocking, the batch and the
    number of workers: the output is bit-identical to it on every input,
    real tables included.

    int32 is exact on tables of -1, 0 and 1 (``_counts``): every partial
    sum is then an integer of magnitude at most 2^n <= 2^24, so no order of
    the adds can round or overflow, and the stages move half the bytes of
    float64 ones.
    """
    a = np.array(values, dtype=dtype, order="C")
    grid = a.reshape(-1, tables)
    n = grid.shape[0].bit_length() - 1
    b = min(n, max(_BLOCK_BITS - (tables - 1).bit_length(), 0))
    rows, block = 1 << (n - b), tables << b
    width = min(block, 1 << _STRIP_BITS)
    scratch = np.empty(max(block, rows * width), dtype)
    k = _WORKERS if a.size >= _PARALLEL_ENTRIES else 1
    # the strips narrow to a power of two until k of them fit in the scratch
    width = min(width, 1 << max((scratch.size // (k * rows)).bit_length() - 1, 0))

    def low_stages(w: int, start: int, stop: int) -> None:
        low = scratch[w * block:(w + 1) * block].reshape(-1, tables)
        for part in grid[start << b:stop << b].reshape(-1, 1 << b, tables):
            _stages(part, low)

    def strips(w: int, start: int, stop: int) -> None:
        slot = scratch[w * rows * width:(w + 1) * rows * width]
        with np.errstate():  # restores the buffer size
            # numpy buffers (2^13 entries per operand) the strided operands
            # of a stage whose rows are shorter than half its buffer
            np.setbufsize(max(2 * width, 16))
            for c in range(start * width, min(stop * width, block), width):
                strip = columns[:, c:c + width]
                _stages(strip, slot[:strip.size].reshape(strip.shape))

    _in_parallel(low_stages, rows, min(k, scratch.size // block))
    if rows > 1:
        columns = grid.reshape(rows, block)
        _in_parallel(strips, -(-block // width), min(k, scratch.size // (rows * width)))
    return a


def wht(f: BooleanFunction) -> FourierExpansion:
    """Walsh-Hadamard transform: coefficient at mask S is E[f * parity_S]."""
    a = _butterfly(f.values)
    np.divide(a, f.size, out=a)
    return FourierExpansion(f.n, _handover(a))


def _counts(f: BooleanFunction) -> np.ndarray | None:
    """The int32 counts 2^n * fhat(S) of a table whose values are all exactly
    -1.0, +0.0 or 1.0, in a fresh array; None for any other table, whose
    spectrum stays float64.

    A pm_one tag needs no scan; any other table is scanned by its bits, so
    a -0.0 entry (whose float transform can hold -0.0) or a fractional value
    keeps the float path.  Every double derived from the counts has the
    bits of the float path's: scaling by a power of two is exact and
    commutes with every rounding, barring subnormals (``noise._analyzer``).
    """
    if f.range_tag != PM_ONE and not _boolean_valued(f.values):
        return None
    return _butterfly(f.values, np.int32)


def _spectrum(f: BooleanFunction) -> np.ndarray:
    """f's spectrum as the drivers hold it: the int32 counts of ``_counts``
    (at scale 2^-n), or else the float64 coefficients of ``wht``."""
    counts = _counts(f)
    return wht(f).coeffs if counts is None else counts


def inverse_wht(g: FourierExpansion) -> BooleanFunction:
    """Evaluate the expansion back to a value table; range tag becomes real."""
    return BooleanFunction(g.n, _handover(_butterfly(g.coeffs)), REAL)


def restrict(f: BooleanFunction, i: int, v: int) -> BooleanFunction:
    """Fix coordinate i to v in {-1,+1}, keeping the ambient arity n.

    The result ignores bit i of the input index entirely, so restricting
    again on i is a no-op apart from the recorded value.
    """
    i = _check_index(f, i)
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
    i = _check_index(f, i)
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


def _check_index(f: BooleanFunction, i: int) -> int:
    """i as an int (a float raises TypeError), checked to be a variable of f."""
    i = operator.index(i)
    if not 0 <= i < f.n:
        raise IndexError(f"variable index {i} out of range for n={f.n}")
    return i


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

# The lines of -1.0, 0.0 and 1.0, as f"{v:.17g}" writes them.
_BOOLEAN_LINES = ("-1\n", "0\n", "1\n")


def write_table(f: BooleanFunction, fp: IO[str]) -> None:
    fp.write(f"n={f.n}\n")
    for start in range(0, f.size, _TABLE_CHUNK):
        block = f.values[start:start + _TABLE_CHUNK]
        if _boolean_valued(block):
            fp.write("".join(map(_BOOLEAN_LINES.__getitem__, (block + 1.0).astype(np.intp).tolist())))
        else:
            fp.write("".join([f"{v:.17g}\n" for v in block.tolist()]))


def _parse_lines(text: str, out: np.ndarray, first_line: int) -> tuple[int, list[str]]:
    """Parse the newline-separated lines of ``text``, at most ``out.size``
    of them, into ``out``; the number parsed and the lines past them.

    The lines that are exactly 1, -1 or 0 are read by one numpy pass over
    the UTF-8 bytes of ``text`` (in which a newline byte is always a line
    end), the others by ``float``.  ``first_line`` numbers the first line
    in error messages.
    """
    # three newlines stand for the line ends before the first line
    raw = np.frombuffer(("\n\n\n" + text + "\n").encode("utf-8", "surrogatepass"), np.uint8)
    ends = np.flatnonzero(raw[3:] == ord("\n")) + 3
    total, count = ends.size, min(ends.size, out.size)
    ends = ends[:count]
    # the last three bytes of each line: 1 and 0 follow the previous line's
    # end, -1 follows it by one byte
    last, before, first = raw[ends - 1], raw[ends - 2], raw[ends - 3]
    one = last == ord("1")
    negative = one & (before == ord("-")) & (first == ord("\n"))
    fast = negative | (before == ord("\n")) & (one | (last == ord("0")))
    out[:count] = np.where(one, np.where(negative, -1.0, 1.0), 0.0)
    slow = count - int(np.count_nonzero(fast))
    if not slow and count == total:
        return count, []
    lines = text.split("\n")
    if slow == count:  # no line is 1, -1 or 0, as in a real-valued table
        at, picked = slice(0, count), lines[:count]
    else:
        at = np.flatnonzero(~fast)
        picked = [lines[i] for i in at.tolist()]
    try:
        out[at] = np.fromiter(map(float, picked), np.float64, len(picked))
    except ValueError:
        for i, line in enumerate(lines[:count]):
            try:
                float(line)
            except ValueError as exc:
                raise ValueError(f"bad value on line {first_line + i}: {line.strip()!r}") from exc
        raise
    return count, lines[count:]


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
    done, after = 0, []
    while done < arr.size:
        text = fp.read(_TABLE_BLOCK)
        if not text:
            raise ValueError(f"truth table truncated: expected {arr.size} values, got {done}")
        # read on to the end of the block's last line
        count, after = _parse_lines((text + fp.readline()).removesuffix("\n"), arr[done:], done + 2)
        done += count
    for k, line in enumerate(itertools.chain(after, fp), start=done + 2):
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
