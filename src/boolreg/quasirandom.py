"""Quasirandomness testing and the restriction-mean search.

A function is (eps, delta)-quasirandom when every nonempty Fourier
coefficient of degree at most floor(1/delta) has magnitude at most eps.
``max_mean_shift`` is the truth-table dual: an exhaustive scan over small
restrictions for the one that moves the mean furthest.  It folds one copy
of the table from the top variable down, so a subset whose largest variable
is v reads 2^(v+1) partial sums instead of the whole table.  The two sides
bound each other (quasirandom functions barely move their mean under small
restrictions, and vice versa), which the test suite exercises as stated
inequalities rather than trusting either code path alone.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .boolfn import BooleanFunction, FourierExpansion, mask_of, mask_vars, mean, subset_sizes, wht
from .errors import BudgetExceededError
from .noise import expansion_influences

ENUMERATION_BUDGET = 10 ** 6

# Comparisons against the true influence grant this much slack; the bound
# itself is exact in exact arithmetic.
BOUND_SLACK = 1e-12

# Relative band within which two mean shifts count as tied.
SHIFT_TIE = 1e-12


def degree_cap(delta: float) -> int:
    """floor(1/delta), the degree range the quasirandomness test scans."""
    if not delta > 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    cap = 1.0 / delta + 1e-12
    if not math.isfinite(cap):  # a subnormal delta
        raise ValueError(f"degree cap 1/delta must be finite, got delta = {delta}")
    return int(math.floor(cap))


@dataclass(frozen=True)
class QuasirandomnessVerdict:
    ok: bool
    witness_mask: int | None = None
    witness_value: float | None = None


def is_quasirandom(g: FourierExpansion, eps: float, delta: float) -> QuasirandomnessVerdict:
    """Scan masks with 1 <= |S| <= floor(1/delta) for a coefficient above eps.

    The witness, when present, is the coefficient of largest magnitude in
    that range; ties resolve to the lowest mask value.
    """
    if not eps >= 0.0:
        raise ValueError(f"eps must be nonnegative, got {eps}")
    cap = degree_cap(delta)
    sizes = subset_sizes(g.n)
    eligible = np.nonzero((sizes >= 1) & (sizes <= cap))[0]
    if eligible.size == 0:
        return QuasirandomnessVerdict(True)
    magnitudes = np.abs(g.coeffs[eligible])
    worst = int(np.argmax(magnitudes))  # first occurrence = lowest mask
    if magnitudes[worst] <= eps:
        return QuasirandomnessVerdict(True)
    mask = int(eligible[worst])
    return QuasirandomnessVerdict(False, mask, float(g.coeffs[mask]))


def influence_quasirandom_bound(f: BooleanFunction, subset: int | Iterable[int],
                                delta: float) -> float:
    """Certified lower bound (1-delta)^(|S|-1) * fhat(S)^2 on the noisy
    influence of every coordinate in S; verified against the true
    influences before returning.
    """
    if isinstance(subset, (int, np.integer)):
        subset = mask_vars(int(subset))
    mask = mask_of(subset, f.n)
    if mask == 0:
        raise ValueError("subset must be nonempty")
    size = int(subset_sizes(f.n)[mask])
    if size > degree_cap(delta):
        raise ValueError(f"|S| = {size} exceeds the degree cap floor(1/delta) = {degree_cap(delta)}")
    ghat = wht(f)
    coeff = float(ghat.coeffs[mask])
    bound = (1.0 - delta) ** (size - 1) * coeff * coeff
    influences = expansion_influences(ghat, delta)
    for i in mask_vars(mask):
        if influences[i] < bound - BOUND_SLACK:
            raise AssertionError(
                f"influence bound {bound} exceeds true influence {influences[i]} at coordinate {i}"
            )
    return bound


def _restriction_sums(prefix: np.ndarray, subset: tuple[int, ...]) -> np.ndarray:
    """Per assignment to ``subset`` (ascending, its largest variable the top
    index bit of ``prefix``), the sum of ``prefix`` over the other bits,
    shaped (2,) * j with axes in ascending variable order."""
    shape = []
    above = prefix.size.bit_length() - 1
    for v in reversed(subset):  # the reshape runs down the index bits
        shape += [1 << (above - v - 1), 2]
        above = v
    shape.append(1 << above)
    sums = prefix.reshape(shape).sum(axis=tuple(range(0, len(shape), 2)))
    return sums.transpose(tuple(reversed(range(len(subset)))))


def max_mean_shift(f: BooleanFunction, k: int) -> tuple[dict[int, int], float]:
    """Exhaustively search all restrictions of at most k coordinates for the
    one maximizing |E[f restricted] - E[f]|; shifts within a relative
    SHIFT_TIE of the largest count as tied, and ties go to the first
    candidate in (subset size, subset, assignment) order, so the empty
    restriction wins whenever nothing moves the mean.

    One copy of f's table is folded in place from the top variable down:
    before variable ``top`` is summed out, its first 2^(top+1) entries hold
    f summed over the variables above ``top``, and every subset whose
    largest variable is ``top`` takes its restriction sums from that prefix.
    On {-1,1}- and {0,1}-valued tables every sum and mean is exact and
    distinct shifts differ by far more than SHIFT_TIE, so the result is that
    of an exact search; on real tables x_i = +1 and x_i = -1 move the mean
    equally in exact arithmetic, and the band keeps rounding from choosing.
    """
    if not 0 <= k <= f.n:
        raise ValueError(f"k must lie in [0, n={f.n}], got {k}")
    cases = sum(math.comb(f.n, j) * (1 << j) for j in range(k + 1))
    if cases > ENUMERATION_BUDGET:
        raise BudgetExceededError(
            f"{cases} restrictions exceed the enumeration budget {ENUMERATION_BUDGET}"
        )
    base = mean(f)
    sums = np.array(f.values)
    tables: dict[tuple[int, ...], np.ndarray] = {}
    for top in reversed(range(f.n)):
        prefix = sums[:2 << top]
        for j in range(1, k + 1):
            for rest in itertools.combinations(range(top), j - 1):
                tables[rest + (top,)] = _restriction_sums(prefix, rest + (top,))
        np.add(prefix[:1 << top], prefix[1 << top:], out=prefix[:1 << top])
    order = [subset for j in range(1, k + 1) for subset in itertools.combinations(range(f.n), j)]
    # the empty restriction first, then each subset's 2^j assignments in
    # product((1, -1)) order: the C order of its table, bit 1 meaning x = -1
    shifts = np.abs(np.concatenate(
        [[base], *(tables[subset].ravel() / 2.0 ** (f.n - len(subset)) for subset in order)]) - base)
    best = int(np.argmax(shifts >= shifts.max() * (1.0 - SHIFT_TIE)))
    if best == 0:
        return {}, 0.0
    starts = np.cumsum([1, *(1 << len(subset) for subset in order)])
    r = int(np.searchsorted(starts, best, side="right")) - 1
    bits = np.unravel_index(best - starts[r], (2,) * len(order[r]))
    return {v: -1 if bit else 1 for v, bit in zip(order[r], bits)}, float(shifts[best])
