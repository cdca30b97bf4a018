"""Quasirandomness testing and the restriction-mean search.

A function is (eps, delta)-quasirandom when every nonempty Fourier
coefficient of degree at most floor(1/delta) has magnitude at most eps.
``max_mean_shift`` is the truth-table dual: an exhaustive scan over small
restrictions for the one that moves the mean furthest.  The two sides bound
each other (quasirandom functions barely move their mean under small
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


def _restriction_mean_table(values: np.ndarray, n: int, subset: tuple[int, ...]) -> np.ndarray:
    """Means of all restrictions on ``subset``; axis order is descending variable."""
    arr = values.reshape((2,) * n)
    # reshape axis k holds bit n-1-k, i.e. variable n-1-k
    keep_axes = {n - 1 - v for v in subset}
    avg_axes = tuple(sorted(set(range(n)) - keep_axes))
    return arr.mean(axis=avg_axes) if avg_axes else arr


def max_mean_shift(f: BooleanFunction, k: int) -> tuple[dict[int, int], float]:
    """Exhaustively search all restrictions of at most k coordinates for the
    one maximizing |E[f restricted] - E[f]|; ties go to the first candidate
    in (subset size, subset, assignment) order, so the empty restriction
    wins whenever nothing moves the mean.
    """
    if not 0 <= k <= f.n:
        raise ValueError(f"k must lie in [0, n={f.n}], got {k}")
    cases = sum(math.comb(f.n, j) * (1 << j) for j in range(k + 1))
    if cases > ENUMERATION_BUDGET:
        raise BudgetExceededError(
            f"{cases} restrictions exceed the enumeration budget {ENUMERATION_BUDGET}"
        )
    base = mean(f)
    best_restriction: dict[int, int] = {}
    best_shift = 0.0
    for j in range(1, k + 1):
        for subset in itertools.combinations(range(f.n), j):
            table = _restriction_mean_table(f.values, f.n, subset)
            axis_vars = sorted(subset, reverse=True)
            for assignment in itertools.product((1, -1), repeat=j):
                by_var = dict(zip(subset, assignment))
                idx = tuple(0 if by_var[v] == 1 else 1 for v in axis_vars)
                shift = abs(float(table[idx]) - base)
                if shift > best_shift:
                    best_shift = shift
                    best_restriction = by_var
    return best_restriction, best_shift
