"""Canonical test families: majority, parity, dictator, tribes, random, constant."""

from __future__ import annotations

import numpy as np

from .boolfn import PM_ONE, BooleanFunction, check_arity, infer_range_tag, mask_of, subset_sizes


def majority(n: int) -> BooleanFunction:
    """Sign of the coordinate sum; n must be odd so there are no ties."""
    if n < 1 or n % 2 == 0:
        raise ValueError(f"majority needs an odd variable count, got {n}")
    check_arity(n)
    # the coordinate sum is n - 2*popcount under the bit=1 <=> x=-1 encoding;
    # compared without subtracting, since the popcounts are unsigned
    return BooleanFunction(n, np.where(2 * subset_sizes(n) < n, 1.0, -1.0), PM_ONE)


def parity(n: int, subset: list[int] | None = None) -> BooleanFunction:
    """Product of the coordinates in ``subset`` (all coordinates by default)."""
    check_arity(n)
    mask = mask_of(range(n) if subset is None else subset, n)
    pop = subset_sizes(n)[np.arange(1 << n) & mask] if mask else np.zeros(1 << n, dtype=np.int64)
    return BooleanFunction(n, 1.0 - 2.0 * (pop % 2), PM_ONE)


def dictator(n: int, i: int) -> BooleanFunction:
    """The single coordinate x_i."""
    return parity(n, [i])


def tribes(w: int, s: int) -> BooleanFunction:
    """OR of s disjoint ANDs of width w on n = w*s variables.

    Block j covers variables j*w .. j*w+w-1.  A block fires when all of its
    coordinates are -1 (index bits all set); the function is -1 exactly when
    some block fires.
    """
    if w < 1 or s < 1:
        raise ValueError(f"tribes needs positive width and block count, got w={w}, s={s}")
    n = w * s
    check_arity(n)
    idx = np.arange(1 << n)
    block = (1 << w) - 1
    fired = np.zeros(1 << n, dtype=bool)
    for j in range(s):
        fired |= ((idx >> (j * w)) & block) == block
    return BooleanFunction(n, np.where(fired, -1.0, 1.0), PM_ONE)


def random_pm_one(n: int, seed: int) -> BooleanFunction:
    """Uniformly random {-1,+1} table, deterministic in the seed."""
    check_arity(n)
    rng = np.random.default_rng(seed)
    return BooleanFunction(n, rng.integers(0, 2, size=1 << n) * 2.0 - 1.0, PM_ONE)


def constant(n: int, c: float) -> BooleanFunction:
    check_arity(n)
    values = np.full(1 << n, float(c))
    return BooleanFunction(n, values, infer_range_tag(values))
