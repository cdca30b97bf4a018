"""Canonical test families: majority, parity, dictator, tribes, random, constant."""

from __future__ import annotations

import numpy as np

from .boolfn import (PM_ONE, BooleanFunction, _handover, check_arity, infer_range_tag, mask_of,
                     subset_sizes)


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
    # the table over bits 0 .. i, from the one over bits 0 .. i-1: the upper
    # half is the lower one, negated when variable i is in the subset
    values = np.empty(1 << n)
    values[0] = 1.0
    for i in range(n):
        lower, upper = values[:1 << i], values[1 << i: 2 << i]
        if mask >> i & 1:
            np.negative(lower, out=upper)
        else:
            upper[...] = lower
    return BooleanFunction(n, _handover(values), PM_ONE)


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
    # the table over blocks 0 .. j, from the one over blocks 0 .. j-1 (one
    # entry, 1, for j = 0): block j's bits select a tile, each a copy of the
    # table before it, except the last, where block j fires
    values = np.empty(1 << n)
    values[0] = 1.0
    tiles = 1 << w
    for j in range(s):
        size = 1 << (j * w)
        values[:(tiles - 1) * size].reshape(tiles - 1, size)[1:] = values[:size]
        values[(tiles - 1) * size: tiles * size] = -1.0
    return BooleanFunction(n, _handover(values), PM_ONE)


def random_pm_one(n: int, seed: int) -> BooleanFunction:
    """Uniformly random {-1,+1} table, deterministic in the seed."""
    check_arity(n)
    rng = np.random.default_rng(seed)
    return BooleanFunction(n, rng.integers(0, 2, size=1 << n) * 2.0 - 1.0, PM_ONE)


def constant(n: int, c: float) -> BooleanFunction:
    check_arity(n)
    values = np.full(1 << n, float(c))
    return BooleanFunction(n, values, infer_range_tag(values))
