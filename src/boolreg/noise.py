"""Noise stability, noisy influence, and the small-influence predicate.

The spectral formula Stab_rho[f] = sum_S rho^|S| fhat(S)^2 is the workhorse.
It is read as sum_k rho^k W^k from the degree profile W^k = sum over |S| = k
of fhat(S)^2 (O'Donnell, Analysis of Boolean Functions, chapter 2), which a
spectrum computes once, at its first stability read, and keeps
(``FourierExpansion.profile``): each further rho costs n + 1 products.  A
Monte-Carlo estimator over rho-correlated input pairs provides an
independent sampling cross-check.  The noisy influence of coordinate i is
the stability of the directional derivative D_i f, equivalently
sum_{S containing i} rho^(|S|-1) fhat(S)^2 at rho = 1 - delta.

Every influence vector is summed by the one fold of ``_analyzer``
(``_fold_sums``), and every argmax variable and small-influence decision is
taken by it under one rule (``_TIE_BAND``): the public influences', the
drivers', ``dtree``'s and the predicate's alike.  It returns a batch of
leaves as one ``LeafStats`` of arrays, the layout every consumer reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import boolfn
from .boolfn import (BooleanFunction, FourierExpansion, _check_index, _degree_weights, _spectrum,
                     subset_sizes)

# Influences within this slack of a threshold count as below it, so that
# round-off at the boundary can never make the regularity loop spin.
INFLUENCE_SLACK = 1e-12

# The tie and threshold rule.  Fold sums and ambient sums of the same m-bit
# nonnegative terms differ by about m * 2^-53 relative, far inside this
# band, but those bits decide argmax ties and influences at
# eps + INFLUENCE_SLACK.  The ambient sum of variable i is numpy's sum of
# the 2^(n-1) masks containing i, in mask order, with zeros at the leaf's
# fixed variables, which ``_ambient_sums`` gives bit for bit without
# scanning those zeros.  So a leaf whose top fold sum is within the band of
# that threshold, or above it with several variables within the band of
# its top, takes its variable and maximum influence from the ambient sums
# of those candidates, ties to the lowest index: exactly the ambient
# kernel's decisions.  Other leaves keep their fold argmax, which on a good
# leaf (never split) may differ on a near-tie.
_TIE_BAND = 1e-9

_MC_CHUNK = 1 << 16
_MC_ROWS = 1 << 12  # samples whose flips a Monte-Carlo worker draws and masks at a time

# numpy sums a float64 run in blocks of 2^7 doubles (``_ambient_sums``)
_LANE_BITS = 7


def _check_rho(rho: float) -> None:
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho must lie in [0, 1], got {rho}")


def _check_delta(delta: float) -> None:
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"delta must lie in [0, 1], got {delta}")


def _powers(rho: float, k: int) -> np.ndarray:
    """rho^0 .. rho^k.  Indexed by subset sizes it gives the same bits as
    rho ** sizes over all 2^n masks: both are the elementwise float64 ** int64
    power, here on n + 1 entries instead of 2^n."""
    return np.float64(rho) ** np.arange(k + 1, dtype=np.int64)


def _influence_powers(delta: float, k: int) -> np.ndarray:
    """(1-delta)^(j-1) for j = 0 .. k, with the j = 0 entry zeroed out; 0^0 = 1
    handles delta = 1, where only degree-1 weight survives."""
    return np.concatenate(([0.0], _powers(1.0 - delta, k - 1)))


def _gather_weights(powers: np.ndarray, m: int, out: np.ndarray) -> np.ndarray:
    """powers[subset_sizes(m)], bit for bit, written into ``out`` (contiguous,
    2^m entries) with no 2^m temporary.  A mask is a high part h and a low
    part l over b = min(m, 8) variables, and |S| = |h| + |l|: h's 2^b
    weights are row |h| of the m - b + 1 rows powers[|h| + sizes_b]."""
    b = min(m, 8)
    rows = powers[np.arange(m - b + 1)[:, None] + subset_sizes(b)]
    np.take(rows, subset_sizes(m - b), axis=0, out=out.reshape(-1, 1 << b), mode="clip")
    return out


def _coefficients(rows: np.ndarray, powers: np.ndarray, n: int) -> tuple[np.ndarray, float]:
    """Rows of float64 coefficients or int32 counts (at scale 2^-n) to weight
    by ``powers`` and square, and the coefficient one unit stands for.  The
    sums of counts are scaled by 4^-n, which commutes with every rounding,
    unless a nonzero weight w < 2^(2n - 1022) lets the coefficients'
    products fall below the normal range (n >= 20 and delta within 2^-42
    of 1, closer at smaller n): there the counts are widened first."""
    if rows.dtype == np.float64:
        return rows, 1.0
    if np.any((0.0 < powers) & (powers < 2.0 ** (2 * n - 1022))):
        return rows * 2.0 ** -n, 1.0
    return rows, 2.0 ** -n


def _weighted_squares(coeffs: np.ndarray, weights: np.ndarray, out: np.ndarray) -> np.ndarray:
    """(weights * coeffs) * coeffs, formed in ``out`` in that order, which
    every caller keeps so that the sums over it agree bit for bit."""
    np.multiply(weights, coeffs, out=out)
    return np.multiply(out, coeffs, out=out)


def _fold_sums(weighted: np.ndarray) -> np.ndarray:
    """Per row of ``weighted`` (rows in the 2^m mask layout of m variables)
    and per variable k, the sum over the masks containing k: on weighted
    squares, the noisy influences.

    Folds in place, destroying ``weighted``: for k = m-1 .. 0 the upper half
    of each row's first 2^(k+1) entries holds the masks containing k (the
    higher variables already summed out), so it sums to the k-th value and
    is then added into the lower half, which sums k out.  That is about
    2 * 2^m reads per row for all m sums, against 2^(n-1) reads for each
    ambient sum (``_analyzer``) of a variable of the n-variable cube.
    """
    rows, size = weighted.shape
    m = size.bit_length() - 1
    out = np.empty((rows, m))
    for k in reversed(range(m)):
        lower, upper = weighted[:, :1 << k], weighted[:, 1 << k:2 << k]
        upper.sum(axis=1, out=out[:, k])
        np.add(lower, upper, out=lower)
    return out


def stability(g: FourierExpansion, rho: float) -> float:
    """sum over masks S of rho^|S| * coeff(S)^2, read as sum_k rho^k W^k from
    the spectrum's degree profile; lies in [0, E[f^2]]."""
    _check_rho(rho)
    return float(g.profile @ _powers(rho, g.n))


def stability_mc(f: BooleanFunction, rho: float, samples: int, seed: int) -> float:
    """Monte-Carlo estimate of E[f(x) f(y)] over rho-correlated pairs."""
    return stability_mc_detail(f, rho, samples, seed)[0]


def stability_mc_detail(f: BooleanFunction, rho: float, samples: int, seed: int) -> tuple[float, float]:
    """Monte-Carlo estimate plus its sample standard error.

    x is uniform on the cube; each y_i equals x_i with probability
    (1 + rho)/2, independently, implemented as an independent per-bit flip
    with probability (1 - rho)/2.  Fully deterministic given the seed, with
    the same bits on any number of CPUs.

    The samples are drawn in chunks of _MC_CHUNK from the seed's PCG64
    stream: a chunk's x, then its flips, sample by sample.  A full chunk
    takes exactly 2^15 + 2^16 n outputs of the stream: x's 2^16 draws are
    the 32-bit halves of 2^15 (Lemire's rule never rejects on the range
    2^n), and each flip takes one.  So the chunks are shared among the CPUs in the affinity mask
    (``boolfn._in_parallel``; ``taskset`` restricts them), each worker's
    generator jumped ahead to its first chunk (``PCG64.advance``, O(log k)
    steps), and the chunks' sums are added in chunk order.  A worker draws
    and masks the flips _MC_ROWS samples at a time, in buffers of its own
    that are allocated once.
    """
    _check_rho(rho)
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    start = np.random.default_rng(seed).bit_generator.state
    flip_prob = (1.0 - rho) / 2.0
    # float64 powers of two: sums of distinct ones below 2^n are exact, so the
    # float product (which BLAS runs; numpy loops over an int64 one) gives
    # each flip mask exactly
    bit_weights = np.ldexp(1.0, np.arange(f.n))
    chunks = -(-samples // _MC_CHUNK)
    k = min(boolfn._WORKERS, chunks)
    block = min(samples, _MC_ROWS)
    # a slot of each buffer per worker, allocated once: a worker allocates
    # only the row block of x that the generator returns
    draws = np.empty((k, block, f.n))
    masks = np.empty((k, block))
    ys = np.empty((k, block), np.int64)
    xs = np.empty((k, min(samples, _MC_CHUNK)), np.int64)
    prods = np.empty(xs.shape)
    sums = np.empty((chunks, 2))

    def draw(w: int, first: int, stop: int) -> None:
        generator = np.random.PCG64()
        generator.state = start
        rng = np.random.Generator(generator.advance(first * ((_MC_CHUNK >> 1) + _MC_CHUNK * f.n)))
        for c in range(first, stop):
            size = min(samples - c * _MC_CHUNK, _MC_CHUNK)
            x, prod = xs[w, :size], prods[w, :size]
            for r in range(0, size, block):  # draws what one call for all of x draws
                x[r:r + block] = rng.integers(0, f.size, size=min(size - r, block), dtype=np.int64)
            # mode "clip" writes out directly ("raise" buffers it); every index is in range
            np.take(f.values, x, out=prod, mode="clip")
            for r in range(0, size, block):
                rows = min(size - r, block)
                flips, mask, y = draws[w, :rows], masks[w, :rows], ys[w, :rows]
                rng.random(out=flips)
                np.less(flips, flip_prob, out=flips)
                np.copyto(y, np.matmul(flips, bit_weights, out=mask), casting="unsafe")
                np.bitwise_xor(x[r:r + rows], y, out=y)
                np.take(f.values, y, out=mask, mode="clip")
                np.multiply(prod[r:r + rows], mask, out=prod[r:r + rows])
            sums[c, 0] = prod.sum()
            sums[c, 1] = np.multiply(prod, prod, out=prod).sum()

    boolfn._in_parallel(draw, chunks, k)
    total = total_sq = 0.0
    for s, sq in sums.tolist():
        total += s
        total_sq += sq
    est = total / samples
    var = max(total_sq / samples - est * est, 0.0)
    return est, float(np.sqrt(var / samples))


def expansion_influences(g: FourierExpansion, delta: float) -> np.ndarray:
    """Vector of (1-delta)-noisy influences computed from a spectrum: its
    squares weighted by (1-delta)^(|S|-1), folded."""
    _check_delta(delta)
    return _analyzer(g.n, delta, np.inf).influences(g.coeffs.reshape(1, -1))[0]


def all_noisy_influences(f: BooleanFunction, delta: float) -> np.ndarray:
    """Noisy influences of every coordinate, computed from one transform
    (``boolfn._spectrum``), in 2^n doubles besides the spectrum."""
    _check_delta(delta)
    spectrum = _spectrum(f).reshape(1, -1)  # before the analyzer's buffer, for a lower peak
    return _analyzer(f.n, delta, np.inf).influences(spectrum)[0]


def noisy_influence(f: BooleanFunction, i: int, delta: float) -> float:
    """(1-delta)-noisy influence of coordinate i: Stab_{1-delta}[D_i f]."""
    i = _check_index(f, i)
    return float(all_noisy_influences(f, delta)[i])


def _bad(max_influence: float | np.ndarray, eps: float) -> bool | np.ndarray:
    """Above eps, on one influence or an array; INFLUENCE_SLACK counts as small."""
    return max_influence > eps + INFLUENCE_SLACK


class LeafStats(NamedTuple):
    """The analysis of a batch of leaves, one entry or row per leaf: their
    means, their Stab_{1-delta}, their argmax noisy influence variables with
    those influences, and their degree profiles, W^k = sum over |S| = k of
    ghat(S)^2 for k = 0 .. m, so that Stab_rho is sum_k rho^k W^k (zero
    beyond a leaf's own m where leaves of several depths are padded to one
    width).  The variables and which leaves are bad (``_bad``) follow the
    rule at ``_TIE_BAND``.
    """

    means: np.ndarray
    stabs: np.ndarray
    variables: np.ndarray
    max_influences: np.ndarray
    profiles: np.ndarray


def _runs(key: np.ndarray) -> list[tuple[int, int]]:
    """(start, stop) of each maximal run of equal entries of key."""
    bounds = [0, *(np.flatnonzero(key[1:] != key[:-1]) + 1).tolist(), len(key)]
    return list(zip(bounds, bounds[1:]))


def _ambient_sums(n: int, frees: np.ndarray, products: np.ndarray, slots: np.ndarray,
                  ranks: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Per pair i, the ambient sum of the free variable c = frees[s, ranks[i]]
    of row s = slots[i] of ``products`` (rows over the ascending free
    variables frees[s]): bit for bit numpy's sum of a zeroed half buffer of
    2^(n-1) doubles, whose position of variable v is v - (v > c), after the
    row's masks containing c are written into it without c's bit.

    numpy sums a contiguous float64 run of 2^p >= 256 entries as its two
    halves, a run of 8 to 128 as eight stride-8 lanes combined as
    ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), a shorter one in order, and each row
    of ``sum(axis=1)`` of a C-contiguous array as that row alone (tests pin
    all three).  The products are nonnegative, so a half of zeros adds +0.0
    exactly: a fixed position >= _LANE_BITS drops out with its zero half,
    while positions below it keep their zeros, which the lanes place.  A
    pair's row is then the 2^(min(_LANE_BITS, n-1) + h) entries over those
    low positions and its h free positions above them, in ``scratch``:
    pairs whose free low positions agree share a chunk of rows, summed by
    one ``sum(axis=1)``.
    """
    m = frees.shape[1]
    low = min(_LANE_BITS, n - 1)
    cands = frees[slots, ranks]
    below = (1 << cands) - 1
    others = (1 << frees).sum(axis=1)[slots] ^ (1 << cands)  # each pair's other free variables
    # as bits of their half-buffer positions v - (v > c), the low ones alone
    patterns = ((others & below) | ((others >> 1) & ~below)) & ((1 << low) - 1)
    order = np.argsort(patterns, kind="stable")
    patterns, ranks, slots = patterns[order], ranks[order].tolist(), slots[order].tolist()
    cube = products.reshape((-1,) + (2,) * m)  # axis a of a row holds free[m - 1 - a]
    sums = np.empty(len(order))
    for a, b in _runs(patterns):
        pattern = int(patterns[a])
        high = m - 1 - pattern.bit_count()
        # axes: the free high positions, then the low positions, descending
        into = (slice(None),) * (1 + high) + tuple(slice(None) if pattern >> q & 1 else 0
                                                   for q in reversed(range(low)))
        step = scratch.size >> (low + high)
        if pattern != (1 << low) - 1:  # the pattern's chunks write the same entries
            scratch[:min(step, b - a) << (low + high)].fill(0.0)
        for c0 in range(a, b, step):
            c1 = min(c0 + step, b)
            chunk = scratch[:(c1 - c0) << (low + high)].reshape(c1 - c0, -1)
            rows = chunk.reshape((c1 - c0,) + (2,) * (low + high))[into]
            for i in range(c0, c1):
                rows[i - c0] = cube[slots[i]][(slice(None),) * (m - 1 - ranks[i]) + (1,)]
            sums[order[c0:c1]] = chunk.sum(axis=1)
    return sums


def _analyzer(n: int, delta: float, eps: float):
    """The leaf analysis at rho = 1 - delta and influence threshold eps over
    the cube of n variables, with its product buffer (2^n doubles, scratch)
    allocated once, so that no leaf costs a 2^n temporary, and its tie
    scratch (2^(n-1) doubles, and at least 2^12 so that a chunk of small
    rows sums many of them) at the first tie.

    ``analyze(frees, rows)`` analyses the compact spectra (row r over the
    ascending free variables frees[r], every row over as many) in one batch,
    in a prefix of the product buffer, and returns the batch as a
    ``LeafStats``.  The squares of the rows give each leaf's degree profile
    (``_degree_weights``), and its Stab is the profile at rho.  Counts are
    scaled as ``_coefficients`` says.

    ``analyze.influences(rows)`` gives each row's noisy influences:
    ``_fold_sums`` of the weighted squares, whose weights over m variables
    (``_gather_weights``; |S| is the ambient |S|, so each product has the
    ambient bits) fill the batch's first row.  ``analyze.top(frees, rows)``
    gives the argmax variables and their influences alone, as ``analyze``
    does, from the same fold sums.  The rows that the rule at
    ``_TIE_BAND`` sends to the ambient sums have their products formed once
    more, in a prefix of the product buffer, and every (row, candidate) pair
    is summed in one step (``_ambient_sums``); per row the first maximum
    over ascending ranks wins, so ties go to the lowest index.

    ``analyze.split(frees, rows, js)`` half-butterflies each row on js[r]
    into rows 2r (x_j = +1) and 2r + 1 (x_j = -1) over frees[r] without
    js[r], the children's order in the tree, and gives each row's
    (1-delta)-noisy influence of js[r], for the drivers' energy identity:
    both from the row's upper half, the masks containing js[r], which is
    first weighted and summed in the product buffer.
    """
    stab_powers = _powers(1.0 - delta, n)
    powers = _influence_powers(delta, n)
    prod = np.empty(1 << n)
    scratch = None
    threshold = eps + INFLUENCE_SLACK

    def ambient_argmax(frees: np.ndarray, coeffs: np.ndarray, tied: np.ndarray,
                       near: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        nonlocal scratch
        if scratch is None:
            scratch = np.empty(1 << max(n - 1, 12))
        # the tied rows' products, formed from views of runs of consecutive rows
        products = prod[:len(tied) * coeffs.shape[1]].reshape(len(tied), -1)
        weights = _gather_weights(powers, frees.shape[1], products[0])
        for a, b in _runs(tied - np.arange(len(tied))):
            r, a1 = int(tied[a]) - a, max(a, 1)
            _weighted_squares(coeffs[r + a1:r + b], weights, products[a1:b])
        _weighted_squares(coeffs[tied[0]], weights, weights)  # the weights' own row last
        slots, ranks = np.nonzero(near[tied])
        sums = _ambient_sums(n, frees[tied], products, slots, ranks, scratch)
        best = np.lexsort((-sums, slots))[[a for a, _ in _runs(slots)]]
        return frees[tied[slots[best]], ranks[best]], sums[best]

    def fold(rows: np.ndarray, unit: float) -> np.ndarray:
        batch = prod[:rows.size].reshape(rows.shape)  # over m = log2(width) variables
        _weighted_squares(rows[1:], _gather_weights(powers, rows.shape[1].bit_length() - 1, batch[0]), batch[1:])
        _weighted_squares(rows[0], batch[0], batch[0])  # the weights' own row last
        influences = _fold_sums(batch)
        influences *= unit * unit
        return influences

    def scaled_top(frees: np.ndarray, rows: np.ndarray, unit: float) -> tuple[np.ndarray, np.ndarray]:
        influences = fold(rows, unit)
        tops = influences.max(axis=1, initial=0.0)
        variables = (frees[np.arange(len(rows)), influences.argmax(axis=1)] if frees.shape[1]
                     else np.zeros(len(rows), np.int64))
        near = influences >= tops[:, None] * (1.0 - _TIE_BAND)
        tied = np.flatnonzero((tops >= threshold * (1.0 - _TIE_BAND))
                              & ((near.sum(axis=1) > 1) | (tops <= threshold * (1.0 + _TIE_BAND))))
        if len(tied):
            variables[tied], sums = ambient_argmax(frees, rows, tied, near)
            tops[tied] = sums * (unit * unit)
        return variables, tops

    def influences(rows: np.ndarray) -> np.ndarray:
        return fold(*_coefficients(rows, powers, n))

    def top(frees: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return scaled_top(frees, *_coefficients(rows, powers, n))

    def analyze(frees: np.ndarray, rows: np.ndarray) -> LeafStats:
        rows, unit = _coefficients(rows, powers, n)
        squares = np.square(rows, out=prod[:rows.size].reshape(rows.shape), dtype=np.float64)
        profiles = _degree_weights(squares)
        profiles *= unit * unit
        stabs = profiles @ stab_powers[:frees.shape[1] + 1]
        return LeafStats(rows[:, 0] * unit, stabs, *scaled_top(frees, rows, unit), profiles)

    def split(frees: np.ndarray, rows: np.ndarray, js: np.ndarray) -> tuple[np.ndarray, ...]:
        # runs of rows in which js[r] has one rank k (a homogeneous round is one
        # run), viewed in place: a gathered copy would add up to 2^n values to the
        # peak.  A run's upper halves fill at most 2^(n-1) entries of the product
        # buffer, so the weights over the other m - 1 free variables fit after them
        half_size = rows.shape[1] // 2
        weights = _gather_weights(powers[1:], frees.shape[1] - 1, prod[prod.size - half_size:])
        children = np.empty((len(rows), 2, half_size), rows.dtype)
        sums = np.empty(len(rows))
        ranks = (frees < js[:, None]).sum(axis=1)
        for a, b in _runs(ranks):
            k = int(ranks[a])
            h = rows[a:b].reshape(-1, half_size >> k, 2, 1 << k)
            upper, unit = _coefficients(h[:, :, 1, :], powers, n)
            batch = prod[:upper.size].reshape(upper.shape)
            _weighted_squares(upper, weights.reshape(upper.shape[1:]), batch)
            batch.reshape(b - a, -1).sum(axis=1, out=sums[a:b])
            o = children[a:b].reshape(b - a, 2, half_size >> k, 1 << k)
            np.add(h[:, :, 0, :], h[:, :, 1, :], out=o[:, 0])
            np.subtract(h[:, :, 0, :], h[:, :, 1, :], out=o[:, 1])
        rest = frees[frees != js[:, None]].reshape(len(rows), -1)
        return np.repeat(rest, 2, axis=0), children.reshape(2 * len(rows), -1), sums * (unit * unit)

    analyze.influences = influences
    analyze.top = top
    analyze.split = split
    return analyze


@dataclass(frozen=True)
class InfluenceVerdict:
    """Outcome of the small-influence test; violator set iff not ok."""

    ok: bool
    violator: int | None = None
    value: float | None = None


def has_small_noisy_influences(f: BooleanFunction, eps: float, delta: float) -> InfluenceVerdict:
    """ok iff every coordinate's noisy influence is at most eps.

    On failure reports the argmax-influence coordinate and its influence,
    decided by the drivers' rule (``_TIE_BAND``) from the same fold sums
    and tie step (``_analyzer``'s ``top``), with no degree profile:
    near-ties are re-summed over the ambient 2^n layout, and the lowest
    index wins among equal ambient sums.  Exact ties can round apart there:
    on tribes(4, 6), whose 24 influences are equal, the violator is 16, not
    0 (ROADMAP.md, item 1).  Values within INFLUENCE_SLACK above eps count
    as small.  It holds the spectrum and one 2^n array of doubles, and a
    2^(n-1) tie scratch only if a near-tie is re-summed.
    """
    if not eps > 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    _check_delta(delta)
    spectrum = _spectrum(f).reshape(1, -1)  # before the analyzer's buffer, for a lower peak
    variables, tops = _analyzer(f.n, delta, eps).top(np.arange(f.n).reshape(1, -1), spectrum)
    if _bad(tops[0], eps):
        return InfluenceVerdict(False, int(variables[0]), float(tops[0]))
    return InfluenceVerdict(True)
