"""Constructive regularity decompositions with enforced depth and mass bounds.

``decompose`` repeatedly splits every leaf whose subfunction still has a
coordinate of noisy influence above eps, always on the argmax-influence
variable.  Each such pass raises the tree energy by more than
eps*delta*gamma while more than a gamma fraction of leaf mass is bad, and
the energy is capped by E[f^2] <= 1, so at most 1/(eps*delta*gamma) passes
can run.  ``decompose_homogeneous`` additionally forces every level of the
tree to query one fixed variable, at the price of a tower-type size bound.

Both drivers run one energy-increment loop, ``_decompose``, and differ only
in their split policy.  A pass is a list of rounds, each mapping every held
leaf to one split variable: one round in which each bad leaf splits on its
own argmax variable, or one round per new query variable in which every
leaf splits on it.  The loop checks every pass at run time: phi <= max(1,
E[f^2]), the iteration budget, and the exact energy identity, by which a
split of a leaf at depth d on j gains delta * 2^-d * Inf_j (Inf_j read
from the half of the spectrum that the split already touches).  The plain
policy raises past depth min(1/(eps*delta*gamma), n); the homogeneous one
stops at ``var_cap`` and returns the partial tree.

Only the root is transformed, and the loop takes that spectrum as an
argument, so ``stablest.check_quasi_mist`` hands over the one it has
already made.  A child's spectrum comes from its parent's by one
half-butterfly, the restriction identity
ghat_{x_i=+1}(S) = ghat(S) + ghat(S+{i}) and ghat_{x_i=-1}(S) = ghat(S) -
ghat(S+{i}) for S not containing i (O'Donnell, Analysis of Boolean
Functions, section 3.3).  The children of a pass are analysed once, when
the pass ends; a good leaf keeps its statistics from pass to pass and
drops its spectrum.  Spectra are held in compact form over their free
variables, so together they never hold more than 2^n values.  The analysis
works on the compact spectra, a batch of rows at a time, in about 3 * 2^m
operations per leaf with m free variables; the few leaves whose argmax or
bad/good decision sits within 1e-9 of a tie re-sum their candidates over
the ambient layout (``_analyzer``), so the trees are exactly the ones that
a fresh transform of every leaf table would give.  One product buffer, a
half-size buffer and the influence weights are allocated once per driver
call, so no leaf costs a 2^n temporary.

Each leaf's statistics carry its degree profile W^k = sum over |S| = k of
ghat(S)^2, k = 0 .. m, from which Stab_rho = sum_k rho^k W^k at any rho
(O'Donnell, Analysis of Boolean Functions, chapter 2): the driver's energy
reads it at rho = 1 - delta, and ``stablest.check_quasi_mist`` at its own
rho, so no leaf is transformed again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Callable

import numpy as np

from .boolfn import BooleanFunction, FourierExpansion, norm2, subset_sizes, wht
from .dtree import (
    DecisionTree,
    EnergyLedger,
    Leaf,
    _cube,
    leaves,
    singleton,
    split_leaves,
    tree_depth,
)
from .noise import INFLUENCE_SLACK, _influence_powers, _influence_sums, _powers, _weighted_squares

# Guard band for the internal energy checks (phi <= 1, and each pass's gain
# against the gain the restriction identity predicts); the energy is a sum
# of at most 2^n nonnegative doubles, so anything past this is a logic bug.
_PHI_GUARD = 1e-9

# Mask bits whose sizes one matrix product of ``_degree_weights`` sums by.
_DEGREE_BITS = 8

# Relative band within which two influences count as tied, and an influence
# as at the threshold.  A compact sum and the ambient sum of the same m-bit
# nonnegative terms differ by a relative error of about m * 2^-53, far
# inside it.
_TIE_BAND = 1e-9


@dataclass(frozen=True)
class RegularityParams:
    """Influence threshold eps, noise rate delta, bad-mass allowance gamma."""

    eps: float
    delta: float
    gamma: float

    def __post_init__(self):
        if not self.eps > 0.0:
            raise ValueError(f"eps must be positive, got {self.eps}")
        if not math.isfinite(self.eps):
            raise ValueError(f"eps must be finite, got {self.eps}")
        if not 0.0 < self.delta <= 1.0:
            raise ValueError(f"delta must lie in (0, 1], got {self.delta}")
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in (0, 1], got {self.gamma}")
        if not math.isfinite(self.budget):
            raise ValueError("iteration budget 1/(eps*delta*gamma) must be finite")

    @property
    def budget(self) -> float:
        """Iteration and depth budget 1/(eps*delta*gamma); infinite when the
        product underflows to 0."""
        product = self.eps * self.delta * self.gamma
        return 1.0 / product if product else math.inf


@dataclass(frozen=True)
class LeafStats:
    """One leaf's analysis: its mean, Stab_{1-delta}, its argmax noisy
    influence variable (ties go to the lowest index) with that influence,
    and its degree profile: W^k = sum over |S| = k of ghat(S)^2 for k = 0
    .. m, so that Stab_rho is sum_k rho^k W^k.

    On a bad leaf, and on one at the threshold, ``var`` and whether the leaf
    is bad are exactly those of the ambient kernel; on a good leaf, which is
    never split, ``var`` may differ from it on a near-tie.
    """

    mean: float
    stab: float
    var: int
    max_influence: float
    profile: tuple[float, ...]

    def bad(self, eps: float) -> bool:
        """Fails the small-influence test; INFLUENCE_SLACK counts as small."""
        return self.max_influence > eps + INFLUENCE_SLACK


@dataclass
class DecompositionResult:
    tree: DecisionTree
    iterations: int
    ledger: EnergyLedger
    bad_mass: float
    homogeneous_vars: list[int] = field(default_factory=list)
    exhausted: bool = False  # homogeneous variant ran out of var_cap
    leaf_stats: dict[int, LeafStats] = field(default_factory=dict)  # by final leaf id


def _spectrum_cube(out: np.ndarray, n: int, free: tuple[int, ...]) -> np.ndarray:
    """The view of ``out`` (2^n mask layout) at the masks over ``free``."""
    return _cube(out, n, {v: 0 for v in range(n) if v not in free})


def _ambient(n: int, free: tuple[int, ...], compact: np.ndarray, out: np.ndarray) -> FourierExpansion:
    """A compact spectrum over ``free`` (ascending) in the 2^n mask layout,
    written into ``out``, which must be zero outside the masks over ``free``."""
    cube = _spectrum_cube(out, n, free)
    cube[...] = compact.reshape(cube.shape)
    return FourierExpansion(n, out)


def _fold_sums(weighted: np.ndarray) -> np.ndarray:
    """Per row of ``weighted`` (rows in the 2^m mask layout of m variables)
    and per variable k, the sum over the masks containing k.

    Folds in place, destroying ``weighted``: for k = m-1 .. 0 the upper half
    of each row's first 2^(k+1) entries holds the masks containing k (the
    higher variables already summed out), so it sums to the k-th value and
    is then added into the lower half, which sums k out.  That is about
    2 * 2^m reads per row, against (m + 1) * 2^m for ``noise._influence_sums``.
    """
    rows, size = weighted.shape
    m = size.bit_length() - 1
    out = np.empty((rows, m))
    for k in reversed(range(m)):
        lower, upper = weighted[:, :1 << k], weighted[:, 1 << k:2 << k]
        upper.sum(axis=1, out=out[:, k])
        np.add(lower, upper, out=lower)
    return out


def _indicator(values: np.ndarray, width: int) -> np.ndarray:
    """The read-only (len(values), width) 0/1 matrix whose row r has its one
    at values[r]."""
    matrix = np.equal.outer(values, np.arange(width)).astype(np.float64)
    matrix.setflags(write=False)
    return matrix


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


def _analyzer(n: int, delta: float, eps: float):
    """The leaf analysis of one driver call at rho = 1 - delta and influence
    threshold eps, with its weights and buffers allocated once, so that no
    leaf costs a 2^n temporary.

    ``analyze(free, rows)`` analyses the compact spectra (rows) over
    ``free`` in one batch, in a prefix of the product buffer.  The squares
    of the rows give each leaf's degree profile (``_degree_weights``), and
    its Stab is the profile at rho.  The influences come from
    ``_fold_sums`` of the weighted squares: the weights of a mask over m
    variables are the first 2^m ambient ones, because
    ``subset_sizes(n)[:2^m]`` is ``subset_sizes(m)``, so every product has
    the bits of the ambient kernel's.  The fold sums differ from the
    ambient kernel's (``noise._influence_sums`` over the spectrum scattered
    into the 2^n layout) only in the last bits, but those bits decide argmax
    ties, and influences at the threshold.  So every leaf that is bad, or
    whose top influence lies within ``_TIE_BAND`` of eps + INFLUENCE_SLACK,
    takes its variable and maximum influence from the ambient sums of its
    candidates, the variables within ``_TIE_BAND`` of the top: the products
    are scattered into the product buffer, zero at every mask with a fixed
    variable, and summed as ``noise._influence_sums`` sums them.  A leaf
    with a single candidate well above the threshold needs no tie-break.
    Split variables and bad/good decisions are then exactly those of the
    ambient kernel.  The buffer is zero between calls.

    ``analyze.influences(free, rows, j)`` gives each row's (1-delta)-noisy
    influence of j, for the loop's energy identity, in the product buffer
    (whose pages the analysis has touched already, unlike the half buffer's).
    """
    stab_powers = _powers(1.0 - delta, n)
    influence_weights = _influence_powers(delta, n)[subset_sizes(n)]
    prod = np.zeros(1 << n)
    half = np.empty(1 << (n - 1))
    threshold = eps + INFLUENCE_SLACK

    def ambient_argmax(free: tuple[int, ...], row: np.ndarray, candidates: list[int]) -> tuple[int, float]:
        cube = _spectrum_cube(prod, n, free)
        _weighted_squares(row.reshape(cube.shape), _spectrum_cube(influence_weights, n, free), cube)
        sums = _influence_sums(prod, half, candidates)
        cube[...] = 0.0
        best = int(sums.argmax())  # candidates ascend, so ties go to the lowest index
        return candidates[best], float(sums[best])

    def analyze(free: tuple[int, ...], rows: np.ndarray) -> list[LeafStats]:
        batch = prod[:rows.size].reshape(rows.shape)
        profiles = _degree_weights(np.multiply(rows, rows, out=batch))
        stabs = profiles @ stab_powers[:len(free) + 1]
        influences = _fold_sums(_weighted_squares(rows, influence_weights[:rows.shape[1]], batch))
        batch[...] = 0.0
        tops = influences.max(axis=1, initial=0.0)
        variables = [free[k] for k in influences.argmax(axis=1).tolist()] if free else [0] * len(rows)
        out = []
        for r, (mean, stab, var, top, profile) in enumerate(zip(
                rows[:, 0].tolist(), stabs.tolist(), variables, tops.tolist(), profiles.tolist())):
            if top >= threshold * (1.0 - _TIE_BAND):
                candidates = np.flatnonzero(influences[r] >= top * (1.0 - _TIE_BAND))
                if len(candidates) > 1 or top <= threshold * (1.0 + _TIE_BAND):
                    var, top = ambient_argmax(free, rows[r], [free[k] for k in candidates])
            out.append(LeafStats(mean, stab, var, top, tuple(profile)))
        return out

    def influences(free: tuple[int, ...], rows: np.ndarray, j: int) -> np.ndarray:
        # the sum of (1-delta)^(|S|-1) * ghat(S)^2 over the masks S containing j;
        # the masks containing the top variable have those weights, in order
        upper = rows.reshape(len(rows), -1, 2, 1 << free.index(j))[:, :, 1, :]
        half_size = rows.shape[1] // 2
        weights = influence_weights[half_size:2 * half_size].reshape(upper.shape[1:])
        batch = prod[:upper.size].reshape(upper.shape)
        sums = _weighted_squares(upper, weights, batch).reshape(len(rows), -1).sum(axis=1)
        batch[...] = 0.0
        return sums

    analyze.influences = influences
    return analyze


def _split_rows(rows: np.ndarray, free: tuple[int, ...], j: int) -> tuple[tuple[int, ...], np.ndarray]:
    """Half-butterfly of every compact spectrum (row) on variable j.

    Row r becomes rows 2r (x_j = +1) and 2r + 1 (x_j = -1), over ``free``
    without j, which is the order of the children in the tree.
    """
    h = rows.reshape(len(rows), -1, 2, 1 << free.index(j))
    out = np.empty((len(rows), 2, h.shape[1], h.shape[3]))
    np.add(h[:, :, 0, :], h[:, :, 1, :], out=out[:, 0])
    np.subtract(h[:, :, 0, :], h[:, :, 1, :], out=out[:, 1])
    return tuple(v for v in free if v != j), out.reshape(2 * len(rows), -1)


def _tally(level: list[tuple[Leaf, int]], stats: dict[int, LeafStats],
           eps: float) -> tuple[float, list[int], float, int]:
    """Energy, the ids of the bad leaves, bad mass and tree depth."""
    phi = bad_mass = 0.0
    bad: list[int] = []
    for leaf, depth in level:
        s = stats[leaf.id]
        phi += 2.0 ** -depth * s.stab
        if s.bad(eps):
            bad.append(leaf.id)
            bad_mass += 2.0 ** -depth
    return phi, bad, bad_mass, max(depth for _, depth in level)


def _check_phi(phi: float, bound: float) -> None:
    if phi > bound + _PHI_GUARD:
        raise RuntimeError(f"internal error: energy {phi} exceeds bound {bound}")


def _decompose(f: BooleanFunction, ghat: FourierExpansion, p: RegularityParams, plan: Callable,
               keep_all: bool) -> DecompositionResult:
    """The energy-increment loop of both drivers, from f and its spectrum
    ``ghat``: run passes until at most a gamma fraction of leaf mass is bad.

    ``plan(stats, bad, depth)`` (leaf statistics by id, the bad leaves' ids,
    the tree depth) is the split policy: it returns the next pass as a list
    of rounds, each a function from a held leaf's id to the variable it
    splits on, or None to stop with ``exhausted`` set.  The spectra held are
    groups of rows over shared free variables, in ``leaves`` order, so each
    round's children take consecutive ids, and the rows of a group split on
    one variable.  With ``keep_all`` every leaf's spectrum is held and a
    level stays one group; otherwise only the bad leaves' are, one copied
    row each.  The children of a pass's last round are analysed, those of
    earlier rounds are not.

    Every pass checks that phi <= max(1, E[f^2]), that the iteration budget
    holds, and the restriction identity: a split of a leaf at depth d on j
    gains exactly delta * 2^-d * Inf_j, summed over all rounds of the pass.
    The callers check E[f^2] <= 1 before they transform f.
    """
    norm_bound = max(1.0, norm2(f))
    t = singleton(f)
    analyze = _analyzer(f.n, p.delta, p.eps)
    free, root = tuple(range(f.n)), ghat.coeffs.reshape(1, -1)
    stats = {0: analyze(free, root)[0]}
    groups = [([0], free, root)] if keep_all or stats[0].bad(p.eps) else []
    del ghat, root  # the root's rows are freed at its split, unless a caller holds them
    phi, bad, bad_mass, depth = _tally(leaves(t), stats, p.eps)
    _check_phi(phi, norm_bound)
    ledger = EnergyLedger(phi)
    ledger.record(0, phi, 0)
    iterations = 0
    while bad_mass > p.gamma:
        rounds = plan(stats, bad, depth)
        if rounds is None:
            return DecompositionResult(t, iterations, ledger, bad_mass, exhausted=True, leaf_stats=stats)
        predicted = 0.0
        for k, var_of in enumerate(rounds):
            last = k == len(rounds) - 1
            held, groups = groups[::-1], []
            splits: dict[int, int] = {}
            next_id = t.next_leaf_id
            while held:
                ids, free, rows = held.pop()
                for leaf_id in ids:
                    splits[leaf_id] = var_of(leaf_id)
                    stats.pop(leaf_id, None)
                j = splits[ids[0]]
                predicted += 2.0 ** (len(free) - f.n) * float(analyze.influences(free, rows, j).sum())
                free, rows = _split_rows(rows, free, j)  # frees the parents' rows
                ids = list(range(next_id, next_id + len(rows)))
                next_id += len(rows)
                if last:
                    stats.update(zip(ids, analyze(free, rows)))
                if keep_all or not last:
                    groups.append((ids, free, rows))
                else:  # a copy each, so that a good sibling is freed
                    groups.extend(([leaf_id], free, row.reshape(1, -1).copy())
                                  for leaf_id, row in zip(ids, rows) if stats[leaf_id].bad(p.eps))
            # after the spectra, so that a parent's spectrum is freed before
            # its children's tables are allocated
            t = split_leaves(t, splits)
        iterations += 1
        if iterations > p.budget:
            raise RuntimeError(f"internal error: iteration count passed budget {p.budget}")
        previous = phi
        phi, bad, bad_mass, depth = _tally(leaves(t), stats, p.eps)
        _check_phi(phi, norm_bound)
        if abs(phi - previous - p.delta * predicted) > _PHI_GUARD:
            raise RuntimeError(f"internal error: pass {iterations} gained {phi - previous}, but "
                               f"the restriction identity predicts {p.delta * predicted}")
        ledger.record(iterations, phi, depth)
    return DecompositionResult(t, iterations, ledger, bad_mass, leaf_stats=stats)


def _split_bad_leaves(n: int, p: RegularityParams) -> Callable:
    """The plain split policy: one round in which each bad leaf splits on
    its own argmax variable, up to depth min(budget, n)."""
    def plan(stats: dict[int, LeafStats], bad: list[int], depth: int) -> list[Callable[[int], int]]:
        if depth + 1 > min(p.budget, float(n)):
            raise RuntimeError(f"internal error: split would push depth past min(budget={p.budget}, "
                               f"n={n}); the energy argument forbids this")
        return [lambda leaf_id: stats[leaf_id].var]  # the held leaves are the bad ones

    return plan


def decompose(f: BooleanFunction, p: RegularityParams) -> DecompositionResult:
    """Split every bad leaf on its argmax-influence variable until at most a
    gamma fraction of leaf mass fails the (eps, delta)-small-influence test.

    The returned tree computes f exactly, has depth at most
    min(1/(eps*delta*gamma), n), and its ledger records the energy after
    every pass; each recorded gain exceeds eps*delta*gamma and equals
    delta * sum over the split leaves of 2^-depth * Inf_var, which is
    checked at run time.
    """
    f.require_unit_mean_square()
    return _decompose(f, wht(f), p, _split_bad_leaves(f.n, p), keep_all=False)


def decompose_homogeneous(f: BooleanFunction, p: RegularityParams, var_cap: int) -> DecompositionResult:
    """Variant whose tree queries one fixed variable per level.

    Each pass collects the argmax-influence variables of all bad leaves and
    splits every leaf on all of them, one round per new variable, so the
    leaves are exactly the restrictions of f on the query set.  When the
    next pass would push the query set past ``var_cap`` the partial tree is
    returned with ``exhausted`` set instead of an error: the guaranteed
    worst case is a tower-type size that no table-based run could reach
    anyway.  The leaves of a level share their free variables, so their
    spectra are held as the rows of one array and analysed in one batch.
    """
    if not 0 <= var_cap <= f.n:
        raise ValueError(f"var_cap must lie in [0, n={f.n}], got {var_cap}")
    f.require_unit_mean_square()
    query_vars: list[int] = []

    def plan(stats: dict[int, LeafStats], bad: list[int], depth: int) -> list[Callable[[int], int]] | None:
        new_vars = sorted({stats[leaf_id].var for leaf_id in bad} - set(query_vars))
        if not new_vars:
            raise RuntimeError("internal error: bad leaf with no splittable variable")
        if len(query_vars) + len(new_vars) > var_cap:
            return None
        query_vars.extend(new_vars)
        return [lambda leaf_id, var=var: var for var in new_vars]

    return replace(_decompose(f, wht(f), p, plan, keep_all=True), homogeneous_vars=query_vars)


def tower(k: int) -> int | float:
    """Iterated exponential 2^^k, saturating to math.inf past the int64 range."""
    if k < 0:
        raise ValueError(f"tower height must be nonnegative, got {k}")
    value = 1
    for _ in range(k):
        if value > 63:
            return math.inf
        value = 2 ** value
    return value


def decomposition_report(result: DecompositionResult, p: RegularityParams,
                         homogeneous: bool) -> dict:
    """JSON-ready summary: params, energy trace, and per-leaf statistics."""
    leaf_rows = []
    for leaf, depth in leaves(result.tree):
        stats = result.leaf_stats[leaf.id]
        leaf_rows.append({
            "id": leaf.id,
            "depth": depth,
            "mass": 2.0 ** -depth,
            "mean": stats.mean,
            "max_influence": stats.max_influence,
        })
    return {
        "params": {"eps": p.eps, "delta": p.delta, "gamma": p.gamma, "budget": p.budget},
        "homogeneous": homogeneous,
        "status": "budget_exceeded" if result.exhausted else "ok",
        "iterations": result.iterations,
        "energy_history": [[it, phi] for it, phi in result.ledger.history],
        "depth": tree_depth(result.tree),
        "bad_mass": result.bad_mass,
        "query_vars": [v + 1 for v in result.homogeneous_vars],
        "num_query_vars": len(result.homogeneous_vars),
        "leaves": leaf_rows,
    }
