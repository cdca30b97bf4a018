"""Constructive regularity decompositions with enforced depth and mass bounds.

``decompose`` repeatedly splits every leaf whose subfunction still has a
coordinate of noisy influence above eps, always on the argmax-influence
variable.  Each such pass raises the tree energy by more than
eps*delta*gamma while more than a gamma fraction of leaf mass is bad, and
the energy is capped by E[f^2] <= 1, so at most 1/(eps*delta*gamma) passes
can run.  ``decompose_homogeneous`` additionally forces every level of the
tree to query one fixed variable, at the price of a tower-type size bound.

Only the root is transformed.  A child's spectrum comes from its parent's
by one half-butterfly, the restriction identity
ghat_{x_i=+1}(S) = ghat(S) + ghat(S+{i}) and ghat_{x_i=-1}(S) = ghat(S) -
ghat(S+{i}) for S not containing i (O'Donnell, Analysis of Boolean
Functions, section 3.3).  Each leaf is analysed once, when it is created;
a good leaf keeps its statistics from pass to pass and drops its spectrum.
Spectra of bad leaves are held in compact form over their free variables,
so together they never hold more than 2^n values.  The analysis works on
the compact spectra, a batch of rows at a time: a leaf with m free
variables costs about 3 * 2^m operations (Stab as a row sum, the influences
by an in-place fold), not the (n + 1) * 2^n of a sum over the ambient 2^n
layout.  Its sums differ from the ambient ones only in the last bits, but
those bits decide argmax ties and influences that sit on the threshold.  So
two kinds of leaf re-sum their candidate variables (those within a
relative 1e-9 of the top influence) over the ambient layout: a bad leaf
with more than one candidate, and a leaf whose top influence lies within
1e-9 of the threshold.  The split variables and the bad/good decisions,
and so the trees, are then exactly the ones that a fresh transform of
every leaf table would give.  One product buffer, a half-size buffer and
the weights are allocated once per driver call, so no leaf costs a 2^n
temporary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .boolfn import BooleanFunction, FourierExpansion, norm2, subset_sizes, wht
from .dtree import (
    DecisionTree,
    EnergyLedger,
    Leaf,
    _cube,
    leaves,
    singleton,
    split_all_leaves,
    split_leaves,
    tree_depth,
)
from .noise import INFLUENCE_SLACK, _influence_powers, _influence_sums, _powers, _weighted_squares

# Guard band for the internal energy checks (phi <= 1, and each pass's gain
# against the gain the restriction identity predicts); the energy is a sum
# of at most 2^n nonnegative doubles, so anything past this is a logic bug.
_PHI_GUARD = 1e-9

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
        if self.eps <= 0.0:
            raise ValueError(f"eps must be positive, got {self.eps}")
        if not 0.0 < self.delta <= 1.0:
            raise ValueError(f"delta must lie in (0, 1], got {self.delta}")
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in (0, 1], got {self.gamma}")
        if not math.isfinite(self.budget):
            raise ValueError("iteration budget 1/(eps*delta*gamma) must be finite")

    @property
    def budget(self) -> float:
        """Iteration and depth budget 1/(eps*delta*gamma)."""
        return 1.0 / (self.eps * self.delta * self.gamma)


@dataclass(frozen=True)
class LeafStats:
    """One leaf's analysis: its mean, Stab_{1-delta}, and its argmax noisy
    influence variable (ties go to the lowest index) with that influence.

    On a bad leaf, and on one at the threshold, ``var`` and whether the leaf
    is bad are exactly those of the ambient kernel; on a good leaf, which is
    never split, ``var`` may differ from it on a near-tie.
    """

    mean: float
    stab: float
    var: int
    max_influence: float

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


def _analyzer(n: int, delta: float, eps: float):
    """The leaf analysis of one driver call at rho = 1 - delta and influence
    threshold eps, with its weights and buffers allocated once, so that no
    leaf costs a 2^n temporary.

    ``analyze(free, rows)`` analyses the compact spectra (rows) over
    ``free`` in one batch, in a prefix of the product buffer: the weights
    of a mask over m variables are the first 2^m ambient ones, because
    ``subset_sizes(n)[:2^m]`` is ``subset_sizes(m)``, so every product has
    the bits of the ambient kernel's.  Stab is each row's sum and the
    influences come from ``_fold_sums``.  These sums differ from the
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
    """
    sizes = subset_sizes(n)
    stab_weights = _powers(1.0 - delta, n)[sizes]
    influence_weights = _influence_powers(delta, n)[sizes]
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
        size = rows.shape[1]
        batch = prod[:rows.size].reshape(rows.shape)
        stabs = _weighted_squares(rows, stab_weights[:size], batch).sum(axis=1)
        influences = _fold_sums(_weighted_squares(rows, influence_weights[:size], batch))
        batch[...] = 0.0
        out = []
        for row, stab, row_influences in zip(rows, stabs, influences):
            top = float(row_influences.max(initial=0.0))
            var = free[int(row_influences.argmax())] if free else 0
            if top >= threshold * (1.0 - _TIE_BAND):
                candidates = np.flatnonzero(row_influences >= top * (1.0 - _TIE_BAND))
                if len(candidates) > 1 or top <= threshold * (1.0 + _TIE_BAND):
                    var, top = ambient_argmax(free, row, [free[k] for k in candidates])
            out.append(LeafStats(float(row[0]), float(stab), var, top))
        return out

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
           eps: float) -> tuple[float, list[tuple[Leaf, int]], float, int]:
    """Energy, the bad (leaf, depth) pairs, bad mass and tree depth."""
    phi = 0.0
    bad: list[tuple[Leaf, int]] = []
    bad_mass = 0.0
    for leaf, depth in level:
        s = stats[leaf.id]
        phi += 2.0 ** -depth * s.stab
        if s.bad(eps):
            bad.append((leaf, depth))
            bad_mass += 2.0 ** -depth
    return phi, bad, bad_mass, max(depth for _, depth in level)


def _check_phi(phi: float, bound: float) -> None:
    if phi > bound + _PHI_GUARD:
        raise RuntimeError(f"internal error: energy {phi} exceeds bound {bound}")


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
    norm_bound = max(1.0, norm2(f))
    t = singleton(f)
    free, root = tuple(range(f.n)), wht(f).coeffs.reshape(1, -1)
    analyze = _analyzer(f.n, p.delta, p.eps)
    stats = {0: analyze(free, root)[0]}
    # compact spectra of the bad leaves (one-row arrays, free variables) by leaf id
    spectra = {0: (root, free)} if stats[0].bad(p.eps) else {}
    del root
    phi, bad, bad_mass, depth = _tally(leaves(t), stats, p.eps)
    _check_phi(phi, norm_bound)
    ledger = EnergyLedger(phi)
    ledger.record(0, phi, 0)
    iterations = 0
    while bad_mass > p.gamma:
        if depth + 1 > min(p.budget, float(t.n)):
            raise RuntimeError(
                "internal error: split would push depth past "
                f"min(budget={p.budget}, n={t.n}); the energy argument forbids this"
            )
        first_id = t.next_leaf_id
        splits = {leaf.id: stats[leaf.id].var for leaf, _ in bad}
        predicted = 0.0
        for k, (leaf, leaf_depth) in enumerate(bad):
            parent = stats.pop(leaf.id)
            free, children = _split_rows(*spectra.pop(leaf.id), parent.var)
            child_ids = (first_id + 2 * k, first_id + 2 * k + 1)
            for child_id, child, child_stats in zip(child_ids, children, analyze(free, children)):
                stats[child_id] = child_stats
                if child_stats.bad(p.eps):  # a copy, so that a good sibling is freed
                    spectra[child_id] = (child.reshape(1, -1).copy(), free)
            predicted += 2.0 ** -leaf_depth * parent.max_influence
        # after the spectra, so that a parent's spectrum is freed before its
        # children's tables are allocated
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


def decompose_homogeneous(f: BooleanFunction, p: RegularityParams, var_cap: int) -> DecompositionResult:
    """Variant whose tree queries one fixed variable per level.

    Each pass collects the argmax-influence variables of all bad leaves and
    splits every leaf on all of them, so the leaves are exactly the
    restrictions of f on the query set.  When the next pass would push the
    query set past ``var_cap`` the partial tree is returned with
    ``exhausted`` set instead of an error: the guaranteed worst case is a
    tower-type size that no table-based run could reach anyway.

    The leaves of a level share their free variables, so their compact
    spectra are the rows of one array, in ``leaves`` order.
    """
    f.require_unit_mean_square()
    if not 0 <= var_cap <= f.n:
        raise ValueError(f"var_cap must lie in [0, n={f.n}], got {var_cap}")
    norm_bound = max(1.0, norm2(f))
    t = singleton(f)
    query_vars: list[int] = []
    free, rows = tuple(range(f.n)), wht(f).coeffs.reshape(1, -1)
    analyze = _analyzer(f.n, p.delta, p.eps)
    stats = {0: analyze(free, rows)[0]}
    phi, bad, bad_mass, _ = _tally(leaves(t), stats, p.eps)
    _check_phi(phi, norm_bound)
    ledger = EnergyLedger(phi)
    ledger.record(0, phi, 0)
    iterations = 0
    exhausted = False
    while bad_mass > p.gamma:
        new_vars = sorted({stats[leaf.id].var for leaf, _ in bad} - set(query_vars))
        if not new_vars:
            raise RuntimeError("internal error: bad leaf with no splittable variable")
        if len(query_vars) + len(new_vars) > var_cap:
            exhausted = True
            break
        for var in new_vars:
            t = split_all_leaves(t, var)
            query_vars.append(var)
            free, rows = _split_rows(rows, free, var)
        iterations += 1
        if iterations > p.budget:
            raise RuntimeError(f"internal error: iteration count passed budget {p.budget}")
        level = leaves(t)
        stats = {leaf.id: leaf_stats for (leaf, _), leaf_stats in zip(level, analyze(free, rows))}
        phi, bad, bad_mass, _ = _tally(level, stats, p.eps)
        _check_phi(phi, norm_bound)
        ledger.record(iterations, phi, len(query_vars))
    return DecompositionResult(t, iterations, ledger, bad_mass, query_vars, exhausted, stats)


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
