"""Constructive regularity decompositions with enforced depth and mass bounds.

``decompose`` repeatedly splits every leaf whose subfunction still has a
coordinate of noisy influence above eps, always on the argmax-influence
variable.  Each such pass raises the tree energy by more than
eps*delta*gamma while more than a gamma fraction of leaf mass is bad, and
the energy is capped by E[f^2] <= 1, so at most 1/(eps*delta*gamma) passes
can run.  ``decompose_homogeneous`` additionally forces every level of the
tree to query one fixed variable, at the price of a tower-type size bound.

Both drivers run one energy-increment loop, ``_decompose``, and differ only
in their split policy, which gives a pass as rounds of split variables:
one round of the bad leaves' own argmax variables, or one round per new
query variable, on which every leaf splits.  The energy phi is that of the
good leaves already settled plus that of the level the pass has just
analysed, the only leaves a pass changes, so no pass walks the tree.  The
loop checks every pass at run time: phi <= max(1, E[f^2]), the iteration
budget, and the exact energy identity, by which a split of a leaf at depth
d on j gains delta * 2^-d * Inf_j.  The plain policy raises past depth
min(1/(eps*delta*gamma), n); the homogeneous one stops at ``var_cap`` and
returns the partial tree.

Only the root is transformed, and ``stablest.check_quasi_mist`` hands the
loop the spectrum it already has.  A child's spectrum comes from its
parent's by one half-butterfly, the restriction identity
ghat_{x_i=+1}(S) = ghat(S) + ghat(S+{i}) and ghat_{x_i=-1}(S) = ghat(S) -
ghat(S+{i}) for S not containing i (O'Donnell, Analysis of Boolean
Functions, section 3.3).  The leaves held in a pass sit at one depth, so a
pass is one batch: their spectra are the rows of one array, compact over
their free variables (at most 2^n values in all), each round splits every
row and reads its Inf_j in one step of the analysis (``analyze.split``),
and one analysis of all children, a ``LeafStats`` of arrays, ends the
pass.  A good leaf settles its entries of it and drops its spectrum.  The
analysis (``noise._analyzer``, the one leaf kernel, and the only code that
indexes the rows) takes about 3 * 2^m operations per leaf with m free
variables and decides ties and thresholds by the rule at
``noise._TIE_BAND``, so the trees are exactly those that a fresh transform
of every leaf table would give.

On a table whose values are all exactly -1.0, +0.0 or 1.0 (every pm_one
table, and {0,1} and {-1,0,1} tables after a scan of their bits) the rows
are int32 counts at scale 2^-n (``boolfn._counts``): 2^n * ghat(S) is then
an integer of magnitude at most 2^n, and so is every half-butterfly sum,
which int32 holds exactly.  The analysis reads the scale from the rows'
dtype, and every float it derives has the bits that float64 rows give.
Any other table, -0.0 entries included, keeps float64 rows, and so does
the float64 spectrum that ``check_quasi_mist`` hands the loop.  A driver call
holds, besides f: one product buffer (2^n doubles of scratch, allocated
once, so no leaf costs a 2^n temporary, and no 2^n weight table is held:
each batch's weights are gathered into it), the tie rule's scratch (2^(n-1)
doubles, allocated at the first leaf that the rule sends to the ambient
sums, and holding nothing between batches), and at most two arrays of
rows, a pass's and its split, 2^n values each (half a table each as
counts).

Each leaf's statistics carry its degree profile W^k = sum over |S| = k of
ghat(S)^2, k = 0 .. m, from which Stab_rho = sum_k rho^k W^k at any rho
(O'Donnell, Analysis of Boolean Functions, chapter 2): the driver's energy
reads it at rho = 1 - delta, and ``stablest.check_quasi_mist`` at its own
rho, so no leaf is transformed again.  The profile is the one a spectrum
carries (``FourierExpansion.profile``), computed by the same kernel,
``boolfn._degree_weights``, for all rows of a pass at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .boolfn import REAL, BooleanFunction, FourierExpansion, _spectrum
from .dtree import DecisionTree, EnergyLedger, _in_leaf_order, _split, singleton, tree_depth
from .noise import LeafStats, _analyzer, _bad

# Guard band for the internal energy checks (phi <= 1, and each pass's gain
# against the gain the restriction identity predicts); the energy is a sum
# of at most 2^n nonnegative doubles, so anything past this is a logic bug.
_PHI_GUARD = 1e-9


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


@dataclass
class DecompositionResult:
    tree: DecisionTree
    iterations: int
    ledger: EnergyLedger
    bad_mass: float
    leaf_stats: LeafStats  # of the final leaves, in ``leaves`` order
    homogeneous_vars: list[int] = field(default_factory=list)
    exhausted: bool = False  # homogeneous variant ran out of var_cap


def _decompose(f: BooleanFunction, p: RegularityParams, plan: Callable, keep_all: bool,
               ghat: FourierExpansion | None = None) -> DecompositionResult:
    """The energy-increment loop of both drivers, from f and its spectrum
    ``ghat`` (transformed here if not given): run passes until at most a
    gamma fraction of leaf mass is bad.

    A pass's state is its level: the leaves it holds, all at one depth, with
    their spectra as the rows of one array in ``leaves`` order (each row's
    free variables in a parallel array) and their statistics as the arrays
    of one analysis.  Every other leaf is good and final: when it left the
    level, its id and statistics settled, to be put in ``leaves`` order with
    the last level's at the end, and its energy went into a running sum, so
    phi is that sum plus 2^-depth times the level's Stab, and the bad mass
    is 2^-depth times the number of the level's bad leaves.

    ``plan(bad_vars, depth)`` (the bad leaves' argmax variables, in order,
    and their depth) is the split policy: it returns the next pass as a
    list of rounds of split variables, each one variable for every held leaf
    or one per held leaf, or None to stop with ``exhausted`` set.  A round's
    children take consecutive ids.  With ``keep_all`` the whole level is
    held; otherwise only its bad leaves are, in one copy that frees their
    good siblings.  Only the last round's children are analysed.

    Every pass checks that phi <= max(1, E[f^2]), that the iteration budget
    holds, and the restriction identity: a split of a leaf at depth d on j
    gains exactly delta * 2^-d * Inf_j, summed over all rounds of the pass.
    """
    # E[f^2] <= 1 is checked before f is transformed; on pm_one and zero_one
    # tables it holds in floating point too, as each square is at most 1
    bound = max(1.0, f.require_unit_mean_square()) if f.range_tag == REAL else 1.0
    t = singleton(f)
    analyze = _analyzer(f.n, p.delta, p.eps)
    ids, frees = np.arange(1), np.arange(f.n).reshape(1, -1)
    rows = (_spectrum(f) if ghat is None else ghat.coeffs).reshape(1, -1)
    del ghat  # the root's rows are freed at its split, unless a caller holds them
    parts: list[tuple[np.ndarray, LeafStats]] = []  # (ids, stats): the settled leaves, then the last level
    ledger = EnergyLedger()
    iterations, depth, phi, settled, predicted = 0, 0, 0.0, 0.0, 0.0
    while True:  # a pass: analyse the new level and check the tree, then stop or split
        level = analyze(frees, rows)
        bad = _bad(level.max_influences, p.eps)
        mass = 2.0 ** -depth
        # Stabs add left to right, as cumsum defines: the builtin sum compensates from Python 3.12 on
        previous, phi, bad_mass = phi, settled + mass * float(np.cumsum(level.stabs)[-1]), mass * int(bad.sum())
        if phi > bound + _PHI_GUARD:
            raise RuntimeError(f"internal error: energy {phi} exceeds bound {bound}")
        if iterations and abs(phi - previous - p.delta * predicted) > _PHI_GUARD:
            raise RuntimeError(f"internal error: pass {iterations} gained {phi - previous}, but "
                               f"the restriction identity predicts {p.delta * predicted}")
        ledger.record(iterations, phi, depth)
        if bad_mass <= p.gamma or (rounds := plan(level.variables[bad], depth)) is None:
            break
        if not keep_all and not bad.all():  # the good leaves settle; the bad ones are held
            parts.append((ids[~bad], LeafStats(*(a[~bad] for a in level))))
            settled += mass * float(np.cumsum(level.stabs[~bad])[-1])
            ids, frees, rows = ids[bad], frees[bad], rows[bad]  # one copy
        predicted = 0.0
        for var in rounds:
            js = np.broadcast_to(var, len(rows))
            frees, rows, influences = analyze.split(frees, rows, js)  # releases the parents' rows
            predicted += 2.0 ** -depth * float(influences.sum())
            t = _split(t, ids, js)
            ids, depth = np.arange(t.next_leaf_id - len(rows), t.next_leaf_id), depth + 1
        iterations += 1
        if iterations > p.budget:
            raise RuntimeError(f"internal error: iteration count passed budget {p.budget}")
    parts.append((ids, level))
    return DecompositionResult(t, iterations, ledger, bad_mass, _in_leaf_order(t, parts),
                               exhausted=bad_mass > p.gamma)


def _split_bad_leaves(n: int, p: RegularityParams) -> Callable:
    """The plain split policy: one round in which each bad leaf splits on
    its own argmax variable, up to depth min(budget, n)."""
    def plan(bad_vars: np.ndarray, depth: int) -> list[np.ndarray]:
        if depth + 1 > min(p.budget, float(n)):
            raise RuntimeError(f"internal error: split would push depth past min(budget={p.budget}, "
                               f"n={n}); the energy argument forbids this")
        return [bad_vars]  # the held leaves are the bad ones

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
    return _decompose(f, p, _split_bad_leaves(f.n, p), keep_all=False)


def decompose_homogeneous(f: BooleanFunction, p: RegularityParams, var_cap: int) -> DecompositionResult:
    """Variant whose tree queries one fixed variable per level.

    Each pass collects the argmax-influence variables of all bad leaves and
    splits every leaf on all of them, one round per new variable, so the
    leaves are exactly the restrictions of f on the query set.  When the
    next pass would push the query set past ``var_cap`` the partial tree is
    returned with ``exhausted`` set instead of an error: the guaranteed
    worst case is a tower-type size that no table-based run could reach
    anyway.
    """
    if not 0 <= var_cap <= f.n:
        raise ValueError(f"var_cap must lie in [0, n={f.n}], got {var_cap}")
    query_vars: list[int] = []

    def plan(bad_vars: np.ndarray, depth: int) -> list[int] | None:
        new_vars = sorted(set(bad_vars.tolist()) - set(query_vars))
        if not new_vars:
            raise RuntimeError("internal error: bad leaf with no splittable variable")
        if len(query_vars) + len(new_vars) > var_cap:
            return None
        query_vars.extend(new_vars)
        return new_vars

    return replace(_decompose(f, p, plan, keep_all=True), homogeneous_vars=query_vars)


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
    stats, t = result.leaf_stats, result.tree
    leaf_rows = [{"id": leaf_id, "depth": depth, "mass": 2.0 ** -depth, "mean": mean, "max_influence": top}
                 for leaf_id, depth, mean, top
                 in zip(t.ids.tolist(), t.depths.tolist(), stats.means.tolist(), stats.max_influences.tolist())]
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
