"""Decision trees with subfunction leaves, leaf-mass accounting, and energy.

A tree is its leaves in order, each internal node a run of them (see
``DecisionTree``).  Trees are persistent: a split returns a new tree sharing
every untouched leaf.  A leaf at depth d carries mass 2^-d, the probability
of reaching it by uniformly random decisions from the root.  Leaf ids are
stable under splits of other leaves.

A leaf's table is a read-only view of the root table at the leaf's fixed
bits: its sub-cube of 2^(n-d) values (O'Donnell, Analysis of Boolean
Functions, section 3.3).  A split indexes its parent's view once per child,
so no split copies a value, and every tree over f holds f's table alone.

The tree statistics read one ``noise.LeafStats`` of every leaf in
``leaves`` order (``_analysis``), the layout a decomposition's result has.
"""

from __future__ import annotations

import bisect
import itertools
import operator
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .boolfn import BooleanFunction, _butterfly, _cube, _handover
from .noise import LeafStats, _analyzer, _bad, _check_delta

_BATCH_BITS = 12  # a depth's tables are transformed in batches of 2^12 entries (32 KiB)


@dataclass(frozen=True, eq=False)
class Leaf:
    """A subfunction of the root: the root with the variables in ``fixed``
    (root-to-leaf path, variable -> assigned value, treat as immutable) set.

    ``table`` is the read-only view of the root table at the fixed bits,
    shaped (2,) * m for the m free variables: axis a holds the free variable
    of rank m-1-a, so its C-order ravel is indexed by the free variables'
    bits in ascending order.
    """

    id: int
    table: np.ndarray
    fixed: dict[int, int]
    n: int  # ambient arity
    range_tag: str

    @property
    def free(self) -> tuple[int, ...]:
        return tuple(v for v in range(self.n) if v not in self.fixed)

    @property
    def fn(self) -> BooleanFunction:
        """The subfunction on the ambient cube (constant along the fixed
        variables), built afresh from ``table`` on every access."""
        shape = tuple(1 if v in self.fixed else 2 for v in reversed(range(self.n)))
        values = np.empty(1 << self.n)
        values.reshape((2,) * self.n)[...] = self.table.reshape(shape)
        return BooleanFunction(self.n, _handover(values), self.range_tag)


@dataclass(frozen=True)
class DecisionTree:
    """A decision tree on n variables as its leaves in left-to-right order.

    The leaves under an internal node at depth d are consecutive and share
    the first d entries of ``fixed``: entry d is that node's variable, and
    its plus-branch leaves (x_var = +1, input bit var = 0) come first.
    """

    n: int
    leaves: tuple[Leaf, ...]
    next_leaf_id: int


@dataclass
class EnergyLedger:
    """Energy trace of an iterative decomposition.

    ``history`` holds one (iteration, phi) pair per recorded state, starting
    at iteration 0; ``depths`` is index-aligned and records tree depth so
    growth recurrences can be audited afterwards.
    """

    history: list[tuple[int, float]] = field(default_factory=list)
    depths: list[int] = field(default_factory=list)

    def record(self, iteration: int, phi: float, depth: int) -> None:
        self.history.append((iteration, phi))
        self.depths.append(depth)


def singleton(f: BooleanFunction) -> DecisionTree:
    """One leaf holding f itself; the starting point of every decomposition."""
    return DecisionTree(f.n, (Leaf(0, f.values.reshape((2,) * f.n), {}, f.n, f.range_tag),), 1)


def leaves(t: DecisionTree) -> list[tuple[Leaf, int]]:
    """All (leaf, depth) pairs in left-to-right order (plus branch first)."""
    return [(leaf, len(leaf.fixed)) for leaf in t.leaves]


def tree_depth(t: DecisionTree) -> int:
    return max(len(leaf.fixed) for leaf in t.leaves)


def _branch(t: DecisionTree, lo: int, hi: int, depth: int) -> tuple[int, int]:
    """The variable of the depth-``depth`` internal node whose leaves are
    t.leaves[lo:hi], and the index where its minus branch starts."""
    var = next(itertools.islice(t.leaves[lo].fixed, depth, None))
    return var, bisect.bisect_left(t.leaves, True, lo, hi, key=lambda leaf: leaf.fixed[var] == -1)


def evaluate(t: DecisionTree, b: int) -> float:
    """Walk the tree by the bits of input index b, then read the leaf's
    table at the free bits of b."""
    b = operator.index(b)
    if not 0 <= b < (1 << t.n):
        raise IndexError(f"input index {b} out of range for n={t.n}")
    lo, hi, depth = 0, len(t.leaves), 0
    while hi - lo > 1:
        var, mid = _branch(t, lo, hi, depth)
        lo, hi = (mid, hi) if (b >> var) & 1 else (lo, mid)
        depth += 1
    leaf = t.leaves[lo]
    return float(leaf.table[tuple((b >> v) & 1 for v in reversed(leaf.free))])


def evaluate_table(t: DecisionTree) -> np.ndarray:
    """Vector of evaluate(t, b) over all 2^n inputs: each leaf's table
    written into the sub-cube of the inputs that reach it."""
    out = np.empty(1 << t.n)
    for leaf, _ in leaves(t):
        bits = {v: int(x == -1) for v, x in leaf.fixed.items()}  # x_v = -1 is input bit 1
        _cube(out, t.n, bits)[...] = leaf.table
    return out


def _split_node(leaf: Leaf, j: int, first_id: int) -> tuple[Leaf, Leaf]:
    if j in leaf.fixed:
        raise ValueError(f"variable {j} already fixed on the path to leaf {leaf.id}")
    # the axes run down the free variables: the free ones above j come first
    axis = leaf.n - 1 - j - sum(v > j for v in leaf.fixed)
    plus, minus = (leaf.table[(slice(None),) * axis + (bit, ...)] for bit in (0, 1))
    return (Leaf(first_id, plus, {**leaf.fixed, j: 1}, leaf.n, leaf.range_tag),
            Leaf(first_id + 1, minus, {**leaf.fixed, j: -1}, leaf.n, leaf.range_tag))


def split_leaves(t: DecisionTree, splits: dict[int, int]) -> DecisionTree:
    """Replace each leaf ``splits`` names (id -> variable) by its two
    children, in one pass over the leaves; other leaves are shared with t.

    New ids follow ``leaves`` order: the first split leaf's children get
    next_leaf_id (plus branch) and next_leaf_id + 1, the next split leaf's
    the two ids after those, and so on.
    """
    splits = {leaf_id: operator.index(j) for leaf_id, j in splits.items()}
    for j in splits.values():
        if not 0 <= j < t.n:
            raise IndexError(f"variable index {j} out of range for n={t.n}")
    ids = itertools.count(t.next_leaf_id, 2)
    out: list[Leaf] = []
    for leaf in t.leaves:
        if leaf.id in splits:
            out += _split_node(leaf, splits[leaf.id], next(ids))
        else:
            out.append(leaf)
    next_id = next(ids)
    if next_id - t.next_leaf_id < 2 * len(splits):
        present = {leaf.id for leaf in t.leaves}
        raise KeyError(f"no leaf with id {min(set(splits) - present)}")
    return DecisionTree(t.n, tuple(out), next_id)


def _spectra(level: list[Leaf], m: int) -> np.ndarray:
    """The compact spectra of leaves over m free variables, one row each.
    The tables are transformed as the columns of batches of at most
    max(2^_BATCH_BITS entries, one table), so that beside the rows only one
    batch and its transform are held: one copy of a level would cost as
    much as the rows."""
    rows = np.empty((len(level), 1 << m))
    group = max(1 << _BATCH_BITS >> m, 1)
    for g in range(0, len(level), group):
        tables = [leaf.table for leaf in level[g:g + group]]
        k = len(tables)
        batch = np.stack(tables, axis=-1) if k > 1 else tables[0]
        # unbound, so that a batch's transform is freed before the next one
        np.divide(_butterfly(batch, tables=k).reshape(-1, k).T, 1 << m, out=rows[g:g + k])
    return rows


def _in_leaf_order(t: DecisionTree, parts: list[tuple[np.ndarray, LeafStats]]) -> LeafStats:
    """The statistics of every leaf of t as one ``LeafStats`` in ``leaves``
    order, from parts that each give some leaves' ids and their analysis.
    The profiles are zero-padded to n + 1 columns: W^k = 0 beyond a leaf's
    m free variables."""
    count = len(t.leaves)
    position = np.empty(t.next_leaf_id, np.int64)
    position[np.fromiter((leaf.id for leaf in t.leaves), np.int64, count)] = np.arange(count)
    stats = LeafStats(*(np.empty(count, a.dtype) for a in parts[0][1][:-1]), np.zeros((count, t.n + 1)))
    for ids, part in parts:
        at = position[ids]
        for into, values in zip(stats[:-1], part[:-1]):
            into[at] = values
        stats.profiles[at, :part.profiles.shape[1]] = part.profiles
    return stats


def _masses(t: DecisionTree) -> np.ndarray:
    """Each leaf's mass 2^-depth, in ``leaves`` order."""
    return np.ldexp(1.0, [-len(leaf.fixed) for leaf in t.leaves])


def _analysis(t: DecisionTree, eps: float, delta: float) -> LeafStats:
    """The drivers' analysis (``noise._analyzer``) of every leaf, in
    ``leaves`` order: a depth's leaves in one batch of compact spectra
    (``_spectra``), their free variables from one array of the fixed ones."""
    ids = np.fromiter((leaf.id for leaf in t.leaves), np.int64, len(t.leaves))
    depths = np.fromiter((len(leaf.fixed) for leaf in t.leaves), np.int64, len(t.leaves))
    fixed = np.zeros((len(t.leaves), t.n), bool)
    fixed[np.repeat(np.arange(len(t.leaves)), depths),
          np.fromiter(itertools.chain.from_iterable(leaf.fixed for leaf in t.leaves), np.int64)] = True
    analyze = _analyzer(t.n, delta, eps)
    parts = []
    for depth in dict.fromkeys(depths.tolist()):
        at = np.flatnonzero(depths == depth)
        frees = np.nonzero(~fixed[at])[1].reshape(len(at), t.n - depth)  # ascending in each row
        level = [t.leaves[i] for i in at.tolist()]
        parts.append((ids[at], analyze(frees, _spectra(level, t.n - depth))))
    return _in_leaf_order(t, parts)


def energy(t: DecisionTree, delta: float) -> float:
    """Leaf-mass-weighted average of Stab_{1-delta} over the leaf subfunctions,
    each read from the leaf's degree profile."""
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must lie in (0, 1], got {delta}")
    return float(_masses(t) @ _analysis(t, np.inf, delta).stabs)


def bad_leaf_mass(t: DecisionTree, eps: float, delta: float) -> float:
    """Total mass of leaves whose subfunction fails the small-influence test
    (a noisy influence above eps; INFLUENCE_SLACK counts as small), decided
    as the drivers decide it."""
    if not eps > 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    _check_delta(delta)
    return float(_masses(t)[_bad(_analysis(t, eps, delta).max_influences, eps)].sum())


def _dot(t: DecisionTree, lo: int, hi: int, depth: int, stats: LeafStats,
         lines: list[str], names: Iterator[int]) -> str:
    """Append the DOT lines of the node at ``depth`` over t.leaves[lo:hi]
    to ``lines`` and return its name, drawn from ``names`` in preorder;
    ``stats`` holds the leaves' analysis in ``leaves`` order."""
    name = f"n{next(names)}"
    if hi - lo == 1:
        lines.append(f'  {name} [shape=box, label="L{t.leaves[lo].id}\\ndepth={depth}'
                     f'\\nmean={stats.means[lo]:.6g}\\nmax_inf={stats.max_influences[lo]:.6g}"];')
        return name
    var, mid = _branch(t, lo, hi, depth)
    lines.append(f'  {name} [label="x{var + 1}"];')
    plus = _dot(t, lo, mid, depth + 1, stats, lines, names)
    minus = _dot(t, mid, hi, depth + 1, stats, lines, names)
    lines.append(f'  {name} -> {plus} [label="+1"];')
    lines.append(f'  {name} -> {minus} [label="-1"];')
    return name


def to_dot(t: DecisionTree, delta: float) -> str:
    """DOT rendering: internal nodes x<i+1>, edges +1/-1, leaf summaries."""
    _check_delta(delta)
    lines = ["digraph dtree {"]
    _dot(t, 0, len(t.leaves), 0, _analysis(t, np.inf, delta), lines, itertools.count())
    lines.append("}")
    return "\n".join(lines) + "\n"
