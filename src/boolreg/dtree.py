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
"""

from __future__ import annotations

import bisect
import itertools
import operator
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .boolfn import BooleanFunction, _butterfly, _cube, _degree_profile
from .noise import LeafStats, _analyzer, _check_delta, _profile_stability


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
        return BooleanFunction(self.n, values, self.range_tag)


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


def split_leaf(t: DecisionTree, leaf_id: int, j: int) -> DecisionTree:
    """Replace one leaf by a query to variable j; other leaves are untouched."""
    return split_leaves(t, {leaf_id: j})


def split_all_leaves(t: DecisionTree, j: int) -> DecisionTree:
    """Split every leaf on variable j (used by the homogeneous decomposition)."""
    return split_leaves(t, {leaf.id: j for leaf, _ in leaves(t)})


def _compact_spectrum(leaf: Leaf) -> np.ndarray:
    """The leaf's spectrum over its free variables, transformed from its
    compact table (one value when no variable is free)."""
    a = _butterfly(leaf.table).reshape(-1)
    np.divide(a, leaf.table.size, out=a)
    return a


def energy(t: DecisionTree, delta: float) -> float:
    """Leaf-mass-weighted average of Stab_{1-delta} over the leaf subfunctions,
    each read from the leaf's degree profile."""
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must lie in (0, 1], got {delta}")
    return float(sum(2.0 ** -depth * _profile_stability(_degree_profile(_compact_spectrum(leaf)),
                                                        1.0 - delta)
                     for leaf, depth in leaves(t)))


def _leaf_stats(t: DecisionTree, eps: float, delta: float) -> dict[int, LeafStats]:
    """Every leaf's statistics by id, by the drivers' analysis of its
    compact spectrum: one batch per depth."""
    by_depth: dict[int, list[Leaf]] = {}
    for leaf, depth in leaves(t):
        by_depth.setdefault(depth, []).append(leaf)
    analyze = _analyzer(t.n, delta, eps)
    stats: dict[int, LeafStats] = {}
    for depth, level in by_depth.items():
        frees = np.array([leaf.free for leaf in level], dtype=np.int64).reshape(len(level), t.n - depth)
        rows = np.empty((len(level), 1 << (t.n - depth)))
        for row, leaf in zip(rows, level):
            row[...] = _compact_spectrum(leaf)
        stats.update(zip((leaf.id for leaf in level), analyze(frees, rows)))
    return stats


def bad_leaf_mass(t: DecisionTree, eps: float, delta: float) -> float:
    """Total mass of leaves whose subfunction fails the small-influence test
    (a noisy influence above eps; INFLUENCE_SLACK counts as small), decided
    as the drivers decide it."""
    if not eps > 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    _check_delta(delta)
    stats = _leaf_stats(t, eps, delta)
    return float(sum(2.0 ** -depth for leaf, depth in leaves(t) if stats[leaf.id].bad(eps)))


def _dot(t: DecisionTree, lo: int, hi: int, depth: int, stats: dict[int, LeafStats],
         lines: list[str], names: Iterator[int]) -> str:
    """Append the DOT lines of the node at ``depth`` over t.leaves[lo:hi]
    to ``lines`` and return its name, drawn from ``names`` in preorder."""
    name = f"n{next(names)}"
    if hi - lo == 1:
        leaf = t.leaves[lo]
        lines.append(f'  {name} [shape=box, label="L{leaf.id}\\ndepth={depth}'
                     f'\\nmean={float(np.mean(leaf.table.reshape(-1))):.6g}'
                     f'\\nmax_inf={stats[leaf.id].max_influence:.6g}"];')
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
    _dot(t, 0, len(t.leaves), 0, _leaf_stats(t, np.inf, delta), lines, itertools.count())
    lines.append("}")
    return "\n".join(lines) + "\n"
