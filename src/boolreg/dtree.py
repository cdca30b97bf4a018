"""Decision trees with subfunction leaves, leaf-mass accounting, and energy.

Trees are persistent: a split returns a new tree sharing every untouched
branch.  A leaf at depth d carries mass 2^-d, the probability of reaching
it by uniformly random decisions from the root.  Leaf ids are stable under
splits of other leaves.

A leaf's table is a read-only view of the root table at the leaf's fixed
bits: its sub-cube of 2^(n-d) values (O'Donnell, Analysis of Boolean
Functions, section 3.3).  A split indexes its parent's view once per child,
so no split copies a value, and every tree over f holds f's table alone.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import Union

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
class Internal:
    var: int
    child_plus: "Node"   # taken when x_var = +1 (input bit var = 0)
    child_minus: "Node"


Node = Union[Leaf, Internal]


@dataclass(frozen=True)
class DecisionTree:
    n: int
    root: Node
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
    return DecisionTree(f.n, Leaf(0, f.values.reshape((2,) * f.n), {}, f.n, f.range_tag), 1)


def leaves(t: DecisionTree) -> list[tuple[Leaf, int]]:
    """All (leaf, depth) pairs in left-to-right order (plus branch first)."""
    out: list[tuple[Leaf, int]] = []
    stack: list[tuple[Node, int]] = [(t.root, 0)]
    while stack:
        node, depth = stack.pop()
        if isinstance(node, Leaf):
            out.append((node, depth))
        else:  # the plus branch is popped, so walked, first
            stack.append((node.child_minus, depth + 1))
            stack.append((node.child_plus, depth + 1))
    return out


def tree_depth(t: DecisionTree) -> int:
    return max(depth for _, depth in leaves(t))


def evaluate(t: DecisionTree, b: int) -> float:
    """Walk the tree by the bits of input index b, then read the leaf's
    table at the free bits of b."""
    if not 0 <= b < (1 << t.n):
        raise IndexError(f"input index {b} out of range for n={t.n}")
    node = t.root
    while isinstance(node, Internal):
        node = node.child_minus if (b >> node.var) & 1 else node.child_plus
    return float(node.table[tuple((b >> v) & 1 for v in reversed(node.free))])


def evaluate_table(t: DecisionTree) -> np.ndarray:
    """Vector of evaluate(t, b) over all 2^n inputs: each leaf's table
    written into the sub-cube of the inputs that reach it."""
    out = np.empty(1 << t.n)
    for leaf, _ in leaves(t):
        bits = {v: int(x == -1) for v, x in leaf.fixed.items()}  # x_v = -1 is input bit 1
        _cube(out, t.n, bits)[...] = leaf.table
    return out


def _split_node(leaf: Leaf, j: int, first_id: int) -> Internal:
    if j in leaf.fixed:
        raise ValueError(f"variable {j} already fixed on the path to leaf {leaf.id}")
    # the axes run down the free variables: the free ones above j come first
    axis = leaf.n - 1 - j - sum(v > j for v in leaf.fixed)
    plus, minus = (leaf.table[(slice(None),) * axis + (bit, ...)] for bit in (0, 1))
    return Internal(j, Leaf(first_id, plus, {**leaf.fixed, j: 1}, leaf.n, leaf.range_tag),
                    Leaf(first_id + 1, minus, {**leaf.fixed, j: -1}, leaf.n, leaf.range_tag))


def _split_walk(node: Node, splits: dict[int, int], ids: Iterator[int]) -> Node:
    """``node`` with each leaf ``splits`` names split, its children's ids
    drawn from ``ids`` in ``leaves`` order; untouched branches are shared."""
    if isinstance(node, Leaf):
        return _split_node(node, splits[node.id], next(ids)) if node.id in splits else node
    plus = _split_walk(node.child_plus, splits, ids)
    minus = _split_walk(node.child_minus, splits, ids)
    if plus is node.child_plus and minus is node.child_minus:
        return node
    return Internal(node.var, plus, minus)


def split_leaves(t: DecisionTree, splits: dict[int, int]) -> DecisionTree:
    """Replace each leaf ``splits`` names by a query to its variable, in one
    walk; other leaves are untouched.

    New ids follow ``leaves`` order: the first split leaf's children get
    next_leaf_id (plus branch) and next_leaf_id + 1, the next split leaf's
    the two ids after those, and so on.
    """
    for j in splits.values():
        if not 0 <= j < t.n:
            raise IndexError(f"variable index {j} out of range for n={t.n}")
    ids = itertools.count(t.next_leaf_id, 2)
    root = _split_walk(t.root, splits, ids)
    next_id = next(ids)
    if next_id - t.next_leaf_id < 2 * len(splits):
        present = {leaf.id for leaf, _ in leaves(t)}
        raise KeyError(f"no leaf with id {min(set(splits) - present)}")
    return DecisionTree(t.n, root, next_id)


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


def _dot(node: Node, depth: int, stats: dict[int, LeafStats], lines: list[str],
         names: Iterator[int]) -> str:
    """Append the DOT lines of the subtree at ``node`` to ``lines`` and
    return its root's name; node names are drawn from ``names`` in preorder."""
    name = f"n{next(names)}"
    if isinstance(node, Leaf):
        lines.append(f'  {name} [shape=box, label="L{node.id}\\ndepth={depth}'
                     f'\\nmean={float(np.mean(node.table.reshape(-1))):.6g}'
                     f'\\nmax_inf={stats[node.id].max_influence:.6g}"];')
        return name
    lines.append(f'  {name} [label="x{node.var + 1}"];')
    plus = _dot(node.child_plus, depth + 1, stats, lines, names)
    minus = _dot(node.child_minus, depth + 1, stats, lines, names)
    lines.append(f'  {name} -> {plus} [label="+1"];')
    lines.append(f'  {name} -> {minus} [label="-1"];')
    return name


def to_dot(t: DecisionTree, delta: float) -> str:
    """DOT rendering: internal nodes x<i+1>, edges +1/-1, leaf summaries."""
    _check_delta(delta)
    lines = ["digraph dtree {"]
    _dot(t.root, 0, _leaf_stats(t, np.inf, delta), lines, itertools.count())
    lines.append("}")
    return "\n".join(lines) + "\n"
