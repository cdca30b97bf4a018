"""Decision trees with subfunction leaves, leaf-mass accounting, and energy.

Trees are persistent: a split returns a new tree sharing every untouched
branch.  A leaf at depth d carries mass 2^-d, the probability of reaching
it by uniformly random decisions from the root.  Leaf ids are stable under
splits of other leaves.

A leaf holds its subfunction's table over its free variables only, 2^(n-d)
values, so all leaf tables of a tree together hold exactly 2^n values.  A
child's table is an exact strided slice of its parent's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .boolfn import BooleanFunction, _butterfly
from .noise import INFLUENCE_SLACK, _check_delta, _influences, _stability


@dataclass(frozen=True, eq=False)
class Leaf:
    """A subfunction of the root: the root with the variables in ``fixed``
    (root-to-leaf path, variable -> assigned value, treat as immutable) set.

    ``table`` is read-only and holds the subfunction over the free variables:
    bit k of its index is the k-th free variable in ascending order.
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

    phi: float
    history: list[tuple[int, float]] = field(default_factory=list)
    depths: list[int] = field(default_factory=list)

    def record(self, iteration: int, phi: float, depth: int) -> None:
        self.phi = phi
        self.history.append((iteration, phi))
        self.depths.append(depth)


def singleton(f: BooleanFunction) -> DecisionTree:
    """One leaf holding f itself; the starting point of every decomposition."""
    return DecisionTree(f.n, Leaf(0, f.values, {}, f.n, f.range_tag), 1)


def leaves(t: DecisionTree) -> list[tuple[Leaf, int]]:
    """All (leaf, depth) pairs in left-to-right order (plus branch first)."""
    out: list[tuple[Leaf, int]] = []

    def walk(node: Node, depth: int) -> None:
        if isinstance(node, Leaf):
            out.append((node, depth))
        else:
            walk(node.child_plus, depth + 1)
            walk(node.child_minus, depth + 1)

    walk(t.root, 0)
    return out


def tree_depth(t: DecisionTree) -> int:
    return max(depth for _, depth in leaves(t))


def _cube(out: np.ndarray, n: int, at: dict[int, int]) -> np.ndarray:
    """The view of a 2^n array whose index bit v equals ``at[v]`` for every
    variable in ``at``, shaped (2,) * (number of other variables); its
    index bit k is the k-th other variable in ascending order."""
    # reshape axis k holds bit n-1-k, i.e. variable n-1-k
    index = tuple(at[v] if v in at else slice(None) for v in reversed(range(n)))
    return out.reshape((2,) * n)[index + (...,)]


def evaluate(t: DecisionTree, b: int) -> float:
    """Walk the tree by the bits of input index b, then evaluate the leaf."""
    if not 0 <= b < (1 << t.n):
        raise IndexError(f"input index {b} out of range for n={t.n}")
    node = t.root
    while isinstance(node, Internal):
        node = node.child_minus if (b >> node.var) & 1 else node.child_plus
    for v in sorted(node.fixed, reverse=True):  # delete the fixed bits of b
        b = (b >> (v + 1) << v) | (b & ((1 << v) - 1))
    return float(node.table[b])


def evaluate_table(t: DecisionTree) -> np.ndarray:
    """Vector of evaluate(t, b) over all 2^n inputs: each leaf's table
    written into the sub-cube of the inputs that reach it."""
    out = np.empty(1 << t.n)
    for leaf, depth in leaves(t):
        bits = {v: int(x == -1) for v, x in leaf.fixed.items()}  # x_v = -1 is input bit 1
        _cube(out, t.n, bits)[...] = leaf.table.reshape((2,) * (t.n - depth))
    return out


def _split_node(leaf: Leaf, j: int, first_id: int) -> Internal:
    if j in leaf.fixed:
        raise ValueError(f"variable {j} already fixed on the path to leaf {leaf.id}")
    k = j - sum(v < j for v in leaf.fixed)  # j's position among the free variables
    halves = leaf.table.reshape(-1, 2, 1 << k)
    children = []
    for child_id, x in ((first_id, 1), (first_id + 1, -1)):
        table = halves[:, int(x == -1), :].flatten()  # a copy: never pins the parent
        table.setflags(write=False)
        children.append(Leaf(child_id, table, {**leaf.fixed, j: x}, leaf.n, leaf.range_tag))
    return Internal(j, *children)


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
    next_id = t.next_leaf_id

    def walk(node: Node) -> Node:
        nonlocal next_id
        if isinstance(node, Leaf):
            if node.id not in splits:
                return node
            split = _split_node(node, splits[node.id], next_id)
            next_id += 2
            return split
        plus = walk(node.child_plus)
        minus = walk(node.child_minus)
        if plus is node.child_plus and minus is node.child_minus:
            return node
        return Internal(node.var, plus, minus)

    root = walk(t.root)
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
    a = _butterfly(leaf.table)
    np.divide(a, leaf.table.size, out=a)
    return a


def _max_influence(leaf: Leaf, delta: float) -> float:
    """The leaf's largest (1-delta)-noisy influence; 0 with no free variable."""
    return float(_influences(_compact_spectrum(leaf), delta).max(initial=0.0))


def energy(t: DecisionTree, delta: float) -> float:
    """Leaf-mass-weighted average of Stab_{1-delta} over the leaf subfunctions."""
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must lie in (0, 1], got {delta}")
    return float(sum(2.0 ** -depth * _stability(_compact_spectrum(leaf), 1.0 - delta)
                     for leaf, depth in leaves(t)))


def bad_leaf_mass(t: DecisionTree, eps: float, delta: float) -> float:
    """Total mass of leaves whose subfunction fails the small-influence test
    (a noisy influence above eps; INFLUENCE_SLACK counts as small)."""
    if not eps > 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    _check_delta(delta)
    return float(sum(2.0 ** -depth for leaf, depth in leaves(t)
                     if _max_influence(leaf, delta) > eps + INFLUENCE_SLACK))


def to_dot(t: DecisionTree, delta: float) -> str:
    """DOT rendering: internal nodes x<i+1>, edges +1/-1, leaf summaries."""
    _check_delta(delta)
    lines = ["digraph dtree {"]
    counter = 0

    def walk(node: Node, depth: int) -> str:
        nonlocal counter
        name = f"n{counter}"
        counter += 1
        if isinstance(node, Leaf):
            fn_mean = float(np.mean(node.table))
            max_inf = _max_influence(node, delta)
            lines.append(
                f'  {name} [shape=box, label="L{node.id}\\ndepth={depth}'
                f'\\nmean={fn_mean:.6g}\\nmax_inf={max_inf:.6g}"];'
            )
            return name
        lines.append(f'  {name} [label="x{node.var + 1}"];')
        plus = walk(node.child_plus, depth + 1)
        minus = walk(node.child_minus, depth + 1)
        lines.append(f'  {name} -> {plus} [label="+1"];')
        lines.append(f'  {name} -> {minus} [label="-1"];')
        return name

    walk(t.root, 0)
    lines.append("}")
    return "\n".join(lines) + "\n"
