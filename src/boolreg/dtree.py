"""Decision trees with subfunction leaves, leaf-mass accounting, and energy.

A tree is its leaves in left-to-right order, held as arrays (see
``DecisionTree``), each internal node a run of them.  Trees are persistent:
a split returns a new tree.  A leaf at depth d carries mass 2^-d, the
probability of reaching it by uniformly random decisions from the root.
Leaf ids are stable under splits of other leaves.

A leaf's table is a read-only view of the root table at the leaf's fixed
bits: its sub-cube of 2^(n-d) values (O'Donnell, Analysis of Boolean
Functions, section 3.3), built from the masks when it is read (``_views``),
so no split copies a value.  One array split (``_split``) serves the
drivers and ``split_leaves``; ``Leaf`` objects are built only by a walk.

The tree statistics read one ``noise.LeafStats`` of every leaf in
``leaves`` order (``_analysis``), the layout a decomposition's result has.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .boolfn import BooleanFunction, _butterfly, _handover
from .noise import LeafStats, _analyzer, _bad, _check_delta

_BATCH_BITS = 12  # a depth's tables are transformed in batches of 2^12 entries (32 KiB)


class Leaf:
    """A leaf of a tree, read from the tree's arrays on access and built
    afresh by every walk: the root function with the variables in ``fixed``
    (root-to-leaf path, variable -> assigned value) set.

    ``table`` is the read-only view of the root table at the fixed bits,
    shaped (2,) * m for the m free variables: axis a holds the free variable
    of rank m-1-a, so its C-order ravel is indexed by the free variables'
    bits in ascending order.
    """

    __slots__ = ("_tree", "_at", "__weakref__")

    def __init__(self, tree: DecisionTree, at: int):
        self._tree, self._at = tree, at

    id = property(lambda self: int(self._tree.ids[self._at]))
    n = property(lambda self: self._tree.n)  # ambient arity
    range_tag = property(lambda self: self._tree.root.range_tag)
    free = property(lambda self: tuple(_free(self._tree, [self._at])[0].tolist()))
    table = property(lambda self: _views(self._tree, [self._at], _free(self._tree, [self._at]))[0])

    @property
    def fixed(self) -> dict[int, int]:
        t, at = self._tree, self._at
        return {v: -1 if t.minus[at] >> v & 1 else 1 for v in t.path[at, :t.depths[at]].tolist()}

    @property
    def fn(self) -> BooleanFunction:
        """The subfunction on the ambient cube (constant along the fixed
        variables), built afresh from ``table`` on every access."""
        shape = tuple(1 if self._tree.fixed[self._at] >> v & 1 else 2 for v in reversed(range(self.n)))
        values = np.empty(1 << self.n)
        values.reshape((2,) * self.n)[...] = self.table.reshape(shape)
        return BooleanFunction(self.n, _handover(values), self.range_tag)


@dataclass(frozen=True, eq=False)
class DecisionTree:
    """A decision tree over ``root``: its leaves in left-to-right order, an
    entry or row of each array (treat as immutable) per leaf.  Row i of
    ``path`` (n int8 entries) starts with leaf i's depths[i] path variables,
    then zeros; ``fixed`` and ``minus`` mask its path variables and those
    set to x = -1 (input bit 1).

    The leaves under an internal node at depth d are consecutive and share
    their first d path steps: step d is that node's variable, and its
    plus-branch leaves (x_var = +1, input bit var = 0) come first.
    """

    root: BooleanFunction
    ids: np.ndarray
    depths: np.ndarray
    path: np.ndarray
    fixed: np.ndarray
    minus: np.ndarray
    next_leaf_id: int

    n = property(lambda self: self.root.n)
    # fresh Leaf objects on every read, as leaves(t) builds them
    leaves = property(lambda self: tuple(map(Leaf, itertools.repeat(self), range(len(self.ids)))))


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
    zero = np.zeros(1, np.int64)
    return DecisionTree(f, zero, zero.copy(), np.zeros((1, f.n), np.int8), zero.copy(), zero.copy(), 1)


def leaves(t: DecisionTree) -> list[tuple[Leaf, int]]:
    """All (leaf, depth) pairs in left-to-right order (plus branch first),
    the leaves built afresh."""
    return list(zip(t.leaves, t.depths.tolist()))


def tree_depth(t: DecisionTree) -> int:
    return int(t.depths.max())


def _free(t: DecisionTree, at) -> np.ndarray:
    """The free variables of the leaves at positions ``at``, all at one
    depth: one row each, in ascending order."""
    return np.nonzero((t.fixed[at, None] >> np.arange(t.n) & 1) == 0)[1].reshape(len(at), -1)


def _levels(t: DecisionTree) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Each depth's leaf positions and their free variables."""
    for depth in np.flatnonzero(np.bincount(t.depths)).tolist():
        at = np.flatnonzero(t.depths == depth)
        yield at, _free(t, at)


def _views(t: DecisionTree, at, frees: np.ndarray, table: np.ndarray | None = None) -> list[np.ndarray]:
    """The view of ``table`` (a contiguous array of 2^n entries, the root
    table by default) at the fixed bits of each leaf at positions ``at``,
    with free variables ``frees``, laid out as ``Leaf.table``: the entries
    where the free bits vary, from the index that the fixed bits give."""
    table = t.root.values if table is None else table
    shape, size = (2,) * frees.shape[1], table.itemsize
    return [np.ndarray(shape, table.dtype, table, offset, tuple(strides))
            for offset, strides in zip((t.minus[at] * size).tolist(), (size << frees[:, ::-1]).tolist())]


def _branch(t: DecisionTree, lo: int, hi: int, depth: int) -> tuple[int, int]:
    """The variable of the depth-``depth`` internal node whose leaves are
    those at positions lo .. hi-1, and the position where its minus branch
    starts."""
    var = int(t.path[lo, depth])
    if hi - lo == 2:  # one leaf a branch
        return var, lo + 1
    return var, lo + int((t.minus[lo:hi] >> var & 1).searchsorted(1))


def evaluate(t: DecisionTree, b: int) -> float:
    """Walk the tree by the bits of input index b, then read the leaf's
    table at the free bits of b."""
    b = operator.index(b)
    if not 0 <= b < (1 << t.n):
        raise IndexError(f"input index {b} out of range for n={t.n}")
    lo, hi, depth = 0, len(t.ids), 0
    while hi - lo > 1:
        var, mid = _branch(t, lo, hi, depth)
        lo, hi = (mid, hi) if (b >> var) & 1 else (lo, mid)
        depth += 1
    return float(t.root.values[b & ~int(t.fixed[lo]) | int(t.minus[lo])])


def evaluate_table(t: DecisionTree) -> np.ndarray:
    """Vector of evaluate(t, b) over all 2^n inputs: each leaf's table
    written into the sub-cube of the inputs that reach it."""
    out = np.empty(1 << t.n)
    for at, frees in _levels(t):
        for leaf, cube in zip(_views(t, at, frees), _views(t, at, frees, out)):
            cube[...] = leaf
    return out


def _split(t: DecisionTree, ids: np.ndarray, js) -> DecisionTree:
    """Split the leaves ``ids`` (in ``leaves`` order) on the variables
    ``js``, in a few array operations: each split leaf's rows repeated, and
    its children's ids, path step and fixed bits written.  The k-th split
    leaf's children get ids next_leaf_id + 2k (plus branch) and + 2k + 1."""
    position = np.empty(t.next_leaf_id, np.intp)
    position[t.ids] = np.arange(len(t.ids))
    repeats = np.ones(len(t.ids), np.intp)
    repeats[position[ids]] = 2
    at = np.flatnonzero(np.repeat(repeats, repeats) == 2)  # the children's rows, plus branch first
    new_ids, depths, fixed, minus, path = (np.repeat(a, repeats, axis=0)
                                           for a in (t.ids, t.depths, t.fixed, t.minus, t.path))
    var, next_id = np.repeat(js, 2), t.next_leaf_id + len(at)
    path[at, depths[at]] = var
    new_ids[at] = np.arange(t.next_leaf_id, next_id)
    depths[at] += 1
    bit = np.left_shift(1, var, dtype=np.int64)
    fixed[at] |= bit
    minus[at[1::2]] |= bit[1::2]
    return DecisionTree(t.root, new_ids, depths, path, fixed, minus, next_id)


def split_leaves(t: DecisionTree, splits: dict[int, int]) -> DecisionTree:
    """Replace each leaf ``splits`` names (id -> variable) by its two
    children; the other leaves keep their ids, paths and tables.

    New ids follow ``leaves`` order: the first split leaf's children get
    next_leaf_id (plus branch) and next_leaf_id + 1, the next split leaf's
    the two ids after those, and so on.
    """
    splits = {leaf_id: operator.index(j) for leaf_id, j in splits.items()}
    for j in splits.values():
        if not 0 <= j < t.n:
            raise IndexError(f"variable index {j} out of range for n={t.n}")
    at = [i for i, leaf_id in enumerate(t.ids.tolist()) if leaf_id in splits]
    ids = t.ids[at].tolist()
    js = np.array([splits[leaf_id] for leaf_id in ids], np.int64)
    taken = np.flatnonzero(t.fixed[at] >> js & 1).tolist()
    if taken:
        raise ValueError(f"variable {js[taken[0]]} already fixed on the path to leaf {ids[taken[0]]}")
    if len(ids) < len(splits):
        raise KeyError(f"no leaf with id {min(set(splits) - set(ids))}")
    return _split(t, t.ids[at], js)


def _spectra(t: DecisionTree, at: np.ndarray, frees: np.ndarray) -> np.ndarray:
    """The compact spectra of the leaves at positions ``at``, all with m
    free variables (``frees``), one row each.  The tables are transformed
    as the columns of batches of at most max(2^_BATCH_BITS entries, one
    table), so that beside the rows only one batch and its transform are
    held: one copy of a level would cost as much as the rows.  A one-entry
    table is its own spectrum."""
    m = frees.shape[1]
    if m == 0:
        return t.root.values[t.minus[at]].reshape(-1, 1)
    rows = np.empty((len(at), 1 << m))
    group = max(1 << _BATCH_BITS >> m, 1)
    for g in range(0, len(at), group):
        tables = _views(t, at[g:g + group], frees[g:g + group])
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
    count = len(t.ids)
    position = np.empty(t.next_leaf_id, np.int64)
    position[t.ids] = np.arange(count)
    stats = LeafStats(*(np.empty(count, a.dtype) for a in parts[0][1][:-1]), np.zeros((count, t.n + 1)))
    for ids, part in parts:
        at = position[ids]
        for into, values in zip(stats[:-1], part[:-1]):
            into[at] = values
        stats.profiles[at, :part.profiles.shape[1]] = part.profiles
    return stats


def _masses(t: DecisionTree) -> np.ndarray:
    """Each leaf's mass 2^-depth, in ``leaves`` order."""
    return np.ldexp(1.0, -t.depths)


def _analysis(t: DecisionTree, eps: float, delta: float) -> LeafStats:
    """The drivers' analysis (``noise._analyzer``) of every leaf, in
    ``leaves`` order: a depth's leaves in one batch of compact spectra
    (``_spectra``), their free variables read from the masks."""
    analyze = _analyzer(t.n, delta, eps)
    return _in_leaf_order(t, [(t.ids[at], analyze(frees, _spectra(t, at, frees))) for at, frees in _levels(t)])


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


def _dot(t: DecisionTree, lo: int, hi: int, depth: int, labels: list[str],
         lines: list[str], names: Iterator[int]) -> str:
    """Append the DOT lines of the node at ``depth`` over the leaves at
    positions lo .. hi-1 to ``lines`` and return its name, drawn from
    ``names`` in preorder; ``labels`` holds the leaves' labels in ``leaves``
    order."""
    name = f"n{next(names)}"
    if hi - lo == 1:
        lines.append(f'  {name} [shape=box, label="{labels[lo]}"];')
        return name
    var, mid = _branch(t, lo, hi, depth)
    lines.append(f'  {name} [label="x{var + 1}"];')
    plus = _dot(t, lo, mid, depth + 1, labels, lines, names)
    minus = _dot(t, mid, hi, depth + 1, labels, lines, names)
    lines.append(f'  {name} -> {plus} [label="+1"];')
    lines.append(f'  {name} -> {minus} [label="-1"];')
    return name


def to_dot(t: DecisionTree, delta: float) -> str:
    """DOT rendering: internal nodes x<i+1>, edges +1/-1, leaf summaries."""
    _check_delta(delta)
    stats = _analysis(t, np.inf, delta)
    labels = [f"L{leaf_id}\\ndepth={depth}\\nmean={mean:.6g}\\nmax_inf={top:.6g}" for leaf_id, depth, mean, top
              in zip(t.ids.tolist(), t.depths.tolist(), stats.means.tolist(), stats.max_influences.tolist())]
    lines = ["digraph dtree {"]
    _dot(t, 0, len(t.ids), 0, labels, lines, itertools.count())
    lines.append("}")
    return "\n".join(lines) + "\n"
