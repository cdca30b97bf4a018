"""Independent brute-force oracles the tests check library code against.

Everything here avoids the library's fast paths on purpose: transforms by
the defining sum, stability through the explicit Markov kernel, quadrant
probabilities by 2-D quadrature or by scipy's Owen's T, restriction means by
direct enumeration.
The exceptions are the earlier designs kept at the end, so that the fast
paths can be compared with them exactly: the reference decomposition
drivers keep the per-pass design (a fresh transform of every leaf table,
mask-gather influences, one tree walk per split) on the library's tree
primitives, ``per_subset_max_mean_shift`` the one-reduction-per-subset
restriction search, ``RefNode`` the node-graph decision tree (one
object per internal node, a split rebuilding the path above each split
leaf) that the library's leaf-sequence trees are checked against, and
``half_buffer_sum`` the tie rule's scatter of a candidate's masks into a
zeroed half buffer, next to ``pairwise_sum``, numpy's summation order in
Python, on which the batched ambient sums rely, and ``reference_mist_terms``
the per-leaf loop of ``check_quasi_mist`` over fresh leaf transforms.
``compensated_sum`` is the builtin ``sum`` of Python 3.12 and later, which
the energies must not depend on.  ``int_mask_stability_mc`` is the
Monte-Carlo estimator with its flip masks formed by an int64 product.
"""

from __future__ import annotations

import io
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.integrate import dblquad
from scipy.special import ndtri, owens_t

from boolreg import all_noisy_influences, leaves, mean, quadrant_prob, singleton, split_leaves, wht
from boolreg.noise import INFLUENCE_SLACK


def popcount(x: int) -> int:
    return bin(x).count("1")


def brute_wht(values: np.ndarray) -> np.ndarray:
    """Fourier coefficients by the defining sum, O(4^n)."""
    size = values.size
    out = np.empty(size)
    for mask in range(size):
        total = 0.0
        for b in range(size):
            sign = -1.0 if popcount(b & mask) % 2 else 1.0
            total += sign * values[b]
        out[mask] = total / size
    return out


def radix2_butterfly(values: np.ndarray) -> np.ndarray:
    """The unnormalised transform by the textbook radix-2 loop, one stage
    at a time over the whole table (h = 1, 2, 4, ...) with two fresh
    half-size arrays per stage: the reference for the blocked butterfly's
    bits."""
    a = values.astype(np.float64, copy=True)
    h = 1
    while h < a.size:
        a = a.reshape(-1, 2, h)
        top = a[:, 0, :] + a[:, 1, :]
        bottom = a[:, 0, :] - a[:, 1, :]
        a[:, 0, :] = top
        a[:, 1, :] = bottom
        a = a.reshape(-1)
        h *= 2
    return a


def gather_restrict(values: np.ndarray, i: int, v: int) -> np.ndarray:
    """The table with x_i fixed to v, gathered through an index array."""
    idx = np.arange(values.size)
    bit = 1 << i
    return values[(idx & ~bit) if v == 1 else (idx | bit)]


def gather_parity(n: int, mask: int) -> np.ndarray:
    """The parity table of a mask, from the popcounts of index & mask."""
    pop = np.bitwise_count(np.arange(1 << n) & mask)
    return 1.0 - 2.0 * (pop % 2)


def gather_tribes(w: int, s: int) -> np.ndarray:
    """The tribes table, one index comparison per block."""
    idx = np.arange(1 << (w * s))
    block = (1 << w) - 1
    fired = np.zeros(idx.size, dtype=bool)
    for j in range(s):
        fired |= ((idx >> (j * w)) & block) == block
    return np.where(fired, -1.0, 1.0)


def brute_stability(values: np.ndarray, rho: float) -> float:
    """E[f(x) f(y)] through the explicit per-bit transition kernel."""
    n = values.size.bit_length() - 1
    keep = (1.0 + rho) / 2.0
    flip = (1.0 - rho) / 2.0
    kernel = np.array([[keep, flip], [flip, keep]])
    transition = np.ones((1, 1))
    for _ in range(n):
        transition = np.kron(transition, kernel)
    return float(values @ transition @ values) / values.size


def brute_derivative(values: np.ndarray, i: int) -> np.ndarray:
    idx = np.arange(values.size)
    bit = 1 << i
    return (values[idx & ~bit] - values[idx | bit]) / 2.0


def brute_noisy_influence(values: np.ndarray, i: int, delta: float) -> float:
    return brute_stability(brute_derivative(values, i), 1.0 - delta)


def brute_restriction_mean(values: np.ndarray, assignment: dict[int, int]) -> float:
    """Mean of f over the subcube where the given coordinates are fixed."""
    idx = np.arange(values.size)
    keep = np.ones(values.size, dtype=bool)
    for var, v in assignment.items():
        bit = (idx >> var) & 1
        keep &= bit == (0 if v == 1 else 1)
    return float(values[keep].mean())


def phi_oracle(t: float) -> float:
    """Standard normal CDF via the library-independent erf route."""
    return 0.5 * (1.0 + math.erf(t / math.sqrt(2.0)))


def quadrant_prob_owens_t(rho: float, mu: float) -> float:
    """Quadrant probability by scipy's Owen's T and quantile, as
    Phi(t) - 2 T(t, sqrt((1 - rho)/(1 + rho))) with t = ndtri(mu)."""
    t = float(ndtri(mu))
    a = math.sqrt((1.0 - rho) / (1.0 + rho))
    return float(0.5 * math.erfc(-t / math.sqrt(2.0)) - 2.0 * owens_t(t, a))


def quadrant_prob_2d(rho: float, mu: float) -> float:
    """Quadrant probability by direct 2-D quadrature of the joint density."""
    t = float(ndtri(mu))
    det = 1.0 - rho * rho
    norm = 1.0 / (2.0 * math.pi * math.sqrt(det))

    def density(y: float, x: float) -> float:
        q = (x * x - 2.0 * rho * x * y + y * y) / det
        return norm * math.exp(-0.5 * q)

    # density below 1e-30 past |z| = 12, so a finite box is exact to spec
    lo = -12.0
    value, _ = dblquad(density, lo, t, lo, t, epsabs=1e-12, epsrel=0.0)
    return float(value)


def arcsine_quadrant(rho: float) -> float:
    """Closed form for the balanced case mu = 1/2."""
    return 0.25 + math.asin(rho) / (2.0 * math.pi)


def random_real_unit(rng: np.random.Generator, n: int, target_ms: float | None = None) -> np.ndarray:
    """Random real table scaled so E[f^2] is target_ms (default uniform < 1)."""
    values = rng.normal(size=1 << n)
    ms = float((values * values).mean())
    if ms == 0.0:
        values[0] = 1.0
        ms = float((values * values).mean())
    if target_ms is None:
        target_ms = rng.uniform(0.2, 0.99)
    return values * math.sqrt(target_ms / ms)


def exact_profile(table: np.ndarray) -> list[Fraction]:
    """The degree profile W^k = sum over |S| = k of ghat(S)^2, k = 0 .. m, of
    an integer-valued table over m variables, in exact rationals: the
    unnormalised transform by the butterfly on Python integers."""
    c = [int(v) for v in table]
    assert c == list(table)
    h = 1
    while h < len(c):
        for start in range(0, len(c), 2 * h):
            for i in range(start, start + h):
                c[i], c[i + h] = c[i] + c[i + h], c[i] - c[i + h]
        h *= 2
    out = [0] * len(c).bit_length()
    for mask, x in enumerate(c):
        out[popcount(mask)] += x * x
    return [Fraction(w, len(c) ** 2) for w in out]


def exact_stability(coeffs: np.ndarray, rho: float) -> Fraction:
    """sum_S rho^|S| coeff(S)^2 in exact rationals, from the doubles given."""
    r = Fraction(rho)
    return sum((r ** popcount(mask) * Fraction(c) ** 2 for mask, c in enumerate(coeffs.tolist())),
               Fraction(0))


def exact_influences(coeffs: np.ndarray, delta: float) -> list[Fraction]:
    """sum over S containing i of (1-delta)^(|S|-1) coeff(S)^2, per coordinate
    i, in exact rationals from the doubles given (0^0 = 1 at delta = 1)."""
    r = Fraction(1.0 - delta)
    out = [Fraction(0)] * (coeffs.size.bit_length() - 1)
    for mask, c in enumerate(coeffs.tolist()):
        if mask:
            term = r ** (popcount(mask) - 1) * Fraction(c) ** 2
            for i in range(len(out)):
                if (mask >> i) & 1:
                    out[i] += term
    return out


def exact_max_mean_shift(values: np.ndarray, k: int) -> tuple[dict[int, int], Fraction]:
    """The restriction of at most k coordinates that moves the mean most, in
    exact rationals; exact ties go to the first in (subset size, subset,
    assignment) order, assignments in product((1, -1)) order."""
    n = values.size.bit_length() - 1
    exact = [Fraction(v) for v in values.tolist()]
    base = sum(exact) / len(exact)
    best, best_shift = {}, Fraction(0)
    for j in range(1, k + 1):
        for subset in itertools.combinations(range(n), j):
            for assignment in itertools.product((1, -1), repeat=j):
                by_var = dict(zip(subset, assignment))
                bits = {v: 0 if x == 1 else 1 for v, x in by_var.items()}
                part = [x for b, x in enumerate(exact) if all((b >> v) & 1 == bit for v, bit in bits.items())]
                shift = abs(sum(part) / len(part) - base)
                if shift > best_shift:
                    best, best_shift = by_var, shift
    return best, best_shift


def sorted_top_masks(coeffs: np.ndarray, k: int = 16) -> list[int]:
    """The k masks of largest |coefficient|, ties to the lowest mask, by a
    full lexsort of all 2^n coefficients."""
    magnitudes = np.abs(coeffs)
    return [int(mask) for mask in np.lexsort((np.arange(magnitudes.size), -magnitudes))[:k]]


def per_value_table_text(f) -> str:
    """The table file text with one numpy scalar formatted per line."""
    return f"n={f.n}\n" + "".join(f"{v:.17g}\n" for v in f.values)


def per_line_table_values(n: int, body: str) -> np.ndarray | str:
    """The 2^n values of the table text ``body`` (all after the header),
    read one line at a time by ``float``, or the error message for it."""
    lines = io.StringIO(body).readlines()
    size = 1 << n
    values = []
    for k, line in enumerate(lines[:size], start=2):
        try:
            values.append(float(line))
        except ValueError:
            return f"bad value on line {k}: {line.strip()!r}"
    if len(values) < size:
        return f"truth table truncated: expected {size} values, got {len(values)}"
    for k, line in enumerate(lines[size:], start=size + 2):
        if line.strip():
            return f"line {k} follows the last of the {size} values: {line.strip()!r}"
    if not all(math.isfinite(v) for v in values):
        return "truth table contains non-finite entries"
    return np.array(values)


def ambient_spectrum(n: int, free, compact: np.ndarray) -> np.ndarray:
    """A compact spectrum over the ascending variables ``free`` in the 2^n
    mask layout: bit k of a compact index is variable free[k], and every
    mask holding a fixed variable is 0."""
    index = np.arange(len(compact))
    masks = np.zeros(len(compact), dtype=np.int64)
    for k, v in enumerate(free):
        masks |= ((index >> k) & 1) << v
    out = np.zeros(1 << n)
    out[masks] = compact
    return out


# --- the earlier leaf kernel and drivers ---------------------------------------

def _int_sizes(size: int) -> np.ndarray:
    return np.bitwise_count(np.arange(size)).astype(np.int64)


def power_stability(coeffs: np.ndarray, rho: float) -> float:
    """sum_S rho^|S| coeff(S)^2 with a 2^n-entry power array."""
    return float(np.sum(np.float64(rho) ** _int_sizes(coeffs.size) * coeffs * coeffs))


def half_buffer_sum(n: int, free, products: np.ndarray, k: int) -> float:
    """The ambient sum of variable c = free[k] as the leaf kernel once took
    it: the compact products over the ascending variables ``free`` whose
    masks hold c, scattered into a zeroed buffer of 2^(n-1) doubles at their
    masks without c's bit (position v - (v > c) for variable v), and summed
    by ``ndarray.sum``."""
    c = free[k]
    index = np.arange(len(products))
    masks = np.zeros(len(products), dtype=np.int64)
    for j, v in enumerate(free):
        if j != k:
            masks |= ((index >> j) & 1) << (v - (v > c))
    holds = (index >> k) & 1 == 1
    half = np.zeros(1 << (n - 1))
    half[masks[holds]] = products[holds]
    return float(half.sum())


def in_order(total: float, values: list[float]) -> float:
    """total + values[0] + values[1] + ..., one rounded add at a time."""
    for v in values:
        total += v
    return total


def compensated_sum(values, start=0):
    """The builtin ``sum`` as Python 3.12 and later compute it: ints exactly,
    floats by Neumaier's compensated summation, the compensation added at
    the end."""
    values = list(values)
    if not any(isinstance(v, float) for v in values):
        return in_order(start, values)
    total, compensation = float(start), 0.0
    for v in map(float, values):
        t = total + v
        compensation += (total - t) + v if abs(total) >= abs(v) else (v - t) + total
        total = t
    return total + compensation


def pairwise_sum(values: list[float]) -> float:
    """numpy's float64 summation order on runs of 2^p entries, in Python: a
    run of 256 or more is the sum of its two halves; a run of 8 to 128 is
    eight stride-8 lanes, combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)); a
    shorter run is added in order.  ``ndarray.sum`` starts from 0.0.  Every
    add is an explicit ``+``: the builtin ``sum`` of floats compensates its
    rounding (Neumaier) since Python 3.12, so it would not add in order."""
    if len(values) < 8:
        return in_order(0.0, values)
    if len(values) <= 128:
        r = [in_order(values[j], values[j + 8::8]) for j in range(8)]
        return ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    half = len(values) // 2
    return pairwise_sum(values[:half]) + pairwise_sum(values[half:])


def mask_gather_influences(coeffs: np.ndarray, delta: float) -> np.ndarray:
    """Noisy influences by one boolean-mask gather per coordinate."""
    n = coeffs.size.bit_length() - 1
    sizes = _int_sizes(coeffs.size)
    rho = np.float64(1.0 - delta)
    weights = np.where(sizes >= 1, rho ** np.maximum(sizes - 1, 0), 0.0)
    weighted = weights * coeffs * coeffs
    masks = np.arange(coeffs.size)
    return np.array([float(weighted[(masks >> i) & 1 == 1].sum()) for i in range(n)])


def _reference_analyze(t, eps: float, delta: float):
    phi = 0.0
    bad = []
    bad_mass = 0.0
    for leaf, depth in leaves(t):
        coeffs = wht(leaf.fn).coeffs
        phi += 2.0 ** -depth * power_stability(coeffs, 1.0 - delta)
        influences = mask_gather_influences(coeffs, delta)
        worst = int(influences.argmax())
        if influences[worst] > eps + INFLUENCE_SLACK:
            bad.append((leaf, worst))
            bad_mass += 2.0 ** -depth
    return phi, bad, bad_mass


def reference_mist_terms(f, tree, rho: float, p, q_eps: float) -> tuple[dict, bool]:
    """``check_quasi_mist``'s four terms and drift verdict for f's tree, as
    its per-leaf loop took them: each leaf's mean, profile and influences
    from a fresh transform of its ambient table."""
    mu = float(wht(f).coeffs[0])
    lam = quadrant_prob(rho, mu)
    terms = dict.fromkeys(["bad_leaves", "good_leaves_lambda", "lipschitz_drift", "good_leaves_slack"], 0.0)
    drift_ok = True
    for leaf, depth in leaves(tree):
        mass = 2.0 ** -depth
        g = wht(leaf.fn)
        leaf_mean = float(g.coeffs[0])
        drift = abs(leaf_mean - mu)
        if drift > 2.0 ** depth * q_eps + 1e-12:
            drift_ok = False
        if all_noisy_influences(leaf.fn, p.delta).max() > p.eps + INFLUENCE_SLACK:
            terms["bad_leaves"] += mass
            continue
        terms["good_leaves_lambda"] += mass * lam
        terms["lipschitz_drift"] += mass * 2.0 * drift
        leaf_lam = quadrant_prob(rho, min(max(leaf_mean, 0.0), 1.0))
        terms["good_leaves_slack"] += mass * (float(g.profile @ rho ** np.arange(f.n + 1)) - leaf_lam)
    return terms, drift_ok


def reference_decompose(f, p) -> dict:
    """The plain driver as it was: every leaf re-transformed every pass."""
    t = singleton(f)
    phi, bad, bad_mass = _reference_analyze(t, p.eps, p.delta)
    history = [(0, phi)]
    iterations = 0
    while bad_mass > p.gamma:
        for leaf, worst_var in bad:
            t = split_leaves(t, {leaf.id: worst_var})
        iterations += 1
        phi, bad, bad_mass = _reference_analyze(t, p.eps, p.delta)
        history.append((iterations, phi))
    return {"tree": t, "iterations": iterations, "history": history,
            "bad_mass": bad_mass, "query_vars": [], "exhausted": False}


def reference_decompose_homogeneous(f, p, var_cap: int) -> dict:
    """The homogeneous driver as it was."""
    t = singleton(f)
    query_vars: list[int] = []
    phi, bad, bad_mass = _reference_analyze(t, p.eps, p.delta)
    history = [(0, phi)]
    iterations = 0
    exhausted = False
    while bad_mass > p.gamma:
        new_vars = sorted({worst_var for _, worst_var in bad} - set(query_vars))
        if len(query_vars) + len(new_vars) > var_cap:
            exhausted = True
            break
        for var in new_vars:
            t = split_leaves(t, dict.fromkeys((leaf.id for leaf in t.leaves), var))
            query_vars.append(var)
        iterations += 1
        phi, bad, bad_mass = _reference_analyze(t, p.eps, p.delta)
        history.append((iterations, phi))
    return {"tree": t, "iterations": iterations, "history": history,
            "bad_mass": bad_mass, "query_vars": query_vars, "exhausted": exhausted}


def per_subset_max_mean_shift(f, k: int) -> tuple[dict[int, int], float]:
    """``max_mean_shift`` as it was: one multi-axis mean of the whole table
    per subset, and the first strictly larger shift wins."""
    n = f.n
    base = mean(f)
    best_restriction: dict[int, int] = {}
    best_shift = 0.0
    for j in range(1, k + 1):
        for subset in itertools.combinations(range(n), j):
            arr = f.values.reshape((2,) * n)
            # reshape axis k holds bit n-1-k, i.e. variable n-1-k
            keep_axes = {n - 1 - v for v in subset}
            avg_axes = tuple(sorted(set(range(n)) - keep_axes))
            table = arr.mean(axis=avg_axes) if avg_axes else arr
            axis_vars = sorted(subset, reverse=True)
            for assignment in itertools.product((1, -1), repeat=j):
                by_var = dict(zip(subset, assignment))
                idx = tuple(0 if by_var[v] == 1 else 1 for v in axis_vars)
                shift = abs(float(table[idx]) - base)
                if shift > best_shift:
                    best_shift = shift
                    best_restriction = by_var
    return best_restriction, best_shift


@dataclass(frozen=True)
class RefLeaf:
    id: int
    fixed: dict[int, int]  # root-to-leaf path, variable -> assigned value


@dataclass(frozen=True)
class RefNode:
    var: int
    plus: RefLeaf | RefNode  # taken when x_var = +1 (input bit var = 0)
    minus: RefLeaf | RefNode


def ref_split(node, splits: dict[int, int], ids) -> RefLeaf | RefNode:
    """``node`` with each leaf ``splits`` names (id -> variable) split, the
    children's ids drawn from ``ids`` in leaf order."""
    if isinstance(node, RefNode):
        return RefNode(node.var, ref_split(node.plus, splits, ids), ref_split(node.minus, splits, ids))
    if node.id not in splits:
        return node
    j, first = splits[node.id], next(ids)
    return RefNode(j, RefLeaf(first, {**node.fixed, j: 1}), RefLeaf(first + 1, {**node.fixed, j: -1}))


def ref_leaves(node, depth: int = 0) -> list[tuple[RefLeaf, int]]:
    """(leaf, depth) pairs, plus branch first."""
    if isinstance(node, RefLeaf):
        return [(node, depth)]
    return ref_leaves(node.plus, depth + 1) + ref_leaves(node.minus, depth + 1)


def ref_evaluate(node, values: np.ndarray, b: int) -> float:
    """Walk by the bits of b, then read f at b with the leaf's path forced."""
    while isinstance(node, RefNode):
        node = node.minus if (b >> node.var) & 1 else node.plus
    for var, x in node.fixed.items():
        b = b | (1 << var) if x == -1 else b & ~(1 << var)
    return float(values[b])


def ref_dot(root, labels: dict[int, str]) -> str:
    """The DOT text of the tree at ``root``, nodes named in preorder, each
    leaf's summary after its depth taken from ``labels`` by id."""
    lines, names = ["digraph dtree {"], itertools.count()

    def walk(node, depth: int) -> str:
        name = f"n{next(names)}"
        if isinstance(node, RefLeaf):
            lines.append(f'  {name} [shape=box, label="L{node.id}\\ndepth={depth}\\n{labels[node.id]}"];')
            return name
        lines.append(f'  {name} [label="x{node.var + 1}"];')
        plus, minus = walk(node.plus, depth + 1), walk(node.minus, depth + 1)
        lines.extend([f'  {name} -> {plus} [label="+1"];', f'  {name} -> {minus} [label="-1"];'])
        return name

    walk(root, 0)
    return "\n".join(lines + ["}"]) + "\n"


def int_mask_stability_mc(f, rho: float, samples: int, seed: int, chunk: int = 1 << 16) -> tuple[float, float]:
    """``stability_mc_detail`` as it was, with each chunk's flip masks the
    int64 product of the flip booleans and the powers 2^i (not run by BLAS):
    the same draws in the same order."""
    rng = np.random.default_rng(seed)
    flip_prob = (1.0 - rho) / 2.0
    bit_weights = 1 << np.arange(f.n, dtype=np.int64)
    total = total_sq = 0.0
    remaining = samples
    while remaining > 0:
        size = min(remaining, chunk)
        x = rng.integers(0, f.size, size=size, dtype=np.int64)
        flips = (rng.random((size, f.n)) < flip_prob).astype(np.int64) @ bit_weights
        prods = f.values[x] * f.values[x ^ flips]
        total += float(prods.sum())
        total_sq += float((prods * prods).sum())
        remaining -= size
    est = total / samples
    return est, float(np.sqrt(max(total_sq / samples - est * est, 0.0) / samples))
