"""Independent brute-force oracles the tests check library code against.

Everything here avoids the library's fast paths on purpose: transforms by
the defining sum, stability through the explicit Markov kernel, quadrant
probabilities by 2-D quadrature, restriction means by direct enumeration.
The one exception is the reference decomposition drivers at the end: they
keep the earlier per-pass design (a fresh transform of every leaf table,
mask-gather influences, one tree walk per split) on the library's tree
primitives, so that the spectral drivers can be compared with it exactly.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy.integrate import dblquad
from scipy.special import ndtri

from boolreg import leaves, singleton, split_all_leaves, split_leaf, wht
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


# --- the earlier leaf kernel and drivers ---------------------------------------

def _int_sizes(size: int) -> np.ndarray:
    return np.bitwise_count(np.arange(size)).astype(np.int64)


def power_stability(coeffs: np.ndarray, rho: float) -> float:
    """sum_S rho^|S| coeff(S)^2 with a 2^n-entry power array."""
    return float(np.sum(np.float64(rho) ** _int_sizes(coeffs.size) * coeffs * coeffs))


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


def reference_decompose(f, p) -> dict:
    """The plain driver as it was: every leaf re-transformed every pass."""
    t = singleton(f)
    phi, bad, bad_mass = _reference_analyze(t, p.eps, p.delta)
    history = [(0, phi)]
    iterations = 0
    while bad_mass > p.gamma:
        for leaf, worst_var in bad:
            t = split_leaf(t, leaf.id, worst_var)
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
            t = split_all_leaves(t, var)
            query_vars.append(var)
        iterations += 1
        phi, bad, bad_mass = _reference_analyze(t, p.eps, p.delta)
        history.append((iterations, phi))
    return {"tree": t, "iterations": iterations, "history": history,
            "bad_mass": bad_mass, "query_vars": query_vars, "exhausted": exhausted}
