"""Noise stability, noisy influence, and the small-influence predicate.

The spectral formula Stab_rho[f] = sum_S rho^|S| fhat(S)^2 is the workhorse.
It is read as sum_k rho^k W^k from the degree profile W^k = sum over |S| = k
of fhat(S)^2 (O'Donnell, Analysis of Boolean Functions, chapter 2), which a
spectrum computes once, at its first stability read, and keeps
(``FourierExpansion.profile``): each further rho costs n + 1 products.  A
Monte-Carlo estimator over rho-correlated input pairs provides an
independent sampling cross-check.  The noisy influence of coordinate i is
the stability of the directional derivative D_i f, equivalently
sum_{S containing i} rho^(|S|-1) fhat(S)^2 at rho = 1 - delta.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boolfn import BooleanFunction, FourierExpansion, subset_sizes, wht

# Influences within this slack of a threshold count as below it, so that
# round-off at the boundary can never make the regularity loop spin.
INFLUENCE_SLACK = 1e-12

_MC_CHUNK = 1 << 16


def _check_rho(rho: float) -> None:
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho must lie in [0, 1], got {rho}")


def _check_delta(delta: float) -> None:
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"delta must lie in [0, 1], got {delta}")


def _powers(rho: float, k: int) -> np.ndarray:
    """rho^0 .. rho^k.  Indexed by subset sizes it gives the same bits as
    rho ** sizes over all 2^n masks: both are the elementwise float64 ** int64
    power, here on n + 1 entries instead of 2^n."""
    return np.float64(rho) ** np.arange(k + 1, dtype=np.int64)


def _influence_powers(delta: float, k: int) -> np.ndarray:
    """(1-delta)^(j-1) for j = 0 .. k, with the j = 0 entry zeroed out; 0^0 = 1
    handles delta = 1, where only degree-1 weight survives."""
    return np.concatenate(([0.0], _powers(1.0 - delta, k - 1)))


def _weighted_squares(coeffs: np.ndarray, weights: np.ndarray, out: np.ndarray) -> np.ndarray:
    """(weights * coeffs) * coeffs, formed in ``out`` in that order, which
    every caller keeps so that the sums over it agree bit for bit."""
    np.multiply(weights, coeffs, out=out)
    return np.multiply(out, coeffs, out=out)


def _influence_sums(weighted: np.ndarray, half: np.ndarray, coords=None) -> np.ndarray:
    """Per coordinate i (all of them, or those in ``coords``), the sum of
    ``weighted`` (2^n mask layout) over the masks containing i: the
    [:, 1, :] half of the reshape by 2^i, copied contiguous into ``half``
    (2^(n-1) entries) so that the pairwise sum runs over the same elements
    in the same (mask) order as a boolean-mask gather would."""
    if coords is None:
        coords = range(weighted.size.bit_length() - 1)
    out = np.empty(len(coords))
    for k, i in enumerate(coords):
        np.copyto(half.reshape(-1, 1 << i), weighted.reshape(-1, 2, 1 << i)[:, 1, :])
        out[k] = half.sum()
    return out


def _influences(coeffs: np.ndarray, delta: float) -> np.ndarray:
    """``expansion_influences`` of a coefficient table over m >= 0 variables
    (empty when m = 0)."""
    m = coeffs.size.bit_length() - 1
    weights = _influence_powers(delta, m)[subset_sizes(m)]
    return _influence_sums(_weighted_squares(coeffs, weights, weights), np.empty(coeffs.size // 2))


def _profile_stability(profile: np.ndarray, rho: float) -> float:
    """sum_k rho^k W^k over a degree profile W^0 .. W^m."""
    return float(profile @ _powers(rho, profile.size - 1))


def stability(g: FourierExpansion, rho: float) -> float:
    """sum over masks S of rho^|S| * coeff(S)^2, read as sum_k rho^k W^k from
    the spectrum's degree profile; lies in [0, E[f^2]]."""
    _check_rho(rho)
    return _profile_stability(g.profile, rho)


def stability_mc(f: BooleanFunction, rho: float, samples: int, seed: int) -> float:
    """Monte-Carlo estimate of E[f(x) f(y)] over rho-correlated pairs."""
    return stability_mc_detail(f, rho, samples, seed)[0]


def stability_mc_detail(f: BooleanFunction, rho: float, samples: int, seed: int) -> tuple[float, float]:
    """Monte-Carlo estimate plus its sample standard error.

    x is uniform on the cube; each y_i equals x_i with probability
    (1 + rho)/2, independently, implemented as an independent per-bit flip
    with probability (1 - rho)/2.  Fully deterministic given the seed.
    """
    _check_rho(rho)
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    rng = np.random.default_rng(seed)
    flip_prob = (1.0 - rho) / 2.0
    bit_weights = 1 << np.arange(f.n, dtype=np.int64)
    total = 0.0
    total_sq = 0.0
    remaining = samples
    while remaining > 0:
        chunk = min(remaining, _MC_CHUNK)
        x = rng.integers(0, f.size, size=chunk, dtype=np.int64)
        flips = (rng.random((chunk, f.n)) < flip_prob).astype(np.int64) @ bit_weights
        prods = f.values[x] * f.values[x ^ flips]
        total += float(prods.sum())
        total_sq += float((prods * prods).sum())
        remaining -= chunk
    est = total / samples
    var = max(total_sq / samples - est * est, 0.0)
    return est, float(np.sqrt(var / samples))


def expansion_influences(g: FourierExpansion, delta: float) -> np.ndarray:
    """Vector of (1-delta)-noisy influences computed from a spectrum."""
    return _influences(g.coeffs, delta)


def all_noisy_influences(f: BooleanFunction, delta: float) -> np.ndarray:
    """Noisy influences of every coordinate, computed from one transform."""
    _check_delta(delta)
    return expansion_influences(wht(f), delta)


def noisy_influence(f: BooleanFunction, i: int, delta: float) -> float:
    """(1-delta)-noisy influence of coordinate i: Stab_{1-delta}[D_i f]."""
    if not 0 <= i < f.n:
        raise IndexError(f"variable index {i} out of range for n={f.n}")
    _check_delta(delta)
    return float(all_noisy_influences(f, delta)[i])


@dataclass(frozen=True)
class InfluenceVerdict:
    """Outcome of the small-influence test; violator set iff not ok."""

    ok: bool
    violator: int | None = None
    value: float | None = None


def has_small_noisy_influences(f: BooleanFunction, eps: float, delta: float) -> InfluenceVerdict:
    """ok iff every coordinate's noisy influence is at most eps.

    On failure reports the argmax-influence coordinate (ties go to the
    lowest index), which the regularity splitter reuses as its split
    variable.  Values within INFLUENCE_SLACK above eps count as small.
    """
    if not eps > 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    _check_delta(delta)
    influences = all_noisy_influences(f, delta)
    worst = int(np.argmax(influences))
    value = float(influences[worst])
    if value > eps + INFLUENCE_SLACK:
        return InfluenceVerdict(False, worst, value)
    return InfluenceVerdict(True)
