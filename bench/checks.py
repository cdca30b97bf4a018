"""Output checks: the paper's invariants, the recorded reference outputs,
and independent recomputations for outputs that depend on the seed.

Every check returns a list of problems; an empty list means the output is
correct.  Integers, strings, booleans, query variables and exit codes must
match exactly, floats within ``FLOAT_TOL`` (scaled by the magnitude when it
exceeds 1).
"""

from __future__ import annotations

import hashlib

import numpy as np

FLOAT_TOL = 1e-12


def compare(actual, expected, path: str = "$") -> list[str]:
    """Structural comparison of JSON-like values against a reference."""
    if isinstance(expected, bool) or isinstance(actual, bool):
        return [] if actual is expected else [f"{path}: {actual!r} != {expected!r}"]
    if isinstance(expected, float) or isinstance(actual, float):
        if not isinstance(actual, (int, float)) or not isinstance(expected, (int, float)):
            return [f"{path}: {actual!r} != {expected!r}"]
        if abs(actual - expected) <= FLOAT_TOL * max(1.0, abs(expected)):
            return []
        return [f"{path}: {actual!r} differs from {expected!r} by more than {FLOAT_TOL}"]
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(actual) != set(expected):
            return [f"{path}: keys {sorted(actual) if isinstance(actual, dict) else actual!r}"
                    f" != {sorted(expected)}"]
        return [p for key in expected for p in compare(actual[key], expected[key], f"{path}.{key}")]
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{path}: length or type differs from the reference"]
        return [p for i, (a, e) in enumerate(zip(actual, expected))
                for p in compare(a, e, f"{path}[{i}]")]
    return [] if actual == expected else [f"{path}: {actual!r} != {expected!r}"]


# --- decompositions -----------------------------------------------------------

def decomposition_invariants(history, depth, bad_mass, leaf_depths, n, params,
                             exhausted=False) -> list[str]:
    """Depth <= min(1/(eps delta gamma), n), bad mass <= gamma, every ledger
    gain > eps*delta*gamma, and leaf masses summing to 1."""
    eps, delta, gamma = params
    problems = []
    floor = eps * delta * gamma
    if depth > min(1.0 / floor, n):
        problems.append(f"depth {depth} exceeds min(1/(eps*delta*gamma), n={n})")
    if not exhausted and bad_mass > gamma:
        problems.append(f"bad mass {bad_mass} exceeds gamma {gamma}")
    for (_, before), (it, after) in zip(history, history[1:]):
        if not after - before > floor:
            problems.append(f"pass {it} gained {after - before}, not more than {floor}")
    if sum(2.0 ** -d for d in leaf_depths) != 1.0:
        problems.append("leaf masses do not sum to 1")
    return problems


def tree_summary(br, result) -> dict:
    """Seed-independent record of a decomposition: ledger, depth, leaves."""
    rows = []
    for leaf, depth in br.leaves(result.tree):
        fixed = sum(1 << v for v in leaf.fixed)
        minus = sum(1 << v for v, x in leaf.fixed.items() if x == -1)
        rows.append([leaf.id, depth, fixed, minus, float(leaf.fn.values.mean())])
    return {
        "iterations": result.iterations,
        "depth": br.tree_depth(result.tree),
        "bad_mass": result.bad_mass,
        "energy_history": [[it, phi] for it, phi in result.ledger.history],
        "query_vars": list(result.homogeneous_vars),
        "exhausted": result.exhausted,
        "leaves": rows,
    }


def check_decomposition(br, f, params, result, summary) -> list[str]:
    problems = []
    table = br.evaluate_table(result.tree)
    if table.shape != f.values.shape or not np.array_equal(
            table.view(np.uint64), f.values.view(np.uint64)):
        problems.append("evaluate_table(tree) differs from f.values")
    problems += decomposition_invariants(
        summary["energy_history"], summary["depth"], summary["bad_mass"],
        [row[1] for row in summary["leaves"]], f.n, params, summary["exhausted"])
    return problems


def check_mist(report: dict) -> list[str]:
    """Certified bound >= stability, and the bound is the sum of its terms."""
    if not report.get("quasirandom_ok"):
        return []
    problems = []
    if report["certified_bound"] < report["stab"] - FLOAT_TOL:
        problems.append(f"certified bound {report['certified_bound']} < stab {report['stab']}")
    if compare(sum(report["terms"].values()), report["certified_bound"]):
        problems.append("certified bound is not the sum of its terms")
    params = report["params_used"]
    if report["bad_mass"] > params["gamma"]:
        problems.append(f"bad mass {report['bad_mass']} exceeds gamma")
    return problems


def check_decomposition_report(report: dict, n: int) -> list[str]:
    """Invariants of a ``boolreg decompose`` JSON report."""
    p = report["params"]
    return decomposition_invariants(
        report["energy_history"], report["depth"], report["bad_mass"],
        [row["depth"] for row in report["leaves"]], n, (p["eps"], p["delta"], p["gamma"]),
        report["status"] == "budget_exceeded")


# --- independent recomputations for seeded tables ----------------------------
#
# These share no code with the library: a tensor-axis Walsh-Hadamard
# transform, popcounts from numpy, and strided reshapes.  On {-1,+1} tables
# every transform entry is a dyadic rational, so both transforms are exact
# and must agree bit for bit.

def spectrum(values: np.ndarray) -> np.ndarray:
    n = values.size.bit_length() - 1
    a = values.reshape((2,) * n)
    for axis in range(n):
        a0, a1 = np.take(a, 0, axis=axis), np.take(a, 1, axis=axis)
        a = np.stack((a0 + a1, a0 - a1), axis=axis)
    return a.reshape(-1) / values.size


def degree_weights(coeffs: np.ndarray) -> np.ndarray:
    """W^k = sum over |S| = k of coeff(S)^2."""
    sizes = np.bitwise_count(np.arange(coeffs.size, dtype=np.uint64))
    return np.bincount(sizes, weights=coeffs * coeffs)


def stability(coeffs: np.ndarray, rho: float) -> float:
    w = degree_weights(coeffs)
    return float(np.sum(rho ** np.arange(w.size) * w))


def noisy_influences(coeffs: np.ndarray, delta: float) -> np.ndarray:
    n = coeffs.size.bit_length() - 1
    sizes = np.bitwise_count(np.arange(coeffs.size, dtype=np.uint64)).astype(np.int64)
    weighted = (1.0 - delta) ** np.maximum(sizes - 1, 0) * coeffs * coeffs
    return np.array([weighted.reshape(-1, 2, 1 << i)[:, 1, :].sum() for i in range(n)])


def halves(values: np.ndarray, i: int) -> tuple[np.ndarray, np.ndarray]:
    """The two restrictions x_i = +1 (bit 0) and x_i = -1 (bit 1)."""
    a = values.reshape(-1, 2, 1 << i)
    return a[:, 0, :], a[:, 1, :]


def on_both_halves(part: np.ndarray) -> np.ndarray:
    """A table that ignores bit i, built from its values on one half."""
    return np.stack((part, part), axis=1).reshape(-1)


def digest(values: np.ndarray) -> str:
    """Bit-exact fingerprint of a float64 table, so that a large expected
    table need not stay in memory while the workload runs."""
    return hashlib.sha256(np.ascontiguousarray(values, dtype=np.float64).data).hexdigest()


def same_bits(actual: np.ndarray, expected: str, what: str) -> list[str]:
    if digest(actual) == expected:
        return []
    return [f"{what} differs bitwise from the independent recomputation"]


def close(actual, expected, what: str) -> list[str]:
    return [f"{what}: {p}" for p in compare(actual, expected)]


def max_mean_shift(values: np.ndarray) -> tuple[dict, float]:
    """The k = 1 restriction search, in the library's candidate order."""
    n = values.size.bit_length() - 1
    base = float(values.mean())
    best, best_shift = {}, 0.0
    for i in range(n):
        plus, minus = halves(values, i)
        for v, part in ((1, plus), (-1, minus)):
            shift = abs(float(part.mean()) - base)
            if shift > best_shift:
                best, best_shift = {i: v}, shift
    return best, best_shift


def quasirandom_witness(coeffs: np.ndarray, eps: float, cap: int):
    sizes = np.bitwise_count(np.arange(coeffs.size, dtype=np.uint64))
    eligible = np.nonzero((sizes >= 1) & (sizes <= cap))[0]
    magnitudes = np.abs(coeffs[eligible])
    worst = int(np.argmax(magnitudes))
    if magnitudes[worst] <= eps:
        return True, None, None
    return False, int(eligible[worst]), float(coeffs[eligible[worst]])


def expected_analyze(values: np.ndarray, delta: float) -> dict:
    """The fields of a ``boolreg analyze`` report on a {-1,+1} table."""
    n = values.size.bit_length() - 1
    coeffs = spectrum(values)
    magnitudes = np.abs(coeffs)
    order = np.lexsort((np.arange(coeffs.size), -magnitudes))[:16]
    return {
        "n": n,
        "range_tag": "pm_one",
        "mean": float(values.mean()),
        "norm2": 1.0,
        "delta": delta,
        "top_coefficients": [
            {"vars": [i + 1 for i in range(n) if (int(m) >> i) & 1], "value": float(coeffs[m])}
            for m in order],
        "noisy_influences": [float(v) for v in noisy_influences(coeffs, delta)],
        "stability": {f"{r / 10:.1f}": stability(coeffs, r / 10) for r in range(1, 10)},
    }
