"""Acceptance suite: one test per criterion, stated tolerances, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines as they happen.
"""

import functools
import time

import numpy as np
import pytest

from boolreg import (
    BooleanFunction,
    PM_ONE,
    RegularityParams,
    check_quasi_mist,
    constant,
    decompose,
    decompose_homogeneous,
    degree_cap,
    dictator,
    energy,
    evaluate_table,
    influence_quasirandom_bound,
    is_quasirandom,
    leaves,
    majority,
    max_mean_shift,
    noisy_influence,
    all_noisy_influences,
    parity,
    quadrant_prob,
    random_pm_one,
    restrict,
    singleton,
    split_leaves,
    stability,
    stability_mc_detail,
    subset_sizes,
    to_zero_one,
    tree_depth,
    tribes,
    wht,
)
from oracles import quadrant_prob_2d, random_real_unit
from test_regularity import blend3, levels_query_vars


def criterion(num: int, title: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {num}] FAIL: {title}", flush=True)
                raise
            print(f"[criterion {num}] PASS: {title}", flush=True)
        return wrapper
    return decorate


@criterion(1, "energy-increment identity on 500 random functions")
def test_criterion_1_energy_identity():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    deltas = (0.1, 0.3, 0.5, 0.9)
    for _ in range(500):
        n = int(rng.integers(2, 11))
        f = BooleanFunction(n, random_real_unit(rng, n))
        fhat = wht(f)
        influences = {d: [noisy_influence(f, i, d) for i in range(n)] for d in deltas}
        base = {d: stability(fhat, 1.0 - d) for d in deltas}
        for i in range(n):
            minus = wht(restrict(f, i, -1))
            plus = wht(restrict(f, i, 1))
            for d in deltas:
                lhs = 0.5 * stability(minus, 1.0 - d) + 0.5 * stability(plus, 1.0 - d)
                rhs = base[d] + d * influences[d][i]
                assert abs(lhs - rhs) <= 1e-9
    assert time.monotonic() - start < 30.0


def _check_decomposition(f, p, result):
    np.testing.assert_array_equal(evaluate_table(result.tree), f.values)
    assert result.bad_mass <= p.gamma
    assert tree_depth(result.tree) <= min(p.budget, f.n)
    phis = [phi for _, phi in result.ledger.history]
    assert all(phi <= 1.0 + 1e-9 for phi in phis)
    assert all(b - a > p.eps * p.delta * p.gamma for a, b in zip(phis, phis[1:]))


@criterion(2, "depth-bounded decomposition postconditions at n=12")
def test_criterion_2_plain_decomposition():
    start = time.monotonic()
    param_sets = [RegularityParams(0.2, 0.3, 0.25), RegularityParams(0.1, 0.5, 0.2)]
    corpus = [random_pm_one(12, seed) for seed in range(200)]
    # a few structured functions that actually trigger splitting passes
    idx = np.arange(1 << 12)
    x = lambda i: 1 - 2 * ((idx >> i) & 1)
    corpus += [
        dictator(12, 0),
        parity(12, [0, 1]),
        BooleanFunction(12, np.where(x(1) == 1, x(0), x(2)).astype(float), PM_ONE),
    ]
    for p in param_sets:
        for f in corpus:
            _check_decomposition(f, p, decompose(f, p))
    assert time.monotonic() - start < 120.0


@criterion(3, "homogeneous decomposition postconditions at n=8")
def test_criterion_3_homogeneous_decomposition():
    param_sets = [RegularityParams(0.2, 0.3, 0.25), RegularityParams(0.1, 0.5, 0.2)]
    corpus = [random_pm_one(8, seed) for seed in range(200)]
    corpus += [dictator(8, 3), parity(8, [1, 5]), majority(5)]
    for p in param_sets:
        for f in corpus:
            r = decompose_homogeneous(f, p, var_cap=f.n)
            assert not r.exhausted
            np.testing.assert_array_equal(evaluate_table(r.tree), f.values)
            assert r.bad_mass <= p.gamma
            assert len(r.homogeneous_vars) <= 8
            levels = levels_query_vars(r.tree)
            assert all(len(level) == 1 for level in levels)
            assert [next(iter(level)) for level in levels] == r.homogeneous_vars
            depths = r.ledger.depths
            assert depths[0] == 0
            assert all(after <= before + 2 ** before for before, after in zip(depths, depths[1:]))

    # split-order invariance by direct permutation, |K| <= 3
    import itertools
    rng = np.random.default_rng(303)
    targets = [blend3(), BooleanFunction(5, random_real_unit(rng, 5))]
    for f in targets:
        for size in (2, 3):
            subset = sorted(rng.choice(f.n, size=size, replace=False).tolist())
            reference = None
            for perm in itertools.permutations(subset):
                t = singleton(f)
                for var in perm:
                    t = split_leaves(t, dict.fromkeys((leaf.id for leaf in t.leaves), var))
                tables = sorted((tuple(sorted(leaf.fixed.items())), tuple(leaf.fn.values))
                                for leaf, _ in leaves(t))
                e = energy(t, 0.3)
                if reference is None:
                    reference = (tables, e)
                else:
                    assert tables == reference[0]
                    assert abs(e - reference[1]) <= 1e-12


@criterion(4, "Fourier stability vs Monte-Carlo and closed forms")
def test_criterion_4_stability_cross_check():
    rng = np.random.default_rng(4040)
    for _ in range(50):
        n = int(rng.integers(4, 11))
        f = random_pm_one(n, int(rng.integers(1 << 30)))
        rho = float(rng.uniform(0.0, 1.0))
        exact = stability(wht(f), rho)
        est, stderr = stability_mc_detail(f, rho, 10 ** 6, seed=int(rng.integers(1 << 30)))
        assert abs(est - exact) <= 3.0 * stderr + 1e-12

    maj_hat = wht(majority(3))
    for rho in np.linspace(0.0, 1.0, 21):
        assert abs(stability(maj_hat, rho) - (0.75 * rho + 0.25 * rho ** 3)) <= 1e-12
    for subset in ([0], [0, 2], [0, 1, 2, 3]):
        chi_hat = wht(parity(4, subset))
        for rho in (0.0, 0.3, 0.7, 1.0):
            assert abs(stability(chi_hat, rho) - rho ** len(subset)) <= 1e-12


@criterion(5, "quadrant probability accuracy, monotonicity, Lipschitz")
def test_criterion_5_quadrant_probability():
    mus = np.linspace(0.05, 0.95, 19)
    for mu in mus:
        assert abs(quadrant_prob(0.0, mu) - mu * mu) <= 1e-9
        assert abs(quadrant_prob(1.0, mu) - mu) <= 1e-9
    assert abs(quadrant_prob(0.5, 0.5) - 1.0 / 3.0) <= 1e-9
    assert abs(quadrant_prob(0.5, 0.5) - quadrant_prob_2d(0.5, 0.5)) <= 2e-9

    rhos = np.linspace(0.0, 0.95, 8)
    for mu in (0.1, 0.35, 0.5, 0.8):
        vals = [quadrant_prob(rho, mu) for rho in rhos]
        assert all(b >= a - 2e-9 for a, b in zip(vals, vals[1:]))
    for rho in (0.2, 0.5, 0.85):
        vals = [quadrant_prob(rho, mu) for mu in mus]
        assert all(b >= a - 2e-9 for a, b in zip(vals, vals[1:]))
        for (m1, v1), (m2, v2) in zip(zip(mus, vals), zip(mus[1:], vals[1:])):
            assert abs(v2 - v1) <= 2.0 * (m2 - m1) + 4e-9


@criterion(6, "majority slack strictly decreasing in n")
def test_criterion_6_majority_slack_trend():
    start = time.monotonic()
    slacks = []
    for n in (3, 5, 7, 9, 11, 13):
        g = to_zero_one(majority(n))
        stab = stability(wht(g), 0.5)
        lam = quadrant_prob(0.5, 0.5)
        slacks.append(stab - lam)
    assert abs(slacks[0] - 0.0182291666) <= 1e-8
    assert all(b < a for a, b in zip(slacks, slacks[1:]))
    assert time.monotonic() - start < 60.0


@criterion(7, "restriction-mean lemmas and the influence lower bound")
def test_criterion_7_quasirandomness_lemmas():
    rng = np.random.default_rng(7070)
    for trial in range(300):
        n = int(rng.integers(3, 11))
        if trial % 2:
            f = random_pm_one(n, int(rng.integers(1 << 30)))
        else:
            f = BooleanFunction(n, random_real_unit(rng, n))
        delta = float(rng.choice([1.0, 0.5, 1.0 / 3.0, 0.25]))
        k = min(degree_cap(delta), n)
        coeffs = wht(f).coeffs
        sizes = subset_sizes(n)
        in_range = (sizes >= 1) & (sizes <= k)
        eps = float(np.max(np.abs(coeffs[in_range])))
        _, shift = max_mean_shift(f, k)
        assert is_quasirandom(wht(f), eps, delta).ok
        assert shift <= 2.0 ** k * eps + 1e-12
        assert is_quasirandom(wht(f), shift + 1e-12, delta).ok

        size = int(rng.integers(1, k + 1))
        subset = sorted(rng.choice(n, size=size, replace=False).tolist())
        bound = influence_quasirandom_bound(f, subset, delta)
        influences = all_noisy_influences(f, delta)
        for i in subset:
            assert bound <= influences[i] + 1e-12


@criterion(8, "pipeline soundness and the hypothesis-failure path")
def test_criterion_8_pipeline():
    p = RegularityParams(0.2, 0.3, 0.25)
    corpus = [
        to_zero_one(majority(3)),
        to_zero_one(majority(5)),
        to_zero_one(dictator(4, 0)),
        to_zero_one(tribes(2, 2)),
        to_zero_one(random_pm_one(8, 7)),
        constant(4, 0.3),
    ]
    for g in corpus:
        for rho in (0.3, 0.6):
            rep = check_quasi_mist(g, rho, p, q_eps=0.6, q_delta=0.5)
            assert rep.quasirandom_ok
            assert rep.certified_bound >= rep.stab - 1e-12
            assert rep.slack == rep.stab - rep.lam

    failed = check_quasi_mist(to_zero_one(parity(2)), 0.5, p, q_eps=0.3, q_delta=0.5)
    assert failed.quasirandom_ok is False
    assert failed.certified_bound is None
    assert failed.witness["vars"] == [1, 2]
