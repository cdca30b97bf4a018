"""Quantile, quadrant probability, the zero-one lift, and the MIST pipeline."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import ndtri, owens_t

from boolreg import (
    BooleanFunction,
    PreconditionError,
    RegularityParams,
    ZERO_ONE,
    asymptotic_params,
    check_quasi_mist,
    constant,
    dictator,
    gaussian_quantile,
    majority,
    mist_slack,
    parity,
    quadrant_prob,
    stability,
    to_zero_one,
    tribes,
    wht,
)
from boolreg import decompose, stablest
from boolreg.cli import main
from boolreg.regularity import _PHI_GUARD
from oracles import arcsine_quadrant, phi_oracle, quadrant_prob_2d, quadrant_prob_owens_t, reference_mist_terms


# --- quantile ---------------------------------------------------------------

def test_quantile_center():
    assert gaussian_quantile(0.5) == pytest.approx(0.0, abs=1e-12)


def test_quantile_phi_one():
    assert gaussian_quantile(0.8413447460685429) == pytest.approx(1.0, abs=1e-8)


def test_quantile_196():
    assert gaussian_quantile(phi_oracle(1.96)) == pytest.approx(1.96, abs=1e-6)


def test_quantile_roundtrip_grid():
    grid = [1e-12, 1e-6, 0.01, 0.2, 0.5, 0.9, 0.99, 1 - 1e-6, 1 - 1e-12]
    for mu in grid:
        t = gaussian_quantile(mu)
        assert abs(phi_oracle(t) - mu) <= 1e-10


def test_quantile_sentinels_and_errors():
    assert gaussian_quantile(0.0) == -math.inf
    assert gaussian_quantile(1.0) == math.inf
    with pytest.raises(ValueError):
        gaussian_quantile(-0.1)
    with pytest.raises(ValueError):
        gaussian_quantile(1.1)


# --- quadrant probability ----------------------------------------------------

def test_quadrant_rho_zero_is_mu_squared():
    for mu in (0.1, 0.37, 0.5, 0.92):
        assert quadrant_prob(0.0, mu) == pytest.approx(mu * mu, abs=1e-9)


def test_quadrant_rho_one_limit():
    for mu in (0.05, 0.5, 0.77):
        assert quadrant_prob(1.0, mu) == mu


def test_quadrant_arcsine_point():
    assert quadrant_prob(0.5, 0.5) == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert quadrant_prob(0.5, 0.5) == pytest.approx(arcsine_quadrant(0.5), abs=1e-9)


def test_quadrant_matches_2d_oracle():
    for rho, mu in ((0.3, 0.5), (0.5, 0.5), (0.8, 0.25), (0.2, 0.75), (0.95, 0.6)):
        assert quadrant_prob(rho, mu) == pytest.approx(quadrant_prob_2d(rho, mu), abs=2e-9)


def test_quadrant_edges():
    assert quadrant_prob(0.4, 0.0) == 0.0
    assert quadrant_prob(0.4, 1.0) == 1.0


def test_quadrant_monotone_in_rho_and_mu():
    mus = np.linspace(0.05, 0.95, 10)
    rhos = np.linspace(0.0, 0.95, 10)
    for mu in mus:
        vals = [quadrant_prob(rho, mu) for rho in rhos]
        assert all(b >= a - 2e-9 for a, b in zip(vals, vals[1:]))
    for rho in rhos:
        vals = [quadrant_prob(rho, mu) for mu in mus]
        assert all(b >= a - 2e-9 for a, b in zip(vals, vals[1:]))


def test_quadrant_two_lipschitz_in_mu():
    mus = np.linspace(0.02, 0.98, 25)
    for rho in (0.1, 0.5, 0.9):
        vals = [quadrant_prob(rho, mu) for mu in mus]
        for (m1, v1), (m2, v2) in zip(zip(mus, vals), zip(mus[1:], vals[1:])):
            assert abs(v2 - v1) <= 2.0 * abs(m2 - m1) + 4e-9


def test_quadrant_bounds():
    for rho in (0.0, 0.3, 0.7):
        for mu in (0.1, 0.5, 0.9):
            v = quadrant_prob(rho, mu)
            assert v <= mu + 1e-9
            assert v >= max(0.0, 2.0 * mu - 1.0) - 1e-9
            if rho == 0.0:
                assert v >= mu * mu - 1e-9


def test_quadrant_validation():
    with pytest.raises(ValueError):
        quadrant_prob(-0.1, 0.5)
    with pytest.raises(ValueError):
        quadrant_prob(0.5, 1.5)


# --- accuracy against scipy's Owen's T and ndtri ------------------------------

# the smallest subnormal and normal doubles, a deep normal tail, and the
# largest double below 1
EXTREME_MUS = (2.0 ** -1074, 2.0 ** -1022, 1e-300, 1.0 - 2.0 ** -53)
EXTREME_RHOS = (0.0, 1.0 - 2.0 ** -53)


def quantile_within(mu: float) -> bool:
    t, expected = gaussian_quantile(mu), float(ndtri(mu))
    return abs(t - expected) <= 1e-14 * abs(expected)


@pytest.mark.parametrize("mu", EXTREME_MUS)
@pytest.mark.parametrize("rho", EXTREME_RHOS)
def test_quadrant_and_quantile_at_the_extremes(rho, mu):
    assert abs(quadrant_prob(rho, mu) - quadrant_prob_owens_t(rho, mu)) <= 1e-15
    assert quantile_within(mu)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.sampled_from(EXTREME_RHOS), st.floats(0.0, 1.0)),
       st.one_of(st.sampled_from(EXTREME_MUS), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)))
@example(0.5, 0.5)
@example(0.3, 0.02425)  # the region edges of Acklam's approximation
@example(0.3, 1.0 - 0.02425)
@example(0.3, 0.075)  # AS241's central region ends at |mu - 1/2| = 0.425
@example(0.3, 0.925)
@example(0.3, math.exp(-25.0))  # and its tails split at sqrt(-log(tail)) = 5
@example(0.3, 1.0 - math.exp(-25.0))
@example(0.3, 2.0 ** -1022 * (1.0 - 2.0 ** -52))  # the largest subnormal
def test_quadrant_and_quantile_match_scipy(rho, mu):
    assert abs(quadrant_prob(rho, mu) - quadrant_prob_owens_t(rho, mu)) <= 1e-15
    assert quantile_within(mu)


@settings(max_examples=300, deadline=None)
@given(st.floats(0.0, 40.0), st.floats(0.0, 1.0))
@example(0.0, 1.0)
@example(40.0, 1.0)
def test_owens_t_matches_scipy(h, a):
    assert abs(stablest._owens_t(h, a) - owens_t(h, a)) <= 2e-16
    assert stablest._owens_t(-h, a) == stablest._owens_t(h, a)


def test_gauss_legendre_rule_is_the_40_point_rule():
    nodes, weights = np.polynomial.legendre.leggauss(40)
    half = nodes > 0
    rule = np.array(stablest._GAUSS_LEGENDRE)
    np.testing.assert_allclose(rule[:, 0], nodes[half], rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(rule[:, 1], weights[half], rtol=0.0, atol=1e-14)
    assert math.fsum(rule[:, 1]) == pytest.approx(1.0, abs=1e-15)


# --- zero-one lift ------------------------------------------------------------

def test_to_zero_one_constants():
    g = to_zero_one(constant(3, 1.0))
    np.testing.assert_array_equal(g.values, np.zeros(8))
    assert g.range_tag == ZERO_ONE


def test_to_zero_one_dictator():
    g = to_zero_one(dictator(2, 0))
    ghat = wht(g)
    assert ghat.coeffs[0] == pytest.approx(0.5)
    for rho in (0.2, 0.5, 0.8):
        assert stability(ghat, rho) == pytest.approx(0.25 + rho / 4.0, abs=1e-12)


def test_to_zero_one_maj3_stability():
    g = to_zero_one(majority(3))
    assert stability(wht(g), 0.5) == pytest.approx(0.3515625, abs=1e-12)


def test_to_zero_one_rejects_real():
    with pytest.raises(PreconditionError):
        to_zero_one(constant(2, 0.5))


# --- slack report --------------------------------------------------------------

def test_mist_slack_constant_half():
    rep = mist_slack(constant(3, 0.5), 0.3)
    assert rep.stab == pytest.approx(0.25, abs=1e-12)
    assert rep.lam >= 0.25 - 1e-9
    assert rep.slack <= 1e-9
    assert rep.slack == rep.stab - rep.lam


def test_mist_slack_maj3():
    rep = mist_slack(to_zero_one(majority(3)), 0.5)
    assert rep.mean == pytest.approx(0.5, abs=1e-12)
    assert rep.stab == pytest.approx(0.3515625, abs=1e-12)
    assert rep.slack == pytest.approx(0.3515625 - 1.0 / 3.0, abs=1e-9)


def test_mist_slack_dictator():
    rep = mist_slack(to_zero_one(dictator(2, 0)), 0.5)
    assert rep.stab == pytest.approx(0.375, abs=1e-12)
    assert rep.lam == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert rep.slack == pytest.approx(0.375 - 1.0 / 3.0, abs=1e-9)


def test_mist_report_invariants():
    for f in (to_zero_one(majority(3)), to_zero_one(parity(4)), constant(3, 0.2)):
        for rho in (0.0, 0.4, 0.8):
            rep = mist_slack(f, rho)
            assert 0.0 - 1e-9 <= rep.lam <= rep.mean + 1e-9
            assert rep.mean ** 2 - 1e-12 <= rep.stab <= rep.mean + 1e-12
            assert rep.slack == rep.stab - rep.lam


def test_mist_slack_validation():
    with pytest.raises(PreconditionError):
        mist_slack(majority(3), 0.5)  # pm_one input not lifted automatically
    with pytest.raises(ValueError):
        mist_slack(constant(3, 0.5), 1.0)


# --- pipeline -------------------------------------------------------------------

def default_params():
    return RegularityParams(eps=0.2, delta=0.3, gamma=0.25)


def test_pipeline_constant():
    c = 0.4
    rep = check_quasi_mist(constant(4, c), 0.5, default_params(), 0.5, 0.5)
    assert rep.quasirandom_ok
    assert rep.bad_mass == 0.0
    assert rep.stab == pytest.approx(c * c, abs=1e-12)
    assert rep.certified_bound >= rep.stab - 1e-12
    # single clean leaf: the global-lambda and leaf-lambda terms cancel, and
    # a constant sits below the quadrant curve, so the bound lands at stab
    assert rep.certified_bound == pytest.approx(rep.stab, abs=1e-9)
    assert rep.certified_bound <= rep.lam + 1e-9


def test_pipeline_hypothesis_failure_parity():
    rep = check_quasi_mist(to_zero_one(parity(2)), 0.5, default_params(), 0.3, 0.5)
    assert rep.quasirandom_ok is False
    assert rep.certified_bound is None
    assert rep.witness["vars"] == [1, 2]
    assert rep.witness["value"] == pytest.approx(-0.5)


def test_pipeline_dictator_splits_and_stays_sound():
    g = to_zero_one(dictator(2, 0))  # influence 0.25 > eps = 0.2 forces one split
    rep = check_quasi_mist(g, 0.5, default_params(), 0.6, 0.5)
    assert rep.quasirandom_ok
    assert rep.bad_mass == 0.0
    assert rep.drift_ok
    assert rep.certified_bound >= rep.stab - 1e-12
    assert rep.terms["bad_leaves"] == 0.0
    assert rep.terms["lipschitz_drift"] == pytest.approx(1.0, abs=1e-12)  # two leaves, drift 1/2


def test_pipeline_soundness_corpus():
    corpus = [
        to_zero_one(majority(3)),
        to_zero_one(majority(5)),
        to_zero_one(parity(6, [0, 3])),
        constant(4, 0.7),
    ]
    for g in corpus:
        for rho in (0.2, 0.6):
            rep = check_quasi_mist(g, rho, default_params(), 0.6, 0.5)
            assert rep.quasirandom_ok
            assert rep.certified_bound >= rep.stab - 1e-12


@st.composite
def fractional_tables(draw):
    n = draw(st.integers(3, 6))
    values = draw(arrays(np.float64, 1 << n,
                         elements=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))))
    return BooleanFunction(n, values, ZERO_ONE)


@settings(max_examples=100, deadline=None)
@given(fractional_tables(), st.floats(0.0, 0.99))
# a leaf mean of 0 whose half-butterflies read -2.8e-17
@example(BooleanFunction(3, np.array([0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.3, 0.0]), ZERO_ONE), 0.5)
def test_pipeline_takes_fractional_zero_one_tables(g, rho):
    rep = check_quasi_mist(g, rho, RegularityParams(0.02, 0.3, 0.05), 1.0, 0.5)
    assert rep.quasirandom_ok
    assert rep.certified_bound >= rep.stab - _PHI_GUARD


@st.composite
def zero_one_tables(draw):
    """{0,1} tables, or fractional ones of eighths."""
    n = draw(st.integers(1, 7))
    entries = draw(st.sampled_from([(0.0, 1.0), tuple(k / 8 for k in range(9))]))
    return BooleanFunction(n, draw(arrays(np.float64, 1 << n, elements=st.sampled_from(entries))), ZERO_ONE)


@settings(max_examples=150, deadline=None)
@given(zero_one_tables(), st.sampled_from([0.0, 0.3, 0.9]),
       st.builds(RegularityParams, eps=st.sampled_from([0.01, 0.05, 0.1]), delta=st.sampled_from([0.1, 0.3, 1.0]),
                 gamma=st.sampled_from([0.05, 0.25])),
       st.sampled_from([0.05, 0.3, 0.6, 1.0]))
def test_pipeline_terms_are_the_per_leaf_loops(g, rho, p, q_eps):
    # the terms, summed over arrays of the driver's leaf statistics, against
    # the loop over fresh transforms of every leaf table that they replace
    rep = check_quasi_mist(g, rho, p, q_eps, 0.5)
    if not rep.quasirandom_ok:
        assert rep.terms is None
        return
    terms, drift_ok = reference_mist_terms(g, decompose(g, p).tree, rho, p, q_eps)
    assert rep.terms.keys() == terms.keys()
    for key, value in terms.items():
        assert abs(rep.terms[key] - value) <= 1e-12, key
    assert abs(rep.certified_bound - sum(terms.values())) <= 1e-12
    assert rep.drift_ok == drift_ok


def test_pipeline_validation():
    with pytest.raises(PreconditionError):
        check_quasi_mist(majority(3), 0.5, default_params(), 0.5, 0.5)


def test_pipeline_certified_bound_below_stability_is_an_internal_error(monkeypatch, capsys):
    # A Lambda that breaks the 2-Lipschitz step: 0 at the global mean, 2 at
    # every leaf's, so the certified bound falls below the stability
    def broken_lambda():
        calls = iter([0.0])
        return lambda rho, mu: next(calls, 2.0)

    g = to_zero_one(majority(5))
    assert check_quasi_mist(g, 0.6, default_params(), 0.6, 0.5).bad_mass == 0.0
    monkeypatch.setattr(stablest, "quadrant_prob", broken_lambda())
    with pytest.raises(RuntimeError, match="internal error: certified bound .* below the stability"):
        check_quasi_mist(g, 0.6, default_params(), 0.6, 0.5)
    monkeypatch.setattr(stablest, "quadrant_prob", broken_lambda())
    assert main(["mist", "--fn", "maj:5", "--rho", "0.6", "--eps", "0.2", "--delta", "0.3",
                 "--gamma", "0.25", "--q-eps", "0.6", "--q-delta", "0.5"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: internal error: certified bound ")
    assert captured.err.count("\n") == 1


def test_pipeline_transforms_f_once(monkeypatch):
    # the decomposition starts from the pipeline's spectrum, and each good
    # leaf's Stab_rho comes from its degree profile
    import boolreg.boolfn
    import boolreg.dtree

    calls = []
    butterfly = boolreg.boolfn._butterfly

    def counting(values, *dtype):
        calls.append(values.size)
        return butterfly(values, *dtype)

    monkeypatch.setattr(boolreg.boolfn, "_butterfly", counting)
    monkeypatch.setattr(boolreg.dtree, "_butterfly", counting)
    g = to_zero_one(tribes(3, 4))
    report = check_quasi_mist(g, 0.5, RegularityParams(0.02, 0.3, 0.05), 0.6, 0.5)
    assert report.quasirandom_ok and report.bad_mass > 0.0
    assert calls == [1 << 12]


def test_pipeline_rejects_nan_thresholds():
    g = to_zero_one(majority(5))
    with pytest.raises(ValueError, match="eps must be nonnegative, got nan"):
        check_quasi_mist(g, 0.6, default_params(), float("nan"), 0.5)
    with pytest.raises(ValueError, match="delta must be positive, got nan"):
        check_quasi_mist(g, 0.6, default_params(), 0.6, float("nan"))


def test_pipeline_rejects_an_infinite_q_eps():
    g = to_zero_one(majority(5))
    for q_eps in (math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"q_eps must be finite, got {q_eps}"):
            check_quasi_mist(g, 0.6, default_params(), q_eps, 0.5)


# --- asymptotic schedule ----------------------------------------------------------

def test_schedule_at_e_to_minus_e():
    sched = asymptotic_params(math.exp(-math.e))
    assert sched.params.gamma == pytest.approx(1.0 / math.e, abs=1e-12)
    assert sched.params.delta == pytest.approx(1.0 / math.e, abs=1e-12)
    assert sched.height_budget == pytest.approx(sched.params.budget, rel=1e-12)
    assert not sched.underflow


def test_schedule_domain_guard():
    with pytest.raises(ValueError):
        asymptotic_params(0.9)
    with pytest.raises(ValueError):
        asymptotic_params(math.exp(-2.0))


def test_schedule_underflow_flagged():
    sched = asymptotic_params(1e-3)
    assert sched.underflow
    assert sched.q_eps == 0.0
    assert sched.q_delta > 0.0


# --- slack trend -------------------------------------------------------------------

def test_majority_slack_decreasing_small():
    slacks = [mist_slack(to_zero_one(majority(n)), 0.5).slack for n in (3, 5, 7)]
    assert slacks[0] > slacks[1] > slacks[2]
