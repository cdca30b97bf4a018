"""Gaussian quadrant probability and stability-versus-quadrant reports.

The quadrant probability of correlation rho at volume mu is the chance that
two rho-correlated standard Gaussians both land below the mu-quantile:

    Lambda_rho(mu) = Pr[z1 <= t and z2 <= t],   Phi(t) = mu.

Computed in closed form, Lambda_rho(mu) = mu - 2 T(t, sqrt((1 - rho)/(1 +
rho))), where T is Owen's T function (Owen 1956), to within 1e-15.  The
quantile t is the standard library's (``statistics.NormalDist.inv_cdf``,
Wichura's AS241) and T a 40-point Gauss-Legendre rule in ``math``, so no
command loads scipy.  Among [0,1]-valued functions with no dominant
coordinate, noise stability cannot exceed this quantity by much;
``mist_slack`` reports the gap for one function, and ``check_quasi_mist``
assembles the certified leaf-wise upper bound that the regularity
decomposition yields for quasirandom functions.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from statistics import NormalDist

import numpy as np

from .boolfn import PM_ONE, ZERO_ONE, BooleanFunction, _handover, mask_vars, wht
from .dtree import _masses
from .errors import PreconditionError
from .noise import _bad, _powers, stability
from .quasirandom import is_quasirandom
from .regularity import _PHI_GUARD, RegularityParams, _decompose, _split_bad_leaves

_STANDARD_NORMAL = NormalDist()

# The positive nodes x and weights w of the 40-point Gauss-Legendre rule on
# [-1, 1] (the others are -x with the same w), rounded from 60-digit values.
_GAUSS_LEGENDRE = (
    (0.03877241750605082, 0.0775059479784248),
    (0.11608407067525521, 0.07703981816424797),
    (0.1926975807013711, 0.07611036190062624),
    (0.2681521850072537, 0.07472316905796826),
    (0.3419940908257585, 0.07288658239580406),
    (0.413779204371605, 0.07061164739128678),
    (0.4830758016861787, 0.0679120458152339),
    (0.5494671250951282, 0.06480401345660104),
    (0.6125538896679802, 0.06130624249292894),
    (0.6719566846141796, 0.05743976909939155),
    (0.7273182551899271, 0.05322784698393682),
    (0.7783056514265194, 0.04869580763507223),
    (0.8246122308333117, 0.04387090818567327),
    (0.8659595032122595, 0.038782167974472016),
    (0.9020988069688743, 0.033460195282547844),
    (0.9328128082786765, 0.0279370069800234),
    (0.9579168192137917, 0.02224584919416696),
    (0.9772599499837743, 0.01642105838190789),
    (0.990726238699457, 0.010498284531152813),
    (0.9982377097105593, 0.004521277098533191),
)


def gaussian_quantile(mu: float) -> float:
    """t with Phi(t) = mu, within 1e-15 relative, by Wichura's AS241
    (``statistics.NormalDist``); mu of 0 or 1 gives -/+inf, and every mu in
    between, subnormal ones included, gives a finite t."""
    if not 0.0 <= mu <= 1.0:
        raise ValueError(f"mu must lie in [0, 1], got {mu}")
    if mu == 0.0:
        return -math.inf
    if mu == 1.0:
        return math.inf
    return _STANDARD_NORMAL.inv_cdf(float(mu))


def _owens_t(h: float, a: float) -> float:
    """Owen's T(h, a) = (1/2 pi) int_0^a exp(-h^2 (1 + x^2)/2)/(1 + x^2) dx
    for 0 <= a <= 1, by the 40-point Gauss-Legendre rule on [-a, a] of the
    even integrand.  The integrand is smooth there (its poles sit at +/-i),
    and the rule is within 1e-16 of the exact value for every h."""
    c = -0.5 * h * h
    total = 0.0
    for x, w in _GAUSS_LEGENDRE:
        y = 1.0 + (a * x) ** 2
        total += w * math.exp(c * y) / y
    return a * total / (2.0 * math.pi)


def quadrant_prob(rho: float, mu: float) -> float:
    """Lambda_rho(mu) = mu - 2 T(t, sqrt((1 - rho)/(1 + rho))) with Phi(t) = mu.

    rho = 1 is handled as the limit (both Gaussians coincide, answer mu).
    """
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho must lie in [0, 1], got {rho}")
    if not 0.0 <= mu <= 1.0:
        raise ValueError(f"mu must lie in [0, 1], got {mu}")
    if mu in (0.0, 1.0) or rho == 1.0:
        return float(mu)
    return float(mu) - 2.0 * _owens_t(gaussian_quantile(mu), math.sqrt((1.0 - rho) / (1.0 + rho)))


def to_zero_one(f: BooleanFunction) -> BooleanFunction:
    """Map a {-1,+1}-valued function to [0,1] via g = (1 - f)/2.

    +1 maps to 0 and -1 maps to 1, aligning the function's accepting mass
    with the left-tail convention of the quadrant probability.
    """
    if f.range_tag != PM_ONE:
        raise PreconditionError(f"to_zero_one needs a pm_one-tagged function, got {f.range_tag}")
    values = 1.0 - f.values
    values /= 2.0
    return BooleanFunction(f.n, _handover(values), ZERO_ONE)


@dataclass
class MistReport:
    """Stability against the quadrant bound for one function.

    ``slack`` is stab - lambda, reported without a pass/fail judgment (the
    additive error term of the underlying inequality carries an unspecified
    constant).  Pipeline runs additionally fill the certified bound, its
    additive term breakdown, and the quasirandomness hypothesis outcome.
    """

    rho: float
    mean: float
    stab: float
    lam: float
    slack: float
    bad_mass: float | None = None
    params_used: dict | None = None
    certified_bound: float | None = None
    quasirandom_ok: bool | None = None
    witness: dict | None = None
    terms: dict | None = None
    drift_ok: bool | None = None

    def to_dict(self) -> dict:
        """The fields in order, ``lam`` as "lambda", unset ones left out."""
        return {"lambda" if key == "lam" else key: value
                for key, value in asdict(self).items() if value is not None}


def mist_slack(g: BooleanFunction, rho: float) -> MistReport:
    """Exact Fourier stability minus the quadrant probability of the mean."""
    if g.range_tag != ZERO_ONE:
        raise PreconditionError(f"mist_slack needs a zero_one-tagged function, got {g.range_tag}")
    if not 0.0 <= rho < 1.0:
        raise ValueError(f"rho must lie in [0, 1), got {rho}")
    ghat = wht(g)
    mu = float(ghat.coeffs[0])
    stab = stability(ghat, rho)
    lam = quadrant_prob(rho, mu)
    return MistReport(rho=rho, mean=mu, stab=stab, lam=lam, slack=stab - lam)


def check_quasi_mist(f: BooleanFunction, rho: float, p: RegularityParams,
                     q_eps: float, q_delta: float) -> MistReport:
    """Regularity-plus-quadrant pipeline for a [0,1]-valued function.

    Verifies the quasirandomness hypothesis at (q_eps, q_delta) first; on
    failure the report flags it and skips the decomposition.  Otherwise the
    function is decomposed from the same spectrum, each leaf's stability is
    bounded through the quadrant probability of the global mean (bad leaves
    by 1, good leaves with a 2-Lipschitz mean-drift correction plus their
    own measured slack, their Stab_rho read from their degree profiles),
    and the certified upper bound is returned next to the true stability.
    Every additive term is reported separately.  A bound below the
    stability raises RuntimeError: Lambda_rho is 2-Lipschitz in mu and the
    leaf-mass-weighted Stab_rho of the leaves is at least Stab_rho f, so
    only a fault can cause it.
    """
    if f.range_tag != ZERO_ONE:
        raise PreconditionError(f"check_quasi_mist needs a zero_one-tagged function, got {f.range_tag}")
    if not 0.0 <= rho < 1.0:
        raise ValueError(f"rho must lie in [0, 1), got {rho}")
    if math.isinf(q_eps):  # NaN is refused by is_quasirandom
        raise ValueError(f"q_eps must be finite, got {q_eps}")
    ghat = wht(f)
    mu = float(ghat.coeffs[0])
    stab = stability(ghat, rho)
    lam = quadrant_prob(rho, mu)
    params_used = {"eps": p.eps, "delta": p.delta, "gamma": p.gamma,
                   "q_eps": q_eps, "q_delta": q_delta}
    verdict = is_quasirandom(ghat, q_eps, q_delta)
    if not verdict.ok:
        witness = {"vars": [v + 1 for v in mask_vars(verdict.witness_mask)],
                   "value": verdict.witness_value}
        return MistReport(rho=rho, mean=mu, stab=stab, lam=lam, slack=stab - lam,
                          params_used=params_used, quasirandom_ok=False, witness=witness)

    # decompose(f, p) from the spectrum at hand
    result = _decompose(f, p, _split_bad_leaves(f.n, p), keep_all=False, ghat=ghat)
    stats, masses = result.leaf_stats, _masses(result.tree)
    drifts = np.abs(stats.means - mu)
    drift_ok = not np.any(drifts > q_eps / masses + 1e-12)  # q_eps / mass = 2^depth * q_eps
    good = ~_bad(stats.max_influences, p.eps)
    leaf_stabs = stats.profiles[good] @ _powers(rho, f.n)
    # the exact leaf means lie in [0, 1]; their rounded half-butterflies may not
    leaf_lams = np.array([quadrant_prob(rho, mean) for mean in np.clip(stats.means[good], 0.0, 1.0).tolist()])
    bad_term = float(masses[~good].sum())  # stability of a [0,1]-valued leaf is at most 1
    good_lambda_term = float(masses[good].sum() * lam)
    lipschitz_term = float(masses[good] @ (2.0 * drifts[good]))
    leaf_slack_term = float(masses[good] @ (leaf_stabs - leaf_lams))
    certified = bad_term + good_lambda_term + lipschitz_term + leaf_slack_term
    if certified < stab - _PHI_GUARD:
        raise RuntimeError(f"internal error: certified bound {certified} is below the stability {stab}")
    return MistReport(
        rho=rho, mean=mu, stab=stab, lam=lam, slack=stab - lam,
        bad_mass=result.bad_mass, params_used=params_used,
        certified_bound=certified, quasirandom_ok=True,
        terms={
            "bad_leaves": bad_term,
            "good_leaves_lambda": good_lambda_term,
            "lipschitz_drift": lipschitz_term,
            "good_leaves_slack": leaf_slack_term,
        },
        drift_ok=drift_ok,
    )


@dataclass(frozen=True)
class ParamSchedule:
    """Parameter schedule under which the quasirandom stability bound holds.

    ``height_budget`` equals the regularity params' iteration budget; the
    quasirandomness pair shrinks fast enough that restriction means stay
    within eps of the global mean across the whole tree.
    """

    q_eps: float
    q_delta: float
    params: RegularityParams
    height_budget: float
    underflow: bool


def asymptotic_params(eps: float) -> ParamSchedule:
    """Evaluate the exact asymptotic schedule at a concrete eps.

    Requires 0 < eps < e^-2 so both iterated logarithms are positive.  The
    quasirandomness threshold eps * 2^-height underflows to zero well
    before eps reaches practical magnitudes; the flag reports it rather
    than hiding it.
    """
    if not 0.0 < eps < math.exp(-2.0):
        raise ValueError(f"eps must lie in (0, e^-2), got {eps}")
    log_inv = math.log(1.0 / eps)
    loglog_inv = math.log(log_inv)
    height = log_inv ** 2 / (eps * loglog_inv)
    gamma = loglog_inv / log_inv
    delta = 1.0 / log_inv
    q_delta = eps * loglog_inv / log_inv ** 2
    q_eps = eps * 2.0 ** -height
    underflow = q_eps == 0.0 or q_delta == 0.0
    return ParamSchedule(
        q_eps=q_eps,
        q_delta=q_delta,
        params=RegularityParams(eps=eps, delta=delta, gamma=gamma),
        height_budget=height,
        underflow=underflow,
    )
