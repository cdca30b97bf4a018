"""Gaussian quadrant probability and stability-versus-quadrant reports.

The quadrant probability of correlation rho at volume mu is the chance that
two rho-correlated standard Gaussians both land below the mu-quantile:

    Lambda_rho(mu) = Pr[z1 <= t and z2 <= t],   Phi(t) = mu.

Computed in closed form, Lambda_rho(mu) = Phi(t) - 2 T(t, sqrt((1 - rho)/(1 +
rho))), where T is Owen's T function (Owen 1956), to within a few units in
the last place.  Among [0,1]-valued functions with
no dominant coordinate, noise stability cannot exceed this quantity by
much; ``mist_slack`` reports the gap for one function, and
``check_quasi_mist`` assembles the certified leaf-wise upper bound that the
regularity decomposition yields for quasirandom functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.special import ndtri, owens_t

from .boolfn import PM_ONE, ZERO_ONE, BooleanFunction, mask_vars, wht
from .dtree import leaves
from .errors import PreconditionError
from .noise import stability
from .quasirandom import is_quasirandom
from .regularity import _PHI_GUARD, RegularityParams, _decompose, _split_bad_leaves

_SQRT2 = math.sqrt(2.0)


def gaussian_quantile(mu: float) -> float:
    """t with Phi(t) = mu (``scipy.special.ndtri``); mu of 0 or 1 gives -/+inf."""
    if not 0.0 <= mu <= 1.0:
        raise ValueError(f"mu must lie in [0, 1], got {mu}")
    return float(ndtri(mu))


def quadrant_prob(rho: float, mu: float) -> float:
    """Lambda_rho(mu) = Phi(t) - 2 T(t, sqrt((1 - rho)/(1 + rho))) with Phi(t) = mu.

    rho = 1 is handled as the limit (both Gaussians coincide, answer mu).
    """
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho must lie in [0, 1], got {rho}")
    if not 0.0 <= mu <= 1.0:
        raise ValueError(f"mu must lie in [0, 1], got {mu}")
    if mu in (0.0, 1.0) or rho == 1.0:
        return float(mu)
    t = gaussian_quantile(mu)
    return float(0.5 * math.erfc(-t / _SQRT2) - 2.0 * owens_t(t, math.sqrt((1.0 - rho) / (1.0 + rho))))


def to_zero_one(f: BooleanFunction) -> BooleanFunction:
    """Map a {-1,+1}-valued function to [0,1] via g = (1 - f)/2.

    +1 maps to 0 and -1 maps to 1, aligning the function's accepting mass
    with the left-tail convention of the quadrant probability.
    """
    if f.range_tag != PM_ONE:
        raise PreconditionError(f"to_zero_one needs a pm_one-tagged function, got {f.range_tag}")
    return BooleanFunction(f.n, (1.0 - f.values) / 2.0, ZERO_ONE)


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
        out = {
            "rho": self.rho,
            "mean": self.mean,
            "stab": self.stab,
            "lambda": self.lam,
            "slack": self.slack,
        }
        for key in ("bad_mass", "params_used", "certified_bound",
                    "quasirandom_ok", "witness", "terms", "drift_ok"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        return out


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

    # decompose(f, p) from the spectrum at hand; a [0,1]-valued f has E[f^2] <= 1
    result = _decompose(f, ghat, p, _split_bad_leaves(f.n, p), keep_all=False)
    bad_term = 0.0
    good_lambda_term = 0.0
    lipschitz_term = 0.0
    leaf_slack_term = 0.0
    drift_ok = True
    for leaf, depth in leaves(result.tree):
        mass = 2.0 ** -depth
        stats = result.leaf_stats[leaf.id]
        drift = abs(stats.mean - mu)
        if drift > 2.0 ** depth * q_eps + 1e-12:
            drift_ok = False
        if stats.bad(p.eps):
            bad_term += mass  # stability of a [0,1]-valued leaf is at most 1
            continue
        leaf_stab = sum(w * rho ** k for k, w in enumerate(stats.profile))
        leaf_lam = quadrant_prob(rho, stats.mean)
        good_lambda_term += mass * lam
        lipschitz_term += mass * 2.0 * drift
        leaf_slack_term += mass * (leaf_stab - leaf_lam)
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
