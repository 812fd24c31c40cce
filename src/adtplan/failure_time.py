"""Soft-failure time distribution under use conditions.

A unit fails when its mean degradation path crosses the threshold y0.  With
Gaussian random coefficients the failure time T satisfies

    P(T <= t) = Phi(h(t)),    h(t) = (mu(t) - y0) / sigma_u(t),

where mu(t) = f2(t)' delta is the aggregate path at the use stress and
sigma_u^2(t) = f2(t)' Sigma_gamma f2(t) its between-unit variance.  For the
affine basis mu is a straight line and the median has the closed form
(y0 - delta_1) / delta_2.  mu_aggregate, sigma_u2, sigma_u and h take a
float or an array of times; an array gives the bits of one call per time.
Only quantile needs the normal quantile function; it imports
statistics.NormalDist at its first call, so the package does not load
statistics (nor its decimal and fractions).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    DegenerateVarianceError,
    IndeterminateMarginError,
    NonMonotoneMarginError,
    NoPositiveMedianError,
    ValidationError,
)
from .model import DegradationModel, eval_delta

__all__ = [
    "QuantileResult",
    "mu_aggregate",
    "sigma_u2",
    "sigma_u",
    "h",
    "failure_cdf",
    "median_failure_time",
    "quantile",
]

# Root search keeps doubling the bracket's right end until it passes this.
_BRACKET_LIMIT = 1.0e6
# Grid size for the numerical monotonicity check of non-affine time bases.
_MONOTONE_GRID = 1024


@dataclass(frozen=True)
class QuantileResult:
    """Outcome of a quantile solve.

    t_alpha is NaN when exists is False (the requested probability level is
    outside the range of the failure-time distribution).  bounds_used records
    the bracket handed to the root finder; for closed-form solutions both
    ends equal the solution.
    """

    t_alpha: float
    exists: bool
    bounds_used: tuple[float, float]


def mu_aggregate(t: float | np.ndarray, model: DegradationModel) -> float | np.ndarray:
    """Mean degradation at time t under use conditions, f2(t)' delta."""
    delta = eval_delta(model)
    if np.ndim(t) == 0:
        return float(model.time_basis.evaluate(t) @ delta)
    # Stacked products round as the scalar f2 @ A does; F2 @ A or einsum can differ in the last bit.
    return (model.time_basis.evaluate_many(t)[:, None, :] @ delta)[:, 0]


def sigma_u2(t: float | np.ndarray, model: DegradationModel) -> float | np.ndarray:
    """Between-unit variance of the path at time t, f2(t)' Sigma_gamma f2(t)."""
    sg = model.sigma_gamma_matrix()
    # Sigma_gamma is non-negative definite; clip roundoff noise.
    if np.ndim(t) == 0:
        f2 = model.time_basis.evaluate(t)
        return max(float(f2 @ sg @ f2), 0.0)
    F2 = model.time_basis.evaluate_many(t)
    return np.maximum((F2[:, None, :] @ sg @ F2[:, :, None])[:, 0, 0], 0.0)


def sigma_u(t: float | np.ndarray, model: DegradationModel) -> float | np.ndarray:
    s2 = sigma_u2(t, model)
    return math.sqrt(s2) if np.ndim(t) == 0 else np.sqrt(s2)


def h(t: float | np.ndarray, model: DegradationModel) -> float | np.ndarray:
    """Standardized margin (mu(t) - y0) / sigma_u(t).

    Undefined where the path variance vanishes: raises
    DegenerateVarianceError when the margin is nonzero there, and
    IndeterminateMarginError for the 0/0 case; for an array of times, at
    the first such time.
    """
    if np.ndim(t) == 0:
        return _margin_function(model)(t)
    s = sigma_u(t, model)
    zero = np.flatnonzero(s == 0.0)
    # The scalar path raises at the first zero-variance time.
    return (mu_aggregate(t, model) - model.y0) / s if zero.size == 0 else h(float(t[zero[0]]), model)


def _margin_function(model: DegradationModel) -> Callable[[float], float]:
    """h at one time: delta and Sigma_gamma derived once, f2(t) once per call, the bits of h's formula."""
    delta, sg, y0 = eval_delta(model), model.sigma_gamma_matrix(), model.y0

    def margin_at(t: float) -> float:
        f2 = model.time_basis.evaluate(t)
        s, margin = math.sqrt(max(float(f2 @ sg @ f2), 0.0)), float(f2 @ delta) - y0
        if s == 0.0:
            if margin == 0.0:
                raise IndeterminateMarginError(f"sigma_u({t}) = 0 and mu({t}) = y0: margin is 0/0")
            raise DegenerateVarianceError(f"sigma_u({t}) = 0 while mu({t}) != y0")
        return margin / s

    return margin_at


def failure_cdf(t: float, model: DegradationModel) -> float:
    """P(T <= t) = Phi(h(t))."""
    # erfc keeps full relative accuracy in the lower tail, where
    # NormalDist.cdf underflows to 0.
    return 0.5 * math.erfc(-h(t, model) / math.sqrt(2.0))


def median_failure_time(model: DegradationModel) -> float:
    """First time the aggregate path reaches the threshold.

    Closed form (y0 - delta_1) / delta_2 for the affine time basis; general
    bases fall back to the quantile solver at alpha = 0.5.
    """
    delta = eval_delta(model)
    if model.time_basis.is_affine:
        d1, d2 = float(delta[0]), float(delta[1])
        if d2 <= 0.0 or d1 >= model.y0:
            raise NoPositiveMedianError(
                f"no positive median: need delta_2 > 0 and delta_1 < y0, got delta = ({d1}, {d2}), y0 = {model.y0}"
            )
        return (model.y0 - d1) / d2
    result = quantile(0.5, model)
    if not result.exists:
        raise NoPositiveMedianError("aggregate path never reaches the threshold")
    return result.t_alpha


def quantile(alpha: float, model: DegradationModel) -> QuantileResult:
    """Solve h(t_alpha) = z_alpha for the failure-time quantile.

    Levels outside the open window (Phi(h(0)), lim sup Phi(h(t))) have no
    solution and are reported with exists=False instead of an exception.
    Otherwise t_alpha is the float b with h(a) < z_alpha <= h(b) at the
    float a just below it, h as _margin_function evaluates it (the
    random-intercept closed form aside).  For the affine basis h turns at
    most once, so inside the window it crosses z_alpha exactly once.  Other
    bases sample h on the bracket and raise NonMonotoneMarginError when it
    does not rise, since the root may then not be unique.
    """
    from statistics import NormalDist

    if not (0.0 < alpha < 1.0):
        raise ValidationError(f"alpha must be in (0,1), got {alpha}")
    z = NormalDist().inv_cdf(alpha)
    h_at = _margin_function(model)
    h0 = h_at(0.0)
    if z <= h0:
        return QuantileResult(t_alpha=math.nan, exists=False, bounds_used=(0.0, 0.0))

    if model.time_basis.is_affine:
        delta = eval_delta(model)
        d1, d2 = float(delta[0]), float(delta[1])
        sg = model.sigma_gamma_matrix()
        s2_slope = math.sqrt(max(sg[1, 1], 0.0))
        if s2_slope == 0.0:
            # Random intercept only: h(t) = (d1 + d2 t - y0) / sigma1 is a line.
            if d2 <= 0.0:
                return QuantileResult(t_alpha=math.nan, exists=False, bounds_used=(0.0, 0.0))
            s1 = math.sqrt(sg[0, 0])
            t_alpha = (model.y0 - d1 + z * s1) / d2
            if t_alpha <= 0.0:
                return QuantileResult(t_alpha=math.nan, exists=False, bounds_used=(0.0, 0.0))
            return QuantileResult(t_alpha=t_alpha, exists=True, bounds_used=(t_alpha, t_alpha))
        # With a random slope h is bounded: h(t) -> d2 / sigma2 as t -> inf.
        if z >= d2 / s2_slope:
            return QuantileResult(t_alpha=math.nan, exists=False, bounds_used=(0.0, 0.0))

    lo, hi = 0.0, 1.0
    while h_at(hi) < z:
        hi *= 2.0
        if hi > _BRACKET_LIMIT:
            return QuantileResult(t_alpha=math.nan, exists=False, bounds_used=(lo, hi))

    # An affine margin turns at most once (the numerator of h' is linear in t),
    # so only other bases are sampled, and refused when the root may not be unique.
    if not model.time_basis.is_affine:
        if np.any(np.diff(h(np.linspace(lo, hi, _MONOTONE_GRID), model)) <= 0.0):
            raise NonMonotoneMarginError(
                f"h is not strictly increasing on [{lo}, {hi}]; quantile root may not be unique"
            )

    # Bisect down to adjacent floats a < b, keeping h(a) < z <= h(b).
    a, b = lo, hi
    mid = 0.5 * (a + b)
    while a < mid < b:
        if h_at(mid) < z:
            a = mid
        else:
            b = mid
        mid = 0.5 * (a + b)
    return QuantileResult(t_alpha=b, exists=True, bounds_used=(lo, hi))
