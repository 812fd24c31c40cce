"""c-optimal designs for destructive testing: one measurement per unit.

With a single observation per unit the random coefficients cannot be
separated from the measurement error, and each observation at (x, t) has
variance sigma^2(t) = f2(t)' Sigma_gamma f2(t) + sigma_eps^2.  Rescaling by
sigma(t) turns the problem into a standard c-optimal one for the weighted
regression function f2_tilde(t) = f2(t)/sigma(t); for affine bases Elfving's
theorem gives closed-form two-point marginal designs in time and in stress,
and their product is optimal for estimating the median failure time in the
combined model.

Note on identifiability: planning with k = 1 presumes the variance split
between sigma_eps and the random intercept is known from elsewhere; a
single measurement per unit cannot estimate both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .criteria import _christoffel, _require_finite_criterion, _require_t_star, _target, stress_extrapolation_factor
from .errors import OutOfRegimeError, ValidationError
from .failure_time import sigma_u2
from .model import ApproximateDesign, DegradationModel
from .timeplan import GridSpec, OptimalityCertificate, OptimizerConfig, optimize_capped_weights, support_design

__all__ = [
    "VarianceFunction",
    "ProductDesign",
    "weighted_f2",
    "pi_star_from_ratio",
    "elfving_time_design",
    "elfving_stress_design",
    "product_design",
    "c_criterion_single_obs",
    "numeric_destructive_time_design",
]


@dataclass(frozen=True)
class VarianceFunction:
    """Single-observation variance sigma^2(t) = f2(t)' Sigma_gamma f2(t) + sigma_eps^2.

    sigma^2(t) >= sigma_eps^2 > 0 needs no check: sigma_u2 clips at 0 and
    ErrorSpec rejects a sigma_eps whose square is not a finite normal float.
    The model must have a scalar error level.  t may be an array of times,
    as in sigma_u2.
    """

    model: DegradationModel

    def __post_init__(self) -> None:
        _ = self.model.sigma_eps  # raises ConfigurationError for a full error covariance

    def sigma2(self, t: float | np.ndarray) -> float | np.ndarray:
        return sigma_u2(t, self.model) + self.model.sigma_eps**2

    def sigma(self, t: float | np.ndarray) -> float | np.ndarray:
        s2 = self.sigma2(t)
        return math.sqrt(s2) if np.ndim(t) == 0 else np.sqrt(s2)

    def ratio_end_over_start(self) -> float:
        """sigma(1)/sigma(0), the heteroscedasticity ratio of the horizon."""
        return self.sigma(1.0) / self.sigma(0.0)


@dataclass(frozen=True)
class ProductDesign:
    """Cross-product of a stress design and a time design."""

    stress_design: ApproximateDesign
    time_design: ApproximateDesign

    @property
    def combined(self) -> tuple[tuple[tuple[float, float], float], ...]:
        """((x, t), weight) pairs in lexicographic (x, t) order, weight the product of the marginal weights."""
        xi, tau = self.stress_design, self.time_design
        return tuple(
            ((x, t), wx * wt) for x, wx in zip(xi.points, xi.weights) for t, wt in zip(tau.points, tau.weights)
        )


def weighted_f2(t: float | np.ndarray, model: DegradationModel) -> np.ndarray:
    """Weighted marginal regression function f2(t)/sigma(t); one row per time for an array."""
    s = VarianceFunction(model).sigma(t)
    if np.ndim(t) == 0:
        return model.time_basis.evaluate(t) / s
    return model.time_basis.evaluate_many(t) / s[:, None]


def pi_star_from_ratio(t_star: float, ratio: float) -> float:
    """Optimal endpoint weight pi* as a function of the ratio sigma(1)/sigma(0).

    pi* = t* r / (t* r + t* - 1); the two-point Elfving design depends on the
    variance function only through this ratio.  Strictly increasing in r and
    strictly decreasing in t*, with limit r/(1 + r) as t* grows.  Either
    argument may be a numpy array; pi* is then taken elementwise.
    """
    if not np.all(np.greater(t_star, 1.0)):
        raise OutOfRegimeError(f"two-point extrapolation needs t_star > 1, got {t_star}")
    if not np.all(np.greater(ratio, 0.0)):
        raise ValidationError(f"variance ratio must be positive, got {ratio}")
    return t_star * ratio / (t_star * ratio + t_star - 1.0)


def elfving_time_design(model: DegradationModel, t_star: float) -> ApproximateDesign:
    """c-optimal destructive time design for affine paths: endpoints {0, 1}.

    pi* = t* sigma(1) / (t* sigma(1) + (t* - 1) sigma(0)) at t = 1.  Requires
    t* > 1; for t* inside the horizon the Elfving ray leaves through a vertex
    and the grid optimizer should be used instead.
    """
    if not model.time_basis.is_affine:
        raise ValidationError("Elfving time design requires the affine time basis")
    _require_t_star(t_star)
    if not (t_star > 1.0):
        raise OutOfRegimeError(
            f"t_star = {t_star} <= 1 is out of the extrapolation regime; "
            "use numeric_destructive_time_design"
        )
    pi1 = pi_star_from_ratio(t_star, VarianceFunction(model).ratio_end_over_start())
    return ApproximateDesign(points=(0.0, 1.0), weights=(1.0 - pi1, pi1))


def elfving_stress_design(model: DegradationModel) -> ApproximateDesign:
    """c-optimal marginal stress design on {0, 1} for extrapolation to x_u.

    Weight |x_u|/(|x_u| + |1 - x_u|) at x = 1 for x_u < 0, mirrored for
    x_u > 1.  A use condition inside [0, 1] is not extrapolation and is
    rejected.
    """
    if not model.stress_basis.is_affine:
        raise ValidationError("Elfving stress design requires the affine stress basis")
    x_u = model.x_u
    if 0.0 <= x_u <= 1.0:
        raise OutOfRegimeError(
            f"x_u = {x_u} lies inside the standardized stress region; no extrapolation design"
        )
    if x_u < 0.0:
        w1 = abs(x_u) / (abs(x_u) + abs(1.0 - x_u))
        return ApproximateDesign(points=(0.0, 1.0), weights=(1.0 - w1, w1))
    w0 = (x_u - 1.0) / ((x_u - 1.0) + x_u)
    return ApproximateDesign(points=(0.0, 1.0), weights=(w0, 1.0 - w0))


def product_design(xi: ApproximateDesign, tau: ApproximateDesign) -> ProductDesign:
    """Cross-product design with multiplied weights, (x, t) lexicographic."""
    return ProductDesign(stress_design=xi, time_design=tau)


def c_criterion_single_obs(design: ProductDesign, model: DegradationModel, t_star: float) -> float:
    """c' M(zeta)^-1 c for c = f1(x_u) kron f2(t*), the destructive criterion.

    The information of zeta = xi x tau is M1(xi) kron M2~(tau), with
    M2~(tau) = sum_j q_j f2(t_j) f2(t_j)' and q_j = tau_j / sigma^2(t_j), so
    the criterion is f1(x_u)' M1(xi)^-1 f1(x_u) * f2(t*)' M2~(tau)^-1 f2(t*),
    whose time factor is criteria's Christoffel kernel.  A t* so far out
    that the criterion overflows raises ValidationError.
    """
    ts, ws = design.time_design.as_arrays()
    time_factor = _christoffel(ts, ws / VarianceFunction(model).sigma2(ts), t_star, model.p2)
    criterion = float(stress_extrapolation_factor(design.stress_design, model) * time_factor)
    _require_finite_criterion(criterion)
    return criterion


def numeric_destructive_time_design(
    model: DegradationModel,
    t_star: float,
    grid: GridSpec | None = None,
    cfg: OptimizerConfig = OptimizerConfig(),
) -> tuple[ApproximateDesign, OptimalityCertificate]:
    """Destructive time design by grid optimization on the weighted basis.

    General path for bases without an Elfving closed form and for t* <= 1:
    Elfving's linear program over f2~(t) on the grid (cap 1), whose optimum
    at a t* <= 1 on the grid is the one-point design there.  On affine
    models with t* > 1 this reproduces elfving_time_design to grid resolution.
    A t* so far out that a power of it overflows raises ValidationError.
    """
    _require_t_star(t_star)
    if grid is None:
        grid = GridSpec(J=400, k=1)
    if grid.k != 1:
        raise ValidationError(
            f"destructive designs are uncapped; grid must have k=1, got k={grid.k}"
        )
    pts = grid.points()
    w, cert = optimize_capped_weights(weighted_f2(pts, model), _target(model, t_star), 1.0, cfg)
    return support_design(pts, w, 1.0, cert.tol), cert
