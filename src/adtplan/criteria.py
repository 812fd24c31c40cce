"""Information matrices and the c-optimality criterion for the median.

For product-type designs zeta = xi kron tau the asymptotic variance of the
estimated median failure time factorizes,

    aVar(t_hat) ~ f1(x_u)' M1(xi)^-1 f1(x_u) * f2(t*)' M2(tau)^-1 f2(t*),

so only the marginal time criterion has to be minimized.  The mixed-model
inverse information obeys the decomposition

    M2(tau)^-1 = M2_0(tau)^-1 + Sigma_gamma,

with M2_0 the fixed-effect information, which is what makes the optimal
time plan independent of the random-effect covariance.

Normalization convention: approximate-design information is reported per
observation, M2_0(tau) = sigma_eps^-2 sum_j pi_j f2(t_j) f2(t_j)'.  The
k-scaled total-information variant for exact k-point plans is available as
a separate accessor.  Criterion values are reported up to the positive
constant c0^2 that multiplies the whole variance; it cancels in every
efficiency and argmin.

One kernel, _christoffel, evaluates both time criteria f2(t*)' M^- f2(t*),
M = sum_j q_j f2(t_j) f2(t_j)', with q = w/sigma_eps^2 here and w/sigma^2(t)
for destructive designs.  M is singular exactly when fewer than dim of the
strictly increasing points carry weight; the error names the node polynomial
prod (u - u_j), which lies in M's null space.  f2(t*) stays estimable when the
support's f2(t_j) span it to rounding, the test Elfving's simplex cuts weights
by: a one-point design at t* scores sigma_eps^2 / w.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularDesignError, ValidationError
from .failure_time import median_failure_time, sigma_u2
from .model import ApproximateDesign, DegradationModel

__all__ = [
    "CriterionReport",
    "info_time_fixed",
    "info_time_fixed_total",
    "c_criterion_time",
    "info_stress",
    "stress_extrapolation_factor",
    "avar_median",
    "efficiency",
]


@dataclass(frozen=True)
class CriterionReport:
    """Criterion value at the extrapolation time t_star, split into parts.

    criterion_total = criterion_fixed + criterion_random, where the random
    part f2(t*)' Sigma_gamma f2(t*) does not depend on the design.
    """

    criterion_total: float
    criterion_fixed: float
    criterion_random: float
    t_star: float


def _require_t_star(t_star: float) -> None:
    """Raise unless the extrapolation time is positive and finite (NaN is neither)."""
    if not 0.0 < t_star < math.inf:
        raise ValidationError(f"t_star must be positive and finite, got {t_star}")


def _require_finite_criterion(value: float) -> None:
    """Raise unless a criterion value stayed in the float range, as the capped engine refuses its start.

    Every criterion is c' M^-1 c up to design-free factors, with c = f2(t*)
    or a Kronecker product with it, so a finite t* far enough out overflows
    it: to inf, or to NaN where inf - inf appears on the way.
    """
    if not math.isfinite(value):
        raise ValidationError("criterion c' M^-1 c overflows; c is too large")


def _target(model: DegradationModel, t_star: float) -> np.ndarray:
    """f2(t*), the target of both grid engines; ValidationError when a power of t* overflows."""
    with np.errstate(over="ignore"):
        c = model.time_basis.evaluate(t_star)
    _require_finite_criterion(c.max())  # an infinite power of t* overflows every criterion
    return c


def _require_rank(support: np.ndarray, dim: int, var: str) -> None:
    """The count rule: raise unless the positive-weight points span a power basis of size dim."""
    if support.size < dim:
        node = "".join(f"({var} - {u:.6g})" for u in support)
        raise SingularDesignError(f"information matrix is singular; design does not identify the direction {node}")


# Vectors span a target when least squares leaves at most this share of its norm:
# Elfving's simplex cuts weights by this test, and _christoffel accepts supports.
_SPAN_TOL = 1e-12


def _span_coefficients(columns: np.ndarray, target: np.ndarray) -> np.ndarray | None:
    """Least-squares x of columns @ x = target when it meets _SPAN_TOL relative, else None.

    Both norms are taken after scaling by the power of two that brings the
    target's largest entry into [0.5, 1): exact in binary floating point, so
    no decision in range moves, and a huge target's norm cannot overflow to
    inf, which every residual would meet.
    """
    x = np.linalg.lstsq(columns, target, rcond=None)[0]
    exponent = -np.frexp(np.abs(target).max())[1]
    residual, scaled = np.ldexp(columns @ x - target, exponent), np.ldexp(target, exponent)
    return x if np.linalg.norm(residual) <= _SPAN_TOL * np.linalg.norm(scaled) else None


def _christoffel(points: np.ndarray, q: np.ndarray, target: float, dim: int) -> float:
    """f(target)' M^- f(target), M = sum_j q_j f(u_j) f(u_j)', f the power basis of size dim.

    Sums pi_k(target)^2 / sum_j q_j pi_k(u_j)^2 over the monic polynomials pi_k
    orthogonal under q (Stieltjes' recurrence) that the support spans: positive
    terms, free of the digits a solve with M loses to its condition number.
    Fewer than dim points suffice when their f(u_j) span f(target) to _SPAN_TOL.
    """
    support = points[q > 0.0]
    if support.size < dim:
        powers = np.vander(np.append(support, target), dim, increasing=True)
        if _span_coefficients(powers[:-1].T, powers[-1]) is None:
            _require_rank(support, dim, "t")
    # poly, poly_star: pi_k at the u_j and at target; *_prev: pi_{k-1}.
    total, poly, poly_prev, poly_star, star_prev, norm_prev = 0.0, np.ones_like(points), 0.0, 1.0, 0.0, 1.0
    for _ in range(min(dim, support.size)):
        norm = float(q @ (poly * poly))
        total += poly_star * poly_star / norm
        a, b = float(q @ (points * poly * poly)) / norm, norm / norm_prev
        poly, poly_prev = (points - a) * poly - b * poly_prev, poly
        poly_star, star_prev = (target - a) * poly_star - b * star_prev, poly_star
        norm_prev = norm
    return total


def _cholesky_form(mat: np.ndarray, rhs: np.ndarray, support: np.ndarray, var: str) -> float:
    """rhs' mat^-1 rhs for the information mat of a design on support, by the count rule and Cholesky."""
    _require_rank(support, mat.shape[0], var)
    try:
        L = np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        raise SingularDesignError("information matrix is numerically singular") from None
    return float(rhs @ np.linalg.solve(L.T, np.linalg.solve(L, rhs)))


def info_time_fixed(design: ApproximateDesign, model: DegradationModel) -> np.ndarray:
    """Per-observation fixed-effect information of a time plan.

    M2_0(tau) = sigma_eps^-2 sum_j pi_j f2(t_j) f2(t_j)'.  With a full error
    covariance only exact equal-weight plans are meaningful, and the result
    is F2' Sigma_eps^-1 F2 / k.
    """
    ts, ws = design.as_arrays()
    F2 = model.time_basis.evaluate_many(ts)
    if model.error_spec.is_homoscedastic:
        M = (F2 * ws[:, None]).T @ F2 / model.sigma_eps**2
    else:
        k = ts.size
        if not np.allclose(ws, 1.0 / k, atol=1e-12):
            raise ValidationError(
                "a full error covariance requires an exact design with equal weights 1/k"
            )
        Sigma_eps = model.error_spec.matrix(k)
        M = F2.T @ np.linalg.solve(Sigma_eps, F2) / k
    return 0.5 * (M + M.T)


def info_time_fixed_total(design: ApproximateDesign, model: DegradationModel, k: int) -> np.ndarray:
    """Total fixed-effect information of an exact k-point plan (k-scaled variant)."""
    if k < 1:
        raise ValidationError(f"k must be a positive count, got {k}")
    return k * info_time_fixed(design, model)


def c_criterion_time(design: ApproximateDesign, model: DegradationModel, t_star: float) -> CriterionReport:
    """Marginal c-criterion f2(t*)' M2^-1 f2(t*) of a time plan, split into parts.

    A t* so far out that the criterion overflows raises ValidationError.
    """
    _require_t_star(t_star)
    ts, ws = design.as_arrays()
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        if model.error_spec.is_homoscedastic:
            fixed = _christoffel(ts, ws / model.sigma_eps**2, float(t_star), model.p2)
        else:  # info_time_fixed checks the equal weights 1/k, so every point counts
            fixed = _cholesky_form(info_time_fixed(design, model), model.time_basis.evaluate(t_star), ts, "t")
        random = sigma_u2(t_star, model)
    _require_finite_criterion(fixed + random)
    return CriterionReport(
        criterion_total=fixed + random,
        criterion_fixed=fixed,
        criterion_random=random,
        t_star=float(t_star),
    )


def info_stress(design: ApproximateDesign, model: DegradationModel) -> np.ndarray:
    """Per-unit stress information M1(xi) = sum_i w_i f1(x_i) f1(x_i)'."""
    xs, ws = design.as_arrays()
    F1 = model.stress_basis.evaluate_many(xs)
    M = (F1 * ws[:, None]).T @ F1
    return 0.5 * (M + M.T)


def stress_extrapolation_factor(xi: ApproximateDesign, model: DegradationModel) -> float:
    """f1(x_u)' M1(xi)^-1 f1(x_u), the stress part of the product variance."""
    xs, ws = xi.as_arrays()
    return _cholesky_form(info_stress(xi, model), model.stress_basis.evaluate(model.x_u), xs[ws > 0.0], "x")


def avar_median(xi: ApproximateDesign, tau: ApproximateDesign, model: DegradationModel) -> float:
    """Asymptotic variance of the estimated median, up to the constant c0^2.

    Product of the stress extrapolation factor f1(x_u)' M1(xi)^-1 f1(x_u)
    and the marginal time criterion at t* = median failure time.
    """
    t_star = median_failure_time(model)
    time_part = c_criterion_time(tau, model, t_star)
    return stress_extrapolation_factor(xi, model) * time_part.criterion_total


def efficiency(
    candidate: ApproximateDesign,
    reference_optimal: ApproximateDesign,
    model: DegradationModel,
    t_star: float,
) -> float:
    """c-efficiency of a candidate time plan against an optimal reference.

    Ratio of criterion_total values with the reference in the numerator; at
    most 1 whenever the reference really is optimal.  Scale-free: any
    constant multiplying both criterion values cancels.
    """
    ref = c_criterion_time(reference_optimal, model, t_star).criterion_total
    cand = c_criterion_time(candidate, model, t_star).criterion_total
    return ref / cand
