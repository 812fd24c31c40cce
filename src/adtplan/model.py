"""Degradation-path model primitives.

The package plans measurements for units whose degradation over standardized
time t in [0, 1] follows a linear mixed-effects model with a product-type
regression structure:

    Y_ij = (f1(x_i) kron f2(t_j))' beta + f2(t_j)' gamma_i + eps_ij

where f1 is a basis in the standardized stress x, f2 a basis in time,
gamma_i a unit-level random coefficient vector with covariance Sigma_gamma,
and eps_ij measurement error.  This module holds the bases, the model
container and per-unit covariance assembly; everything downstream
(failure-time quantiles, design criteria, optimizers) consumes these types.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ValidationError

__all__ = [
    "PowerBasis",
    "AFFINE",
    "ErrorSpec",
    "DegradationModel",
    "ApproximateDesign",
    "sigma_gamma_from_sd_corr",
    "eval_delta",
    "assemble_V",
]


@dataclass(frozen=True, slots=True)
class PowerBasis:
    """Monomial basis (1, u, u^2, ..., u^degree) in one standardized variable.

    degree=1 is the affine basis (1, u) used throughout the worked examples;
    higher degrees are accepted everywhere criteria are evaluated, but the
    closed-form two-point designs apply to the affine case only.
    """

    degree: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.degree, int) or self.degree < 0:
            raise ValidationError(f"basis degree must be a non-negative integer, got {self.degree!r}")

    @property
    def dim(self) -> int:
        return self.degree + 1

    @property
    def is_affine(self) -> bool:
        return self.degree == 1

    def evaluate(self, u: float) -> np.ndarray:
        """Basis vector at u; first component is identically 1."""
        u = float(u)
        out = np.empty(self.degree + 1)
        out[0] = 1.0
        for j in range(1, self.degree + 1):
            out[j] = out[j - 1] * u
        return out

    def evaluate_many(self, us: np.ndarray) -> np.ndarray:
        """Rows of basis vectors, shape (len(us), dim)."""
        us = np.asarray(us, dtype=float)
        return np.vander(us, self.degree + 1, increasing=True)


# The affine time basis (1, t); module-level singleton for convenience.
AFFINE = PowerBasis(1)


@dataclass(frozen=True)
class ErrorSpec:
    """Measurement-error covariance.

    Either ``sigma_eps`` for i.i.d. errors with standard deviation sigma_eps,
    or ``full`` for an explicit positive definite k x k covariance matrix
    (k must then match the number of time points wherever it is used).
    Exactly one of the two must be given.
    """

    sigma_eps: float | None = None
    full: tuple[tuple[float, ...], ...] | None = None

    def __post_init__(self) -> None:
        if (self.sigma_eps is None) == (self.full is None):
            raise ValidationError("ErrorSpec needs exactly one of sigma_eps or full")
        if self.sigma_eps is not None:
            # sigma_eps^2 bounds every variance sigma^2(t) below, so it must be a finite normal float too.
            if not (self.sigma_eps > 0.0 and sys.float_info.min <= self.sigma_eps * self.sigma_eps < math.inf):
                raise ValidationError(f"sigma_eps must be positive and finite, got {self.sigma_eps}")
        else:
            mat = np.asarray(self.full, dtype=float)
            if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
                raise ValidationError("full error covariance must be a square matrix")
            if not np.allclose(mat, mat.T, atol=1e-12):
                raise ValidationError("full error covariance must be symmetric")
            try:
                np.linalg.cholesky(mat)
            except np.linalg.LinAlgError:
                raise ValidationError("full error covariance must be positive definite") from None
            # Re-store as nested tuples so the dataclass stays hashable/frozen.
            object.__setattr__(self, "full", tuple(tuple(float(v) for v in row) for row in mat))

    @property
    def is_homoscedastic(self) -> bool:
        return self.sigma_eps is not None

    def matrix(self, k: int) -> np.ndarray:
        """Error covariance for k measurements per unit."""
        if self.sigma_eps is not None:
            return (self.sigma_eps**2) * np.eye(k)
        mat = np.asarray(self.full, dtype=float)
        if mat.shape[0] != k:
            raise ConfigurationError(
                f"full error covariance is {mat.shape[0]}x{mat.shape[0]} but {k} time points were given"
            )
        return mat


def sigma_gamma_from_sd_corr(sigma1: float, sigma2: float, rho: float) -> tuple[tuple[float, float], tuple[float, float]]:
    """2x2 random-coefficient covariance from standard deviations and correlation."""
    if sigma1 < 0.0 or sigma2 < 0.0:
        raise ValidationError(f"standard deviations must be non-negative, got ({sigma1}, {sigma2})")
    if abs(rho) > 1.0:
        raise ValidationError(f"rho out of [-1,1]: {rho}")
    off = rho * sigma1 * sigma2
    return ((sigma1**2, off), (off, sigma2**2))


@dataclass(frozen=True)
class DegradationModel:
    """Immutable bundle of everything the planning formulas need.

    beta is stored lexicographically with the stress index outer and the
    time index inner: (beta_11, ..., beta_1p2, beta_21, ..., beta_p1p2),
    matching the Kronecker ordering f1 kron f2.  x_u is the standardized
    use condition and may lie outside [0, 1]; y0 is the failure threshold
    on the degradation scale.
    """

    stress_basis: PowerBasis
    time_basis: PowerBasis
    beta: tuple[float, ...]
    sigma_gamma: tuple[tuple[float, ...], ...]
    error_spec: ErrorSpec
    x_u: float
    y0: float

    def __post_init__(self) -> None:
        p1, p2 = self.stress_basis.dim, self.time_basis.dim
        beta = tuple(float(b) for b in self.beta)
        if len(beta) != p1 * p2:
            raise ValidationError(f"beta has length {len(beta)}, expected p1*p2 = {p1 * p2}")
        mat = np.asarray(self.sigma_gamma, dtype=float)
        if mat.shape != (p2, p2):
            raise ValidationError(f"sigma_gamma has shape {mat.shape}, expected ({p2}, {p2})")
        x_u, y0 = float(self.x_u), float(self.y0)
        # NaN fails every comparison below, so non-finite entries are refused first.
        if not all(map(math.isfinite, beta)):
            raise ValidationError(f"beta must be finite, got {beta}")
        if not np.isfinite(mat).all():
            raise ValidationError(f"sigma_gamma must be finite, got {mat.tolist()}")
        for name, v in (("x_u", x_u), ("y0", y0)):
            if not math.isfinite(v):
                raise ValidationError(f"{name} must be finite, got {v}")
        if not np.allclose(mat, mat.T, atol=1e-12):
            raise ValidationError("sigma_gamma must be symmetric")
        eigvals = np.linalg.eigvalsh(0.5 * (mat + mat.T))
        if eigvals.min() < -1e-12 * max(1.0, eigvals.max()):
            raise ValidationError("sigma_gamma must be non-negative definite")
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "sigma_gamma", tuple(tuple(float(v) for v in row) for row in mat))
        object.__setattr__(self, "x_u", x_u)
        object.__setattr__(self, "y0", y0)

    @classmethod
    def affine(
        cls,
        beta: tuple[float, float, float, float],
        sigma1: float,
        sigma2: float,
        rho: float,
        sigma_eps: float,
        x_u: float,
        y0: float,
    ) -> "DegradationModel":
        """Affine-in-stress, affine-in-time model with (sigma1, sigma2, rho) covariance."""
        return cls(
            stress_basis=AFFINE,
            time_basis=AFFINE,
            beta=tuple(beta),
            sigma_gamma=sigma_gamma_from_sd_corr(sigma1, sigma2, rho),
            error_spec=ErrorSpec(sigma_eps=sigma_eps),
            x_u=x_u,
            y0=y0,
        )

    @property
    def p1(self) -> int:
        return self.stress_basis.dim

    @property
    def p2(self) -> int:
        return self.time_basis.dim

    def beta_matrix(self) -> np.ndarray:
        """beta reshaped to p1 x p2 (stress index r indexes rows)."""
        return np.asarray(self.beta, dtype=float).reshape(self.p1, self.p2)

    def sigma_gamma_matrix(self) -> np.ndarray:
        return np.asarray(self.sigma_gamma, dtype=float)

    @property
    def sigma_eps(self) -> float:
        """Scalar error standard deviation; only for homoscedastic specs."""
        if self.error_spec.sigma_eps is None:
            raise ConfigurationError("model has a full error covariance, no scalar sigma_eps")
        return self.error_spec.sigma_eps


@dataclass(frozen=True)
class ApproximateDesign:
    """Probability measure on finitely many points of the standardized region.

    Points must be strictly increasing within [0, 1]; weights are
    non-negative and sum to one (up to 1e-12); NaN is neither.  Zero weights
    are allowed so optimizer iterates over a fixed grid are valid designs too.
    """

    points: tuple[float, ...]
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        pts = tuple(map(float, self.points))
        wts = tuple(map(float, self.weights))
        if len(pts) != len(wts) or len(pts) == 0:
            raise ValidationError("points and weights must be same nonzero length")
        # Element-wise tests as comparison methods mapped over the tuples, at C speed.
        if not (all(map((0.0).__le__, pts)) and all(map((1.0).__ge__, pts))):
            raise ValidationError(f"design points must lie in [0,1], got {pts}")
        if any(map(float.__le__, pts[1:], pts)):
            raise ValidationError("design points must be strictly increasing")
        if not all(map((0.0).__le__, wts)):
            raise ValidationError(f"weights must be non-negative, got {wts}")
        total = math.fsum(wts)
        if abs(total - 1.0) > 1e-12:
            raise ValidationError(f"weights must sum to 1 within 1e-12, got {total!r}")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", wts)

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return np.asarray(self.points, dtype=float), np.asarray(self.weights, dtype=float)

    def support(self, tol: float = 0.0) -> "ApproximateDesign":
        """Design restricted to points with weight > tol, renormalized."""
        kept = [(t, w) for t, w in zip(self.points, self.weights) if w > tol]
        if not kept:
            raise ValidationError("support is empty at the requested tolerance")
        total = math.fsum(w for _, w in kept)
        return ApproximateDesign(
            points=tuple(t for t, _ in kept),
            weights=tuple(w / total for _, w in kept),
        )


def eval_delta(model: DegradationModel) -> np.ndarray:
    """Aggregate time-path coefficients at the use condition.

    delta_s = sum_r f1r(x_u) beta_rs, so the mean degradation path under use
    conditions is f2(t)' delta.
    """
    f1u = model.stress_basis.evaluate(model.x_u)
    return f1u @ model.beta_matrix()


def assemble_V(time_points: np.ndarray, model: DegradationModel) -> np.ndarray:
    """Per-unit covariance of the k measurements at the given time points.

    V = F2 Sigma_gamma F2' + Sigma_eps with F2 the rows f2(t_j)'.  Time
    points must be distinct and inside [0, 1]; with a full error covariance
    its dimension must equal the number of points.
    """
    ts = np.asarray(time_points, dtype=float).ravel()
    if ts.size == 0:
        raise ValidationError("need at least one time point")
    if np.any(ts < 0.0) or np.any(ts > 1.0):
        raise ValidationError(f"time points must lie in [0,1], got {ts}")
    if np.unique(ts).size != ts.size:
        raise ValidationError("time points must be distinct")
    F2 = model.time_basis.evaluate_many(ts)
    V = F2 @ model.sigma_gamma_matrix() @ F2.T + model.error_spec.matrix(ts.size)
    return 0.5 * (V + V.T)
