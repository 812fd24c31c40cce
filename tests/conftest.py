"""Shared fixtures: the worked power-load example and random model factories."""

from __future__ import annotations

import numpy as np
import pytest

from adtplan import DegradationModel, ErrorSpec, PowerBasis

# Nominal parameter set of the worked example used throughout the tests:
# affine stress and time bases, stress-major beta, correlated random
# intercept and slope, standardized use stress just below the test region.
TABLE1 = dict(
    beta=(2.397, 1.018, 1.629, 0.0696),
    sigma1=0.114,
    sigma2=0.105,
    rho=-0.143,
    sigma_eps=0.048,
    x_u=-0.056,
    y0=3.912,
)

T_MEDIAN = 1.5838873865203356


@pytest.fixture(scope="session")
def table1() -> DegradationModel:
    return DegradationModel.affine(**TABLE1)


def quadratic_model() -> DegradationModel:
    """Quadratic time basis over affine stress, with example1's error level and use condition."""
    return DegradationModel(
        stress_basis=PowerBasis(1),
        time_basis=PowerBasis(2),
        beta=(2.397, 1.018, 0.5, 1.629, 0.0696, 0.02),
        sigma_gamma=(
            (0.114**2, 0.0, 0.0),
            (0.0, 0.105**2, 0.0),
            (0.0, 0.0, 0.05**2),
        ),
        error_spec=ErrorSpec(sigma_eps=0.048),
        x_u=-0.056,
        y0=3.912,
    )


def cubic_model() -> DegradationModel:
    """The cubic extension of quadratic_model."""
    return DegradationModel(
        stress_basis=PowerBasis(1),
        time_basis=PowerBasis(3),
        beta=(2.397, 1.018, 0.5, 0.1, 1.629, 0.0696, 0.02, 0.01),
        sigma_gamma=np.diag(np.square((0.1, 0.1, 0.05, 0.05))).tolist(),
        error_spec=ErrorSpec(sigma_eps=0.048),
        x_u=-0.056,
        y0=3.912,
    )


def perturbed_table1(scale: tuple[float, float, float], rho: float, x_u: float, t_median: float) -> DegradationModel:
    """Table 1 with scaled standard deviations, a new rho and x_u, and y0 set for the given median."""
    b = TABLE1["beta"]
    return DegradationModel.affine(
        beta=b,
        sigma1=TABLE1["sigma1"] * scale[0],
        sigma2=TABLE1["sigma2"] * scale[1],
        rho=rho,
        sigma_eps=TABLE1["sigma_eps"] * scale[2],
        x_u=x_u,
        y0=b[0] + b[2] * x_u + (b[1] + b[3] * x_u) * t_median,
    )


# A variance ratio near the lowest that perturbed_table1((0.25, 4.0, 0.25),
# 0.95, -0.6, 1.05) reaches; its destructive designs are ill-conditioned.
CORNER_RATIO = 0.23894781384180178


def random_affine_model(rng: np.random.Generator, *, x_u: float | None = None) -> DegradationModel:
    """Random affine model with a valid covariance and increasing mean path.

    beta is drawn so that delta_2 > 0 (the aggregated path actually degrades)
    and y0 sits above the starting level, keeping the median positive.
    """
    s1 = float(rng.uniform(0.02, 0.4))
    s2 = float(rng.uniform(0.02, 0.4))
    rho = float(rng.uniform(-0.9, 0.9))
    sigma_eps = float(rng.uniform(0.01, 0.3))
    b00 = float(rng.uniform(-1.0, 3.0))
    b01 = float(rng.uniform(0.3, 2.0))
    b10 = float(rng.uniform(-0.5, 2.0))
    b11 = float(rng.uniform(0.0, 0.4))
    if x_u is None:
        x_u = float(rng.uniform(-0.6, -0.02))
    delta1 = b00 + b10 * x_u
    delta2 = b01 + b11 * x_u
    y0 = delta1 + delta2 * float(rng.uniform(1.15, 4.0))
    return DegradationModel.affine(
        beta=(b00, b01, b10, b11),
        sigma1=s1,
        sigma2=s2,
        rho=rho,
        sigma_eps=sigma_eps,
        x_u=x_u,
        y0=y0,
    )
