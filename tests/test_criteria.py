"""Information matrices and the extrapolation criterion for the median."""

from __future__ import annotations

import numpy as np
import pytest

from adtplan import (
    ApproximateDesign,
    DegradationModel,
    ErrorSpec,
    SingularDesignError,
    ValidationError,
    assemble_V,
    avar_median,
    c_criterion_time,
    efficiency,
    elfving_stress_design,
    info_stress,
    info_time_fixed,
    info_time_fixed_total,
    median_failure_time,
    sigma_u2,
    stress_extrapolation_factor,
)
from conftest import T_MEDIAN, cubic_model, quadratic_model, random_affine_model
from oracles import time_criterion_50_digits

TAU0 = ApproximateDesign(
    points=(0.0, 0.05, 0.10, 0.90, 0.95, 1.00),
    weights=(1 / 6,) * 6,
)


class TestFixedInformation:
    def test_two_point_moments(self, table1: DegradationModel) -> None:
        design = ApproximateDesign(points=(0.0, 1.0), weights=(0.5, 0.5))
        M = info_time_fixed(design, table1)
        # Hand moments: sum pi_j (1, t)(1, t)' / sigma_eps^2.
        scale = 1.0 / 0.048**2
        assert np.allclose(M, scale * np.array([[1.0, 0.5], [0.5, 0.5]]))

    def test_total_is_k_scaled(self, table1: DegradationModel) -> None:
        M = info_time_fixed(TAU0, table1)
        assert np.allclose(info_time_fixed_total(TAU0, table1, 6), 6 * M)
        with pytest.raises(ValidationError):
            info_time_fixed_total(TAU0, table1, 0)

    def test_full_error_covariance_needs_equal_weights(self) -> None:
        model = DegradationModel(
            stress_basis=DegradationModel.affine(
                beta=(1.0, 1.0, 1.0, 1.0),
                sigma1=0.1,
                sigma2=0.1,
                rho=0.0,
                sigma_eps=0.05,
                x_u=-0.1,
                y0=2.0,
            ).stress_basis,
            time_basis=DegradationModel.affine(
                beta=(1.0, 1.0, 1.0, 1.0),
                sigma1=0.1,
                sigma2=0.1,
                rho=0.0,
                sigma_eps=0.05,
                x_u=-0.1,
                y0=2.0,
            ).time_basis,
            beta=(1.0, 1.0, 1.0, 1.0),
            sigma_gamma=((0.01, 0.0), (0.0, 0.01)),
            error_spec=ErrorSpec(full=((0.0025, 0.001), (0.001, 0.0025))),
            x_u=-0.1,
            y0=2.0,
        )
        equal = ApproximateDesign(points=(0.0, 1.0), weights=(0.5, 0.5))
        M = info_time_fixed(equal, model)
        Sigma = np.array(model.error_spec.full)
        F = np.array([[1.0, 0.0], [1.0, 1.0]])
        assert np.allclose(M, F.T @ np.linalg.solve(Sigma, F) / 2)
        skewed = ApproximateDesign(points=(0.0, 1.0), weights=(0.3, 0.7))
        with pytest.raises(ValidationError):
            info_time_fixed(skewed, model)


class TestMixedDecomposition:
    def test_matches_direct_v_inverse(self, table1: DegradationModel) -> None:
        # Exact 6-point plan: (F' V^-1 F)^-1 == (F' Sigma_eps^-1 F)^-1 + Sigma_gamma.
        ts = np.array(TAU0.points)
        V = assemble_V(ts, table1)
        F = table1.time_basis.evaluate_many(ts)
        direct = np.linalg.inv(F.T @ np.linalg.solve(V, F))
        decomposed = np.linalg.inv(info_time_fixed_total(TAU0, table1, 6)) + np.array(
            table1.sigma_gamma
        )
        assert np.allclose(direct, decomposed, rtol=1e-10)

    def test_random_instances(self) -> None:
        rng = np.random.default_rng(7)
        for _ in range(30):
            model = random_affine_model(rng)
            k = int(rng.integers(2, 8))
            ts = np.sort(rng.choice(np.arange(41) / 40, size=k, replace=False))
            design = ApproximateDesign(points=tuple(ts), weights=(1.0 / k,) * k)
            V = assemble_V(ts, model)
            F = model.time_basis.evaluate_many(ts)
            direct = np.linalg.inv(F.T @ np.linalg.solve(V, F))
            decomposed = np.linalg.inv(info_time_fixed_total(design, model, k)) + np.array(
                model.sigma_gamma
            )
            assert np.allclose(direct, decomposed, rtol=1e-8)


class TestCriterion:
    def test_frozen_tau0_split(self, table1: DegradationModel) -> None:
        report = c_criterion_time(TAU0, table1, T_MEDIAN)
        assert report.criterion_fixed == pytest.approx(0.015561632036472308, rel=1e-12)
        assert report.criterion_random == pytest.approx(0.03523209750952841, rel=1e-12)
        assert report.criterion_total == report.criterion_fixed + report.criterion_random

    def test_random_part_is_design_free(self, table1: DegradationModel) -> None:
        other = ApproximateDesign(points=(0.0, 0.5, 1.0), weights=(0.4, 0.2, 0.4))
        a = c_criterion_time(TAU0, table1, T_MEDIAN)
        b = c_criterion_time(other, table1, T_MEDIAN)
        assert a.criterion_random == pytest.approx(b.criterion_random, rel=1e-14)

    def test_singular_design_names_direction(self, table1: DegradationModel) -> None:
        one_point = ApproximateDesign(points=(0.5,), weights=(1.0,))
        with pytest.raises(SingularDesignError, match="direction"):
            c_criterion_time(one_point, table1, T_MEDIAN)

    @pytest.mark.parametrize("t_star", [1e160, 1e300])
    def test_overflowing_criterion_refused(self, table1: DegradationModel, t_star: float) -> None:
        # A finite t* this far out once gave criterion_total inf beside an
        # overflow RuntimeWarning, and efficiency NaN.
        with pytest.raises(ValidationError, match=r"criterion c' M\^-1 c overflows; c is too large"):
            c_criterion_time(TAU0, table1, t_star)
        with pytest.raises(ValidationError, match=r"criterion c' M\^-1 c overflows; c is too large"):
            efficiency(TAU0, TAU0, table1, t_star)

    @pytest.mark.parametrize("t_star", [1e100, 1e150])
    def test_singular_design_at_a_huge_t_star_is_named_singular(self, t_star: float) -> None:
        # At 1e100 the span test's target norm, over (1, t*, t*^2, t*^3),
        # overflowed to inf, every residual met it, and the one-point design
        # was refused as an overflow; at 1e150 t*^3 itself is inf.
        one_point = ApproximateDesign(points=(1.0,), weights=(1.0,))
        with pytest.raises(SingularDesignError, match=r"direction \(t - 1\)"):
            c_criterion_time(one_point, cubic_model(), t_star)

    def test_t_star_must_be_positive(self, table1: DegradationModel) -> None:
        with pytest.raises(ValidationError):
            c_criterion_time(TAU0, table1, 0.0)

    def test_one_point_design_at_t_star_is_estimable(self, table1: DegradationModel) -> None:
        # f2(0.5) is a row of the rank-one information, so c' M^- c = sigma_eps^2 / w.
        one_point = ApproximateDesign(points=(0.5,), weights=(1.0,))
        report = c_criterion_time(one_point, table1, 0.5)
        assert report.criterion_fixed == pytest.approx(0.048**2, rel=1e-15)
        assert report.criterion_total == pytest.approx(0.048**2 + sigma_u2(0.5, table1), rel=1e-15)

    def test_zero_weight_points_do_not_count(self, table1: DegradationModel) -> None:
        padded = ApproximateDesign(points=(0.0, 0.5, 1.0), weights=(0.0, 1.0, 0.0))
        with pytest.raises(SingularDesignError, match="direction"):
            c_criterion_time(padded, table1, T_MEDIAN)
        assert c_criterion_time(padded, table1, 0.5).criterion_fixed == pytest.approx(0.048**2, rel=1e-15)

    def test_full_error_covariance(self) -> None:
        # An exact 4-point quadratic plan with correlated errors:
        # c'(F' Sigma_eps^-1 F / k)^-1 c + c' Sigma_gamma c by direct solves.
        base = quadratic_model()
        idx = np.arange(4)
        Sigma_eps = 0.048**2 * 0.6 ** np.abs(idx[:, None] - idx[None, :])
        model = DegradationModel(
            stress_basis=base.stress_basis,
            time_basis=base.time_basis,
            beta=base.beta,
            sigma_gamma=base.sigma_gamma,
            error_spec=ErrorSpec(full=Sigma_eps.tolist()),
            x_u=base.x_u,
            y0=base.y0,
        )
        ts, t_star = np.array([0.0, 0.3, 0.7, 1.0]), 2.5
        F, c = np.vander(ts, 3, increasing=True), np.array([1.0, t_star, t_star**2])
        fixed = c @ np.linalg.solve(F.T @ np.linalg.solve(Sigma_eps, F) / 4, c)
        random = c @ model.sigma_gamma_matrix() @ c
        report = c_criterion_time(ApproximateDesign(points=tuple(ts), weights=(0.25,) * 4), model, t_star)
        assert report.criterion_fixed == pytest.approx(fixed, rel=1e-12)
        assert report.criterion_random == pytest.approx(random, rel=1e-12)
        assert report.criterion_total == report.criterion_fixed + report.criterion_random
        skewed = ApproximateDesign(points=tuple(ts), weights=(0.1, 0.4, 0.4, 0.1))
        with pytest.raises(ValidationError):
            c_criterion_time(skewed, model, t_star)


def clustered_time_design(rng: np.random.Generator, dim: int) -> ApproximateDesign:
    """dim to dim + 2 points with random weights inside a random window 0.01-0.2 wide."""
    n = dim + int(rng.integers(0, 3))
    width = 10 ** rng.uniform(-2.0, -0.7)
    pts = np.sort(rng.uniform(0.0, 1.0 - width) + width * rng.uniform(size=n))
    w = rng.uniform(0.2, 1.0, size=n)
    return ApproximateDesign(points=tuple(pts), weights=tuple(w / w.sum()))


class TestCriterionAccuracy:
    """criterion_fixed against 50-digit arithmetic on ill-conditioned higher-degree plans."""

    @pytest.mark.parametrize("model_of", [quadratic_model, cubic_model], ids=["quadratic", "cubic"])
    def test_clustered_designs(self, model_of) -> None:
        model = model_of()
        rng = np.random.default_rng(14 + model.p2)
        for _ in range(25):
            design = clustered_time_design(rng, model.p2)
            t_star = float(np.exp(rng.uniform(np.log(0.3), np.log(8.0))))
            assert c_criterion_time(design, model, t_star).criterion_fixed == pytest.approx(
                time_criterion_50_digits(design, model, t_star), rel=1e-13, abs=0.0
            )

    def test_clustered_cubic_is_not_singular(self) -> None:
        # An eigenvalue threshold at 1e-10 relative once rejected this nonsingular plan.
        design = ApproximateDesign(points=(0.5, 0.52, 0.54, 0.56), weights=(0.25,) * 4)
        model = cubic_model()
        exact = time_criterion_50_digits(design, model, 2.0)
        assert exact == pytest.approx(806678568.3548116, rel=1e-15)
        assert c_criterion_time(design, model, 2.0).criterion_fixed == pytest.approx(exact, rel=1e-13, abs=0.0)


class TestStressFactorAndAvar:
    def test_stress_factor_by_hand(self, table1: DegradationModel) -> None:
        xi = elfving_stress_design(table1)
        M1 = info_stress(xi, table1)
        f1u = np.array([1.0, table1.x_u])
        expected = float(f1u @ np.linalg.solve(M1, f1u))
        assert stress_extrapolation_factor(xi, table1) == pytest.approx(expected, rel=1e-14)

    def test_near_coincident_stress_points_raise_singular(self, table1: DegradationModel) -> None:
        # Two support points pass the count rule; Cholesky then fails on rounding.
        xi = ApproximateDesign(points=(0.3, 0.3 + 1e-8), weights=(0.5, 0.5))
        with pytest.raises(SingularDesignError, match="numerically singular"):
            stress_extrapolation_factor(xi, table1)

    def test_one_point_stress_design_names_direction(self, table1: DegradationModel) -> None:
        xi = ApproximateDesign(points=(0.0, 1.0), weights=(0.0, 1.0))
        with pytest.raises(SingularDesignError, match=r"direction \(x - 1\)$"):
            stress_extrapolation_factor(xi, table1)

    def test_avar_is_product_of_parts(self, table1: DegradationModel) -> None:
        xi = elfving_stress_design(table1)
        t_star = median_failure_time(table1)
        total = c_criterion_time(TAU0, table1, t_star).criterion_total
        assert avar_median(xi, TAU0, table1) == pytest.approx(
            stress_extrapolation_factor(xi, table1) * total, rel=1e-14
        )


class TestEfficiency:
    def test_self_efficiency_is_one(self, table1: DegradationModel) -> None:
        assert efficiency(TAU0, TAU0, table1, T_MEDIAN) == 1.0

    def test_worse_design_scores_below_one(self, table1: DegradationModel) -> None:
        lopsided = ApproximateDesign(points=(0.4, 0.6), weights=(0.5, 0.5))
        assert efficiency(lopsided, TAU0, table1, T_MEDIAN) < 1.0
