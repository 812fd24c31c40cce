"""Failure-time distribution induced by threshold crossing of the paths."""

from __future__ import annotations

import dataclasses
import math
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtr, ndtri

from adtplan import (
    DegenerateVarianceError,
    DegradationModel,
    ErrorSpec,
    IndeterminateMarginError,
    NonMonotoneMarginError,
    NoPositiveMedianError,
    PowerBasis,
    ValidationError,
    failure_cdf,
    h,
    median_failure_time,
    mu_aggregate,
    quantile,
    sigma_u,
    sigma_u2,
)
from adtplan.failure_time import _BRACKET_LIMIT, _margin_function
from conftest import TABLE1, T_MEDIAN, cubic_model, quadratic_model, random_affine_model

# Margin-scale tolerance of the quantile round trip through failure_cdf.
_ROUND_TRIP_TOL = 1.0e-10


def _zero_start_variance_model() -> DegradationModel:
    """Affine model with sigma_u(0) = 0 and the path below the threshold at t = 0."""
    return DegradationModel.affine(
        beta=(1.0, 1.0, 1.0, 1.0), sigma1=0.0, sigma2=0.1, rho=0.0, sigma_eps=0.05, x_u=-0.1, y0=3.0
    )


def _zero_start_margin_model() -> DegradationModel:
    """Path starting exactly at the threshold with zero start variance."""
    return DegradationModel.affine(
        beta=(2.0, 1.0, 1.0, 0.0), sigma1=0.0, sigma2=0.1, rho=0.0, sigma_eps=0.05, x_u=-0.5, y0=1.5
    )


def _scaled_random_effects(model: DegradationModel, scale: float) -> DegradationModel:
    """model with every random-effect standard deviation multiplied by scale."""
    return dataclasses.replace(
        model, sigma_gamma=tuple(tuple(v * scale * scale for v in row) for row in model.sigma_gamma)
    )


def _random_intercept_model(d1: float, d2: float, s1: float, y0: float) -> DegradationModel:
    """Affine model with delta = (d1, d2) at x_u = 0 and a random intercept of sd s1 only."""
    return DegradationModel(
        stress_basis=PowerBasis(1),
        time_basis=PowerBasis(1),
        beta=(d1, d2, 0.0, 0.0),
        sigma_gamma=((s1 * s1, 0.0), (0.0, 0.0)),
        error_spec=ErrorSpec(sigma_eps=0.05),
        x_u=0.0,
        y0=y0,
    )


class TestPathVariance:
    def test_frozen_values(self, table1: DegradationModel) -> None:
        assert sigma_u2(0.0, table1) == pytest.approx(0.012996, abs=1e-15)
        assert sigma_u2(1.0, table1) == pytest.approx(0.02059758, abs=1e-15)
        assert sigma_u2(T_MEDIAN, table1) == pytest.approx(0.03523209750952841, rel=1e-14)

    def test_negative_correlation_dips_before_rising(self, table1: DegradationModel) -> None:
        # With rho < 0 the variance minimum sits at t = -rho*sigma1/sigma2 > 0.
        t_min = 0.143 * 0.114 / 0.105
        assert sigma_u2(t_min, table1) < sigma_u2(0.0, table1)
        assert sigma_u2(1.0, table1) > sigma_u2(t_min, table1)

    @given(t=st.floats(min_value=0.0, max_value=5.0, allow_nan=False))
    @settings(max_examples=50)
    def test_sigma_is_sqrt_of_sigma2(self, t: float, table1: DegradationModel) -> None:
        assert sigma_u(t, table1) == pytest.approx(math.sqrt(sigma_u2(t, table1)))


class TestMargin:
    def test_frozen_h0(self, table1: DegradationModel) -> None:
        assert h(0.0, table1) == pytest.approx(-14.089684210526316, rel=1e-14)

    def test_limit_level(self, table1: DegradationModel) -> None:
        # h(t) -> delta2/sigma2 as t grows.
        assert h(1e9, table1) == pytest.approx(9.658118095238097, rel=1e-6)

    def test_median_crossing_is_zero_margin(self, table1: DegradationModel) -> None:
        assert h(T_MEDIAN, table1) == pytest.approx(0.0, abs=1e-12)

    def test_cdf_is_phi_of_margin(self, table1: DegradationModel) -> None:
        for t in (0.1, 0.9, 1.6, 3.0):
            assert failure_cdf(t, table1) == pytest.approx(float(ndtr(h(t, table1))))

    def test_degenerate_variance_raises(self) -> None:
        model = _zero_start_variance_model()
        with pytest.raises(DegenerateVarianceError):
            h(0.0, model)
        with pytest.raises(DegenerateVarianceError, match=r"sigma_u\(0\.0\)"):
            h(np.array([0.5, 0.0, 0.2]), model)

    def test_zero_over_zero_margin_raises(self) -> None:
        model = _zero_start_margin_model()
        with pytest.raises(IndeterminateMarginError):
            h(0.0, model)
        with pytest.raises(IndeterminateMarginError, match=r"sigma_u\(0\.0\)"):
            h(np.array([0.5, 0.0]), model)

    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_margin_function_keeps_the_bits_of_the_formula(self, degree: int, table1: DegradationModel) -> None:
        # The quantile bisection derives delta and Sigma_gamma once per call;
        # every t_alpha keeps its bits only if each value equals the formula's.
        model = {1: table1, 2: quadratic_model(), 3: cubic_model()}[degree]
        ts = np.random.default_rng(degree).uniform(0.0, 8.0, size=1000).tolist() + [0.0, 0.5, 1.0]
        margin_at = _margin_function(model)
        formula = [(mu_aggregate(t, model) - model.y0) / sigma_u(t, model) for t in ts]
        assert [margin_at(t) for t in ts] == formula
        assert [h(t, model) for t in ts] == formula
        assert h(np.array(ts), model).tolist() == formula

    @pytest.mark.parametrize(
        "model, error, message",
        [
            (_zero_start_variance_model(), DegenerateVarianceError, "sigma_u(0.0) = 0 while mu(0.0) != y0"),
            (_zero_start_margin_model(), IndeterminateMarginError, "sigma_u(0.0) = 0 and mu(0.0) = y0: margin is 0/0"),
        ],
    )
    def test_zero_variance_errors(self, model: DegradationModel, error: type[Exception], message: str) -> None:
        for call in (lambda: h(0.0, model), lambda: h(np.array([0.5, 0.0]), model), lambda: _margin_function(model)(0.0)):
            with pytest.raises(error) as raised:
                call()
            assert str(raised.value) == message


class TestMedian:
    def test_frozen_value(self, table1: DegradationModel) -> None:
        assert median_failure_time(table1) == pytest.approx(T_MEDIAN, abs=1e-15)

    def test_against_quantile_half(self, table1: DegradationModel) -> None:
        res = quantile(0.5, table1)
        assert res.exists
        assert res.t_alpha == pytest.approx(median_failure_time(table1), rel=1e-12)

    def test_nonpositive_median_rejected(self) -> None:
        # Threshold already crossed at t = 0.
        with pytest.raises(NoPositiveMedianError):
            median_failure_time(
                DegradationModel.affine(
                    beta=(2.0, 1.0, 0.0, 0.0),
                    sigma1=0.1,
                    sigma2=0.1,
                    rho=0.0,
                    sigma_eps=0.05,
                    x_u=-0.1,
                    y0=1.0,
                )
            )
        # A concave quadratic path that peaks below the threshold.
        concave = dataclasses.replace(quadratic_model(), beta=(2.397, 1.018, -0.5, 1.629, 0.0696, -0.02))
        with pytest.raises(NoPositiveMedianError, match="aggregate path never reaches the threshold"):
            median_failure_time(concave)

    def test_random_models_match_cdf_half(self) -> None:
        rng = np.random.default_rng(20240817)
        for _ in range(25):
            model = random_affine_model(rng)
            t_med = median_failure_time(model)
            assert failure_cdf(t_med, model) == pytest.approx(0.5, abs=1e-9)


class TestQuantile:
    def test_alpha_must_be_interior(self, table1: DegradationModel) -> None:
        for alpha in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValidationError):
                quantile(alpha, table1)

    def test_below_start_probability_does_not_exist(self, table1: DegradationModel) -> None:
        # F(0) = Phi(-14.09) ~ 2e-45; any alpha below that has no positive root.
        res = quantile(1e-60, table1)
        assert not res.exists
        assert math.isnan(res.t_alpha)

    def test_above_terminal_level_does_not_exist(self) -> None:
        # delta2/sigma2 = 1 caps the reachable probability at Phi(1) = 0.841.
        model = DegradationModel.affine(
            beta=(1.0, 0.1, 0.0, 0.0),
            sigma1=0.05,
            sigma2=0.1,
            rho=0.0,
            sigma_eps=0.05,
            x_u=-0.1,
            y0=1.2,
        )
        res = quantile(0.9, model)
        assert not res.exists

    def test_zero_slope_variance_closed_form(self) -> None:
        model = DegradationModel.affine(
            beta=(1.0, 1.0, 0.5, 0.1),
            sigma1=0.2,
            sigma2=0.0,
            rho=0.0,
            sigma_eps=0.05,
            x_u=-0.2,
            y0=2.0,
        )
        d1 = 1.0 + 0.5 * -0.2
        d2 = 1.0 + 0.1 * -0.2
        for alpha in (0.2, 0.5, 0.8):
            res = quantile(alpha, model)
            expected = (2.0 - d1 + float(ndtri(alpha)) * 0.2) / d2
            assert res.exists
            assert res.t_alpha == pytest.approx(expected, rel=1e-14)

    def test_zero_slope_variance_negative_root_reported(self) -> None:
        # Very low alpha pushes the closed-form root below zero.
        model = DegradationModel.affine(
            beta=(1.0, 1.0, 0.5, 0.1),
            sigma1=0.2,
            sigma2=0.0,
            rho=0.0,
            sigma_eps=0.05,
            x_u=-0.2,
            y0=1.0,
        )
        res = quantile(1e-6, model)
        assert not res.exists

    @pytest.mark.parametrize("d2", [0.0, -0.1])
    def test_random_intercept_without_upward_drift_does_not_exist(self, d2: float) -> None:
        # sigma2 = 0 makes h a line; with delta_2 <= 0 it never rises to z = 0 from h(0) = -5.
        res = quantile(0.5, _random_intercept_model(d1=1.0, d2=d2, s1=0.2, y0=2.0))
        assert not res.exists
        assert math.isnan(res.t_alpha) and res.bounds_used == (0.0, 0.0)

    def test_random_intercept_root_at_zero_does_not_exist(self) -> None:
        # Where z is just above h(0), the closed form's numerator y0 - d1 + z s1
        # is 0 to rounding; when it comes out <= 0 the quantile is reported
        # missing, never returned as a time <= 0.  Offsets of a few ulps in y0
        # step across h(0) = z and reach that branch.
        alpha, d1, s1 = 0.9330989523333431, 1.8853455059464221, 1.6254902802229572
        z = NormalDist().inv_cdf(alpha)
        y0 = d1 - z * s1
        missing = 0
        for k in range(-8, 9):
            model = _random_intercept_model(d1=d1, d2=0.5, s1=s1, y0=y0 + k * math.ulp(y0))
            res = quantile(alpha, model)
            assert res.t_alpha > 0.0 if res.exists else math.isnan(res.t_alpha)
            missing += z > _margin_function(model)(0.0) and not res.exists
        assert missing > 0

    def test_root_beyond_the_bracket_limit_does_not_exist(self) -> None:
        # z is 1e-9 relative below the terminal level delta2/sigma2, so the
        # root lies near t = 8e9 and the doubling bracket passes _BRACKET_LIMIT.
        z = NormalDist().inv_cdf(0.975)
        model = DegradationModel.affine(
            beta=(2.4, 0.1 * z * (1 + 1e-9), 0.0, 0.0),
            sigma1=0.1,
            sigma2=0.1,
            rho=0.0,
            sigma_eps=0.05,
            x_u=-0.1,
            y0=3.9,
        )
        res = quantile(0.975, model)
        assert not res.exists and math.isnan(res.t_alpha)
        assert res.bounds_used == (0.0, 2.0**20) and 2.0**19 <= _BRACKET_LIMIT < 2.0**20

    def test_round_trip_through_cdf(self, table1: DegradationModel) -> None:
        for t0 in (0.4, 1.0, 1.6, 2.5, 4.0):
            alpha = failure_cdf(t0, table1)
            res = quantile(alpha, table1)
            assert res.exists
            assert res.t_alpha == pytest.approx(t0, rel=1e-9)

    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        t0=st.floats(min_value=0.05, max_value=3.0, allow_nan=False),
    )
    @example(seed=14684, t0=2.74609375)
    @example(seed=1, t0=0.25)
    @settings(max_examples=40, deadline=None)
    def test_round_trip_random_affine(self, seed: int, t0: float) -> None:
        # The round trip is asserted on the margin scale, where it is well
        # conditioned.  On the time scale it is not: at the first pinned
        # example alpha = 1 - 4.9e-12, and one ulp of alpha moves t_alpha by
        # 2.9e-7 relative.  With rho < 0, h may dip below h(0) before t0
        # (the second example); such a level lies outside the window
        # (Phi(h(0)), lim Phi(h)) and is skipped.
        model = random_affine_model(np.random.default_rng(seed))
        alpha = failure_cdf(t0, model)
        if not (max(1e-12, failure_cdf(0.0, model)) < alpha < 1.0 - 1e-12):
            return
        res = quantile(alpha, model)
        assert res.exists
        assert abs(h(res.t_alpha, model) - float(ndtri(alpha))) <= _ROUND_TRIP_TOL

    @pytest.mark.parametrize(
        "model, alpha, t_alpha",
        [
            # h falls from -1084 on [0, 0.065], then rises through z = -0.973.
            (
                _scaled_random_effects(random_affine_model(np.random.default_rng(675405136)), 10.0**-1.5706),
                0.1652,
                1.7035613449552902,
            ),
            # h rises through z = 0.496, peaks at 4.13 and falls toward delta2/sigma2 = 1 > z.
            (
                DegradationModel.affine(
                    beta=(0.3, 2.0, 0.0, 0.0), sigma1=1.0, sigma2=2.0, rho=-0.95, sigma_eps=0.05, x_u=-0.1, y0=0.0
                ),
                0.69,
                0.06673538480716704,
            ),
        ],
        ids=["dip_then_rise", "spike_then_fall"],
    )
    def test_affine_margin_turning_once_crosses_once(
        self, model: DegradationModel, alpha: float, t_alpha: float
    ) -> None:
        # rho < 0 lets h turn, but for the affine basis the numerator of h'
        # is linear in t, so h turns at most once and crosses z once.  Both
        # quantiles were once refused as non-monotone.
        z = NormalDist().inv_cdf(alpha)
        res = quantile(alpha, model)
        assert res.exists and res.t_alpha == t_alpha
        assert h(math.nextafter(t_alpha, 0.0), model) < z <= h(t_alpha, model)
        above = h(np.linspace(*res.bounds_used, 200_001), model) >= z
        assert np.count_nonzero(np.diff(above)) == 1

    @pytest.mark.parametrize("sd", [1e-7, 1e-9])
    def test_steep_margin_returns_the_bracketing_float(self, sd: float) -> None:
        # Tiny random effects make h steep: one ulp of t moves it by more
        # than 1e-10, so |h(t_alpha) - z| is 1.8e-9 (sd 1e-7) and 9.3e-8
        # (sd 1e-9), yet t_alpha is the quantile to the last float.
        model = DegradationModel.affine(**{**TABLE1, "sigma1": sd, "sigma2": sd, "rho": 0.0})
        z = NormalDist().inv_cdf(0.3)
        res = quantile(0.3, model)
        assert res.exists
        assert h(math.nextafter(res.t_alpha, 0.0), model) < z <= h(res.t_alpha, model)
        assert res.t_alpha == pytest.approx(T_MEDIAN, rel=1e-6)

    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        quadratic=st.booleans(),
        log10_scale=st.floats(min_value=-9.0, max_value=0.0),
        alpha=st.floats(min_value=0.001, max_value=0.999),
    )
    @example(seed=0, quadratic=False, log10_scale=-9.0, alpha=0.3)
    @example(seed=0, quadratic=True, log10_scale=-9.0, alpha=0.3)
    @settings(max_examples=60, deadline=None)
    def test_quantile_is_missing_refused_or_bracketed(
        self, seed: int, quadratic: bool, log10_scale: float, alpha: float
    ) -> None:
        # Affine models (rho of either sign) and the quadratic model with
        # random effects scaled log-uniformly over [1e-9, 1].  The only
        # refusal is the sampled monotonicity check, which only non-affine
        # bases run; an answer is the adjacent-float bracket of z whatever
        # its residual.
        base = quadratic_model() if quadratic else random_affine_model(np.random.default_rng(seed))
        model = _scaled_random_effects(base, 10.0**log10_scale)
        try:
            res = quantile(alpha, model)
        except NonMonotoneMarginError as exc:
            assert quadratic
            assert "is not strictly increasing on" in str(exc)
            return
        if res.exists:
            z = NormalDist().inv_cdf(alpha)
            assert h(math.nextafter(res.t_alpha, 0.0), model) < z <= h(res.t_alpha, model)

    def test_bounds_bracket_the_root(self, table1: DegradationModel) -> None:
        res = quantile(0.9, table1)
        lo, hi = res.bounds_used
        assert lo <= res.t_alpha <= hi

    def test_non_monotone_margin_detected(self) -> None:
        # The spike of test_affine_margin_turning_once_crosses_once on a
        # quadratic time basis: strong negative correlation makes sigma_u
        # dip sharply, so the margin rises then falls inside the bracket.
        # Non-affine bases fall back on sampling h, and the solver must
        # refuse rather than silently pick a branch.
        model = DegradationModel(
            stress_basis=PowerBasis(1),
            time_basis=PowerBasis(2),
            beta=(0.3, 2.0, 0.0, 0.0, 0.0, 0.0),
            sigma_gamma=((1.0, -1.9, 0.0), (-1.9, 4.0, 0.0), (0.0, 0.0, 0.1**2)),
            error_spec=ErrorSpec(sigma_eps=0.05),
            x_u=-0.1,
            y0=0.0,
        )
        margins = [h(t, model) for t in np.linspace(0.0, 1.0, 200)]
        assert max(margins) > margins[-1]  # genuinely non-monotone setup
        with pytest.raises(NonMonotoneMarginError):
            quantile(0.69, model)
