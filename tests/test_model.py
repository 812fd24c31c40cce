"""Model types: bases, covariance specs, designs, and the V assembly."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adtplan import (
    AFFINE,
    ApproximateDesign,
    ConfigurationError,
    DegradationModel,
    ErrorSpec,
    PowerBasis,
    ValidationError,
    assemble_V,
    eval_delta,
    sigma_gamma_from_sd_corr,
)
from conftest import TABLE1


class TestPowerBasis:
    def test_affine_evaluates_to_one_t(self) -> None:
        assert np.allclose(AFFINE.evaluate(0.3), [1.0, 0.3])
        assert AFFINE.dim == 2
        assert AFFINE.is_affine

    def test_matches_vandermonde(self) -> None:
        basis = PowerBasis(3)
        ts = np.array([0.0, 0.25, 1.0])
        expected = np.vander(ts, 4, increasing=True)
        assert np.array_equal(basis.evaluate_many(ts), expected)
        assert not basis.is_affine

    def test_degree_must_be_nonnegative(self) -> None:
        assert PowerBasis(0).dim == 1
        with pytest.raises(ValidationError):
            PowerBasis(-1)

    @given(t=st.floats(min_value=-2.0, max_value=2.0, allow_nan=False))
    def test_single_and_batch_agree(self, t: float) -> None:
        basis = PowerBasis(2)
        assert np.allclose(basis.evaluate(t), basis.evaluate_many(np.array([t]))[0])


class TestErrorSpec:
    def test_exactly_one_parameterization(self) -> None:
        with pytest.raises(ValidationError):
            ErrorSpec()
        with pytest.raises(ValidationError):
            ErrorSpec(sigma_eps=0.1, full=((1.0,),))

    def test_sigma_eps_positive(self) -> None:
        with pytest.raises(ValidationError):
            ErrorSpec(sigma_eps=0.0)

    @pytest.mark.parametrize("sigma_eps", [1e-200, 1.4e-154, 1.35e154, 1e200])
    def test_sigma_eps_square_must_be_a_normal_float(self, sigma_eps: float) -> None:
        # sigma_eps^2 bounds every destructive variance sigma^2(t) below; a
        # square that underflows or overflows would break that bound.
        with pytest.raises(ValidationError, match="sigma_eps must be positive and finite"):
            ErrorSpec(sigma_eps=sigma_eps)
        assert ErrorSpec(sigma_eps=1.5e-154).sigma_eps == 1.5e-154
        assert ErrorSpec(sigma_eps=1.3e154).sigma_eps == 1.3e154

    def test_full_must_be_spd(self) -> None:
        with pytest.raises(ValidationError):
            ErrorSpec(full=((1.0, 2.0), (2.0, 1.0)))
        with pytest.raises(ValidationError):
            ErrorSpec(full=((1.0, 0.5), (0.4, 1.0)))

    def test_matrix_dimension_check(self) -> None:
        spec = ErrorSpec(full=((0.01, 0.0), (0.0, 0.01)))
        assert not spec.is_homoscedastic
        with pytest.raises(ConfigurationError):
            spec.matrix(3)

    def test_scalar_matrix(self) -> None:
        spec = ErrorSpec(sigma_eps=0.5)
        assert np.allclose(spec.matrix(3), 0.25 * np.eye(3))


class TestDegradationModel:
    def test_table1_shapes(self, table1: DegradationModel) -> None:
        assert table1.p1 == 2 and table1.p2 == 2
        assert table1.beta_matrix().shape == (2, 2)
        assert table1.sigma_eps == 0.048

    def test_beta_length_checked(self) -> None:
        bad = dict(TABLE1)
        bad["beta"] = (1.0, 2.0, 3.0)
        with pytest.raises(ValidationError):
            DegradationModel.affine(**bad)

    def test_rho_out_of_range(self) -> None:
        with pytest.raises(ValidationError):
            sigma_gamma_from_sd_corr(0.1, 0.1, 1.5)

    def test_negative_sd(self) -> None:
        with pytest.raises(ValidationError):
            sigma_gamma_from_sd_corr(-0.1, 0.1, 0.0)

    def test_sigma_gamma_must_be_nnd(self) -> None:
        with pytest.raises(ValidationError):
            DegradationModel(
                stress_basis=AFFINE,
                time_basis=AFFINE,
                beta=(1.0, 1.0, 1.0, 1.0),
                sigma_gamma=((1.0, 2.0), (2.0, 1.0)),
                error_spec=ErrorSpec(sigma_eps=0.1),
                x_u=-0.1,
                y0=2.0,
            )

    def test_full_error_spec_has_no_scalar_sigma(self) -> None:
        model = DegradationModel(
            stress_basis=AFFINE,
            time_basis=AFFINE,
            beta=(1.0, 1.0, 1.0, 1.0),
            sigma_gamma=((0.01, 0.0), (0.0, 0.01)),
            error_spec=ErrorSpec(full=((0.01, 0.0), (0.0, 0.01))),
            x_u=-0.1,
            y0=2.0,
        )
        with pytest.raises(ConfigurationError):
            _ = model.sigma_eps

    def test_delta_frozen_values(self, table1: DegradationModel) -> None:
        d1, d2 = eval_delta(table1)
        assert d1 == pytest.approx(2.305776, abs=1e-12)
        assert d2 == pytest.approx(1.0141024, abs=1e-12)

    @given(c=st.floats(min_value=-3.0, max_value=3.0, allow_nan=False))
    @settings(max_examples=25)
    def test_delta_linear_in_beta(self, c: float, table1: DegradationModel) -> None:
        import dataclasses

        scaled = dataclasses.replace(table1, beta=tuple(c * b for b in table1.beta))
        assert np.allclose(eval_delta(scaled), c * np.asarray(eval_delta(table1)))


class TestApproximateDesign:
    def test_weights_must_sum_to_one(self) -> None:
        with pytest.raises(ValidationError):
            ApproximateDesign(points=(0.0, 1.0), weights=(0.5, 0.6))

    def test_points_strictly_increasing(self) -> None:
        with pytest.raises(ValidationError):
            ApproximateDesign(points=(0.5, 0.5), weights=(0.5, 0.5))

    def test_points_in_unit_interval(self) -> None:
        with pytest.raises(ValidationError):
            ApproximateDesign(points=(0.0, 1.5), weights=(0.5, 0.5))

    def test_no_negative_weights(self) -> None:
        with pytest.raises(ValidationError):
            ApproximateDesign(points=(0.0, 0.5, 1.0), weights=(0.6, -0.2, 0.6))

    def test_weight_lookup_and_support(self) -> None:
        design = ApproximateDesign(points=(0.0, 0.5, 1.0), weights=(0.25, 0.0, 0.75))
        trimmed = design.support()
        assert trimmed.points == (0.0, 1.0)
        assert trimmed.weights == (0.25, 0.75)


class TestAssembleV:
    def test_frozen_single_point(self, table1: DegradationModel) -> None:
        V = assemble_V(np.array([0.0]), table1)
        # sigma1^2 + sigma_eps^2 at t = 0.
        assert V[0, 0] == pytest.approx(0.0153, abs=1e-12)

    def test_frozen_two_point(self, table1: DegradationModel) -> None:
        V = assemble_V(np.array([0.0, 1.0]), table1)
        expected = np.array([[0.0153, 0.01128429], [0.01128429, 0.02290158]])
        assert np.allclose(V, expected, atol=1e-12)

    def test_duplicate_points_rejected(self, table1: DegradationModel) -> None:
        with pytest.raises(ValidationError):
            assemble_V(np.array([0.2, 0.2]), table1)

    def test_points_outside_horizon_rejected(self, table1: DegradationModel) -> None:
        with pytest.raises(ValidationError):
            assemble_V(np.array([0.2, 1.2]), table1)

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_symmetric_and_psd(self, data: st.DataObject, table1: DegradationModel) -> None:
        k = data.draw(st.integers(min_value=1, max_value=6))
        ts = data.draw(
            st.lists(
                st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
                min_size=k,
                max_size=k,
                unique=True,
            )
        )
        V = assemble_V(np.array(sorted(ts)), table1)
        assert np.allclose(V, V.T)
        # Positive definite: the measurement error floor keeps eigenvalues
        # at or above sigma_eps^2.
        assert np.linalg.eigvalsh(V).min() >= table1.sigma_eps**2 - 1e-12
