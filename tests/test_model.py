"""Model types: bases, covariance specs, designs, and the V assembly."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
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
        with pytest.raises(ValidationError, match="full error covariance must be a square matrix"):
            ErrorSpec(full=((1.0, 0.0),))

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
        with pytest.raises(ValidationError, match="sigma_gamma must be symmetric"):
            DegradationModel(
                stress_basis=AFFINE,
                time_basis=AFFINE,
                beta=(1.0, 1.0, 1.0, 1.0),
                sigma_gamma=((1.0, 0.5), (0.4, 1.0)),
                error_spec=ErrorSpec(sigma_eps=0.1),
                x_u=-0.1,
                y0=2.0,
            )

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("beta", (2.397, math.nan, 1.629, 0.0696), "beta must be finite"),
            ("beta", (2.397, 1.018, math.inf, 0.0696), "beta must be finite"),
            ("sigma_gamma", ((math.inf, 0.0), (0.0, 0.01)), "sigma_gamma must be finite"),
            ("sigma_gamma", ((math.nan, 0.0), (0.0, 0.01)), "sigma_gamma must be finite"),
            ("x_u", math.nan, "x_u must be finite, got nan"),
            ("y0", math.inf, "y0 must be finite, got inf"),
        ],
    )
    def test_non_finite_entries_rejected(
        self, table1: DegradationModel, field: str, value: object, message: str
    ) -> None:
        # NaN fails every comparison, so without this check a NaN x_u or an
        # infinite y0 reached the planning formulas.
        fields = dict(
            stress_basis=AFFINE,
            time_basis=AFFINE,
            beta=table1.beta,
            sigma_gamma=table1.sigma_gamma,
            error_spec=table1.error_spec,
            x_u=table1.x_u,
            y0=table1.y0,
        )
        with pytest.raises(ValidationError, match=message):
            DegradationModel(**{**fields, field: value})

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


def _model_with_sigma_gamma(sigma_gamma: np.ndarray) -> DegradationModel:
    """An affine-stress model whose time basis has the dimension of sigma_gamma."""
    p = len(sigma_gamma)
    return DegradationModel(
        stress_basis=AFFINE,
        time_basis=PowerBasis(p - 1),
        beta=(1.0,) * (2 * p),
        sigma_gamma=np.asarray(sigma_gamma).tolist(),
        error_spec=ErrorSpec(sigma_eps=0.1),
        x_u=-0.1,
        y0=2.0,
    )


def _accepts(sigma_gamma: np.ndarray) -> bool:
    try:
        _model_with_sigma_gamma(sigma_gamma)
    except ValidationError as exc:
        assert str(exc) == "sigma_gamma must be non-negative definite"
        return False
    return True


_UNIT = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


class TestSigmaGammaDefiniteness:
    # sigma_gamma is checked by the Cholesky factor of sym + tau I,
    # tau = 1e-12 max(1, max |sym_ij|); eigvalsh serves as the oracle here.

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_eigenvalue_rule_near_the_threshold(self, data: st.DataObject) -> None:
        # Q diag(lam) Q' with the largest eigenvalue 10^e and the smallest a
        # few multiples of 1e-12 max(1, 10^e) either side of zero.
        p = data.draw(st.integers(min_value=1, max_value=4), label="p")
        a = np.array(data.draw(st.lists(_UNIT, min_size=p * p, max_size=p * p), label="a")).reshape(p, p)
        q = np.linalg.qr(a)[0]
        top = 10.0 ** data.draw(st.floats(min_value=-8.0, max_value=8.0), label="log10 top")
        middle = [top * data.draw(st.floats(min_value=0.0, max_value=1.0)) for _ in range(p - 2)]
        low = data.draw(st.floats(min_value=-4.0, max_value=4.0), label="low") * 1e-12 * max(1.0, top)
        lam = np.array([top, *middle, low] if p > 1 else [low])
        mat = (q * lam) @ q.T
        mat = 0.5 * (mat + mat.T)
        ev = np.linalg.eigvalsh(mat)
        scale = max(1.0, ev.max())
        if ev.min() < -2e-12 * scale:
            assert not _accepts(mat)
        if ev.min() >= -1e-13 * scale:
            assert _accepts(mat)

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_accepts_every_gram_matrix(self, data: st.DataObject) -> None:
        # B'B with B of 1-4 rows: rank deficient whenever B has fewer rows than columns.
        p = data.draw(st.integers(min_value=1, max_value=4), label="p")
        rows = data.draw(st.integers(min_value=1, max_value=4), label="rows")
        scale = 10.0 ** data.draw(st.floats(min_value=-8.0, max_value=8.0), label="log10 scale")
        b = scale * np.array(data.draw(st.lists(_UNIT, min_size=rows * p, max_size=rows * p))).reshape(rows, p)
        assert _accepts(b.T @ b)

    @given(
        s1=st.one_of(st.just(0.0), st.floats(min_value=1e-8, max_value=1e8)),
        s2=st.one_of(st.just(0.0), st.floats(min_value=1e-8, max_value=1e8)),
        rho=_UNIT,
    )
    @example(s1=1e8, s2=1e8, rho=1.0)
    @example(s1=1e8, s2=1e-8, rho=-1.0)
    @example(s1=1e-8, s2=1e-8, rho=1.0)
    @example(s1=0.114, s2=0.0, rho=-0.143)
    @settings(max_examples=300, deadline=None)
    def test_accepts_every_sd_corr_covariance(self, s1: float, s2: float, rho: float) -> None:
        assert _accepts(np.array(sigma_gamma_from_sd_corr(s1, s2, rho)))

    def test_refuses_a_negative_eigenvalue_just_beyond_the_shift(self) -> None:
        # tau = 1e-12 here: an eigenvalue of -2e-12 lies below -tau, one of -0.5e-12 above it.
        assert not _accepts(np.diag([1.0, -2e-12]))
        assert _accepts(np.diag([1.0, -0.5e-12]))


class TestApproximateDesign:
    def test_weights_must_sum_to_one(self) -> None:
        with pytest.raises(ValidationError):
            ApproximateDesign(points=(0.0, 1.0), weights=(0.5, 0.6))

    @pytest.mark.parametrize("points, weights", [((0.0, 1.0), (1.0,)), ((), ())])
    def test_one_weight_per_point(self, points: tuple[float, ...], weights: tuple[float, ...]) -> None:
        with pytest.raises(ValidationError, match="points and weights must be same nonzero length"):
            ApproximateDesign(points=points, weights=weights)

    def test_points_strictly_increasing(self) -> None:
        with pytest.raises(ValidationError):
            ApproximateDesign(points=(0.5, 0.5), weights=(0.5, 0.5))

    def test_points_in_unit_interval(self) -> None:
        with pytest.raises(ValidationError):
            ApproximateDesign(points=(0.0, 1.5), weights=(0.5, 0.5))

    def test_no_negative_weights(self) -> None:
        with pytest.raises(ValidationError):
            ApproximateDesign(points=(0.0, 0.5, 1.0), weights=(0.6, -0.2, 0.6))

    def test_nan_weights_rejected(self) -> None:
        # NaN fails both "< 0" and "sum off by more than 1e-12".
        with pytest.raises(ValidationError, match="non-negative"):
            ApproximateDesign(points=(0.0, 1.0), weights=(math.nan, math.nan))

    def test_weight_lookup_and_support(self) -> None:
        design = ApproximateDesign(points=(0.0, 0.5, 1.0), weights=(0.25, 0.0, 0.75))
        trimmed = design.support()
        assert trimmed.points == (0.0, 1.0)
        assert trimmed.weights == (0.25, 0.75)
        with pytest.raises(ValidationError, match="support is empty at the requested tolerance"):
            design.support(0.75)


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

    def test_needs_a_time_point(self, table1: DegradationModel) -> None:
        with pytest.raises(ValidationError, match="need at least one time point"):
            assemble_V(np.array([]), table1)

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
