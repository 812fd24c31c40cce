"""Sensitivity sweeps: pi* curves and efficiency-versus-benchmark tables."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adtplan import (
    CANDIDATE_TAU2,
    CANDIDATE_TAU6,
    CANDIDATE_ZETA_STAR,
    ConfigurationError,
    DegradationModel,
    ErrorSpec,
    OutOfRegimeError,
    SweepSpec,
    SweepResult,
    ValidationError,
    VarianceFunction,
    candidate_time_designs,
    default_sweep_spec,
    elfving_time_design,
    median_failure_time,
    pi_star_from_ratio,
    reachable_ratio_interval,
    sweep_efficiency,
    sweep_pi_star,
    uniform_time_design,
    vary_ratio_via_rho,
)
from conftest import CORNER_RATIO, TABLE1, T_MEDIAN, perturbed_table1, quadratic_model
from oracles import efficiencies_40_digits, sweep_rows_reference

NOMINAL_RATIO = 1.2234522034463164


class TestRatioReparameterization:
    def test_round_trip_at_nominal(self, table1: DegradationModel) -> None:
        varied = vary_ratio_via_rho(NOMINAL_RATIO, table1)
        assert VarianceFunction(varied).ratio_end_over_start() == pytest.approx(
            NOMINAL_RATIO, rel=1e-12
        )
        # sigma1 is re-pinned to sqrt(sigma2^2 + sigma_eps^2), so rho moves.
        sg = varied.sigma_gamma
        assert sg[0][0] == pytest.approx(0.105**2 + 0.048**2, rel=1e-14)
        rho = sg[0][1] / math.sqrt(sg[0][0] * sg[1][1])
        assert rho == pytest.approx(-0.13437841523927804, rel=1e-10)

    def test_round_trip_across_interval(self, table1: DegradationModel) -> None:
        lo, hi = reachable_ratio_interval(table1)
        for r in np.linspace(lo + 1e-6, hi - 1e-6, 9):
            varied = vary_ratio_via_rho(float(r), table1)
            assert VarianceFunction(varied).ratio_end_over_start() == pytest.approx(
                float(r), rel=1e-10
            )

    def test_frozen_interval(self, table1: DegradationModel) -> None:
        lo, hi = reachable_ratio_interval(table1)
        assert lo == pytest.approx(0.3928964841710281, rel=1e-12)
        assert hi == pytest.approx(1.80446950322646, rel=1e-12)

    def test_unreachable_ratio_reports_interval(self, table1: DegradationModel) -> None:
        with pytest.raises(ValidationError, match=r"0\.39.*1\.80"):
            vary_ratio_via_rho(5.0, table1)

    @pytest.mark.parametrize("ratio", [0.0, -1.0, math.nan])
    def test_non_positive_ratio_rejected(self, table1: DegradationModel, ratio: float) -> None:
        with pytest.raises(ValidationError, match=f"target ratio must be positive, got {ratio}"):
            vary_ratio_via_rho(ratio, table1)

    def test_needs_slope_variance(self) -> None:
        # With sigma2 = 0, rho drops out of sigma(1)/sigma(0).
        model = perturbed_table1((1.0, 0.0, 1.0), 0.0, TABLE1["x_u"], 2.0)
        with pytest.raises(ValidationError, match="rho reparameterization needs sigma2 > 0"):
            vary_ratio_via_rho(NOMINAL_RATIO, model)


class TestUniformTimeDesign:
    def test_examples(self) -> None:
        assert uniform_time_design(2).points == (0.0, 1.0)
        assert uniform_time_design(3).points == (0.0, 0.5, 1.0)
        assert uniform_time_design(6).points == (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
        assert all(w == pytest.approx(1 / 6) for w in uniform_time_design(6).weights)

    def test_needs_two_points(self) -> None:
        with pytest.raises(ValidationError):
            uniform_time_design(1)


class TestSweepSpec:
    def test_defaults(self) -> None:
        with pytest.raises(ValidationError, match="sweep variable must be one of .*, got 'rho'"):
            default_sweep_spec("rho")
        spec = default_sweep_spec("t_median")
        assert (spec.lo, spec.hi, spec.n_points) == (1.05, 10.0, 200)
        assert spec.candidates == (CANDIDATE_ZETA_STAR, CANDIDATE_TAU2, CANDIDATE_TAU6)
        pts = spec.abscissae()
        assert pts[0] == pytest.approx(1.05) and pts[-1] == pytest.approx(10.0)
        # Log spacing: constant successive ratios.
        assert np.allclose(np.diff(np.log(pts)), np.log(pts[1] / pts[0]))

    def test_validation(self) -> None:
        with pytest.raises(ValidationError):
            SweepSpec(variable="bogus", lo=1.1, hi=2.0)
        with pytest.raises(ValidationError):
            SweepSpec(variable="t_median", lo=2.0, hi=1.1)
        with pytest.raises(ValidationError):
            SweepSpec(variable="t_median", lo=1.1, hi=2.0, n_points=1)
        with pytest.raises(ValidationError):
            SweepSpec(variable="t_median", lo=0.9, hi=2.0)
        with pytest.raises(ValidationError):
            SweepSpec(variable="sigma_ratio", lo=0.0, hi=2.0)
        with pytest.raises(ValidationError):
            SweepSpec(variable="t_median", lo=1.1, hi=2.0, candidates=("nope",))

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"variable": "t_median", "lo": 1.05, "hi": math.inf}, "sweep range must be finite, got hi = inf"),
            ({"variable": "sigma_ratio", "lo": 0.2, "hi": math.inf}, "sweep range must be finite, got hi = inf"),
            (
                {"variable": "t_median", "lo": 1.1, "hi": 2.0, "n_points": 2.5},
                "sweep needs an integer number of points, got 2.5",
            ),
        ],
        ids=["t_median_inf", "sigma_ratio_inf", "float_n_points"],
    )
    def test_unusable_range_or_count_refused(self, fields: dict, message: str) -> None:
        # An infinite hi once reached np.geomspace, which warned and gave NaN
        # abscissae; a float n_points raised numpy's bare TypeError there.
        with pytest.raises(ValidationError) as exc:
            SweepSpec(**fields)
        assert str(exc.value) == message


class TestSweepPiStar:
    def test_t_rows_match_closed_form(self, table1: DegradationModel) -> None:
        spec = SweepSpec(variable="t_median", lo=1.1, hi=8.0, n_points=25)
        result = sweep_pi_star(spec, table1)
        assert len(result.rows) == 25
        for row in result.rows:
            expected = elfving_time_design(table1, row.abscissa).weights[1]
            assert row.pi_star == expected  # same code path, bit-exact

    def test_ratio_rows_use_direct_formula(self, table1: DegradationModel) -> None:
        spec = SweepSpec(variable="sigma_ratio", lo=0.01, hi=50.0, n_points=15)
        result = sweep_pi_star(spec, table1)
        for row in result.rows:
            assert row.pi_star == pi_star_from_ratio(result.nominal_t_median, row.abscissa)
            assert row.reachable  # pi* is defined for every positive ratio

    def test_monotonicity(self, table1: DegradationModel) -> None:
        t_rows = sweep_pi_star(default_sweep_spec("t_median"), table1).rows
        pis = [r.pi_star for r in t_rows]
        assert all(a > b for a, b in zip(pis, pis[1:]))
        r_rows = sweep_pi_star(default_sweep_spec("sigma_ratio"), table1).rows
        pis_r = [r.pi_star for r in r_rows]
        assert all(a < b for a, b in zip(pis_r, pis_r[1:]))

    def test_limits(self, table1: DegradationModel) -> None:
        far = sweep_pi_star(
            SweepSpec(variable="t_median", lo=1e5, hi=1e6, n_points=2), table1
        )
        assert far.rows[-1].pi_star == pytest.approx(0.55, abs=1e-3)
        tiny = sweep_pi_star(
            SweepSpec(variable="sigma_ratio", lo=1e-9, hi=1e-8, n_points=2), table1
        )
        assert tiny.rows[0].pi_star == pytest.approx(0.0, abs=1e-8)


class TestSweepEfficiency:
    def test_nominal_abscissa_scores_one(self, table1: DegradationModel) -> None:
        spec = SweepSpec(variable="t_median", lo=T_MEDIAN, hi=10.0, n_points=3)
        result = sweep_efficiency(spec, table1)
        effs = dict(zip(spec.candidates, result.rows[0].efficiencies))
        assert effs[CANDIDATE_ZETA_STAR] == pytest.approx(1.0, abs=1e-12)

    def test_frozen_far_row(self, table1: DegradationModel) -> None:
        spec = SweepSpec(variable="t_median", lo=1.05, hi=10.0, n_points=5)
        result = sweep_efficiency(spec, table1)
        last = result.rows[-1]
        assert last.abscissa == 10.0
        assert last.efficiencies == pytest.approx(
            (0.8279430648522423, 0.9773236242351033, 0.4826767628835148), rel=1e-10
        )

    def test_six_point_uniform_never_beats_two_point(self, table1: DegradationModel) -> None:
        result = sweep_efficiency(default_sweep_spec("t_median"), table1)
        eff2 = result.column(CANDIDATE_TAU2)
        eff6 = result.column(CANDIDATE_TAU6)
        assert np.all(eff6 < eff2)

    def test_unreachable_ratio_rows_are_flagged(self, table1: DegradationModel) -> None:
        spec = SweepSpec(variable="sigma_ratio", lo=0.2, hi=5.0, n_points=5)
        result = sweep_efficiency(spec, table1)
        flags = tuple(row.reachable for row in result.rows)
        assert flags == (False, True, True, False, False)
        for row in result.rows:
            if row.reachable:
                assert all(np.isfinite(e) for e in row.efficiencies)
            else:
                assert all(np.isnan(e) for e in row.efficiencies)
                assert np.isfinite(row.pi_star)  # pi* itself needs no rho move

    def test_deterministic(self, table1: DegradationModel) -> None:
        spec = SweepSpec(variable="t_median", lo=1.2, hi=6.0, n_points=11)
        a = sweep_efficiency(spec, table1)
        b = sweep_efficiency(spec, table1)
        assert a.rows == b.rows

    def test_column_accessor(self, table1: DegradationModel) -> None:
        spec = SweepSpec(
            variable="t_median", lo=1.2, hi=6.0, n_points=4, candidates=(CANDIDATE_TAU2,)
        )
        result = sweep_efficiency(spec, table1)
        col = result.column(CANDIDATE_TAU2)
        assert col.shape == (4,)
        assert result.column("abscissa").tolist() == [row.abscissa for row in result.rows]
        assert result.column("pi_star").tolist() == [row.pi_star for row in result.rows]
        for name in (CANDIDATE_TAU6, "bogus"):
            with pytest.raises(KeyError):
                result.column(name)
        for name in ("abscissa", "pi_star", CANDIDATE_TAU2):
            with pytest.raises(ValueError, match="read-only"):
                result.column(name)[0] = 0.5
        pis = sweep_pi_star(spec, table1)
        assert np.isnan(pis.column(CANDIDATE_TAU2)).tolist() == [True] * 4

    def test_held_fixed_re_pins_ratio(self, table1: DegradationModel) -> None:
        spec = SweepSpec(
            variable="t_median", lo=1.2, hi=6.0, n_points=3, held_fixed=1.0
        )
        result = sweep_efficiency(spec, table1)
        assert result.nominal_ratio == pytest.approx(1.0, rel=1e-12)
        homosked = SweepSpec(variable="t_median", lo=2.0, hi=3.0, n_points=2, held_fixed=1.0)
        row = sweep_pi_star(homosked, table1).rows[0]
        assert row.pi_star == pytest.approx(2.0 / 3.0, rel=1e-9)


class TestSweepResultValidation:
    """Each check names the first abscissa that fails it."""

    def _result(self, pi_star: list[float], efficiencies: list[list[float]], reachable: list[bool]) -> SweepResult:
        return SweepResult(
            spec=SweepSpec(variable="t_median", lo=1.2, hi=6.0, n_points=3),
            abscissa=np.array([1.2, 3.0, 6.0]),
            pi_star=np.array(pi_star),
            efficiencies=np.array(efficiencies),
            reachable=np.array(reachable),
            nominal_t_median=1.58,
            nominal_ratio=1.22,
        )

    def test_rejects_pi_out_of_range(self) -> None:
        with pytest.raises(ValidationError) as exc:
            self._result([0.8, 1.5, 0.0], [[0.9] * 3] * 3, [True] * 3)
        assert str(exc.value) == "pi_star out of (0,1) at abscissa 3.0: 1.5"

    def test_rejects_nan_on_reachable_row(self) -> None:
        effs = [[0.9, 0.9, 0.9], [0.9, math.nan, 0.9], [math.nan, 0.9, 0.9]]
        with pytest.raises(ValidationError) as exc:
            self._result([0.8, 0.6, 0.5], effs, [True] * 3)
        assert str(exc.value) == "NaN efficiency on unflagged row at 3.0"

    def test_rejects_efficiency_above_one(self) -> None:
        effs = [[0.9, 0.9, 0.9], [0.9, 0.9, 1.2], [1.5, 0.9, 0.9]]
        with pytest.raises(ValidationError) as exc:
            self._result([0.8, 0.6, 0.5], effs, [True] * 3)
        assert str(exc.value) == "efficiency out of (0,1] at abscissa 3.0: 1.2"

    def test_accepts_nan_on_unreachable_row(self) -> None:
        result = self._result([0.8, 0.6, 0.5], [[0.9] * 3, [math.nan] * 3, [0.9] * 3], [True, False, True])
        assert [row.reachable for row in result.rows] == [True, False, True]
        assert np.isnan(result.column(CANDIDATE_TAU2)).tolist() == [False, True, False]


def _assert_matches_reference(spec: SweepSpec, model: DegradationModel) -> None:
    """Closed-form sweeps against the per-row product-design oracle."""
    got = sweep_efficiency(spec, model).rows
    pis = sweep_pi_star(spec, model).rows
    want = sweep_rows_reference(spec, model)
    assert [r.abscissa for r in got] == [r.abscissa for r in pis] == [r.abscissa for r in want]
    assert [r.pi_star for r in got] == [r.pi_star for r in pis] == [r.pi_star for r in want]
    assert [r.reachable for r in got] == [r.reachable for r in want]
    for g, w in zip(got, want):
        assert len(g.efficiencies) == len(spec.candidates)
        assert g.efficiencies == pytest.approx(w.efficiencies, rel=1e-12, abs=0.0, nan_ok=True)


class TestClosedFormMatchesReference:
    @pytest.mark.parametrize("variable", ["t_median", "sigma_ratio"])
    def test_default_specs(self, table1: DegradationModel, variable: str) -> None:
        _assert_matches_reference(default_sweep_spec(variable), table1)

    @pytest.mark.parametrize(
        "spec",
        [
            SweepSpec(variable="t_median", lo=1.2, hi=6.0, n_points=40, held_fixed=1.5),
            SweepSpec(variable="sigma_ratio", lo=0.2, hi=5.0, n_points=40, held_fixed=2.5),
            SweepSpec(
                variable="sigma_ratio", lo=0.3, hi=3.0, n_points=40, candidates=(CANDIDATE_TAU6, CANDIDATE_ZETA_STAR)
            ),
            SweepSpec(variable="t_median", lo=1.05, hi=10.0, n_points=40, candidates=(CANDIDATE_TAU2, CANDIDATE_TAU6)),
        ],
    )
    def test_held_fixed_and_candidate_subsets(self, table1: DegradationModel, spec: SweepSpec) -> None:
        _assert_matches_reference(spec, table1)

    def test_no_ratio_reachable_without_slope_variance(self) -> None:
        model = perturbed_table1((1.0, 0.0, 1.0), 0.0, TABLE1["x_u"], 2.0)
        spec = SweepSpec(variable="sigma_ratio", lo=0.2, hi=5.0, n_points=9)
        assert not any(r.reachable for r in sweep_efficiency(spec, model).rows)
        _assert_matches_reference(spec, model)

    # Standard deviations within 50 % of Table 1.  Far outside it the
    # reference's 4x4 product-design solve itself loses digits near the
    # reachable ratio edge; see test_closed_form_at_an_ill_conditioned_corner.
    @given(
        variable=st.sampled_from(["t_median", "sigma_ratio"]),
        scale=st.tuples(*(st.floats(2.0 / 3.0, 1.5),) * 3),
        rho=st.floats(-0.9, 0.9),
        x_u=st.floats(-0.6, -0.01),
        t_median=st.floats(1.05, 8.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_perturbed_models(
        self, variable: str, scale: tuple[float, float, float], rho: float, x_u: float, t_median: float
    ) -> None:
        spec = dataclasses.replace(default_sweep_spec(variable), n_points=25)
        _assert_matches_reference(spec, perturbed_table1(scale, rho, x_u, t_median))

    def test_closed_form_at_an_ill_conditioned_corner(self) -> None:
        # At this ratio, near the lowest reachable one, the product-design
        # reference is off by 3e-12 in zeta*'s efficiency; the closed form
        # agrees with 40-digit arithmetic.
        model = perturbed_table1((0.25, 4.0, 0.25), 0.95, -0.6, 1.05)
        spec = SweepSpec(variable="sigma_ratio", lo=CORNER_RATIO, hi=5.0, n_points=2)
        got = sweep_efficiency(spec, model).rows[0]
        t_nom = median_failure_time(model)
        taus = candidate_time_designs(spec.candidates, model, t_nom)
        exact = efficiencies_40_digits(vary_ratio_via_rho(spec.lo, model), t_nom, list(taus.values()))
        assert got.efficiencies == pytest.approx(exact, rel=1e-14)


class TestSweepEdges:
    def test_quadratic_time_basis_rejected(self) -> None:
        quad = quadratic_model()
        for variable in ("t_median", "sigma_ratio"):
            with pytest.raises(ValidationError, match="affine"):
                sweep_efficiency(default_sweep_spec(variable), quad)
            with pytest.raises(ValidationError, match="affine"):
                sweep_pi_star(default_sweep_spec(variable), quad)

    def test_overflowing_median_sweep_refused(self, table1: DegradationModel) -> None:
        # Medians past about 1e154 overflow the closed forms; the sweep once
        # warned of the overflow and blamed its own result check instead.
        spec = SweepSpec(variable="t_median", lo=1.05, hi=1.0e300, n_points=20)
        with pytest.raises(ValidationError, match=r"criterion c' M\^-1 c overflows; c is too large"):
            sweep_efficiency(spec, table1)

    def test_full_error_covariance_rejected(self, table1: DegradationModel) -> None:
        full = dataclasses.replace(table1, error_spec=ErrorSpec(full=((0.048**2, 0.0), (0.0, 0.048**2))))
        for variable in ("t_median", "sigma_ratio"):
            with pytest.raises(ConfigurationError, match="full error covariance"):
                sweep_efficiency(default_sweep_spec(variable), full)
            with pytest.raises(ConfigurationError, match="full error covariance"):
                sweep_pi_star(default_sweep_spec(variable), full)

    def test_ratio_sweep_needs_a_median_beyond_the_horizon(self, table1: DegradationModel) -> None:
        spec = default_sweep_spec("sigma_ratio")
        inside = (perturbed_table1((1.0, 1.0, 1.0), TABLE1["rho"], TABLE1["x_u"], 0.8), table1)
        specs = (spec, dataclasses.replace(spec, held_fixed=1.0))
        for model, ratio_spec in zip(inside, specs):
            for sweep in (sweep_efficiency, sweep_pi_star):
                with pytest.raises(OutOfRegimeError, match="ratio sweeps need a median beyond the horizon"):
                    sweep(ratio_spec, model)

    def test_nominal_ratio_scores_one(self, table1: DegradationModel) -> None:
        spec = SweepSpec(variable="sigma_ratio", lo=NOMINAL_RATIO, hi=1.5, n_points=3)
        effs = dict(zip(spec.candidates, sweep_efficiency(spec, table1).rows[0].efficiencies))
        assert effs[CANDIDATE_ZETA_STAR] == pytest.approx(1.0, abs=1e-12)
