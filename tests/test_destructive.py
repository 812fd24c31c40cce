"""Single-measurement (destructive) designs and their Elfving solutions."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from adtplan import (
    ALL_CANDIDATES,
    ApproximateDesign,
    ConfigurationError,
    DegradationModel,
    ErrorSpec,
    GridSpec,
    OutOfRegimeError,
    PowerBasis,
    SingularDesignError,
    ValidationError,
    VarianceFunction,
    c_criterion_single_obs,
    c_criterion_time,
    candidate_time_designs,
    elfving_stress_design,
    elfving_time_design,
    h,
    info_stress,
    median_failure_time,
    mu_aggregate,
    numeric_destructive_time_design,
    pi_star_from_ratio,
    product_design,
    sigma_u,
    sigma_u2,
    stress_extrapolation_factor,
    uniform_time_design,
    vary_ratio_via_rho,
    weighted_f2,
)
from conftest import CORNER_RATIO, T_MEDIAN, cubic_model, perturbed_table1, quadratic_model, random_affine_model
from oracles import (
    efficiencies_40_digits,
    elfving_brute_force_oracle,
    elfving_lp_oracle,
    info_single_obs,
    kronecker_criterion_single_obs,
)


def random_model(rng: np.random.Generator, degree: int) -> DegradationModel:
    """Affine-in-stress model with a degree-`degree` time basis and a random positive definite Sigma_gamma."""
    p2 = degree + 1
    A = rng.normal(size=(p2, p2)) * 0.1
    return DegradationModel(
        stress_basis=PowerBasis(1),
        time_basis=PowerBasis(degree),
        beta=tuple(rng.uniform(0.5, 2.0, size=2 * p2)),
        sigma_gamma=tuple(map(tuple, A @ A.T + 1e-3 * np.eye(p2))),
        error_spec=ErrorSpec(sigma_eps=float(rng.uniform(0.01, 0.3))),
        x_u=float(rng.uniform(-0.6, -0.02)),
        y0=3.0,
    )


def random_time_design(rng: np.random.Generator) -> ApproximateDesign:
    """Both endpoints and a random subset of {1/4, 1/2, 3/4}, with random weights.

    The support is spread out: on clustered supports the Kronecker reference
    itself loses digits (1.8e-13 relative on {0.75, 0.8} against 50-digit
    arithmetic); the corner test below covers ill-conditioned designs.
    """
    inner = [t for t in (0.25, 0.5, 0.75) if rng.uniform() < 0.5] or [0.5]
    pts = (0.0, *inner, 1.0)
    w = rng.uniform(0.2, 1.0, size=len(pts))
    return ApproximateDesign(points=pts, weights=tuple(w / w.sum()))


class TestVarianceFunction:
    def test_frozen_endpoints(self, table1: DegradationModel) -> None:
        var = VarianceFunction(table1)
        assert var.sigma(0.0) == pytest.approx(0.12369316876852982, rel=1e-14)
        assert var.sigma(1.0) == pytest.approx(0.1513326798811149, rel=1e-14)
        assert var.ratio_end_over_start() == pytest.approx(1.2234522034463164, rel=1e-14)

    def test_sigma2_decomposition(self, table1: DegradationModel) -> None:
        var = VarianceFunction(table1)
        for t in (0.0, 0.3, 0.7, 1.0):
            f2 = np.array(table1.time_basis.evaluate(t))
            Sigma = np.array(table1.sigma_gamma)
            expected = float(f2 @ Sigma @ f2) + table1.error_spec.sigma_eps**2
            assert var.sigma2(t) == pytest.approx(expected, rel=1e-14)

    def test_needs_scalar_error_level(self) -> None:
        model = DegradationModel(
            stress_basis=PowerBasis(1),
            time_basis=PowerBasis(1),
            beta=(1.0, 1.0, 1.0, 1.0),
            sigma_gamma=((0.01, 0.0), (0.0, 0.01)),
            error_spec=ErrorSpec(full=((0.0025, 0.001), (0.001, 0.0025))),
            x_u=-0.1,
            y0=2.0,
        )
        with pytest.raises(ConfigurationError):
            VarianceFunction(model)

    def test_interior_minimum_is_found(self) -> None:
        # Strong negative correlation puts the variance minimum inside (0, 1);
        # the closed-form quadratic minimizer must match a fine-grid argmin.
        model = DegradationModel.affine(
            beta=(2.0, 1.0, 1.0, 0.1),
            sigma1=0.1,
            sigma2=0.1,
            rho=-0.99,
            sigma_eps=0.01,
            x_u=-0.1,
            y0=3.0,
        )
        var = VarianceFunction(model)
        sg = model.sigma_gamma
        t_min = -sg[0][1] / sg[1][1]
        assert 0.0 < t_min < 1.0
        grid = np.linspace(0.0, 1.0, 2001)
        assert var.sigma2(t_min) <= min(var.sigma2(float(t)) for t in grid) + 1e-15

    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_array_forms_equal_stacked_scalar_calls(self, degree: int) -> None:
        rng = np.random.default_rng(degree)
        model = random_model(rng, degree)
        var = VarianceFunction(model)
        fns = {f.__name__: (lambda t, f=f: f(t, model)) for f in (sigma_u2, sigma_u, mu_aggregate, h, weighted_f2)}
        fns.update(sigma2=var.sigma2, sigma=var.sigma)
        ts = np.concatenate([np.linspace(0.0, 1.0, 1001), rng.uniform(0.0, 10.0, 200)])
        for name, f in fns.items():
            assert np.array_equal(f(ts), np.array([f(float(t)) for t in ts])), name
            assert type(f(0.3)) is (np.ndarray if name == "weighted_f2" else float), name

    def test_weighted_regressor(self, table1: DegradationModel) -> None:
        assert np.allclose(
            weighted_f2(0.0, table1), [8.084520826516704, 0.0], rtol=1e-12
        )
        assert np.allclose(
            weighted_f2(1.0, table1), [6.607958045018618, 6.607958045018618], rtol=1e-12
        )


class TestPiStarFromRatio:
    def test_frozen_values(self) -> None:
        assert pi_star_from_ratio(T_MEDIAN, 1.2234522034463164) == pytest.approx(
            0.7684546643672014, rel=1e-14
        )
        # Homoscedastic ratio reduces to the uncapped two-point weight.
        t = 2.0
        assert pi_star_from_ratio(t, 1.0) == pytest.approx(t / (2 * t - 1), rel=1e-14)

    def test_limits(self) -> None:
        # Large-t limit is r/(1 + r); convergence is O(1/t).
        r = 1.2234522034463164
        assert pi_star_from_ratio(1e6, r) == pytest.approx(0.5502489334153369, abs=1e-6)
        assert pi_star_from_ratio(1e12, r) == pytest.approx(r / (1 + r), rel=1e-11)
        assert pi_star_from_ratio(1.5, 1e-9) == pytest.approx(0.0, abs=1e-8)

    def test_requires_extrapolation(self) -> None:
        for bad in (1.0, 0.5, 0.0):
            with pytest.raises(OutOfRegimeError):
                pi_star_from_ratio(bad, 1.2)
        with pytest.raises(ValidationError):
            pi_star_from_ratio(1.5, 0.0)

    def test_monotone_in_t_and_ratio(self) -> None:
        ts = np.geomspace(1.01, 100.0, 100)
        pis = [pi_star_from_ratio(float(t), 1.2234522034463164) for t in ts]
        assert all(a > b for a, b in zip(pis, pis[1:]))
        ratios = np.geomspace(0.05, 20.0, 100)
        pis_r = [pi_star_from_ratio(1.5838873865203356, float(r)) for r in ratios]
        assert all(a < b for a, b in zip(pis_r, pis_r[1:]))


class TestElfvingTimeDesign:
    def test_frozen_table1(self, table1: DegradationModel) -> None:
        tau = elfving_time_design(table1, T_MEDIAN)
        assert tau.points == (0.0, 1.0)
        assert tau.weights[1] == pytest.approx(0.7684546643672014, rel=1e-12)

    def test_support_condition(self) -> None:
        # Elfving optimality for affine paths: the scaled sensitivity
        # (f2~' M^-1 c)^2 / (c' M^-1 c) equals 1 at both endpoints.
        rng = np.random.default_rng(31)
        for _ in range(25):
            model = random_affine_model(rng)
            t_star = float(rng.uniform(1.2, 6.0))
            tau = elfving_time_design(model, t_star)
            M = np.zeros((2, 2))
            for t, w in zip(tau.points, tau.weights):
                v = weighted_f2(t, model)
                M += w * np.outer(v, v)
            c = np.array([1.0, t_star])
            Minv_c = np.linalg.solve(M, c)
            denom = float(c @ Minv_c)
            for t in (0.0, 1.0):
                v = weighted_f2(t, model)
                assert float(v @ Minv_c) ** 2 / denom == pytest.approx(1.0, abs=1e-9)

    def test_rejects_interpolation(self, table1: DegradationModel) -> None:
        with pytest.raises(OutOfRegimeError):
            elfving_time_design(table1, 0.9)

    def test_requires_the_affine_time_basis(self) -> None:
        with pytest.raises(ValidationError, match="Elfving time design requires the affine time basis"):
            elfving_time_design(quadratic_model(), T_MEDIAN)

    @pytest.mark.parametrize("t_star", [0.5, 0.9])
    def test_advised_path_certifies_inside_the_horizon(self, table1: DegradationModel, t_star: float) -> None:
        # The error above sends the caller to the grid optimizer, which once
        # spent its whole budget here and returned an uncertified design.
        with pytest.raises(OutOfRegimeError, match="use numeric_destructive_time_design"):
            elfving_time_design(table1, t_star)
        tau, cert = numeric_destructive_time_design(table1, t_star)
        assert cert.certified
        # t* is a grid point: all mass on it, with criterion sigma^2(t*).
        assert tau.points == (t_star,) and tau.weights == (1.0,)

    def test_t_star_one_degenerates_to_endpoint(self, table1: DegradationModel) -> None:
        # Exactly at the boundary all mass sits at t = 1.
        tau = elfving_time_design(table1, 1.0 + 1e-12)
        assert tau.weights[1] == pytest.approx(1.0, abs=1e-9)


class TestElfvingStressDesign:
    def test_frozen_table1(self, table1: DegradationModel) -> None:
        xi = elfving_stress_design(table1)
        assert xi.points == (0.0, 1.0)
        assert xi.weights[1] == pytest.approx(0.050359712230215826, rel=1e-12)

    def test_mirror_case_above_one(self, table1: DegradationModel) -> None:
        import dataclasses

        flipped = dataclasses.replace(table1, x_u=1.3)
        xi = elfving_stress_design(flipped)
        assert xi.weights[0] == pytest.approx(0.3 / (0.3 + 1.3), rel=1e-12)

    def test_interpolation_is_rejected(self, table1: DegradationModel) -> None:
        import dataclasses

        for inside in (0.0, 0.5, 1.0):
            with pytest.raises(OutOfRegimeError):
                elfving_stress_design(dataclasses.replace(table1, x_u=inside))

    def test_requires_the_affine_stress_basis(self, table1: DegradationModel) -> None:
        quadratic_stress = dataclasses.replace(
            table1, stress_basis=PowerBasis(2), beta=(2.397, 1.018, 1.629, 0.0696, 0.1, 0.01)
        )
        with pytest.raises(ValidationError, match="Elfving stress design requires the affine stress basis"):
            elfving_stress_design(quadratic_stress)


class TestProductDesign:
    def test_combined_weights_are_products(self, table1: DegradationModel) -> None:
        xi = elfving_stress_design(table1)
        tau = elfving_time_design(table1, T_MEDIAN)
        zeta = product_design(xi, tau)
        combined = dict(zeta.combined)
        for (x, wx) in zip(xi.points, xi.weights):
            for (t, wt) in zip(tau.points, tau.weights):
                assert combined[(x, t)] == pytest.approx(wx * wt, rel=1e-14)
        assert zeta.combined[0][0] == (0.0, 0.0)  # lexicographic ordering

    def test_frozen_zeta_star(self, table1: DegradationModel) -> None:
        zeta = product_design(elfving_stress_design(table1), elfving_time_design(table1, T_MEDIAN))
        weights = tuple(w for _, w in zeta.combined)
        assert weights == pytest.approx(
            (
                0.21988477916208207,
                0.7297555086077021,
                0.011660556470716473,
                0.03869915575949935,
            ),
            rel=1e-12,
        )

    def test_marginals_at_the_sum_tolerance(self, table1: DegradationModel) -> None:
        # Each marginal sums to 1 + 9e-13, inside ApproximateDesign's 1e-12;
        # their product sums to about 1 + 1.8e-12 and must still be accepted.
        xi = ApproximateDesign(points=(0.0, 1.0), weights=(0.3, 0.7 + 9e-13))
        tau = ApproximateDesign(points=(0.0, 1.0), weights=(0.4, 0.6 + 9e-13))
        zeta = product_design(xi, tau)
        assert zeta.combined == (
            ((0.0, 0.0), 0.3 * 0.4),
            ((0.0, 1.0), 0.3 * (0.6 + 9e-13)),
            ((1.0, 0.0), (0.7 + 9e-13) * 0.4),
            ((1.0, 1.0), (0.7 + 9e-13) * (0.6 + 9e-13)),
        )
        assert c_criterion_single_obs(zeta, table1, T_MEDIAN) == pytest.approx(
            kronecker_criterion_single_obs(zeta, table1, T_MEDIAN), rel=1e-13, abs=0.0
        )


class TestSingleObsInformation:
    def test_kronecker_structure(self, table1: DegradationModel) -> None:
        # The reference information of tests/oracles.py is the Kronecker
        # product that c_criterion_single_obs factorizes.
        xi = elfving_stress_design(table1)
        tau = elfving_time_design(table1, T_MEDIAN)
        zeta = product_design(xi, tau)
        M = info_single_obs(zeta, table1)
        M1 = info_stress(xi, table1)
        M2t = np.zeros((2, 2))
        for t, w in zip(tau.points, tau.weights):
            v = weighted_f2(t, table1)
            M2t += w * np.outer(v, v)
        # info_stress carries no error scaling; the single-obs matrix puts the
        # whole 1/sigma^2(t) weight on the time factor.
        assert np.allclose(M, np.kron(M1, M2t), rtol=1e-12)

    def test_criterion_value_frozen(self, table1: DegradationModel) -> None:
        zeta = product_design(elfving_stress_design(table1), elfving_time_design(table1, T_MEDIAN))
        val = c_criterion_single_obs(zeta, table1, T_MEDIAN)
        assert val == pytest.approx(0.12030595327704464, rel=1e-12)

    @pytest.mark.parametrize("t_star", [1e160, 1e300])
    @pytest.mark.parametrize("basis", ["affine", "quadratic", "cubic"])
    def test_overflowing_criterion_refused(self, table1: DegradationModel, basis: str, t_star: float) -> None:
        overflow = pytest.raises(ValidationError, match=r"criterion c' M\^-1 c overflows; c is too large")
        if basis == "affine":
            # The time factor overflowed to inf, and the efficiency command
            # printed NaN; the grid path's simplex never forms c' M^-1 c.
            zeta = product_design(elfving_stress_design(table1), elfving_time_design(table1, t_star))
            with overflow:
                c_criterion_single_obs(zeta, table1, t_star)
            design, cert = numeric_destructive_time_design(table1, t_star)
            assert design.points == (0.0, 1.0) and cert.certified
            return
        # t*^2 overflowed in PowerBasis.evaluate with a RuntimeWarning, and the
        # engine refused the infinite target as not finite.
        with overflow:
            numeric_destructive_time_design(quadratic_model() if basis == "quadratic" else cubic_model(), t_star)

    def test_matches_kronecker_reference_on_random_affine_models(self) -> None:
        rng = np.random.default_rng(8)
        for _ in range(25):
            model = random_affine_model(rng)
            t_star = float(rng.uniform(1.2, 6.0))
            xi = elfving_stress_design(model)
            elfving = elfving_time_design(model, t_star)
            taus = [elfving, uniform_time_design(2), uniform_time_design(6), random_time_design(rng)]
            for tau in taus:
                zeta = product_design(xi, tau)
                assert c_criterion_single_obs(zeta, model, t_star) == pytest.approx(
                    kronecker_criterion_single_obs(zeta, model, t_star), rel=1e-13, abs=0.0
                )

    def test_matches_kronecker_reference_on_quadratic_time_bases(self) -> None:
        rng = np.random.default_rng(82)
        for _ in range(25):
            model = random_model(rng, 2)
            xi = elfving_stress_design(model)
            t_star = float(rng.uniform(0.5, 3.0))
            zeta = product_design(xi, random_time_design(rng))
            assert c_criterion_single_obs(zeta, model, t_star) == pytest.approx(
                kronecker_criterion_single_obs(zeta, model, t_star), rel=1e-13, abs=0.0
            )

    def test_equals_repeated_measures_criterion_without_random_effects(self) -> None:
        # With Sigma_gamma = 0 both criteria weight the time plan by w / sigma_eps^2,
        # so the two front ends must agree to the last bit.
        rng = np.random.default_rng(14)
        for degree in (1, 2, 3):
            for _ in range(100):
                model = dataclasses.replace(random_model(rng, degree), sigma_gamma=np.zeros((degree + 1,) * 2).tolist())
                n = degree + 1 + int(rng.integers(0, 3))
                pts, w = np.sort(rng.choice(101, n, replace=False)) / 100, rng.uniform(0.2, 1.0, size=n)
                tau = ApproximateDesign(points=tuple(pts), weights=tuple(w / w.sum()))
                xi = elfving_stress_design(model)
                t_star = float(rng.uniform(0.3, 8.0))
                assert c_criterion_single_obs(product_design(xi, tau), model, t_star) == (
                    stress_extrapolation_factor(xi, model) * c_criterion_time(tau, model, t_star).criterion_fixed
                )

    @pytest.mark.parametrize("t", [0.0, 0.3, 1.0])
    def test_one_point_time_design_is_singular(self, table1: DegradationModel, t: float) -> None:
        tau = ApproximateDesign(points=(t,), weights=(1.0,))
        zeta = product_design(elfving_stress_design(table1), tau)
        with pytest.raises(SingularDesignError):
            c_criterion_single_obs(zeta, table1, T_MEDIAN)

    def test_efficiencies_at_an_ill_conditioned_corner(self) -> None:
        # Near the lowest reachable variance ratio the 4x4 Kronecker solve
        # loses digits (3.1e-12 relative in zeta*'s efficiency); the
        # factorized criterion keeps them.
        model = perturbed_table1((0.25, 4.0, 0.25), 0.95, -0.6, 1.05)
        truth = vary_ratio_via_rho(CORNER_RATIO, model)
        t_nom = median_failure_time(model)
        xi = elfving_stress_design(model)
        taus = list(candidate_time_designs(ALL_CANDIDATES, model, t_nom).values())
        best = c_criterion_single_obs(product_design(xi, elfving_time_design(truth, t_nom)), truth, t_nom)
        effs = [best / c_criterion_single_obs(product_design(xi, tau), truth, t_nom) for tau in taus]
        assert effs == pytest.approx(efficiencies_40_digits(truth, t_nom, taus), rel=1e-14, abs=0.0)


class TestBruteForceOracle:
    def test_matches_elfving_on_table1(self, table1: DegradationModel) -> None:
        oracle = elfving_brute_force_oracle(table1, T_MEDIAN, grid_n=401)
        assert oracle.points == (0.0, 1.0)
        tau = elfving_time_design(table1, T_MEDIAN)
        assert oracle.weights == pytest.approx(tau.weights, abs=1e-12)

    def test_matches_on_random_models(self) -> None:
        rng = np.random.default_rng(92)
        for _ in range(5):
            model = random_affine_model(rng)
            t_star = float(rng.uniform(1.2, 4.0))
            oracle = elfving_brute_force_oracle(model, t_star, grid_n=401)
            tau = elfving_time_design(model, t_star)
            assert oracle.points == tau.points
            assert oracle.weights == pytest.approx(tau.weights, abs=1e-6)

    def test_grid_validation(self, table1: DegradationModel) -> None:
        with pytest.raises(ValidationError):
            elfving_brute_force_oracle(table1, T_MEDIAN, grid_n=1)


class TestNumericDestructivePath:
    def test_agrees_with_elfving(self, table1: DegradationModel) -> None:
        tau, cert = numeric_destructive_time_design(table1, T_MEDIAN)
        assert cert.certified
        sup = tau.support()
        assert sup.points == (0.0, 1.0)
        closed = elfving_time_design(table1, T_MEDIAN)
        assert sup.weights[1] == pytest.approx(closed.weights[1], abs=1e-9)

    @pytest.mark.parametrize(
        "basis, J, t_star, reference",
        [
            ("quadratic", 100, 1.0458251905777058, 0.0508714357),
            ("quadratic", 400, 2.0, 6.0271025525),
            ("quadratic", 400, 3.0, 48.712062714),
            ("cubic", 400, 1.05, None),
            ("cubic", 200, 3.0, None),
            *(
                (basis, 400, t_star, None)
                for basis in ("affine", "quadratic", "cubic")
                for t_star in (0.3, 0.5, 0.9, 1.0, 2.0, 5.0, 8.0)
                if (basis, t_star) != ("quadratic", 2.0)
            ),
        ],
    )
    def test_matches_elfving_lp_on_higher_degree_bases(
        self, table1: DegradationModel, basis: str, J: int, t_star: float, reference: float | None
    ) -> None:
        # t* <= 1 on the grid: the optimum is the one-point design at t*.
        model = {"affine": table1, "quadratic": quadratic_model(), "cubic": cubic_model()}[basis]
        grid = GridSpec(J=J, k=1)
        pts, c = grid.points(), model.time_basis.evaluate(t_star)
        optimum, u = elfving_lp_oracle(weighted_f2(pts, model), c)
        if reference is not None:
            # The values an earlier LP run recorded, to the digits it kept.
            assert optimum == pytest.approx(reference, rel=1e-9)
        tau, cert = numeric_destructive_time_design(model, t_star, grid)
        assert cert.certified
        assert tau.points == tuple(pts[np.abs(u) > 1e-12])
        V = weighted_f2(np.array(tau.points), model)
        M = (V * np.array(tau.weights)[:, None]).T @ V
        # A pseudo-inverse scores the singular (one-point) optima too.
        assert float(c @ np.linalg.pinv(M) @ c) == pytest.approx(optimum, rel=1e-9)

    def test_custom_grid_must_be_uncapped(self, table1: DegradationModel) -> None:
        with pytest.raises(ValidationError):
            numeric_destructive_time_design(table1, T_MEDIAN, grid=GridSpec(J=100, k=4))
