"""Capped-grid optimizer for time plans: exchange engine, certificates, rounding."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adtplan import (
    ApproximateDesign,
    DegradationModel,
    GridSpec,
    InfeasibleDesignError,
    OptimalityCertificate,
    OptimizerConfig,
    PowerBasis,
    ValidationError,
    VarianceFunction,
    c_criterion_time,
    efficiency,
    kkt_check,
    median_failure_time,
    numeric_destructive_time_design,
    optimize_capped_weights,
    optimize_time_plan,
    round_to_exact,
    weighted_f2,
)
from adtplan.criteria import _christoffel
from adtplan.timeplan import design_sensitivity
from conftest import T_MEDIAN, cubic_model, quadratic_model
from oracles import best_exact_rounding, elfving_lp_oracle, scan_draws, two_point_extrapolation_design

TAU0 = ApproximateDesign(
    points=(0.0, 0.05, 0.10, 0.90, 0.95, 1.00),
    weights=(1 / 6,) * 6,
)


def _scored_plan(
    model: DegradationModel, J: int, k: int, t_star: float, destructive: bool = False
) -> tuple[ApproximateDesign, OptimalityCertificate, float, float]:
    """The returned plan and certificate, and the criteria of its weights and of the engine's raw weights.

    Both criteria are f2(t*)' M^- f2(t*) by criteria._christoffel on the full
    grid, weighted by 1/sigma^2(t) on the destructive front.
    """
    grid = GridSpec(J=J, k=k)
    pts = grid.points()
    if destructive:
        design, cert = numeric_destructive_time_design(model, t_star, grid)
        vectors, var = weighted_f2(pts, model), VarianceFunction(model).sigma2(pts)
    else:
        design, cert = optimize_time_plan(grid, model, t_star)
        vectors, var = model.time_basis.evaluate_many(pts) / model.sigma_eps, np.full(pts.size, model.sigma_eps**2)
    w, _ = optimize_capped_weights(vectors, model.time_basis.evaluate(t_star), grid.cap)
    ts, ws = design.as_arrays()
    q = np.zeros(pts.size)
    q[np.searchsorted(pts, ts)] = ws
    return design, cert, _christoffel(pts, q / var, t_star, model.p2), _christoffel(pts, w / var, t_star, model.p2)


def _criterion(vectors: np.ndarray, c: np.ndarray, w: np.ndarray) -> float:
    """c' M(w)^+ c, the criterion of a singular design too when c lies in the range of M.

    With A = diag(sqrt(w)) V, M = A'A and c' M^+ c = |(A')^+ c|^2: a
    pseudo-inverse of the square-root factor keeps twice the digits of one
    of M when a weight is tiny.
    """
    A = vectors * np.sqrt(w)[:, None]
    z = np.linalg.lstsq(A.T, c, rcond=None)[0]
    return float(z @ z)


class TestGridSpec:
    def test_points_are_exact_decimals(self) -> None:
        grid = GridSpec(J=20, k=6)
        pts = grid.points()
        assert pts.shape == (21,)
        assert pts[1] == 0.05 and pts[17] == 0.85 and pts[-1] == 1.0
        assert grid.cap == pytest.approx(1 / 6, rel=0, abs=0)

    def test_validation(self) -> None:
        with pytest.raises(ValidationError):
            GridSpec(J=0, k=1)
        with pytest.raises(ValidationError):
            GridSpec(J=10, k=0)
        with pytest.raises(InfeasibleDesignError):
            GridSpec(J=4, k=6)

    def test_cap_forces_uniform_when_tight(self, table1: DegradationModel) -> None:
        # k = J + 1 leaves a single feasible design: uniform weights at cap.
        design, cert = optimize_time_plan(GridSpec(J=2, k=3), table1, T_MEDIAN)
        assert cert.certified
        assert design.points == (0.0, 0.5, 1.0)
        assert design.weights == (1 / 3,) * 3

    def test_optimizer_config_validation(self) -> None:
        with pytest.raises(ValidationError):
            OptimizerConfig(max_iters=0)


# Engine outputs pinned bit for bit: (basis, J, k, t*, iterations,
# max_violation, support as grid indices, unsaturated weights by grid index
# (every other support point carries the cap 1/k), Cholesky factorizations).
# k = 1 plans are the destructive designs on the weighted basis f2(t)/sigma(t),
# solved by Elfving's simplex: iterations count its pivots, and it factorizes
# no information matrix.
_PINNED_PLANS = [
    (
        "affine", 100, 3, 1.1, 1, 7.882583474838611e-15,
        (0, 98, 99, 100),
        {0: 0.09189249470279945, 98: 0.24144083863053395},
        2,
    ),
    (
        "quadratic", 294, 24, 2.391, 32, 8.562077591367512e-08,
        (0, 1, 2, 3, 4, 139, 140, *range(141, 153), *range(287, 295)),
        {
            4: 0.023370648129294996,
            139: 0.00024696708636237234,
            152: 0.0035030591027202505,
            287: 0.014545992348289117,
        },
        33,
    ),
    (
        "cubic", 62, 7, 1.343, 31, 4.57690940702804e-08,
        (0, 15, 16, 45, 46, 47, 61, 62),
        {0: 0.09124063697707728, 16: 0.08061668935998124, 47: 0.11385695937722735},
        32,
    ),
    (
        "affine", 400, 1, T_MEDIAN, 0, 0.0,
        (0, 400),
        {0: 0.23154533563279855, 400: 0.7684546643672014},
        0,
    ),
    (
        "quadratic", 100, 1, 1.0458251905777058, 1, 0.0,
        (0, 46, 100),
        {0: 0.03200539626239919, 46: 0.1139490389705531, 100: 0.8540455647670477},
        0,
    ),
    (
        "cubic", 400, 1, 1.05, 2, 0.0,
        (0, 93, 287, 400),
        {0: 0.029272075468831302, 93: 0.0740667810186036, 287: 0.19211277488099113, 400: 0.704548368631574},
        0,
    ),
]


class TestExchangeEngine:
    @given(
        degree=st.integers(1, 3),
        J=st.integers(8, 120),
        k_slot=st.floats(0.0, 1.0),
        capped=st.booleans(),
        t_star=st.floats(0.3, 6.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_iterates_feasible_and_monotone(
        self, degree: int, J: int, k_slot: float, capped: bool, t_star: float
    ) -> None:
        # For t* <= 1 a capped optimum can be nearly singular, a tight cluster
        # around t*; uncapped plans solve as a linear program.
        basis = PowerBasis(degree)
        vectors = basis.evaluate_many(np.arange(J + 1) / J) / 0.048
        c = basis.evaluate(t_star)
        k = min(degree + 1 + int(k_slot * 48), J + 1)
        cap = 1.0 / k if capped else 1.0
        values: list[float] = []

        def watch(it: int, value: float, w: np.ndarray) -> None:
            assert it == len(values)
            assert math.fsum(w) == pytest.approx(1.0, abs=1e-9)
            assert np.all(w >= 0.0) and np.all(w <= cap)
            values.append(value)

        w, cert = optimize_capped_weights(vectors, c, cap, OptimizerConfig(max_iters=300), callback=watch)
        assert len(values) == cert.iterations + 1
        diffs = np.diff(values)
        assert np.all(diffs <= 1e-13 * np.abs(values[:-1]))
        # The reported path ends at the criterion of the returned weights; a
        # pseudo-inverse scores a singular (one-point) optimum too.
        assert values[-1] == pytest.approx(_criterion(vectors, c, w), rel=1e-9)

    @given(
        degree=st.integers(1, 3),
        J=st.integers(8, 400),
        log_t_star=st.floats(math.log(0.3), math.log(8.0)),
        tilt=st.floats(0.0, 2.0),
    )
    @settings(max_examples=60, deadline=None)
    @example(degree=3, J=8, log_t_star=6.409291268865276e-10, tilt=0.0)
    def test_cap1_matches_elfving_lp(self, degree: int, J: int, log_t_star: float, tilt: float) -> None:
        # Uncapped designs on f2(t)/sigma(t), sigma(t) growing linearly with
        # the tilt, against the Elfving linear program solved by HiGHS.
        basis, t = PowerBasis(degree), np.arange(J + 1) / J
        vectors = basis.evaluate_many(t) / (0.048 * (1.0 + tilt * t))[:, None]
        c = basis.evaluate(math.exp(log_t_star))
        values: list[float] = []

        def watch(it: int, value: float, w: np.ndarray) -> None:
            assert math.fsum(w) == pytest.approx(1.0, abs=1e-12)
            assert np.all(w >= 0.0) and np.all(w <= 1.0)
            values.append(value)

        w, cert = optimize_capped_weights(vectors, c, 1.0, callback=watch)
        assert cert.certified
        assert np.all(np.diff(values) <= 0.0)
        optimum, _ = elfving_lp_oracle(vectors, c)
        assert values[-1] == pytest.approx(optimum, rel=1e-9)
        assert _criterion(vectors, c, w) == pytest.approx(optimum, rel=1e-9)

    @pytest.mark.parametrize(
        "J, k, t_star", [(44, 4, 1.0), (79, 5, 1.0), (98, 4, 0.959183673881422), (105, 4, 0.6952381655662818)]
    )
    def test_reported_criterion_from_a_clustered_start(self, J: int, k: int, t_star: float) -> None:
        # Cubic plans at or just off a grid point t* <= 1: Elfving's optimum is
        # (nearly) the one point t*, and its spread a cluster whose information
        # is too ill-conditioned for the running criterion (off by up to
        # 9e-8 relative); the blended start keeps it to its digits.
        basis = PowerBasis(3)
        vectors = basis.evaluate_many(np.arange(J + 1) / J) / 0.048
        c = basis.evaluate(t_star)
        values: list[float] = []
        w, cert = optimize_capped_weights(vectors, c, 1.0 / k, callback=lambda it, value, w: values.append(value))
        assert cert.certified
        assert values[-1] == pytest.approx(_criterion(vectors, c, w), rel=1e-10)

    @pytest.mark.parametrize("degree", [1, 2, 3])
    @pytest.mark.parametrize("J, k", [(28, 28), (33, 33), (38, 39)])
    def test_spread_start_fits_tight_caps(self, degree: int, J: int, k: int) -> None:
        # Blocks of floor(u_s k) points at the cap plus one partial point each
        # need more than the J + 1 grid points here: a remainder that finds no
        # free point goes to the nearest points with room.
        basis = PowerBasis(degree)
        vectors = basis.evaluate_many(np.arange(J + 1) / J) / 0.048
        starts: list[np.ndarray] = []

        def watch(it: int, value: float, w: np.ndarray) -> None:
            if it == 0:
                starts.append(w)

        w, cert = optimize_capped_weights(vectors, basis.evaluate(1.587), 1.0 / k, callback=watch)
        assert math.fsum(starts[0]) == pytest.approx(1.0, abs=1e-12)
        assert np.all(starts[0] >= 0.0) and np.all(starts[0] <= 1.0 / k)
        assert cert.certified

    def test_dependent_candidates_raise(self) -> None:
        # Any p candidate vectors must be linearly independent.  Here the
        # simplex's spaced start basis, (1, 0) and (2, 0), is collinear, and
        # the capped exchange starts from that simplex's optimum.
        vectors = np.array([[1.0, 0.0], [3.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, 0.0]])
        c = np.array([1.0, 0.0])
        with pytest.raises(InfeasibleDesignError, match="linearly dependent"):
            optimize_capped_weights(vectors, c, 0.5)
        with pytest.raises(InfeasibleDesignError, match="linearly dependent"):
            optimize_capped_weights(vectors, c, 1.0)
        # Two grid points cannot carry three independent quadratic vectors.
        with pytest.raises(InfeasibleDesignError):
            optimize_time_plan(GridSpec(J=1, k=1), quadratic_model(), 2.0)

    def test_singular_trial_restores_the_iterate(
        self, table1: DegradationModel, monkeypatch: pytest.MonkeyPatch
    ) -> None:
        # This plan takes one exchange step from its start (_PINNED_PLANS).  A
        # factor that fails once, on that step's trial, rejects the step: the
        # weights stay at the start and the run ends uncertified.
        vectors = table1.time_basis.evaluate_many(np.arange(101) / 100) / table1.sigma_eps
        c = table1.time_basis.evaluate(1.1)
        calls, cholesky = [], np.linalg.cholesky

        def fails_once(a: np.ndarray) -> np.ndarray:
            calls.append(a)
            if len(calls) == 2:
                raise np.linalg.LinAlgError("singular trial")
            return cholesky(a)

        monkeypatch.setattr(np.linalg, "cholesky", fails_once)
        path: list[np.ndarray] = []
        w, cert = optimize_capped_weights(vectors, c, 1 / 3, callback=lambda it, value, w: path.append(w))
        assert len(calls) == 2 and len(path) == 1
        assert cert.iterations == 0 and not cert.certified
        assert np.array_equal(w, path[0])

    def test_one_point_cap1_optimum_has_unit_weight(self, table1: DegradationModel) -> None:
        # At t* = 1 all mass sits on t = 1; the engine once left 0.9999999999999999.
        design, cert = optimize_time_plan(GridSpec(J=20, k=1), table1, 1.0)
        assert cert.certified
        assert design.points == (1.0,)
        assert design.weights == (1.0,)

    def test_caps_between_one_over_p_and_one_rejected(self) -> None:
        vectors = PowerBasis(2).evaluate_many(np.arange(11) / 10)
        with pytest.raises(ValidationError, match="between 1/p and 1"):
            optimize_capped_weights(vectors, PowerBasis(2).evaluate(2.0), 0.5)

    @pytest.mark.parametrize("J, k, t_star", [(100, 3, 1.1), (400, 10, 5.0), (1000, 10, 1.1)])
    def test_affine_plans_certify(self, table1: DegradationModel, J: int, k: int, t_star: float) -> None:
        # Regression: ordinary affine plans that once stayed uncertified after 3000 iterations.
        design, cert = optimize_time_plan(GridSpec(J=J, k=k), table1, t_star)
        assert cert.certified
        assert cert.iterations < 100

    def test_quadratic_cap1_design(self) -> None:
        # Regression: this design once raised a bare root-bracketing ValueError.
        quad = quadratic_model()
        t_star = median_failure_time(quad)
        assert t_star == pytest.approx(1.0458, abs=1e-4)
        tau, cert = numeric_destructive_time_design(quad, t_star, GridSpec(J=100, k=1))
        assert cert.certified
        assert tau.points == (0.0, 0.46, 1.0)
        V = np.array([weighted_f2(t, quad) for t in tau.points])
        M = (V * np.array(tau.weights)[:, None]).T @ V
        c = quad.time_basis.evaluate(t_star)
        assert float(c @ np.linalg.solve(M, c)) == pytest.approx(0.0508714357, rel=1e-9)
        # The sensitivities optimize-destructive --out reports: 1 on the support.
        phi = design_sensitivity(V, c, np.array(tau.weights))
        u = V @ np.linalg.solve(M, c)
        assert phi == pytest.approx(u**2 / float(c @ np.linalg.solve(M, c)), rel=1e-12)
        assert phi == pytest.approx(1.0, abs=1e-7)

    def test_cubic_cap1_design_is_exact(self) -> None:
        # Four weights |u_j| / sum |u| from the simplex's optimal basis: the
        # certificate lies far below the 1e-7 stopping gap of pair steps.
        tau, cert = numeric_destructive_time_design(cubic_model(), 1.05, GridSpec(J=400, k=1))
        assert cert.certified
        assert len(tau.points) == 4
        assert cert.max_violation <= 1e-10

    @pytest.mark.parametrize(
        "basis, J, k, t_star",
        [("cubic", 808, 4, 0.482), ("cubic", 616, 5, 0.527), ("cubic", 879, 9, 0.662), ("quadratic", 400, 6, 0.7)],
    )
    def test_capped_plans_inside_the_horizon_certify(self, basis: str, J: int, k: int, t_star: float) -> None:
        # Nearly singular optima clustered around t* < 1: started from the
        # uniform design, the pair steps crept to the 10 000-step budget
        # uncertified; from Elfving's design spread to the cap they certify.
        model = {"quadratic": quadratic_model, "cubic": cubic_model}[basis]()
        _, cert = optimize_time_plan(GridSpec(J=J, k=k), model, t_star)
        assert cert.certified
        assert cert.iterations < OptimizerConfig().max_iters

    @pytest.mark.parametrize(
        "J, k, t_star",
        [
            (400, 20, T_MEDIAN),
            (20, 6, 1.1),
            (736, 44, 5.267),
            (28, 28, 1.587),
            (715, 31, 3.003),
            (549, 10, 9.575),
            (201, 43, 1.675),
            (287, 36, 1.648),
            (393, 41, 5.231),
            (998, 35, 2.231),
            (294, 22, 2.576),
            (84, 8, 1.373),
        ],
    )
    def test_affine_plans_start_near_their_optimum(
        self, table1: DegradationModel, J: int, k: int, t_star: float
    ) -> None:
        # The affine plans of the repeated benchmark round, and table 1 on
        # (400, 20): from the spread Elfving design they take at most 5
        # exchange steps (table 1 at most 2), where a start at the uniform
        # design took up to 12 (table 1: 5).
        _, cert = optimize_time_plan(GridSpec(J=J, k=k), table1, t_star)
        assert cert.certified
        assert cert.iterations <= (2 if (J, k) == (400, 20) else 5)

    @pytest.mark.parametrize("J, k, t_star", [(20, 6, 1.1), (28, 28, 1.587)])
    def test_no_dust_support_points(self, table1: DegradationModel, J: int, k: int, t_star: float) -> None:
        # Both once came back with an extra point of weight below 1e-7.
        design, cert = optimize_time_plan(GridSpec(J=J, k=k), table1, t_star)
        assert cert.certified
        assert len(design.points) == k
        assert all(w == pytest.approx(1 / k, abs=1e-12) for w in design.weights)
        assert math.fsum(design.weights) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "J, k, t_star",
        [
            (None, 1, 1 + 1e-8),
            (400, 1, 1 + 1e-8),
            (17, 5, 2 / 17 + 1e-8),
            (14, 10, 0.50000001),
            (94, 31, 57 / 94 - 1e-8),
        ],
    )
    def test_cut_weight_keeps_the_mass(self, table1: DegradationModel, J: int | None, k: int, t_star: float) -> None:
        # t* just off a grid point leaves dust (about 1e-8) beside points
        # near the cap; it once went missing and the design raised "weights
        # must sum to 1".  J = None is numeric_destructive_time_design's grid.
        # At (94, 31) the only point with room had 1.4e-16 less room than
        # the cut, so the cut once went missing too.
        design, cert, returned, engine = _scored_plan(table1, J or 400, k, t_star, destructive=J is None)
        assert cert.certified
        assert math.fsum(design.weights) == pytest.approx(1.0, abs=1e-12)
        assert max(design.weights) <= 1.0 / k
        if k == 1:
            # The simplex's weight of about 1e-8 on t = 0 identifies f2(t*):
            # cutting it once left the singular one-point design {1}.
            assert returned == pytest.approx(engine, rel=1e-12)
        else:
            assert min(design.weights) > cert.tol

    @given(
        degree=st.integers(1, 3),
        J=st.integers(8, 200),
        k_slot=st.floats(0.0, 1.0),
        front=st.sampled_from(["capped", "cap 1", "destructive"]),
        i_slot=st.floats(0.0, 1.0),
        offset=st.sampled_from([-1e-8, 0.0, 1e-8]),
    )
    @settings(max_examples=100, deadline=None)
    @example(degree=1, J=94, k_slot=0.609375, front="capped", i_slot=0.609375, offset=-1e-8)
    def test_returned_plans_score_as_their_weights(
        self, table1: DegradationModel, degree: int, J: int, k_slot: float, front: str, i_slot: float, offset: float
    ) -> None:
        # t* on a grid point or 1e-8 off it, where the raw weights carry
        # dust: the weight cut keeps every point the target needs.
        model = {1: table1, 2: quadratic_model(), 3: cubic_model()}[degree]
        k = min(degree + 1 + int(k_slot * 48), J + 1) if front == "capped" else 1
        t_star = max(round(i_slot * J), 1) / J + offset
        _, _, returned, engine = _scored_plan(model, J, k, t_star, destructive=front == "destructive")
        assert returned == pytest.approx(engine, rel=1e-12)

    @pytest.mark.parametrize(
        "basis, J, k, t_star, iterations, max_violation, support, free, factorizations", _PINNED_PLANS
    )
    def test_pinned_plans_and_one_factorization_per_step(
        self,
        table1: DegradationModel,
        monkeypatch: pytest.MonkeyPatch,
        basis: str,
        J: int,
        k: int,
        t_star: float,
        iterations: int,
        max_violation: float,
        support: tuple[int, ...],
        free: dict[int, float],
        factorizations: int,
    ) -> None:
        # Exact to the bit: the engine's arithmetic is deterministic, so any
        # change to it shows here before it moves a criterion value.
        model = {"affine": table1, "quadratic": quadratic_model(), "cubic": cubic_model()}[basis]
        grid = GridSpec(J=J, k=k)
        factored: list[bytes] = []
        cholesky = np.linalg.cholesky

        def counting(a: np.ndarray) -> np.ndarray:
            factored.append(a.tobytes())
            return cholesky(a)

        monkeypatch.setattr(np.linalg, "cholesky", counting)
        if k == 1:
            design, cert = numeric_destructive_time_design(model, t_star, grid)
        else:
            design, cert = optimize_time_plan(grid, model, t_star)
        assert design.points == tuple(grid.points()[list(support)])
        assert design.weights == tuple(free.get(j, grid.cap) for j in support)
        assert cert.iterations == iterations
        assert cert.max_violation == max_violation
        if k == 1:
            # Step-creeping toward the optimum took 14 and 32 exchange steps
            # on the higher-degree rows; the simplex needs a few pivots.
            assert cert.iterations <= 2 * model.p2
        # One factor for the start (Elfving's design spread to the cap; the
        # simplex that finds it factorizes nothing), then one per accepted
        # step, which the next step reuses.
        assert len(factored) == factorizations
        assert len(set(factored)) == len(factored)


class TestOptimizeTimePlan:
    def test_reference_grid_vertex_optimum(self, table1: DegradationModel) -> None:
        design, cert = optimize_time_plan(GridSpec(J=20, k=6), table1, T_MEDIAN)
        assert design.support().points == (0.0, 0.05, 0.85, 0.90, 0.95, 1.00)
        assert all(w == pytest.approx(1 / 6, abs=1e-12) for w in design.support().weights)
        assert cert.certified
        assert cert.max_violation <= 1e-7
        assert sorted(cert.interior_set) == []
        crit = c_criterion_time(design, table1, T_MEDIAN).criterion_fixed
        assert crit == pytest.approx(0.013925197199418806, rel=1e-10)

    def test_finer_grid_improves_criterion(self, table1: DegradationModel) -> None:
        design, cert = optimize_time_plan(GridSpec(J=40, k=6), table1, T_MEDIAN)
        assert cert.certified
        crit = c_criterion_time(design, table1, T_MEDIAN).criterion_fixed
        assert crit == pytest.approx(0.012342623429880888, rel=1e-9)
        assert crit < 0.013925197199418806

    def test_callback_sees_feasible_monotone_iterates(self, table1: DegradationModel) -> None:
        grid = GridSpec(J=20, k=6)
        values: list[float] = []

        def watch(it: int, value: float, w: np.ndarray) -> None:
            assert math.fsum(w) == pytest.approx(1.0, abs=1e-9)
            assert np.all(w >= -1e-12) and np.all(w <= grid.cap + 1e-12)
            values.append(value)

        optimize_time_plan(grid, table1, T_MEDIAN, callback=watch)
        assert len(values) >= 2
        diffs = np.diff(values)
        assert np.all(diffs <= 1e-13 * np.abs(values[:-1]) + 1e-300)

    def test_iteration_budget_reported_honestly(self, table1: DegradationModel) -> None:
        # This plan needs seven exchange steps from its start; one is not enough.
        design, cert = optimize_time_plan(
            GridSpec(J=40, k=30), table1, T_MEDIAN, OptimizerConfig(max_iters=1)
        )
        assert not cert.certified
        assert cert.iterations == 1
        assert cert.max_violation > cert.tol

    def test_k_below_basis_dim_is_infeasible(self, table1: DegradationModel) -> None:
        # k = 1 is the destructive regime and stays allowed; 2 <= k < dim is not.
        quad = quadratic_model()
        with pytest.raises(InfeasibleDesignError):
            optimize_time_plan(GridSpec(J=20, k=2), quad, T_MEDIAN)
        design, _ = optimize_time_plan(GridSpec(J=50, k=1), table1, T_MEDIAN)
        assert design.support().points == (0.0, 1.0)

    def test_k1_matches_closed_form_two_point(self, table1: DegradationModel) -> None:
        # With no cap the c-optimal plan collapses to the endpoint pair, and on
        # a grid containing 0 and 1 the optimizer must land on it exactly.
        design, cert = optimize_time_plan(GridSpec(J=400, k=1), table1, T_MEDIAN)
        assert cert.certified
        sup = design.support()
        closed = two_point_extrapolation_design(table1, T_MEDIAN)
        assert sup.points == closed.points == (0.0, 1.0)
        assert sup.weights[1] == pytest.approx(closed.weights[1], rel=1e-9)

    def test_two_point_closed_form_frozen(self, table1: DegradationModel) -> None:
        closed = two_point_extrapolation_design(table1, T_MEDIAN)
        assert closed.weights[1] == pytest.approx(0.7306512679353055, rel=1e-12)
        # Weight formula t*/(2t* - 1) holds only without the 1/sigma(t) tilt;
        # here sigma_eps is constant in t so it applies.
        t = T_MEDIAN
        assert closed.weights[1] == pytest.approx(t / (2 * t - 1), rel=1e-12)


class TestKktCheck:
    def test_tau0_is_not_stationary(self, table1: DegradationModel) -> None:
        cert = kkt_check(TAU0, GridSpec(J=20, k=6), table1, T_MEDIAN)
        assert not cert.certified
        assert cert.max_violation == pytest.approx(1.02253173220477, rel=1e-9)

    def test_optimum_passes_its_own_check(self, table1: DegradationModel) -> None:
        design, _ = optimize_time_plan(GridSpec(J=20, k=6), table1, T_MEDIAN)
        cert = kkt_check(design, GridSpec(J=20, k=6), table1, T_MEDIAN)
        assert cert.certified
        assert len(cert.sensitivity) == 21

    def test_design_must_live_on_grid(self, table1: DegradationModel) -> None:
        grid = GridSpec(J=20, k=6)
        # Within 1e-9 of a grid point counts as that point.
        near = ApproximateDesign(
            points=(0.0, 0.05 - 5e-10, 0.10 + 5e-10, 0.90 + 1e-10, 0.95 - 1e-10, 1.0), weights=TAU0.weights
        )
        assert kkt_check(near, grid, table1, T_MEDIAN) == kkt_check(TAU0, grid, table1, T_MEDIAN)
        off = ApproximateDesign(points=(0.0, 0.05 + 1e-6, 1.0), weights=(0.25, 0.25, 0.5))
        with pytest.raises(ValidationError, match=f"design point {0.05 + 1e-6} is not a grid point"):
            kkt_check(off, grid, table1, T_MEDIAN)
        # The first off-grid point is the one named.
        off = ApproximateDesign(points=(0.0, 0.333, 0.6661), weights=(0.5, 0.25, 0.25))
        with pytest.raises(ValidationError, match="design point 0.333 is not a grid point"):
            kkt_check(off, grid, table1, T_MEDIAN)


    @pytest.mark.parametrize("degree, t_star", [(1, 1.0), (2, 0.25), (2, 0.5), (3, 0.25), (3, 0.5)])
    def test_cap_one_point_plan_certifies(self, table1: DegradationModel, degree: int, t_star: float) -> None:
        # At k = 1 and a grid point t* <= 1 the engine returns the one-point
        # plan at t*, whose information is singular: its check once raised.
        model = {1: table1, 2: quadratic_model(), 3: cubic_model()}[degree]
        grid = GridSpec(J=20, k=1)
        design, cert = optimize_time_plan(grid, model, t_star)
        assert design.points == (t_star,) and cert.certified
        check = kkt_check(design, grid, model, t_star)
        assert check.certified
        assert check.saturated_set == (round(t_star * 20),)
        assert check.sensitivity[round(t_star * 20)] == pytest.approx(1.0, abs=1e-12)
        assert max(check.sensitivity) <= 1.0 + 1e-12
        # A one-point plan elsewhere does not identify f2(t*).
        with pytest.raises(InfeasibleDesignError):
            kkt_check(ApproximateDesign(points=(0.1,), weights=(1.0,)), grid, model, t_star)


    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_cap_one_plans_off_the_grid_certify(self, table1: DegradationModel, degree: int) -> None:
        # t* 1e-8 off a grid point: the engine's plans keep weights near 1e-8,
        # whose nearly singular information once priced 291 quadratic and
        # 442 cubic certified plans as failing, by up to 6.1e-3.
        model = {1: table1, 2: quadratic_model(), 3: cubic_model()}[degree]
        failed = []
        for J in (8, 20, 57, 200):
            grid = GridSpec(J=J, k=1)
            for t_star in (i / J + offset for i in range(J + 1) for offset in (-1e-8, 1e-8)):
                if t_star <= 0.0:
                    continue
                design, cert = optimize_time_plan(grid, model, t_star)
                check = kkt_check(design, grid, model, t_star)
                if not (cert.certified and check.certified):
                    failed.append((J, t_star, cert.max_violation, check.max_violation))
        assert failed == []

    def test_cap_one_wrong_weights_fail(self) -> None:
        # The simplex dual prices every plan on the optimal support alike, so
        # only the criterion excess tells these weights from the optimum's.
        model, grid, t_star = cubic_model(), GridSpec(J=20, k=1), 1.5
        design, _ = optimize_time_plan(grid, model, t_star)
        assert design.points == (0.0, 0.25, 0.75, 1.0)
        equal = ApproximateDesign(points=design.points, weights=(0.25,) * 4)
        check = kkt_check(equal, grid, model, t_star)
        excess = c_criterion_time(equal, model, t_star).criterion_fixed / c_criterion_time(
            design, model, t_star
        ).criterion_fixed - 1.0
        assert not check.certified
        assert check.interior_set == (0, 5, 15, 20)
        assert max(check.sensitivity) == pytest.approx(1.0, abs=1e-12)
        assert check.max_violation == pytest.approx(excess, rel=1e-12)
        assert excess == pytest.approx(0.17455621301775, rel=1e-9)


class TestRoundToExact:
    def test_vertex_design_is_fixed_point(self, table1: DegradationModel) -> None:
        design, _ = optimize_time_plan(GridSpec(J=20, k=6), table1, T_MEDIAN)
        exact = round_to_exact(design, 6, table1, T_MEDIAN)
        assert exact.points == design.support().points
        assert all(w == pytest.approx(1 / 6, abs=1e-15) for w in exact.weights)

    def test_rounding_spread_weights(self, table1: DegradationModel) -> None:
        spread = ApproximateDesign(
            points=(0.0, 0.05, 0.10, 0.85, 0.90, 0.95, 1.00),
            weights=(1 / 6, 1 / 6, 1 / 12, 1 / 12, 1 / 6, 1 / 6, 1 / 6),
        )
        exact = round_to_exact(spread, 6, table1, T_MEDIAN)
        assert len(exact.points) == 6
        assert all(w == pytest.approx(1 / 6, abs=1e-15) for w in exact.weights)
        # Rounding resolves the split pair by criterion value, keeping 0.85.
        assert exact.points == (0.0, 0.05, 0.85, 0.90, 0.95, 1.00)

    @pytest.mark.parametrize(
        "basis, J, k, t_star, at_least",
        [
            ("quadratic", 798, 3, 7.029, 0.891),
            ("cubic", 210, 4, 6.711, 0.898),
            ("quadratic", 179, 3, 1.485, 0.904),
            ("cubic", 460, 7, 1.31, 0.949),
            ("cubic", 201, 5, 1.16, 0.882),
            ("cubic", 28, 4, 1.888, 0.885),
            # The two quadratic plans of the repeated benchmark round.
            ("quadratic", 21, 13, 9.199, 0.998),
            ("quadratic", 294, 24, 2.391, 0.998),
        ],
    )
    def test_flat_optima_round_by_criterion(self, basis: str, J: int, k: int, t_star: float, at_least: float) -> None:
        # Three or four partial points whose phi agree to the certificate's
        # tolerance: ranking them by phi kept efficiencies of 3.7e-6 to 1.5e-3
        # on the first six, and 0.983 and 0.996 on the last two.
        model = {"quadratic": quadratic_model, "cubic": cubic_model}[basis]()
        design, cert = optimize_time_plan(GridSpec(J=J, k=k), model, t_star)
        assert cert.certified
        exact = round_to_exact(design, k, model, t_star)
        assert exact.points == best_exact_rounding(design, k, model, t_star).points
        assert efficiency(exact, design, model, t_star) >= at_least

    def test_scan_rounds_near_the_best_choice(self, table1: DegradationModel) -> None:
        # 300 drawn plans of degree 1-3: dropping partial points one at a time
        # by the criterion stays within 0.3 % of every choice's best, and is
        # that best with at most two partial points, where it scores them all.
        models = {1: table1, 2: quadratic_model(), 3: cubic_model()}
        misses = []
        for degree, J, k, t_star in scan_draws(20261018):
            model = models[degree]
            design, _ = optimize_time_plan(GridSpec(J=J, k=k), model, t_star)
            exact = round_to_exact(design, k, model, t_star)
            best = best_exact_rounding(design, k, model, t_star)
            ws = np.array(design.weights)
            partial = np.count_nonzero((ws > 1e-9) & (ws < 1.0 / k - 1e-9))
            ratio = c_criterion_time(exact, model, t_star).criterion_total / c_criterion_time(
                best, model, t_star
            ).criterion_total
            if ratio > 1.003 or (partial <= 2 and exact.points != best.points):
                misses.append((degree, J, k, t_star, partial, ratio))
        assert misses == []

    def test_no_free_slot_drops_the_partial_mass(self, table1: DegradationModel) -> None:
        # Four points within the certificate's tolerance of the cap 1/4 fill
        # every slot; the partial point's 2e-7 is dropped unscored.
        near_cap = 0.25 - 5e-8
        design = ApproximateDesign(points=(0.0, 0.5, 0.6, 0.95, 1.0), weights=(near_cap,) * 2 + (2e-7,) + (near_cap,) * 2)
        exact = round_to_exact(design, 4, table1, T_MEDIAN)
        assert exact.points == (0.0, 0.5, 0.95, 1.0)
        assert exact.weights == (0.25,) * 4

    def test_k_too_small_rejected(self, table1: DegradationModel) -> None:
        with pytest.raises(ValidationError):
            round_to_exact(TAU0, 1, table1, T_MEDIAN)

    def test_k_below_one_rejected(self, table1: DegradationModel) -> None:
        with pytest.raises(ValidationError, match="k must be a positive count, got 0"):
            round_to_exact(TAU0, 0, table1, T_MEDIAN)

    def test_weight_above_the_cap_rejected(self, table1: DegradationModel) -> None:
        with pytest.raises(InfeasibleDesignError, match="exceeds the cap 1/6"):
            round_to_exact(ApproximateDesign(points=(0.0, 1.0), weights=(0.5, 0.5)), 6, table1, T_MEDIAN)

    def test_more_than_k_saturated_rejected(self, table1: DegradationModel) -> None:
        # 1/4001 lies within the certificate's tolerance of the cap 1/4000.
        n = 4001
        design = ApproximateDesign(points=tuple(np.linspace(0.0, 1.0, n).tolist()), weights=(1.0 / n,) * n)
        with pytest.raises(InfeasibleDesignError, match="more than 4000 points already saturated"):
            round_to_exact(design, 4000, table1, T_MEDIAN)

    def test_fewer_candidates_than_slots_rejected(self, table1: DegradationModel) -> None:
        # 1999 points at the cap 1/2000 leave one slot, and the free mass
        # sits on 5000 points of 1e-7, all at or below the tolerance.
        points = tuple(np.linspace(0.0, 1.0, 6999).tolist())
        design = ApproximateDesign(points=points, weights=(5e-4,) * 1999 + (1e-7,) * 5000)
        with pytest.raises(InfeasibleDesignError, match="only 1999 candidate points for 2000 slots"):
            round_to_exact(design, 2000, table1, T_MEDIAN)
