"""Acceptance gate: nine numbered end-to-end criteria.

Each test prints one `criterion N: PASS/FAIL (detail)` line (with capture
suspended so the verdicts always reach the console) and then asserts.  Known
discrepancies are allowed to fail here rather than weakening a tolerance.
"""

from __future__ import annotations

import itertools
import time
from typing import Callable

import numpy as np
import pytest
from scipy.optimize import minimize

from adtplan import (
    ApproximateDesign,
    DegradationModel,
    ErrorSpec,
    GridSpec,
    PowerBasis,
    ProductDesign,
    VarianceFunction,
    assemble_V,
    c_criterion_time,
    default_sweep_spec,
    efficiency,
    elfving_stress_design,
    elfving_time_design,
    info_time_fixed_total,
    median_failure_time,
    numeric_destructive_time_design,
    optimize_time_plan,
    pi_star_from_ratio,
    product_design,
    round_to_exact,
    sweep_efficiency,
    sweep_pi_star,
    SweepSpec,
)
from conftest import TABLE1, random_affine_model
from oracles import elfving_brute_force_oracle


def _nominal() -> DegradationModel:
    return DegradationModel.affine(**TABLE1)


Verdict = Callable[[int, bool, str], None]


@pytest.fixture()
def verdict(capsys: pytest.CaptureFixture[str]) -> Verdict:
    def _report(n: int, ok: bool, detail: str) -> None:
        line = f"criterion {n}: {'PASS' if ok else 'FAIL'} ({detail})"
        with capsys.disabled():
            print(f"\n{line}", flush=True)
        assert ok, line

    return _report


def test_criterion_1_median_failure_time(verdict: Verdict) -> None:
    start = time.perf_counter()
    t_med = median_failure_time(_nominal())
    elapsed = time.perf_counter() - start
    ok = abs(t_med - 1.5838) <= 1e-3 and elapsed < 1.0
    verdict(1, ok, f"median {t_med:.6f}, target 1.5838 +/- 0.001, {elapsed:.3f}s")


def test_criterion_2_variance_decomposition(verdict: Verdict) -> None:
    start = time.perf_counter()
    rng = np.random.default_rng(1234)
    worst = 0.0
    for i in range(200):
        model = random_affine_model(rng)
        k = int(rng.integers(2, 9))
        ts = np.sort(rng.choice(np.arange(33) / 32, size=k, replace=False))
        if i % 5 == 0:
            # Correlated measurement errors exercise the full-matrix branch.
            A = rng.normal(size=(k, k))
            full = A @ A.T / k + np.eye(k) * float(rng.uniform(0.01, 0.1))
            import dataclasses

            model = dataclasses.replace(
                model, error_spec=ErrorSpec(full=tuple(map(tuple, full)))
            )
        design = ApproximateDesign(points=tuple(ts), weights=(1.0 / k,) * k)
        V = assemble_V(ts, model)
        F = model.time_basis.evaluate_many(ts)
        direct = np.linalg.inv(F.T @ np.linalg.solve(V, F))
        decomposed = np.linalg.inv(info_time_fixed_total(design, model, k)) + np.array(
            model.sigma_gamma
        )
        rel = np.linalg.norm(direct - decomposed) / np.linalg.norm(direct)
        worst = max(worst, float(rel))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 1.0
    verdict(2, ok, f"200 instances, worst relative deviation {worst:.2e}, {elapsed:.3f}s")


def test_criterion_3_constrained_optimizer_reference_case(verdict: Verdict) -> None:
    start = time.perf_counter()
    model = _nominal()
    t_star = median_failure_time(model)
    design, cert = optimize_time_plan(GridSpec(J=20, k=6), model, t_star)
    elapsed = time.perf_counter() - start
    support = design.support().points
    expected = (0.0, 0.05, 0.10, 0.85, 0.90, 0.95, 1.00)
    n_saturated = sum(1 for w in design.support().weights if abs(w - 1 / 6) <= 0.005)
    support_ok = support == expected
    ok = support_ok and n_saturated == 5 and cert.max_violation <= 1e-7 and elapsed < 5.0
    verdict(
        3,
        ok,
        f"support {tuple(round(t, 2) for t in support)} vs expected {expected}, "
        f"{n_saturated} weights at 1/6, kkt {cert.max_violation:.2e}, {elapsed:.3f}s",
    )


def test_criterion_4_rounding_and_efficiency(verdict: Verdict) -> None:
    model = _nominal()
    t_star = median_failure_time(model)
    tau0 = ApproximateDesign(
        points=(0.0, 0.05, 0.10, 0.90, 0.95, 1.00), weights=(1 / 6,) * 6
    )
    optimal, _ = optimize_time_plan(GridSpec(J=20, k=6), model, t_star)

    # Independent moment-arithmetic oracle from raw literals: the efficiency is
    # a ratio of totals  sigma_eps^2 f' M0(tau)^-1 f + f' Sigma_gamma f  with
    # M0(tau) = sum_j w_j (1,t_j)(1,t_j)'.
    s1, s2, rho, se = 0.114, 0.105, -0.143, 0.048
    sg = np.array([[s1**2, rho * s1 * s2], [rho * s1 * s2, s2**2]])
    f = np.array([1.0, t_star])

    def oracle_total(points: tuple[float, ...], weights: tuple[float, ...]) -> float:
        M0 = np.zeros((2, 2))
        for t, w in zip(points, weights):
            v = np.array([1.0, t])
            M0 += w * np.outer(v, v)
        return se**2 * float(f @ np.linalg.solve(M0, f)) + float(f @ sg @ f)

    opt_support = optimal.support()
    eff_oracle = oracle_total(opt_support.points, opt_support.weights) / oracle_total(
        tau0.points, tau0.weights
    )
    eff_library = efficiency(tau0, optimal, model, t_star)
    assert eff_library == pytest.approx(eff_oracle, rel=1e-10)

    rounded = round_to_exact(optimal, 6, model, t_star)
    rounding_ok = rounded.points == tau0.points and all(
        abs(w - 1 / 6) < 1e-9 for w in rounded.weights
    )
    eff_ok = abs(eff_library - 0.987) <= 0.007
    verdict(
        4,
        rounding_ok and eff_ok,
        f"rounded support {rounded.points}, efficiency {eff_library:.6f} "
        f"(oracle {eff_oracle:.6f}), target 0.987 +/- 0.007",
    )


def test_criterion_5_destructive_reference_numbers(verdict: Verdict) -> None:
    start = time.perf_counter()
    model = _nominal()
    t_star = median_failure_time(model)
    xi = elfving_stress_design(model)
    tau = elfving_time_design(model, t_star)
    zeta = product_design(xi, tau)
    w_star = xi.weights[1]
    pi_star = tau.weights[1]
    ratio = VarianceFunction(model).ratio_end_over_start()
    weights = tuple(w for _, w in zeta.combined)
    targets = (0.22, 0.73, 0.01, 0.04)
    elapsed = time.perf_counter() - start
    ok = (
        abs(w_star - 0.0504) <= 5e-4
        and abs(pi_star - 0.768) <= 5e-3
        and abs(ratio - 1.223) <= 5e-3
        and all(abs(w - t) <= 5e-3 for w, t in zip(weights, targets))
        and elapsed < 1.0
    )
    verdict(
        5,
        ok,
        f"w* {w_star:.4f}, pi* {pi_star:.4f}, ratio {ratio:.4f}, "
        f"zeta* {tuple(round(w, 3) for w in weights)}, {elapsed:.3f}s",
    )


def test_criterion_6_limit_behavior(verdict: Verdict) -> None:
    start = time.perf_counter()
    model = _nominal()
    ratio = VarianceFunction(model).ratio_end_over_start()
    limit_pi = pi_star_from_ratio(1e6, ratio)
    limit_ok = abs(limit_pi - 0.55) <= 1e-3

    worst = 0.0
    for t_star in (1.5, 2.0, 5.0):
        homosked = DegradationModel(
            stress_basis=PowerBasis(1),
            time_basis=PowerBasis(1),
            beta=(2.397, 1.018, 1.629, 0.0696),
            sigma_gamma=((0.0, 0.0), (0.0, 0.0)),
            error_spec=ErrorSpec(sigma_eps=0.048),
            x_u=-0.056,
            y0=3.912,
        )
        tau, cert = numeric_destructive_time_design(homosked, t_star)
        assert cert.certified
        w1 = dict(zip(tau.support().points, tau.support().weights))[1.0]
        worst = max(worst, abs(w1 - t_star / (2 * t_star - 1)))
    elapsed = time.perf_counter() - start
    ok = limit_ok and worst <= 5e-3 and elapsed < 10.0
    verdict(
        6,
        ok,
        f"pi*(1e6) {limit_pi:.5f} vs 0.55, grid-vs-formula gap {worst:.2e}, {elapsed:.3f}s",
    )


def _exhaustive_oracle(model: DegradationModel, grid: GridSpec, t_star: float) -> float:
    """Best criterion value by capped-vertex enumeration plus local refinement."""
    pts = grid.points()
    F = model.time_basis.evaluate_many(pts)
    se = model.error_spec.sigma_eps
    c = np.array(model.time_basis.evaluate(t_star))
    n, k = pts.size, grid.k

    def crit(w: np.ndarray) -> float:
        M = (F.T * w) @ F / se**2
        try:
            return float(c @ np.linalg.solve(M, c))
        except np.linalg.LinAlgError:
            return float("inf")

    vertices = []
    for sub in itertools.combinations(range(n), k):
        w = np.zeros(n)
        w[list(sub)] = 1.0 / k
        value = crit(w)
        if np.isfinite(value):
            vertices.append((value, w))
    vertices.sort(key=lambda vw: vw[0])
    best = vertices[0][0]
    for value, w0 in vertices[:3]:
        res = minimize(
            crit,
            w0,
            method="SLSQP",
            bounds=[(0.0, 1.0 / k)] * n,
            constraints=[{"type": "eq", "fun": lambda w: np.sum(w) - 1.0}],
            options={"maxiter": 500, "ftol": 1e-14},
        )
        if res.success and np.isfinite(res.fun):
            best = min(best, float(res.fun))
    return best


def test_criterion_7_small_scale_oracle_equivalence(verdict: Verdict) -> None:
    start = time.perf_counter()
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(20):
        model = random_affine_model(rng)
        J = int(rng.integers(6, 13))
        k = int(rng.integers(2, 5))
        grid = GridSpec(J=J, k=k)
        t_star = float(rng.uniform(1.2, 5.0))
        design, cert = optimize_time_plan(grid, model, t_star)
        assert cert.certified
        mine = c_criterion_time(design, model, t_star).criterion_fixed
        oracle = _exhaustive_oracle(model, grid, t_star)
        worst = max(worst, abs(mine - oracle) / oracle)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 30.0
    verdict(7, ok, f"20 models, worst relative gap {worst:.2e}, {elapsed:.3f}s")


def test_criterion_8_elfving_vs_brute_force(verdict: Verdict) -> None:
    start = time.perf_counter()
    rng = np.random.default_rng(88)
    worst = 0.0
    for _ in range(20):
        model = random_affine_model(rng)
        t_star = float(rng.uniform(1.1 + 1e-9, 6.0))
        closed = elfving_time_design(model, t_star)
        brute = elfving_brute_force_oracle(model, t_star, grid_n=401)
        assert brute.points == closed.points
        worst = max(
            worst, max(abs(a - b) for a, b in zip(brute.weights, closed.weights))
        )
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-3 and elapsed < 30.0
    verdict(8, ok, f"20 models, worst weight gap {worst:.2e}, {elapsed:.3f}s")


def test_criterion_9_sweep_qualitative_shape(verdict: Verdict) -> None:
    start = time.perf_counter()
    model = _nominal()
    t_rows = sweep_pi_star(default_sweep_spec("t_median"), model).rows
    pis_t = [r.pi_star for r in t_rows]
    decreasing = all(a > b for a, b in zip(pis_t, pis_t[1:]))

    r_rows = sweep_pi_star(default_sweep_spec("sigma_ratio"), model).rows
    pis_r = [r.pi_star for r in r_rows]
    increasing = all(a < b for a, b in zip(pis_r, pis_r[1:]))

    eff_result = sweep_efficiency(default_sweep_spec("t_median"), model)
    tau2 = eff_result.column("xi_tau2")
    tau6 = eff_result.column("xi_tau6")
    ordering = bool(np.all(tau6 < tau2))

    t_med = median_failure_time(model)
    at_nominal = sweep_efficiency(
        SweepSpec(variable="t_median", lo=t_med, hi=10.0, n_points=3), model
    ).rows[0]
    self_eff = at_nominal.efficiencies[0]
    self_ok = abs(self_eff - 1.0) <= 1e-9

    elapsed = time.perf_counter() - start
    ok = decreasing and increasing and ordering and self_ok and elapsed < 60.0
    verdict(
        9,
        ok,
        f"pi*(t) decreasing {decreasing}, pi*(ratio) increasing {increasing}, "
        f"tau6 < tau2 {ordering}, eff at nominal {self_eff:.12f}, {elapsed:.3f}s",
    )
