"""Independent reference computations the tests compare adtplan against.

They live outside the package on purpose: an oracle shipped inside the
code it checks is not independent of it.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from adtplan import (
    ApproximateDesign,
    DegradationModel,
    SingularDesignError,
    SweepRow,
    SweepSpec,
    ValidationError,
    c_criterion_single_obs,
    elfving_stress_design,
    elfving_time_design,
    median_failure_time,
    pi_star_from_ratio,
    product_design,
    sigma_gamma_from_sd_corr,
    uniform_time_design,
    vary_ratio_via_rho,
    weighted_f2,
)


def two_point_extrapolation_design(model: DegradationModel, t_star: float) -> ApproximateDesign:
    """Unconstrained c-optimal plan for affine paths: endpoints {0, 1} only.

    pi(1) = t*/(2 t* - 1), pi(0) = (t* - 1)/(2 t* - 1); requires t* >= 1
    (extrapolation beyond the horizon).  Decays to one point at t* = 1 and
    approaches the balanced design as t* grows.
    """
    if not model.time_basis.is_affine:
        raise ValidationError("closed-form two-point plan requires the affine time basis")
    if not model.error_spec.is_homoscedastic:
        raise ValidationError("closed-form two-point plan requires homoscedastic errors")
    if t_star < 1.0:
        raise ValidationError(
            f"t_star = {t_star} < 1 is interpolation; use the grid optimizer instead"
        )
    pi1 = t_star / (2.0 * t_star - 1.0)
    return ApproximateDesign(points=(0.0, 1.0), weights=(1.0 - pi1, pi1))


def elfving_brute_force_oracle(model: DegradationModel, t_star: float, grid_n: int) -> ApproximateDesign:
    """Best two-point weighted time design by exhaustive support search.

    For every support pair (a, b) on a grid_n-point grid the target vector is
    expanded as c = alpha v_a + beta v_b in the weighted basis; the c-optimal
    weights are then |alpha| : |beta| with criterion value (|alpha| + |beta|)^2.
    Validation oracle for the closed-form Elfving constructions; quadratic in
    grid_n, so test-sized grids only.
    """
    if grid_n < 2:
        raise ValidationError(f"grid_n must be at least 2, got {grid_n}")
    if model.time_basis.dim != 2:
        raise ValidationError("two-point oracle applies to two-parameter time bases")
    ts = np.arange(grid_n) / (grid_n - 1)
    vs = np.array([weighted_f2(t, model) for t in ts])
    c = model.time_basis.evaluate(t_star)
    best: tuple[float, int, int, float] | None = None
    for i in range(grid_n):
        for j in range(i + 1, grid_n):
            A = np.column_stack([vs[i], vs[j]])
            det = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
            if abs(det) < 1e-14:
                continue
            alpha = (c[0] * A[1, 1] - c[1] * A[0, 1]) / det
            beta = (A[0, 0] * c[1] - A[1, 0] * c[0]) / det
            value = (abs(alpha) + abs(beta)) ** 2
            if best is None or value < best[0] * (1.0 - 1e-15):
                w_i = abs(alpha) / (abs(alpha) + abs(beta))
                best = (value, i, j, w_i)
    if best is None:
        raise SingularDesignError("no support pair spans the target direction")
    _, i, j, w_i = best
    return ApproximateDesign(points=(float(ts[i]), float(ts[j])), weights=(w_i, 1.0 - w_i))


def _ratio_model(target_ratio: float, model: DegradationModel) -> DegradationModel | None:
    """Scalar rho reparameterization of vary_ratio_via_rho; None where |rho| > 1 + 1e-12."""
    s2 = math.sqrt(model.sigma_gamma_matrix()[1, 1])
    if s2 == 0.0:
        return None
    se = model.sigma_eps
    s1 = math.sqrt(s2**2 + se**2)
    rho = (target_ratio**2 * (s1**2 + se**2) - s1**2 - s2**2 - se**2) / (2.0 * s1 * s2)
    if abs(rho) > 1.0 + 1e-12:
        return None
    rho = min(1.0, max(-1.0, rho))
    return dataclasses.replace(model, sigma_gamma=sigma_gamma_from_sd_corr(s1, s2, rho))


def sweep_rows_reference(spec: SweepSpec, model: DegradationModel) -> list[SweepRow]:
    """sweep_efficiency row by row through 4x4 product-design information matrices.

    Each row builds the local Elfving product design and every candidate as
    a ProductDesign and takes c' M^-1 c of each, stress factor included: the
    scalar reference the closed-form sweep is checked against.
    """
    if spec.variable == "t_median":
        base = model if spec.held_fixed is None else vary_ratio_via_rho(spec.held_fixed, model)
        t_nom = median_failure_time(base)
    else:
        base = model
        t_nom = median_failure_time(model) if spec.held_fixed is None else spec.held_fixed
    xi = elfving_stress_design(base)
    taus = {
        "zeta_star_nominal": elfving_time_design(base, t_nom),
        "xi_tau2": uniform_time_design(2),
        "xi_tau6": uniform_time_design(6),
    }
    candidates = [product_design(xi, taus[name]) for name in spec.candidates]
    rows = []
    for a in spec.abscissae():
        a = float(a)
        if spec.variable == "t_median":
            m_true, t_true = base, a
            pi1 = elfving_time_design(base, a).weights[1]
        else:
            m_true, t_true = _ratio_model(a, base), t_nom
            pi1 = pi_star_from_ratio(t_nom, a)
            if m_true is None:
                rows.append(SweepRow(a, pi1, (math.nan,) * len(candidates), reachable=False))
                continue
        local = product_design(xi, elfving_time_design(m_true, t_true))
        crit_local = c_criterion_single_obs(local, m_true, t_true)
        effs = tuple(crit_local / c_criterion_single_obs(z, m_true, t_true) for z in candidates)
        rows.append(SweepRow(a, pi1, effs))
    return rows
