"""Independent reference computations the tests compare adtplan against.

They live outside the package on purpose: an oracle shipped inside the
code it checks is not independent of it.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
from scipy.optimize import linprog

from adtplan import (
    ApproximateDesign,
    DegradationModel,
    ProductDesign,
    SingularDesignError,
    SweepRow,
    SweepSpec,
    ValidationError,
    c_criterion_time,
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


# Right-hand-side scale of the Elfving program; see elfving_lp_oracle.
_LP_SCALE = 1e3


def elfving_lp_oracle(vectors: np.ndarray, c: np.ndarray) -> tuple[float, np.ndarray]:
    """Uncapped c-optimal criterion over the rows v_j of vectors, by linear programming.

    By Elfving's theorem the optimal c' M^-1 c over all designs on the v_j
    is (min sum_j |u_j|)^2 subject to sum_j u_j v_j = c (Elfving 1952).
    Splitting u = u+ - u- with both parts non-negative makes this a linear
    program (Harman & Jurik 2008), solved here by HiGHS.  Returns the
    criterion and u, whose nonzero entries mark an optimal support.  HiGHS
    runs at feasibility tolerances of 1e-10 instead of its default 1e-7: at
    the default, a t* within 1e-8 of a grid point gave criteria 1e-7 off.
    Its tolerances are absolute, so the program is solved for _LP_SCALE c
    and u scaled back: unscaled, t* = 1 + 6.4e-10 on the cubic basis over
    J = 8 gave a criterion 1.5e-9 below the optimum, (0.048 T_3(2t* - 1))^2.
    """
    V = np.asarray(vectors, dtype=float)
    n = V.shape[0]
    tight = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
    res = linprog(
        np.ones(2 * n),
        A_eq=np.hstack([V.T, -V.T]),
        b_eq=_LP_SCALE * np.asarray(c, dtype=float),
        bounds=(0, None),
        method="highs",
        options=tight,
    )
    if not res.success:
        raise SingularDesignError(f"the Elfving program has no solution: {res.message}")
    return (float(res.fun) / _LP_SCALE) ** 2, (res.x[:n] - res.x[n:]) / _LP_SCALE


def pattern_weights(
    vectors: np.ndarray, c: np.ndarray, cap: float, saturated: list[int], interior: list[int], signs: np.ndarray
) -> tuple[np.ndarray, float]:
    """Capped c-optimal weights with the given saturated set S and interior set I, by one linear solve.

    At a KKT point of min c' M(w)^-1 c over 0 <= w <= cap, sum w = 1, the
    vector z = M^-1 c gives every interior point the same |v_i' z| = lambda
    (Sahm & Schwabe 2001).  With the signs s_i of v_i' z fixed and
    u_i = w_i lambda, M z = c and sum_I w_i = 1 - cap |S| are linear in
    (z, u, lambda), p + |I| + 1 equations in as many unknowns:

        sum_S cap v_j v_j' z + sum_I s_i u_i v_i = c,
        s_i v_i' z = lambda                          for each i in I,
        sum_I u_i = lambda (1 - cap |S|).

    No iteration and no certificate: the system is singular when I is
    empty or has more than p points (a flat optimum).  Returns the weights
    over all rows (cap on S, u_i / lambda on I, 0 elsewhere) and lambda.
    """
    V = np.asarray(vectors, dtype=float)
    p, m = V.shape[1], len(interior)
    signed = V[interior] * np.asarray(signs, dtype=float)[:, None]
    system = np.zeros((p + m + 1, p + m + 1))
    system[:p, :p] = cap * V[saturated].T @ V[saturated]
    system[:p, p:-1], system[p:-1, :p] = signed.T, signed
    system[p:-1, -1], system[-1, p:-1], system[-1, -1] = -1.0, 1.0, cap * len(saturated) - 1.0
    x = np.linalg.solve(system, np.concatenate([c, np.zeros(m + 1)]))
    w = np.zeros(V.shape[0])
    w[saturated], w[interior] = cap, x[p:-1] / x[-1]
    return w, float(x[-1])


def best_exact_rounding(design: ApproximateDesign, k: int, model: DegradationModel, t_star: float) -> ApproximateDesign:
    """Best exact k-point plan (weights 1/k) that keeps every saturated point of design.

    Tries every choice of the free slots among the partial-weight points
    (weight in (1e-9, 1/k - 1e-9)) and scores each plan with
    c_criterion_time; the first best in lexicographic order wins.  Costs
    C(m, slots) criteria for m partial points, so test-sized plans only.
    """
    cap = 1.0 / k
    ts, ws = design.as_arrays()
    saturated = ws >= cap - 1e-9
    partial = np.flatnonzero((ws > 1e-9) & ~saturated).tolist()
    best: tuple[float, ApproximateDesign] | None = None
    for choice in itertools.combinations(partial, k - int(saturated.sum())):
        idx = sorted(np.flatnonzero(saturated).tolist() + list(choice))
        plan = ApproximateDesign(points=tuple(ts[idx].tolist()), weights=(cap,) * k)
        crit = c_criterion_time(plan, model, t_star).criterion_total
        if best is None or crit < best[0]:
            best = (crit, plan)
    if best is None:
        raise ValidationError(f"{len(partial)} partial points cannot fill the free slots of k = {k}")
    return best[1]


def scan_draws(seed: int, n: int = 300) -> list[tuple[int, int, int, float]]:
    """n capped time-plan problems (degree, J, k, t*) drawn from numpy.random.default_rng(seed).

    degree uniform on 1..3, J log-uniform on [20, 1000], k uniform on
    [max(2, degree + 1), min(50, J + 1)] and t* log-uniform on [1.05, 10],
    rounded to 3 decimals: the regimes of the repeated-measures benchmark,
    widened to the cubic basis.
    """
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(n):
        degree = int(rng.integers(1, 4))
        J = int(round(math.exp(rng.uniform(math.log(20.0), math.log(1000.0)))))
        k = int(rng.integers(max(2, degree + 1), min(50, J + 1) + 1))
        t_star = round(math.exp(rng.uniform(math.log(1.05), math.log(10.0))), 3)
        draws.append((degree, J, k, t_star))
    return draws


def low_t_draws(seed: int = 20261018, n: int = 150, t_seed: int = 5) -> list[tuple[int, int, int, float]]:
    """The first n draws of scan_draws(seed) with t* redrawn inside the horizon.

    t* is log-uniform on [0.3, 1], rounded to 3 decimals, from
    numpy.random.default_rng(t_seed): capped optima there cluster around t*,
    and the start of the exchange is a nearly one-point design.
    """
    rng = np.random.default_rng(t_seed)
    return [
        (degree, J, k, round(math.exp(rng.uniform(math.log(0.3), 0.0)), 3))
        for degree, J, k, _ in scan_draws(seed)[:n]
    ]


def low_t_grid_family() -> list[tuple[int, int, int, float]]:
    """360 capped time-plan problems (degree, J, k, t*) with t* <= 1 at round and near-grid values.

    Degrees 1-3, J in {100, 200, 500, 1000}, k in {p, p + 1, p + 2} with
    p = degree + 1, and ten t* per J: 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0,
    0.123456, 0.5 + 1e-9 and the midpoint 0.3 + 0.5/J between two grid
    points.  Some of them run the exchange to its step budget uncertified;
    engine changes report how many certify per degree.
    """
    return [
        (degree, J, k, t_star)
        for degree in (1, 2, 3)
        for J in (100, 200, 500, 1000)
        for k in range(degree + 1, degree + 4)
        for t_star in (0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0, 0.123456, 0.5 + 1e-9, 0.3 + 0.5 / J)
    ]


def info_single_obs(design: ProductDesign, model: DegradationModel) -> np.ndarray:
    """Full single-observation information of a destructive design, point by point.

    M(zeta) = sum_i eta_i v_i v_i' with v_i = f1(x_i) kron f2(t_i)/sigma(t_i):
    the p1 p2 x p1 p2 matrix whose Kronecker structure c_criterion_single_obs
    factorizes.
    """
    p = model.p1 * model.p2
    M = np.zeros((p, p))
    for (x, t), w in design.combined:
        v = np.kron(model.stress_basis.evaluate(x), weighted_f2(t, model))
        M += w * np.outer(v, v)
    return 0.5 * (M + M.T)


def kronecker_criterion_single_obs(design: ProductDesign, model: DegradationModel, t_star: float) -> float:
    """c' M(zeta)^-1 c for c = f1(x_u) kron f2(t*), by a Cholesky solve of info_single_obs."""
    c = np.kron(model.stress_basis.evaluate(model.x_u), model.time_basis.evaluate(t_star))
    y = np.linalg.solve(np.linalg.cholesky(info_single_obs(design, model)), c)
    return float(y @ y)


def efficiencies_40_digits(
    model: DegradationModel, t_star: float, taus: list[ApproximateDesign]
) -> list[float]:
    """Efficiencies of affine time designs against the local Elfving optimum, in 40-digit arithmetic.

    The shared stress factor cancels.  With q_j = w_j / sigma^2(t_j) and
    S_m = sum_j q_j t_j^m a time design scores
    (S2 - 2t S1 + t^2 S0) / (S0 S2 - S1^2), and the optimum scores
    (sigma(0)(t - 1) + sigma(1) t)^2 (Elfving 1952).
    """
    with localcontext() as ctx:
        ctx.prec = 40
        sg = [[Decimal(v) for v in row] for row in model.sigma_gamma]
        t = Decimal(t_star)

        def var(u: float) -> Decimal:
            u = Decimal(u)
            return sg[0][0] + 2 * sg[0][1] * u + sg[1][1] * u * u + Decimal(model.sigma_eps) ** 2

        best = (var(0.0).sqrt() * (t - 1) + var(1.0).sqrt() * t) ** 2
        effs = []
        for tau in taus:
            q = [(Decimal(w) / var(p), Decimal(p)) for p, w in zip(tau.points, tau.weights)]
            s0, s1, s2 = sum(qj for qj, _ in q), sum(qj * p for qj, p in q), sum(qj * p * p for qj, p in q)
            effs.append(float(best * (s0 * s2 - s1 * s1) / (s2 - 2 * t * s1 + t * t * s0)))
        return effs


def time_criterion_50_digits(design: ApproximateDesign, model: DegradationModel, t_star: float) -> float:
    """criterion_fixed of a time plan, f2(t*)' M2_0^-1 f2(t*), in 50-digit arithmetic.

    Builds M2_0 = sigma_eps^-2 sum_j w_j f2(t_j) f2(t_j)' from the exact
    binary values of the inputs and solves it by Gaussian elimination; at 50
    digits a condition number of 1e16 still leaves 34 of them.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        p = model.p2

        def f(u: float) -> list[Decimal]:
            powers = [Decimal(1)]
            for _ in range(1, p):
                powers.append(powers[-1] * Decimal(u))
            return powers

        rows = [(Decimal(w), f(u)) for u, w in zip(design.points, design.weights)]
        c = f(t_star)
        # Augmented system [M | c] with the sigma_eps^-2 scale left out and put back at the end.
        a = [[sum(w * v[r] * v[s] for w, v in rows) for s in range(p)] + [c[r]] for r in range(p)]
        for col in range(p):
            for r in range(col + 1, p):
                ratio = a[r][col] / a[col][col]
                a[r] = [x - ratio * y for x, y in zip(a[r], a[col])]
        x = [Decimal(0)] * p
        for r in reversed(range(p)):
            x[r] = (a[r][p] - sum(a[r][s] * x[s] for s in range(r + 1, p))) / a[r][r]
        return float(sum(ci * xi for ci, xi in zip(c, x)) * Decimal(model.sigma_eps) ** 2)


def time_sensitivity_exact(points: np.ndarray, weights: np.ndarray, t_star: float, degree: int) -> list[Fraction]:
    """phi_j = (c' M^-1 f(u_j))^2 / (c' M^-1 c) at every point u_j, as exact fractions.

    M = sum_j w_j f(u_j) f(u_j)' over the power basis f of the given degree
    and c = f(t_star), built from the exact binary values of the floats and
    solved by Gaussian elimination over fractions.Fraction, so nothing is
    rounded.  sigma_eps cancels from phi, so it does not enter.
    """
    p = degree + 1

    def f(u: float) -> list[Fraction]:
        return [Fraction(u) ** i for i in range(p)]

    rows = [(Fraction(w), f(u)) for u, w in zip(np.asarray(points).tolist(), np.asarray(weights).tolist())]
    c = f(t_star)
    a = [[sum(w * v[r] * v[s] for w, v in rows if w) for s in range(p)] + [c[r]] for r in range(p)]
    for col in range(p):
        for r in range(col + 1, p):
            ratio = a[r][col] / a[col][col]
            a[r] = [x - ratio * y for x, y in zip(a[r], a[col])]
    y = [Fraction(0)] * p  # y = M^-1 c
    for r in reversed(range(p)):
        y[r] = (a[r][p] - sum(a[r][s] * y[s] for s in range(r + 1, p))) / a[r][r]
    crit = sum(ci * yi for ci, yi in zip(c, y))
    return [sum(vi * yi for vi, yi in zip(v, y)) ** 2 / crit for _, v in rows]


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
        crit_local = kronecker_criterion_single_obs(local, m_true, t_true)
        effs = tuple(crit_local / kronecker_criterion_single_obs(z, m_true, t_true) for z in candidates)
        rows.append(SweepRow(a, pi1, effs))
    return rows
