"""Output checks computed apart from adtplan.

Everything here uses numpy and statistics.NormalDist only; it never imports
the package, so a fault in adtplan cannot hide itself by agreeing with its
own arithmetic.  Each check returns a list of problems, empty when the
output is correct.

The two results the checks rest on:

* the equivalence theorem for bounded designs (Sahm & Schwabe 2001): a
  design with weights capped at 1/k is c-optimal iff the sensitivity
  phi_j = (c' M^-1 v_j)^2 / (c' M^-1 c) is largest on saturated points,
  constant on interior points and smallest on zero-weight points;
* Elfving's two-point characterisation (Elfving 1952): for a two-parameter
  regression the uncapped c-optimal value is min over support pairs of
  (|alpha| + |beta|)^2 with c = alpha v_a + beta v_b, at weights
  |alpha| : |beta|.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

# Tolerance on sensitivities, which are O(1) numbers.
PHI_TOL = 1e-6
# Weights within this of 0 or of the cap count as zero or saturated.
WEIGHT_TOL = 1e-7
# Relative tolerance for recomputed criterion values and efficiencies.
REL_TOL = 1e-9


def power_basis(ts, dim: int) -> np.ndarray:
    """Rows (1, t, ..., t^(dim-1)) for each t."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    return ts[:, None] ** np.arange(dim)[None, :]


def c_value(vectors: np.ndarray, weights: np.ndarray, c: np.ndarray) -> float:
    """c' M^-1 c with M = sum_j w_j v_j v_j'."""
    M = (vectors * weights[:, None]).T @ vectors
    return float(c @ np.linalg.solve(M, c))


def sensitivities(vectors: np.ndarray, weights: np.ndarray, c: np.ndarray) -> np.ndarray:
    M = (vectors * weights[:, None]).T @ vectors
    Minv_c = np.linalg.solve(M, c)
    b = vectors @ Minv_c
    return b * b / float(c @ Minv_c)


def elfving_two_point_value(vectors: np.ndarray, c: np.ndarray) -> float:
    """Smallest (|alpha| + |beta|)^2 over all pairs with c = alpha v_a + beta v_b."""
    if vectors.shape[1] != 2:
        raise ValueError("the two-point value applies to two-parameter regressions")
    # One row of pairs at a time: a full pair table of a 1000-point grid would
    # dominate the peak memory of the benchmark process.
    best = np.inf
    for a in range(vectors.shape[0] - 1):
        va, vb = vectors[a], vectors[a + 1:]
        det = va[0] * vb[:, 1] - va[1] * vb[:, 0]
        ok = np.abs(det) > 1e-14
        alpha = (c[0] * vb[ok, 1] - c[1] * vb[ok, 0]) / det[ok]
        beta = (va[0] * c[1] - va[1] * c[0]) / det[ok]
        if alpha.size:
            best = min(best, float(np.min((np.abs(alpha) + np.abs(beta)) ** 2)))
    return best


def on_grid(points, J: int) -> np.ndarray:
    """Grid indices of design points on {j/J}; raises ValueError off the grid."""
    idx = np.rint(np.asarray(points, dtype=float) * J).astype(int)
    if np.any(np.abs(idx / J - np.asarray(points, dtype=float)) > 1e-9) or np.any((idx < 0) | (idx > J)):
        raise ValueError("design point off the grid")
    return idx


def feasibility(weights: np.ndarray, cap: float) -> list[str]:
    problems = []
    if np.any(weights < 0.0):
        problems.append(f"negative weight {weights.min()!r}")
    if np.any(weights > cap + 1e-12):
        problems.append(f"weight {weights.max()!r} above the cap {cap!r}")
    if abs(math.fsum(weights) - 1.0) > 1e-9:
        problems.append(f"weights sum to {math.fsum(weights)!r}")
    return problems


def kkt_ordering(phi: np.ndarray, weights: np.ndarray, cap: float) -> list[str]:
    """Bounded-design equivalence theorem: saturated >= interior (equal) >= zero."""
    sat = weights >= cap - WEIGHT_TOL
    zero = (weights <= WEIGHT_TOL) & ~sat
    inner = ~sat & ~zero
    problems = []
    lo_sat = phi[sat].min() if sat.any() else math.inf
    hi_zero = phi[zero].max() if zero.any() else -math.inf
    if inner.any():
        if phi[inner].max() - phi[inner].min() > PHI_TOL:
            problems.append(f"interior sensitivities differ by {phi[inner].max() - phi[inner].min():.3g}")
        if phi[inner].max() > lo_sat + PHI_TOL:
            problems.append("an interior point beats a saturated one")
        if hi_zero > phi[inner].min() + PHI_TOL:
            problems.append("a zero-weight point beats an interior one")
    elif hi_zero > lo_sat + PHI_TOL:
        problems.append("a zero-weight point beats a saturated one")
    return problems


def check_repeated(case, model_values, result) -> list[str]:
    """A capped time plan, its exact rounding and their criteria.

    case: dim, J, k, t_star.  model_values: sigma_eps and sigma_gamma (the
    random-effect covariance as nested lists).  result: the plan's points
    and weights, the certificate's flag, the exact plan's points and
    weights, the package's criterion_total of the exact plan and its
    efficiency against the capped plan.
    """
    dim, J, k, t_star = case["dim"], case["J"], case["k"], case["t_star"]
    cap = 1.0 / k
    grid = np.arange(J + 1) / J
    V = power_basis(grid, dim) / model_values["sigma_eps"]
    c = power_basis([t_star], dim)[0]
    problems = []
    if not result["certified"]:
        problems.append("plan not certified")
    if not result["kkt_pass"]:
        problems.append("kkt_check fails on the returned plan")
    w = np.zeros(J + 1)
    try:
        w[on_grid(result["points"], J)] = result["weights"]
    except ValueError as e:
        return problems + [f"plan: {e}"]
    problems += feasibility(w, cap)
    problems += kkt_ordering(sensitivities(V, w, c), w, cap)
    crit = c_value(V, w, c)

    exact = np.zeros(J + 1)
    try:
        exact[on_grid(result["exact_points"], J)] = result["exact_weights"]
    except ValueError as e:
        return problems + [f"exact plan: {e}"]
    if np.count_nonzero(exact) != k or np.any(np.abs(exact[exact > 0] - cap) > 1e-12):
        problems.append("exact plan is not k points at weight 1/k")
    crit_exact = c_value(V, exact, c)
    if crit > crit_exact * (1.0 + REL_TOL):
        problems.append(f"criterion {crit!r} above the rounded plan's {crit_exact!r}")
    if dim == 2:
        elf = elfving_two_point_value(V, c)
        if crit < elf * (1.0 - REL_TOL):
            problems.append(f"criterion {crit!r} below the uncapped Elfving value {elf!r}")
    f = power_basis([t_star], dim)[0]
    random_part = float(f @ np.asarray(model_values["sigma_gamma"]) @ f)
    total_exact = crit_exact + random_part
    if abs(result["exact_total"] - total_exact) > REL_TOL * total_exact:
        problems.append(f"exact criterion {result['exact_total']!r}, recomputed {total_exact!r}")
    eff = (crit + random_part) / total_exact
    if abs(result["efficiency"] - eff) > REL_TOL or not (0.0 < result["efficiency"] <= 1.0 + 1e-12):
        problems.append(f"efficiency {result['efficiency']!r}, recomputed {eff!r}")
    return problems


def obs_sigma(model_values, t):
    """sigma(t) = sqrt(f2(t)' Sigma_gamma f2(t) + sigma_eps^2), f2 of Sigma_gamma's dimension."""
    f = power_basis(t, len(model_values["sigma_gamma"]))
    sg = np.asarray(model_values["sigma_gamma"])
    return np.sqrt(np.einsum("ij,jk,ik->i", f, sg, f) + model_values["sigma_eps"] ** 2)


def pi_star(t_star: float, ratio: float) -> float:
    return t_star * ratio / (t_star * ratio + t_star - 1.0)


def check_numeric_destructive(model_values, t_star: float, J: int, result) -> list[str]:
    """Cap-1 grid design on the weighted basis f2(t)/sigma(t).

    Without a cap the equivalence theorem reads max_j phi_j <= 1, with
    equality on the support.  On affine models the design must also be the
    Elfving endpoint pair with pi* = t* r / (t* r + t* - 1), r = sigma(1)/sigma(0).
    """
    dim = len(model_values["sigma_gamma"])
    grid = np.arange(J + 1) / J
    V = power_basis(grid, dim) / obs_sigma(model_values, grid)[:, None]
    c = power_basis([t_star], dim)[0]
    w = np.zeros(J + 1)
    try:
        w[on_grid(result["points"], J)] = result["weights"]
    except ValueError as e:
        return [f"design: {e}"]
    problems = feasibility(w, 1.0)
    if not result["certified"]:
        problems.append("design not certified")
    phi_max = float(sensitivities(V, w, c).max())
    if phi_max > 1.0 + PHI_TOL:
        problems.append(f"max sensitivity {phi_max!r} above 1")
    if dim == 2:
        s0, s1 = obs_sigma(model_values, [0.0, 1.0])
        expect = pi_star(t_star, s1 / s0)
        support = [t for t, wt in zip(result["points"], result["weights"]) if wt > WEIGHT_TOL]
        if support != [0.0, 1.0]:
            problems.append(f"support {support} is not the endpoint pair")
        elif abs(w[-1] - expect) > 1e-6:
            problems.append(f"pi* {w[-1]!r}, closed form {expect!r}")
    return problems


def _time_criterion(model_values, points, weights, t_star: float) -> float:
    """c2' M2~(tau)^-1 c2 on the weighted time basis (stress factor left out)."""
    V = power_basis(points, 2) / obs_sigma(model_values, points)[:, None]
    return c_value(V, np.asarray(weights, dtype=float), power_basis([t_star], 2)[0])


def _optimal_time_criterion(model_values, t_star: float) -> float:
    """Elfving value of the endpoint pair, the local optimum for t* > 1."""
    V = power_basis([0.0, 1.0], 2) / obs_sigma(model_values, [0.0, 1.0])[:, None]
    return elfving_two_point_value(V, power_basis([t_star], 2)[0])


def candidate_time_designs(model_values, t_nominal: float) -> dict[str, tuple[list[float], list[float]]]:
    """Time marginals of the three sweep candidates, built at the nominal values."""
    s0, s1 = obs_sigma(model_values, [0.0, 1.0])
    p = pi_star(t_nominal, s1 / s0)
    return {
        "zeta_star_nominal": ([0.0, 1.0], [1.0 - p, p]),
        "xi_tau2": ([0.0, 1.0], [0.5, 0.5]),
        "xi_tau6": ([j / 5 for j in range(6)], [1.0 / 6] * 6),
    }


def ratio_model(model_values, ratio: float):
    """Covariance that gives sigma(1)/sigma(0) = ratio with sigma1^2 = sigma2^2 + sigma_eps^2.

    Returns None where |rho| would exceed 1.
    """
    s2 = math.sqrt(model_values["sigma_gamma"][1][1])
    se = model_values["sigma_eps"]
    s1 = math.sqrt(s2 * s2 + se * se)
    rho = (ratio * ratio * (s1 * s1 + se * se) - s1 * s1 - s2 * s2 - se * se) / (2.0 * s1 * s2)
    if abs(rho) > 1.0 + 1e-12:
        return None
    rho = max(-1.0, min(1.0, rho))
    cov = rho * s1 * s2
    return {"sigma_eps": se, "sigma_gamma": [[s1 * s1, cov], [cov, s2 * s2]]}


def check_sweep(model_values, t_nominal: float, variable: str, nominal_index: int, rows, sample) -> list[str]:
    """Sweep rows: efficiencies in (0, 1], self-efficiency 1 at the nominal
    abscissa, pi* from its closed form, and sampled rows recomputed.

    rows: (abscissa, pi_star, efficiencies, reachable) in candidate order
    zeta_star_nominal, xi_tau2, xi_tau6.
    """
    problems = []
    names = ("zeta_star_nominal", "xi_tau2", "xi_tau6")
    s0, s1 = obs_sigma(model_values, [0.0, 1.0])
    for a, pi1, effs, reachable in rows:
        if not reachable:
            continue
        if not all(0.0 < e <= 1.0 + 1e-9 for e in effs):
            problems.append(f"efficiency outside (0, 1] at {a!r}: {effs}")
            break
    self_eff = rows[nominal_index][2][0]
    if abs(self_eff - 1.0) > 1e-9:
        problems.append(f"self-efficiency of zeta* at the nominal abscissa is {self_eff!r}")
    designs = candidate_time_designs(model_values, t_nominal)
    for i in sample:
        a, pi1, effs, reachable = rows[i]
        if variable == "t_median":
            truth, t_true, expect_pi = model_values, a, pi_star(a, s1 / s0)
        else:
            truth, t_true, expect_pi = ratio_model(model_values, a), t_nominal, pi_star(t_nominal, a)
        if abs(pi1 - expect_pi) > REL_TOL:
            problems.append(f"pi* {pi1!r} at {a!r}, closed form {expect_pi!r}")
        if truth is None:
            if reachable:
                problems.append(f"ratio {a!r} is out of reach but the row is flagged reachable")
            continue
        if not reachable:
            problems.append(f"ratio {a!r} is reachable but the row is flagged unreachable")
            continue
        best = _optimal_time_criterion(truth, t_true)
        for name, eff in zip(names, effs):
            expect = best / _time_criterion(truth, *designs[name], t_true)
            if abs(eff - expect) > REL_TOL:
                problems.append(f"{name} efficiency {eff!r} at {a!r}, recomputed {expect!r}")
    return problems


def check_pi_star_sweep(model_values, t_nominal: float, variable: str, rows) -> list[str]:
    s0, s1 = obs_sigma(model_values, [0.0, 1.0])
    for a, pi1 in rows:
        expect = pi_star(a, s1 / s0) if variable == "t_median" else pi_star(t_nominal, a)
        if abs(pi1 - expect) > REL_TOL:
            return [f"pi* {pi1!r} at {a!r}, closed form {expect!r}"]
    return []


def check_elfving(model_values, x_u: float, t_star: float, result) -> list[str]:
    """Elfving product design: both marginals, its criterion and the candidates' efficiencies."""
    problems = []
    s0, s1 = obs_sigma(model_values, [0.0, 1.0])
    if abs(result["pi_star"] - pi_star(t_star, s1 / s0)) > REL_TOL:
        problems.append(f"pi* {result['pi_star']!r}, closed form {pi_star(t_star, s1 / s0)!r}")
    w1 = abs(x_u) / (abs(x_u) + abs(1.0 - x_u)) if x_u < 0.0 else (1.0 - (x_u - 1.0) / (2.0 * x_u - 1.0))
    if abs(result["stress_weight_1"] - w1) > REL_TOL:
        problems.append(f"stress weight {result['stress_weight_1']!r}, closed form {w1!r}")
    # Stress factor by Elfving on {0, 1}: f1(x_u) = alpha f1(0) + beta f1(1).
    stress = (abs(1.0 - x_u) + abs(x_u)) ** 2
    expect = stress * _optimal_time_criterion(model_values, t_star)
    if abs(result["criterion"] - expect) > REL_TOL * expect:
        problems.append(f"criterion {result['criterion']!r}, Elfving value {expect!r}")
    designs = candidate_time_designs(model_values, t_star)
    best = _optimal_time_criterion(model_values, t_star)
    for name, eff in result["efficiencies"].items():
        want = best / _time_criterion(model_values, *designs[name], t_star)
        if abs(eff - want) > REL_TOL or not (0.0 < eff <= 1.0 + 1e-9):
            problems.append(f"{name} efficiency {eff!r}, recomputed {want!r}")
    return problems


def affine_margin(values, t: float) -> float:
    """h(t) = (mu(t) - y0) / sigma_u(t) for an affine scenario's nominal values."""
    b00, b01, b10, b11 = values["beta"]
    d1, d2 = b00 + b10 * values["x_u"], b01 + b11 * values["x_u"]
    s1, s2, rho = values["sigma1"], values["sigma2"], values["rho"]
    var = s1 * s1 + 2.0 * rho * s1 * s2 * t + s2 * s2 * t * t
    return (d1 + d2 * t - values["y0"]) / math.sqrt(var)


def check_quantile(values, alpha: float, t_alpha: float) -> list[str]:
    p = NormalDist().cdf(affine_margin(values, t_alpha))
    if abs(p - alpha) > 1e-9:
        return [f"Phi(h(t_alpha)) = {p!r}, expected {alpha!r}"]
    return []


def check_plan_csv(text: str, J: int, k: int) -> list[str]:
    lines = text.strip().splitlines()
    if not lines or lines[0].split(",")[:2] != ["t", "weight"]:
        return ["plan CSV lacks a t,weight header"]
    rows = [line.split(",") for line in lines[1:]]
    try:
        points = [float(r[0]) for r in rows]
        weights = np.array([float(r[1]) for r in rows])
        on_grid(points, J)
    except (ValueError, IndexError) as e:
        return [f"plan CSV: {e}"]
    return feasibility(weights, 1.0 / k)


def check_check_report(report: dict[str, str]) -> list[str]:
    problems = []
    if report.get("kkt_pass") != "true":
        problems.append(f"check reports kkt_pass,{report.get('kkt_pass')}")
    eff = float(report.get("efficiency", "nan"))
    if not abs(eff - 1.0) <= 1e-9:
        problems.append(f"check reports efficiency {eff!r} on the optimal plan")
    return problems
