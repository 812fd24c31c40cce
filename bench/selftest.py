"""Self-test of the benchmark's checkers on answers known in closed form.

    python3 bench/selftest.py

Each checker must accept a correct answer and reject a wrong one.  The
test also holds run.py's metric names and units to BENCHMARK.json.  It does
not import adtplan, and pytest does not collect it.
"""

from __future__ import annotations

import json
import math
import os
import sys
from statistics import NormalDist

import numpy as np

import checks
import run
import spans

EXAMPLE1 = dict(beta=(2.397, 1.018, 1.629, 0.0696), sigma1=0.114, sigma2=0.105, rho=-0.143,
                sigma_eps=0.048, x_u=-0.056, y0=3.912)


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise AssertionError(what)
    print(f"ok  {what}")


def main() -> None:
    V = checks.power_basis([0.0, 0.5, 1.0], 2)
    c = np.array([1.0, 2.0])

    # Half-half on {0, 1}: M^-1 = [[2, -2], [-2, 4]], so c' M^-1 c = 2 - 8 + 16.
    expect(abs(checks.c_value(V, np.array([0.5, 0.0, 0.5]), c) - 10.0) < 1e-12, "c' M^-1 c of a two-point design")
    # c = -1 * (1, 0) + 2 * (1, 1): Elfving value (1 + 2)^2 at weights 1/3, 2/3.
    expect(abs(checks.elfving_two_point_value(V, c) - 9.0) < 1e-12, "Elfving two-point value")
    opt = np.array([1.0 / 3.0, 0.0, 2.0 / 3.0])
    expect(abs(checks.c_value(V, opt, c) - 9.0) < 1e-12, "Elfving weights attain the Elfving value")
    expect(not checks.kkt_ordering(checks.sensitivities(V, opt, c), opt, 1.0), "optimal design passes the KKT ordering")
    bad = np.array([0.5, 0.0, 0.5])
    expect(bool(checks.kkt_ordering(checks.sensitivities(V, bad, c), bad, 1.0)), "suboptimal design fails the KKT ordering")

    # Capped at 1/2, the uncapped weight 2/3 at t = 1 is cut: the optimum is
    # {0, 1} at 1/2 each, phi = (0.4, 0.1, 1.6), saturated points above the zero one.
    vertex = np.array([0.5, 0.0, 0.5])
    expect(not checks.kkt_ordering(checks.sensitivities(V, vertex, c), vertex, 0.5), "capped vertex optimum passes")
    wrong = np.array([0.0, 0.5, 0.5])
    expect(bool(checks.kkt_ordering(checks.sensitivities(V, wrong, c), wrong, 0.5)), "wrong capped vertex fails")
    expect(not checks.feasibility(vertex, 0.5), "feasible weights pass")
    expect(bool(checks.feasibility(np.array([0.6, 0.4, 0.0]), 0.5)), "weight above the cap fails")
    expect(bool(checks.feasibility(np.array([0.5, 0.4, 0.0]), 0.5)), "weights not summing to 1 fail")

    # Quantile: solve h(t) = z by bisection here and hand the root to the check.
    alpha = 0.3
    z = NormalDist().inv_cdf(alpha)
    lo, hi = 0.0, 10.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if checks.affine_margin(EXAMPLE1, mid) < z else (lo, mid)
    expect(not checks.check_quantile(EXAMPLE1, alpha, lo), "quantile root passes Phi(h(t)) = alpha")
    expect(bool(checks.check_quantile(EXAMPLE1, alpha, lo + 0.01)), "a shifted quantile fails")
    # The affine median needs no root: (y0 - delta_1) / delta_2.
    b00, b01, b10, b11 = EXAMPLE1["beta"]
    t_med = (EXAMPLE1["y0"] - b00 - b10 * EXAMPLE1["x_u"]) / (b01 + b11 * EXAMPLE1["x_u"])
    expect(not checks.check_quantile(EXAMPLE1, 0.5, t_med), "closed-form median passes")

    # Destructive: the Elfving pair with pi* from its closed form.
    s1, s2, rho = EXAMPLE1["sigma1"], EXAMPLE1["sigma2"], EXAMPLE1["rho"]
    mv = {"sigma_eps": EXAMPLE1["sigma_eps"], "sigma_gamma": [[s1 * s1, rho * s1 * s2], [rho * s1 * s2, s2 * s2]]}
    r = float(np.divide(*checks.obs_sigma(mv, [1.0, 0.0])))
    p = checks.pi_star(t_med, r)
    expect(abs(checks.pi_star(2.0, 1.0) - 2.0 / 3.0) < 1e-15, "pi* = t r / (t r + t - 1)")
    good = {"points": (0.0, 1.0), "weights": (1.0 - p, p), "certified": True}
    expect(not checks.check_numeric_destructive(mv, t_med, 400, good), "closed-form destructive design passes")
    off = {"points": (0.0, 1.0), "weights": (0.5, 0.5), "certified": True}
    expect(bool(checks.check_numeric_destructive(mv, t_med, 400, off)), "a wrong destructive design fails")
    inner = {"points": (0.0, 0.5), "weights": (1.0 - p, p), "certified": True}
    expect(bool(checks.check_numeric_destructive(mv, t_med, 400, inner)), "a design off the endpoints fails")

    # Ratio reparameterisation reproduces the requested ratio.
    for target in (0.6, 1.0, 1.5):
        m = checks.ratio_model(mv, target)
        got = float(np.divide(*checks.obs_sigma(m, [1.0, 0.0])))
        expect(abs(got - target) < 1e-12, f"ratio model hits sigma(1)/sigma(0) = {target}")
    expect(checks.ratio_model(mv, 50.0) is None, "an unreachable ratio is reported")

    # Elfving product design and candidate efficiencies at the nominal point.
    stress = (abs(1.0 - EXAMPLE1["x_u"]) + abs(EXAMPLE1["x_u"])) ** 2
    best = checks._optimal_time_criterion(mv, t_med)
    effs = {name: best / checks._time_criterion(mv, pts, wts, t_med)
            for name, (pts, wts) in checks.candidate_time_designs(mv, t_med).items()}
    w1 = abs(EXAMPLE1["x_u"]) / (abs(EXAMPLE1["x_u"]) + abs(1.0 - EXAMPLE1["x_u"]))
    result = {"pi_star": p, "stress_weight_1": w1, "criterion": stress * best, "efficiencies": effs}
    expect(abs(effs["zeta_star_nominal"] - 1.0) < 1e-12, "self-efficiency of zeta* is 1")
    expect(not checks.check_elfving(mv, EXAMPLE1["x_u"], t_med, result), "Elfving product design passes")
    expect(bool(checks.check_elfving(mv, EXAMPLE1["x_u"], t_med, dict(result, criterion=1.01 * stress * best))),
           "a wrong product criterion fails")

    # Plan CSV and the check report.
    plan = "t,weight,sensitivity,saturated\n" + "".join(f"{j / 20!r},{1 / 6!r},1.0,true\n" for j in (0, 1, 17, 18, 19, 20))
    expect(not checks.check_plan_csv(plan, 20, 6), "feasible plan CSV passes")
    expect(bool(checks.check_plan_csv(plan.replace("0.85,", "0.851,"), 20, 6)), "off-grid plan CSV fails")
    expect(not checks.check_check_report({"kkt_pass": "true", "efficiency": "1.0"}), "check report of an optimum passes")
    expect(bool(checks.check_check_report({"kkt_pass": "false", "efficiency": "1.0"})), "failed KKT in the report fails")

    # Metric names and units agree with BENCHMARK.json.
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    expect(e2e == run.END_TO_END_UNITS, "end-to-end metrics and units match BENCHMARK.json")
    layer_names = list(spans.import_times("")) + list(spans.Tracer().metrics(1)) + ["trace.overhead_ratio"]
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    expect(layers == {n: run.per_layer_units(n) for n in layer_names}, "per-layer metrics and units match BENCHMARK.json")
    expect(all(not math.isnan(v) for v in spans.Tracer().metrics(1).values()), "an empty trace gives numbers")


if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    main()
    print("selftest passed")
