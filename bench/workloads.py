"""Inputs and operations of the three workloads.

An operation is one closed-loop call sequence into adtplan.  Its run()
returns plain numbers and tuples for the checks in checks.py; it fails when
adtplan raises, or when it returns a plan with a dust support point (a
weight below the certificate's weight tolerance).  A round is the fixed
list of operations of a workload; runs repeat whole rounds.

--seed draws the model values (coefficients, random-effect covariance, use
stress, quantile level, the scenario files of the cli workload).  The
repeated-measures cases and the higher-degree numeric designs of the
destructive workload are fixed by the case tables below.  A repeated-measures
plan depends on the model only through the time basis, sigma_eps and t*, so
there the seeded values move every criterion and efficiency the checks
recompute but not the work the solver does.  The destructive workload's
affine models are seeded, median and all, so the t* of their cap-1 designs
and the ranges of their sweeps move with the seed, and the solver's
iterations on them can too.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks
from adtplan import (
    DegradationModel,
    ErrorSpec,
    GridSpec,
    PowerBasis,
    SweepSpec,
    VarianceFunction,
    c_criterion_single_obs,
    c_criterion_time,
    efficiency,
    elfving_stress_design,
    elfving_time_design,
    kkt_check,
    median_failure_time,
    numeric_destructive_time_design,
    optimize_time_plan,
    product_design,
    reachable_ratio_interval,
    round_to_exact,
    sweep_efficiency,
    sweep_pi_star,
    uniform_time_design,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXAMPLE1_PATH = os.path.join(ROOT, "scenarios", "example1.scenario")

EXAMPLE1 = dict(
    beta=(2.397, 1.018, 1.629, 0.0696),
    sigma1=0.114,
    sigma2=0.105,
    rho=-0.143,
    sigma_eps=0.048,
    x_u=-0.056,
    y0=3.912,
)

# Repeated-measures cases (time-basis dimension, J, k, t*).  Drawn with
# numpy.random.default_rng(211006114): dimension 2 or 3 with equal odds, J
# log-uniform on [20, 1000], k uniform on [max(2, dim), min(50, J + 1)], t*
# log-uniform on [1.1, 10] rounded to 3 decimals.  catalogue.py made this
# table: it skips draws that the engine does not certify within 300
# iterations (with the default budget of 100000 they run for tens of
# minutes) and draws that take over 3 s, and keeps draws in order until their
# solve times add up to 6 s.  Times are of the machine in README.md.
REPEATED_CASES: tuple[tuple[int, int, int, float], ...] = (
    (2, 736, 44, 5.267),  # 245 ms, 25 iterations
    (3, 21, 13, 9.199),  # 152 ms, 25 iterations
    (2, 28, 28, 1.587),  # 126 ms, 25 iterations dust
    (3, 294, 24, 2.391),  # 2113 ms, 50 iterations
    (2, 715, 31, 3.003),  # 267 ms, 25 iterations
    (3, 62, 7, 1.343),  # 78 ms, 25 iterations
    (2, 549, 10, 9.575),  # 1202 ms, 50 iterations
    (2, 201, 43, 1.675),  # 419 ms, 25 iterations
    (2, 287, 36, 1.648),  # 428 ms, 25 iterations
    (2, 393, 41, 5.231),  # 258 ms, 25 iterations
    (2, 998, 35, 2.231),  # 230 ms, 25 iterations
    (2, 294, 22, 2.576),  # 248 ms, 25 iterations
    (2, 84, 8, 1.373),  # 191 ms, 25 iterations
)

# Dust support point: a 7th point t = 0.75 with weight 8.3e-17 on example1.
DUST_CASE = (2, 20, 6, 1.1)

# Destructive numeric designs at J = 400 on fixed higher-degree models that
# the cap-1 engine certifies: (time-basis degree, random-effect sds, t*).
QUADRATIC_BETA = (2.397, 1.018, 0.5, 1.629, 0.0696, 0.02)
CUBIC_BETA = (2.397, 1.018, 0.5, 0.1, 1.629, 0.0696, 0.02, 0.01)
NUMERIC_CASES = (
    (2, (0.114, 0.105, 0.05), 1.1),
    (2, (0.114, 0.105, 0.05), 1.2),
    (2, (0.114, 0.105, 0.05), 1.3),
    (3, (0.1, 0.1, 0.05, 0.05), 1.05),
)
# ValueError from brentq: the quadratic model of the timeplan tests at its
# median t* = 1.0458 on J = 100.
FAULT_NUMERIC = (2, (0.114, 0.105, 0.05), 100)

# Seeded affine models of a destructive round.
DESTRUCTIVE_MODELS = 3
CLI_J, CLI_K = 20, 6
# example1 and seeded variations of it; a cli round runs on one of them.
CLI_SCENARIOS = 4
SWEEP_ROWS = 200


@dataclass
class Op:
    label: str
    run: Callable[[], dict]
    check: Callable[[dict], list[str]]


def perturbed_example1(rng: np.random.Generator, *, keep_sigma_eps: bool = False) -> dict:
    """Nominal values of example1, each moved by a few percent."""
    v = dict(EXAMPLE1)
    v["beta"] = tuple(b * rng.uniform(0.97, 1.03) for b in EXAMPLE1["beta"])
    v["sigma1"] = EXAMPLE1["sigma1"] * rng.uniform(0.9, 1.1)
    v["sigma2"] = EXAMPLE1["sigma2"] * rng.uniform(0.9, 1.1)
    v["rho"] = EXAMPLE1["rho"] + rng.uniform(-0.05, 0.05)
    v["x_u"] = EXAMPLE1["x_u"] * rng.uniform(0.9, 1.1)
    if not keep_sigma_eps:
        v["sigma_eps"] = EXAMPLE1["sigma_eps"] * rng.uniform(0.9, 1.1)
    return v


def with_median(values: dict, t_median: float) -> dict:
    """Set y0 so that the affine median (y0 - delta_1)/delta_2 is t_median."""
    b00, b01, b10, b11 = values["beta"]
    d1, d2 = b00 + b10 * values["x_u"], b01 + b11 * values["x_u"]
    return dict(values, y0=d1 + d2 * t_median)


def covariance(values: dict) -> list[list[float]]:
    s1, s2, rho = values["sigma1"], values["sigma2"], values["rho"]
    return [[s1 * s1, rho * s1 * s2], [rho * s1 * s2, s2 * s2]]


def model_values(values: dict) -> dict:
    """What the checks need: sigma_eps and the random-effect covariance."""
    return {"sigma_eps": values["sigma_eps"], "sigma_gamma": covariance(values)}


def _higher_model(degree: int, beta, sds) -> tuple[DegradationModel, dict]:
    """Model with a degree-`degree` time basis and independent random effects, and its check values."""
    values = {"sigma_eps": EXAMPLE1["sigma_eps"], "sigma_gamma": np.diag(np.square(sds)).tolist()}
    model = DegradationModel(
        stress_basis=PowerBasis(1),
        time_basis=PowerBasis(degree),
        beta=beta,
        sigma_gamma=values["sigma_gamma"],
        error_spec=ErrorSpec(sigma_eps=values["sigma_eps"]),
        x_u=EXAMPLE1["x_u"],
        y0=EXAMPLE1["y0"],
    )
    return model, values


# --- repeated -------------------------------------------------------------


def _repeated_op(case, model, values) -> Op:
    dim, J, k, t_star = case

    def run() -> dict:
        grid = GridSpec(J=J, k=k)
        design, cert = optimize_time_plan(grid, model, t_star)
        kkt = kkt_check(design, grid, model, t_star)
        exact = round_to_exact(design, k, model, t_star)
        total = c_criterion_time(exact, model, t_star).criterion_total
        eff = efficiency(exact, design, model, t_star)
        return {
            "dust": min(design.weights) < cert.tol,
            "points": design.points,
            "weights": design.weights,
            "certified": cert.certified,
            "kkt_pass": kkt.certified,
            "exact_points": exact.points,
            "exact_weights": exact.weights,
            "exact_total": total,
            "efficiency": eff,
        }

    spec = {"dim": dim, "J": J, "k": k, "t_star": t_star}
    return Op(f"repeated {case}", run, lambda r: checks.check_repeated(spec, values, r))


def repeated_round(seed: int) -> list[Op]:
    rng = np.random.default_rng(seed)
    ops = []
    for case in (DUST_CASE, *REPEATED_CASES):
        dim = case[0]
        base = perturbed_example1(rng, keep_sigma_eps=True)
        if dim == 2:
            model, values = DegradationModel.affine(**base), model_values(base)
        else:
            sds = (base["sigma1"], base["sigma2"], 0.05 * rng.uniform(0.5, 1.5))
            model, values = _higher_model(dim - 1, QUADRATIC_BETA, sds)
        ops.append(_repeated_op(case, model, values))
    return ops


# --- destructive ----------------------------------------------------------


def snapped_range(nominal: float, lo: float, hi: float, n: int) -> tuple[float, int]:
    """Upper end near hi of an n-point log range from lo that has nominal as its point m; (hi, m)."""
    m = int(round((n - 1) * math.log(nominal / lo) / math.log(hi / lo)))
    m = min(max(m, 1), n - 2)
    step = math.log(nominal / lo) / m
    return math.exp(math.log(nominal) + (n - 1 - m) * step), m


def _sweep_op(variable: str, model, values: dict, t_nom: float, ratio_nom: float, sample) -> Op:
    if variable == "t_median":
        lo = 1.05
        hi, m = snapped_range(t_nom, lo, 10.0, SWEEP_ROWS)
    else:
        # Half the rows lie outside the ratios the rho reparameterisation
        # reaches, split evenly on both sides, as on example1 over [0.2, 5];
        # a fixed share keeps the work of a round the same for every seed.
        reach_lo, reach_hi = reachable_ratio_interval(model)
        margin = math.sqrt(reach_hi / reach_lo)
        lo = reach_lo / margin
        hi, m = snapped_range(ratio_nom, lo, reach_hi * margin, SWEEP_ROWS)
    spec = SweepSpec(variable=variable, lo=lo, hi=hi, n_points=SWEEP_ROWS)

    def run() -> dict:
        eff = sweep_efficiency(spec, model)
        pis = sweep_pi_star(spec, model)
        return {
            "rows": [(r.abscissa, r.pi_star, r.efficiencies, r.reachable) for r in eff.rows],
            "pi_rows": [(r.abscissa, r.pi_star) for r in pis.rows],
        }

    mv = model_values(values)

    def check(r: dict) -> list[str]:
        return checks.check_sweep(mv, t_nom, variable, m, r["rows"], sample) + checks.check_pi_star_sweep(
            mv, t_nom, variable, r["pi_rows"]
        )

    return Op(f"sweep_{variable}", run, check)


def _elfving_op(model, values: dict, t_nom: float) -> Op:
    def run() -> dict:
        xi = elfving_stress_design(model)
        tau = elfving_time_design(model, t_nom)
        crit = c_criterion_single_obs(product_design(xi, tau), model, t_nom)
        effs = {}
        for name, k in (("xi_tau2", 2), ("xi_tau6", 6)):
            effs[name] = crit / c_criterion_single_obs(product_design(xi, uniform_time_design(k)), model, t_nom)
        return {"pi_star": tau.weights[1], "stress_weight_1": xi.weights[1], "criterion": crit, "efficiencies": effs}

    mv = model_values(values)
    return Op("elfving", run, lambda r: checks.check_elfving(mv, values["x_u"], t_nom, r))


def _numeric_op(kind: str, model, values: dict, t_star, J: int) -> Op:
    """Cap-1 grid design; t_star None means the model's median, solved in the operation."""
    def run() -> dict:
        t = median_failure_time(model) if t_star is None else t_star
        design, cert = numeric_destructive_time_design(model, t, GridSpec(J=J, k=1))
        return {"t_star": t, "points": design.points, "weights": design.weights, "certified": cert.certified}

    return Op(kind, run, lambda r: checks.check_numeric_destructive(values, r["t_star"], J, r))


def destructive_round(seed: int) -> list[Op]:
    rng = np.random.default_rng(seed)
    ops = []
    for _ in range(DESTRUCTIVE_MODELS):
        values = with_median(perturbed_example1(rng), rng.uniform(1.3, 2.5))
        model = DegradationModel.affine(**values)
        t_nom = median_failure_time(model)
        ratio_nom = VarianceFunction(model).ratio_end_over_start()
        sample = sorted(rng.choice(SWEEP_ROWS, size=5, replace=False).tolist())
        ops.append(_sweep_op("t_median", model, values, t_nom, ratio_nom, sample))
        ops.append(_sweep_op("sigma_ratio", model, values, t_nom, ratio_nom, sample))
        ops.append(_elfving_op(model, values, t_nom))
        ops.append(_numeric_op("numeric_affine", model, model_values(values), t_nom, 400))
    for degree, sds, t_star in NUMERIC_CASES:
        model, values = _higher_model(degree, QUADRATIC_BETA if degree == 2 else CUBIC_BETA, sds)
        ops.append(_numeric_op(f"numeric_degree{degree} t*={t_star}", model, values, t_star, 400))
    degree, sds, J = FAULT_NUMERIC
    model, values = _higher_model(degree, QUADRATIC_BETA, sds)
    ops.append(_numeric_op("numeric_fault", model, values, None, J))
    return ops


# --- cli ------------------------------------------------------------------


def scenario_text(values: dict) -> str:
    lines = ["model:", "  stress_basis: affine", "  time_basis: affine"]
    lines.append("  beta: [" + ", ".join(repr(float(b)) for b in values["beta"]) + "]")
    for key in ("sigma1", "sigma2", "rho", "sigma_eps", "x_u", "y0"):
        lines.append(f"  {key}: {float(values[key])!r}")
    lines += ["grid:", f"  J: {CLI_J}", f"  k: {CLI_K}", ""]
    return "\n".join(lines)


# Medians of the scenario variations stay in this band, where the J = 20,
# k = 6 plan certifies (scanned in steps of 0.005 at sigma_eps 0.044, 0.048
# and 0.053).  Some of these plans carry a dust point, which the cli checks
# do not look at.
CLI_T_BAND = (1.45, 1.75)


def cli_inputs(seed: int, workdir: str) -> list[dict]:
    """example1 and seeded variations of it, written as scenario files."""
    rng = np.random.default_rng(seed)
    out = [{"path": EXAMPLE1_PATH, "values": dict(EXAMPLE1), "alpha": float(rng.uniform(0.1, 0.9))}]
    for i in range(CLI_SCENARIOS - 1):
        values = with_median(perturbed_example1(rng), rng.uniform(*CLI_T_BAND))
        path = os.path.join(workdir, f"variation{i}.scenario")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(scenario_text(values))
        out.append({"path": path, "values": values, "alpha": float(rng.uniform(0.1, 0.9))})
    return out


def parse_report(text: str) -> dict[str, str]:
    report = {}
    for line in text.splitlines():
        key, _, value = line.partition(",")
        report[key] = value
    return report


def cli_invocations(scenario: dict, workdir: str, tag: str) -> list[tuple[list[str], Callable[[int, str], list[str]]]]:
    """The seven invocations of one round on one scenario, each with its check."""
    path, values = scenario["path"], scenario["values"]
    plan = os.path.join(workdir, f"plan-{tag}.csv")
    sweeps = [os.path.join(workdir, f"sweep-{tag}-{v}.csv") for v in ("t", "r")]

    def exit_ok(code: int) -> list[str]:
        return [] if code == 0 else [f"exit code {code}"]

    def quantile_check(code: int, out: str) -> list[str]:
        if code:
            return exit_ok(code)
        return checks.check_quantile(values, scenario["alpha"], float(parse_report(out)["t_alpha"]))

    def plan_check(code: int, out: str) -> list[str]:
        if code:
            return exit_ok(code)
        with open(plan, encoding="utf-8") as fh:
            return checks.check_plan_csv(fh.read(), CLI_J, CLI_K)

    def sweep_check(csv_path: str):
        def check(code: int, out: str) -> list[str]:
            if code:
                return exit_ok(code)
            with open(csv_path, encoding="utf-8") as fh:
                rows = [line.split(",") for line in fh.read().strip().splitlines()[1:]]
            effs = [float(x) for r in rows for x in r[2:] if x != "nan"]
            bad = [e for e in effs if not 0.0 < e <= 1.0 + 1e-9]
            return [f"sweep efficiency {bad[0]!r} outside (0, 1]"] if bad or len(rows) != SWEEP_ROWS else []
        return check

    def efficiency_check(code: int, out: str) -> list[str]:
        if code:
            return exit_ok(code)
        rep = parse_report(out)
        effs = [float(rep[k]) for k in ("eff_zeta_star", "eff_tau2", "eff_tau6")]
        if abs(effs[0] - 1.0) > 1e-9 or not all(0.0 < e <= 1.0 + 1e-9 for e in effs):
            return [f"efficiencies {effs}"]
        return []

    def check_check(code: int, out: str) -> list[str]:
        return exit_ok(code) or checks.check_check_report(parse_report(out))

    s = ["--scenario", path]
    return [
        (["quantile", *s, "--alpha", repr(scenario["alpha"])], quantile_check),
        (["optimize-time", *s, "--out", plan], plan_check),
        (["optimize-destructive", *s], lambda code, out: exit_ok(code)),
        (["efficiency", *s], efficiency_check),
        (["sweep", *s, "--variable", "t_median", "--out", sweeps[0]], sweep_check(sweeps[0])),
        (["sweep", *s, "--variable", "sigma_ratio", "--out", sweeps[1]], sweep_check(sweeps[1])),
        (["check", *s, "--design", plan], check_check),
    ]


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str], workdir: str) -> tuple[int, str, float, float, float]:
    """Run python -m adtplan.cli argv; (exit code, stdout, wall s, cpu s, peak rss MB)."""
    out_path = os.path.join(workdir, "child.out")
    with open(out_path, "w+", encoding="utf-8") as out, open(os.devnull, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "adtplan.cli", *argv], stdout=out, stderr=err, env=child_env(),
                                cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        text = out.read()
    return proc.returncode, text, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0
