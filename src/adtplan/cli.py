"""Command line front end.

Subcommands:

    quantile              failure-time quantile under the scenario model
    optimize-time         constrained c-optimal repeated-measures time plan
    optimize-destructive  product design for one measurement per unit
    efficiency            nominal-point efficiencies of the benchmark plans
    sweep                 pi* and efficiency curves over a parameter range
    check                 score a design file against the optimal plan

Reports are `key,value` lines on standard output.  File outputs are written
atomically (temp file in the target directory, then rename) with floats in
shortest round-trip form, so identical inputs give identical bytes.

Exit codes: 0 success, 2 validation failure, 3 optimization finished without
an optimality certificate (outputs are still written).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import sys
import tempfile
import time
from typing import Callable

from .criteria import avar_median, c_criterion_time, efficiency, stress_extrapolation_factor
from .destructive import (
    VarianceFunction,
    c_criterion_single_obs,
    elfving_stress_design,
    elfving_time_design,
    product_design,
    weighted_f2,
)
from .errors import AdtPlanError, ScenarioValidationError, SingularDesignError, ValidationError
from .failure_time import median_failure_time, quantile
from .model import ApproximateDesign, DegradationModel, eval_delta
from .scenario import Scenario, load_scenario
from .sweeps import (
    ALL_CANDIDATES,
    CANDIDATE_ZETA_STAR,
    candidate_time_designs,
    default_sweep_spec,
    sweep_efficiency,
)
from .timeplan import OptimizerConfig, design_sensitivity, kkt_check, optimize_time_plan

__all__ = ["main"]

_EXIT_OK = 0
_EXIT_VALIDATION = 2
_EXIT_NOT_CERTIFIED = 3

# Report keys and sweep columns of the candidates, in ALL_CANDIDATES order.
_EFF_KEYS = ("eff_zeta_star", "eff_tau2", "eff_tau6")

_IDENTIFIABILITY_NOTE = (
    "k = 1 takes a single measurement per unit; the split between measurement "
    "error and the random intercept is then not estimable and must be known"
)


def _fmt(v: object) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _emit(key: str, value: object) -> None:
    sys.stdout.write(f"{key},{_fmt(value)}\n")


def _atomic_write(path: str, text: str) -> None:
    target = os.path.abspath(path)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".tmp-adtplan-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_table(
    args: argparse.Namespace,
    scenario: Scenario,
    header: list[str],
    rows: list[list[object]],
    json_doc: Callable[[list[str], list[list[object]]], object],
) -> None:
    """Write rows to --out or output.path (neither: no file), CSV cells by _fmt or json_doc(header, rows) as JSON."""
    output = scenario.output
    path = getattr(args, "out", None) or (output.path if output is not None else None)
    if path is None:
        return
    if output is not None and output.format == "json":
        text = json.dumps(json_doc(header, rows), indent=2) + "\n"
    else:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([header, *([_fmt(v) for v in row] for row in rows)])
        text = buf.getvalue()
    _atomic_write(path, text)
    _emit("out", path)


def _records(header: list[str], rows: list[list[object]]) -> list[dict[str, object]]:
    return [dict(zip(header, row)) for row in rows]


def _model_lines(model: DegradationModel) -> None:
    var = VarianceFunction(model)
    for i, d in enumerate(eval_delta(model), start=1):
        _emit(f"delta_{i}", float(d))
    _emit("t_median", median_failure_time(model))
    _emit("sigma_at_0", var.sigma(0.0))
    _emit("sigma_at_1", var.sigma(1.0))
    _emit("ratio", var.ratio_end_over_start())


def _resolve_t_star(args: argparse.Namespace, model: DegradationModel) -> float:
    if getattr(args, "t_star", None) is not None:
        return args.t_star
    return median_failure_time(model)


def _read_design_csv(path: str) -> ApproximateDesign:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path}: {exc}") from None
    reader = csv.DictReader(io.StringIO(text, newline=""), restval="")
    if reader.fieldnames is None or not {"t", "weight"} <= set(reader.fieldnames):
        raise ValidationError(f"{path}: design CSV needs 't' and 'weight' columns")
    try:
        rows = [(float(r["t"]), float(r["weight"])) for r in reader]
    except ValueError as exc:  # a missing or non-numeric cell
        raise ValidationError(f"{path}: {exc}") from None
    if not rows:
        raise ValidationError(f"{path}: design CSV has no rows")
    rows.sort()
    try:
        total = math.fsum(w for _, w in rows)
    except (OverflowError, ValueError):  # fsum raises where the float sum is inf or NaN
        total = sum(w for _, w in rows)
    if not abs(total - 1.0) <= 1e-6:  # NaN fails too
        raise ValidationError(f"{path}: design weights sum to {total!r}, not 1")
    return ApproximateDesign(
        points=tuple(t for t, _ in rows),
        weights=tuple(w / total for _, w in rows),
    )


def cmd_quantile(args: argparse.Namespace, scenario: Scenario) -> int:
    model = scenario.model
    res = quantile(args.alpha, model)
    _emit("command", "quantile")
    _emit("alpha", args.alpha)
    _model_lines(model)
    _emit("t_alpha", res.t_alpha)
    _emit("exists", res.exists)
    return _EXIT_OK


def cmd_optimize_time(args: argparse.Namespace, scenario: Scenario) -> int:
    model = scenario.model
    if scenario.grid is None:
        raise ValidationError("scenario has no grid section; optimize-time needs grid.J and grid.k")
    grid = scenario.grid
    t_star = _resolve_t_star(args, model)
    cfg = OptimizerConfig() if args.max_iters is None else OptimizerConfig(max_iters=args.max_iters)
    start = time.perf_counter()
    design, cert = optimize_time_plan(grid, model, t_star, cfg)
    elapsed = time.perf_counter() - start

    _emit("command", "optimize-time")
    _model_lines(model)
    _emit("t_star", t_star)
    _emit("grid_J", grid.J)
    _emit("grid_k", grid.k)
    if grid.k == 1:
        _emit("note", _IDENTIFIABILITY_NOTE)
    report = c_criterion_time(design, model, t_star)
    _emit("criterion_total", report.criterion_total)
    _emit("criterion_fixed", report.criterion_fixed)
    _emit("criterion_random", report.criterion_random)
    xi = elfving_stress_design(model)
    _emit("stress_factor", stress_extrapolation_factor(xi, model))
    try:
        avar = avar_median(xi, design, model)
    except SingularDesignError:  # a support narrower than the basis may identify f2 at t* but not at the median
        avar = math.inf
    _emit("avar_median", avar)
    _emit("certified", cert.certified)
    _emit("kkt_violation", cert.max_violation)
    _emit("iterations", cert.iterations)
    _emit("support_size", len(design.points))
    _emit("elapsed_s", round(elapsed, 6))

    index = {t: i for i, t in enumerate(grid.points().tolist())}
    rows = [
        [t, w, cert.sensitivity[index[t]], index[t] in cert.saturated_set]
        for t, w in zip(design.points, design.weights)
    ]
    _write_table(args, scenario, ["t", "weight", "sensitivity", "saturated"], rows, _records)
    return _EXIT_OK if cert.certified else _EXIT_NOT_CERTIFIED


def cmd_optimize_destructive(args: argparse.Namespace, scenario: Scenario) -> int:
    model = scenario.model
    t_star = _resolve_t_star(args, model)
    xi = elfving_stress_design(model)
    tau = elfving_time_design(model, t_star)
    zeta = product_design(xi, tau)
    criterion = c_criterion_single_obs(zeta, model, t_star)
    ts, ws = tau.as_arrays()
    sens = design_sensitivity(weighted_f2(ts, model), model.time_basis.evaluate(t_star), ws)
    _emit("command", "optimize-destructive")
    _model_lines(model)
    _emit("t_star", t_star)
    _emit("note", _IDENTIFIABILITY_NOTE)
    _emit("w_star", xi.weights[1] if model.x_u < 0.0 else xi.weights[0])
    _emit("pi_star", tau.weights[-1])
    for (x, t), wt in zeta.combined:
        _emit(f"zeta_{repr(float(x))}_{repr(float(t))}", wt)
    _emit("criterion_single_obs", criterion)
    _emit("certified", True)  # the Elfving design is optimal by construction

    rows = [[t, w, s, w >= 1.0 - 1e-9] for t, w, s in zip(tau.points, tau.weights, sens.tolist())]
    _write_table(args, scenario, ["t", "weight", "sensitivity", "saturated"], rows, _records)
    return _EXIT_OK


def cmd_efficiency(args: argparse.Namespace, scenario: Scenario) -> int:
    model = scenario.model
    t_star = _resolve_t_star(args, model)
    xi = elfving_stress_design(model)
    criteria = {
        name: c_criterion_single_obs(product_design(xi, tau), model, t_star)
        for name, tau in candidate_time_designs(ALL_CANDIDATES, model, t_star).items()
    }
    crit_local = criteria[CANDIDATE_ZETA_STAR]
    _emit("command", "efficiency")
    _model_lines(model)
    _emit("t_star", t_star)
    _emit("criterion_optimal", crit_local)
    for name, key in zip(ALL_CANDIDATES, _EFF_KEYS):
        _emit(key, crit_local / criteria[name])
    return _EXIT_OK


def cmd_sweep(args: argparse.Namespace, scenario: Scenario) -> int:
    model = scenario.model
    if scenario.sweep is not None:
        spec = scenario.sweep
    elif args.variable is not None:
        spec = default_sweep_spec(args.variable)
    else:
        raise ValidationError("scenario has no sweep section; pass --variable t_median|sigma_ratio")
    start = time.perf_counter()
    result = sweep_efficiency(spec, model)
    elapsed = time.perf_counter() - start

    _emit("command", "sweep")
    _emit("variable", spec.variable)
    _emit("n_points", spec.n_points)
    _emit("nominal_t_median", result.nominal_t_median)
    _emit("nominal_ratio", result.nominal_ratio)
    _emit("unreachable_rows", sum(1 for r in result.rows if not r.reachable))
    _emit("elapsed_s", round(elapsed, 6))

    col = {name: i for i, name in enumerate(spec.candidates)}
    rows = [
        [r.abscissa, r.pi_star, *(r.efficiencies[col[name]] if name in col else math.nan for name in ALL_CANDIDATES)]
        for r in result.rows
    ]
    # NaN is not valid JSON; unreachable cells become null.
    _write_table(
        args, scenario, ["abscissa", "pi_star", *_EFF_KEYS], rows,
        lambda header, rows: {"columns": header, "rows": [[None if math.isnan(v) else v for v in r] for r in rows]},
    )
    return _EXIT_OK


def cmd_check(args: argparse.Namespace, scenario: Scenario) -> int:
    model = scenario.model
    if scenario.grid is None:
        raise ValidationError("scenario has no grid section; check needs grid.J and grid.k")
    grid = scenario.grid
    t_star = _resolve_t_star(args, model)
    design = _read_design_csv(args.design)
    cert = kkt_check(design, grid, model, t_star)
    optimal, opt_cert = optimize_time_plan(grid, model, t_star)

    _emit("command", "check")
    _model_lines(model)
    _emit("t_star", t_star)
    _emit("design", args.design)
    _emit("criterion_total", c_criterion_time(design, model, t_star).criterion_total)
    _emit("kkt_violation", cert.max_violation)
    _emit("kkt_pass", cert.certified)
    _emit("efficiency", efficiency(design, optimal, model, t_star))
    _emit("reference_certified", opt_cert.certified)
    return _EXIT_OK if opt_cert.certified else _EXIT_NOT_CERTIFIED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adtplan",
        description="Optimal measurement-time planning for accelerated degradation tests.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--scenario", required=True, help="scenario file (YAML)")
        return p

    p = add("quantile", "failure-time quantile of the scenario model")
    p.add_argument("--alpha", type=float, default=0.5, help="probability level (default 0.5)")

    p = add("optimize-time", "c-optimal repeated-measures time plan on the scenario grid")
    p.add_argument("--t-star", type=float, default=None, help="target time (default: median)")
    p.add_argument("--out", default=None, help="write the design table here")
    p.add_argument("--max-iters", type=int, default=None, help="iteration budget override")

    p = add("optimize-destructive", "product design for one measurement per unit")
    p.add_argument("--t-star", type=float, default=None, help="target time (default: median)")
    p.add_argument("--out", default=None, help="write the marginal time design here")

    p = add("efficiency", "benchmark-plan efficiencies at the nominal parameters")
    p.add_argument("--t-star", type=float, default=None, help="target time (default: median)")

    p = add("sweep", "pi* and efficiency curves over a parameter range")
    p.add_argument("--out", default=None, help="write the sweep table here")
    p.add_argument(
        "--variable",
        choices=("t_median", "sigma_ratio"),
        default=None,
        help="sweep variable when the scenario has no sweep section",
    )

    p = add("check", "score a design file against the optimal plan")
    p.add_argument("--design", required=True, help="design CSV with t,weight columns")
    p.add_argument("--t-star", type=float, default=None, help="target time (default: median)")

    return parser


_HANDLERS = {
    "quantile": cmd_quantile,
    "optimize-time": cmd_optimize_time,
    "optimize-destructive": cmd_optimize_destructive,
    "efficiency": cmd_efficiency,
    "sweep": cmd_sweep,
    "check": cmd_check,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        scenario = load_scenario(args.scenario)
    except ScenarioValidationError as e:
        for msg in e.errors:
            sys.stderr.write(f"error: {msg}\n")
        return _EXIT_VALIDATION
    except OSError as e:
        sys.stderr.write(f"error: {e}\n")
        return _EXIT_VALIDATION
    # A refused run prints no partial report: the report reaches stdout only when the handler returns.
    report = io.StringIO()
    try:
        with contextlib.redirect_stdout(report):
            code = _HANDLERS[args.subcommand](args, scenario)
    except (AdtPlanError, OSError) as e:
        sys.stderr.write(f"error: {e}\n")
        return _EXIT_VALIDATION
    sys.stdout.write(report.getvalue())
    return code


if __name__ == "__main__":
    sys.exit(main())
