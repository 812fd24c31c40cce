"""The runtime needs numpy, and PyYAML only to read and write scenarios; scipy serves the test oracles.

The package re-exports every library module's public names, and the
benchmark under bench/ imports and traces adtplan names; they must exist,
as must the entry points pyproject.toml installs as scripts.
"""

from __future__ import annotations

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import adtplan

BENCH = Path(__file__).resolve().parent.parent / "bench"
SCENARIO = BENCH.parent / "scenarios" / "example1.scenario"

# Every module but the command line front end, in the order the package imports them.
LIBRARY = ("criteria", "destructive", "errors", "failure_time", "model", "scenario", "sweeps", "timeplan")
# The names the package exported while its __init__ listed them one by one.
LISTED_EXPORTS = """
AFFINE ALL_CANDIDATES AdtPlanError ApproximateDesign CANDIDATE_TAU2 CANDIDATE_TAU6
CANDIDATE_ZETA_STAR ConfigurationError CriterionReport DegenerateVarianceError DegradationModel
ErrorSpec GridSpec IndeterminateMarginError InfeasibleDesignError NoPositiveMedianError
NonMonotoneMarginError OptimalityCertificate OptimizerConfig OutOfRegimeError OutputSpec PowerBasis
ProductDesign QuantileResult Scenario ScenarioValidationError SingularDesignError SweepResult
SweepRow SweepSpec ValidationError VarianceFunction assemble_V avar_median c_criterion_single_obs
c_criterion_time default_sweep_spec efficiency elfving_stress_design elfving_time_design eval_delta
failure_cdf h info_stress info_time_fixed info_time_fixed_total kkt_check load_scenario
median_failure_time mu_aggregate numeric_destructive_time_design optimize_capped_weights
optimize_time_plan parse_scenario pi_star_from_ratio product_design quantile
reachable_ratio_interval round_to_exact serialize_scenario sigma_gamma_from_sd_corr sigma_u sigma_u2
stress_extrapolation_factor sweep_efficiency sweep_pi_star uniform_time_design vary_ratio_via_rho
weighted_f2
""".split()


def test_package_reexports_each_module_all() -> None:
    assert {m.name for m in pkgutil.iter_modules(adtplan.__path__)} == {*LIBRARY, "cli"}
    modules = [importlib.import_module(f"adtplan.{name}") for name in LIBRARY]
    assert adtplan.__all__ == [name for module in modules for name in module.__all__]
    assert len(set(adtplan.__all__)) == len(adtplan.__all__)
    assert [
        f"{module.__name__}.{name}"
        for module in modules
        for name in module.__all__
        if getattr(adtplan, name) is not getattr(module, name)
    ] == []
    assert len(LISTED_EXPORTS) == 69
    assert set(LISTED_EXPORTS) - set(adtplan.__all__) == set()
    assert {"candidate_time_designs", "design_sensitivity", "support_design"} <= set(adtplan.__all__)


def test_import_loads_no_scipy() -> None:
    src = os.path.dirname(os.path.dirname(os.path.abspath(adtplan.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, adtplan, adtplan.cli; assert 'scipy' not in sys.modules, sorted(sys.modules)"
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_import_defers_yaml_and_statistics() -> None:
    # PyYAML loads at the first scenario read, statistics at the first quantile.
    src = os.path.dirname(os.path.dirname(os.path.abspath(adtplan.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys, adtplan, adtplan.cli\n"
        "assert not {'yaml', 'statistics'} & set(sys.modules), sorted(sys.modules)\n"
        f"adtplan.load_scenario({str(SCENARIO)!r})\n"
        "assert 'yaml' in sys.modules\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


@pytest.mark.parametrize("routine", ["eigvalsh", "qr", "inv"])
def test_planning_never_calls(routine: str) -> None:
    # Every covariance, information matrix and factor is checked by Cholesky,
    # the capped exchange's start maps [V; c] by modified Gram-Schmidt, and
    # Elfving's simplex solves with its basis, so a planning process never
    # pages in LAPACK's symmetric eigensolver or its Householder QR, and
    # forms no explicit inverse.
    src = os.path.dirname(os.path.dirname(os.path.abspath(adtplan.__file__)))
    tests = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, tests, os.environ.get("PYTHONPATH")])))
    code = (
        "import numpy as np\n"
        "def refuse(*args, **kwargs):\n"
        f"    raise AssertionError('numpy.linalg.{routine} was called')\n"
        f"np.linalg.{routine} = refuse\n"
        "from adtplan import GridSpec, default_sweep_spec, load_scenario, median_failure_time\n"
        "from adtplan import numeric_destructive_time_design, optimize_time_plan, sweep_efficiency\n"
        "from conftest import quadratic_model\n"
        f"example1 = load_scenario({str(SCENARIO)!r}).model\n"
        "for model in (example1, quadratic_model()):\n"
        "    t_star = median_failure_time(model)\n"
        "    for k in (6, 1):\n"
        "        assert optimize_time_plan(GridSpec(J=20, k=k), model, t_star)[1].certified\n"
        "    assert numeric_destructive_time_design(model, t_star)[1].certified\n"
        "assert len(sweep_efficiency(default_sweep_spec('t_median'), example1).rows) == 200\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_bench_imports_resolve() -> None:
    tree = ast.parse((BENCH / "workloads.py").read_text())
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module == "adtplan"]
    names = [alias.name for node in imports for alias in node.names]
    assert names
    assert [n for n in names if not hasattr(adtplan, n)] == []


def test_bench_destructive_round_passes_its_checks(monkeypatch: pytest.MonkeyPatch) -> None:
    # Every operation of one destructive round, through the benchmark's own
    # run() and check(); bench/ is imported without writing bytecode into it.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    failures = {}
    for op in workloads.destructive_round(101):
        problems = op.check(op.run())
        if problems:
            failures[op.label] = problems
    assert failures == {}


def test_bench_repeated_round_passes_its_checks(monkeypatch: pytest.MonkeyPatch) -> None:
    # Every operation of one repeated round, through the benchmark's own
    # run() and check(); a plan with a dust support point counts as failed.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    failures = {}
    for op in workloads.repeated_round(101):
        result = op.run()
        problems = op.check(result) + ["dust support point"] * result["dust"]
        if problems:
            failures[op.label] = problems
    assert failures == {}


def test_bench_traced_functions_resolve() -> None:
    tree = ast.parse((BENCH / "spans.py").read_text())
    layers = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "LAYERS" for t in node.targets)
    )
    missing = [
        f"{layer}.{fname}"
        for layer, fnames in layers.items()
        for fname in fnames
        if not callable(getattr(importlib.import_module(f"adtplan.{layer}"), fname, None))
    ]
    assert missing == []


def test_project_scripts_resolve() -> None:
    tomllib = pytest.importorskip("tomllib")
    scripts = tomllib.loads((BENCH.parent / "pyproject.toml").read_text())["project"]["scripts"]
    targets = {}
    for name, target in scripts.items():
        module, _, function = target.partition(":")
        targets[name] = getattr(importlib.import_module(module), function, None)
    assert [name for name, entry in targets.items() if not callable(entry)] == []
    assert targets["adtplan"] is importlib.import_module("adtplan.cli").run
