"""Command-line interface: outputs, exit codes, file writing."""

from __future__ import annotations

import argparse
import csv
import gc
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from adtplan import Scenario, ValidationError, eval_delta, median_failure_time
from adtplan.cli import _read_design_csv, cmd_quantile, main
from conftest import quadratic_model

SCENARIO = Path(__file__).resolve().parent.parent / "scenarios" / "example1.scenario"

MODEL_ONLY = """\
model:
  stress_basis: affine
  time_basis: affine
  beta: [2.397, 1.018, 1.629, 0.0696]
  sigma1: 0.114
  sigma2: 0.105
  rho: -0.143
  sigma_eps: 0.048
  x_u: -0.056
  y0: 3.912
"""

# An affine model with rho = -0.95 whose margin h rises through z(0.69),
# peaks and falls back toward delta2/sigma2 = 1.
SPIKE = """\
model:
  stress_basis: affine
  time_basis: affine
  beta: [0.3, 2.0, 0.0, 0.0]
  sigma1: 1.0
  sigma2: 2.0
  rho: -0.95
  sigma_eps: 0.05
  x_u: -0.1
  y0: 0.5
"""


# What Python's UTF-8 codec says about a file starting with the bytes ff fe.
_UTF8_ERROR = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"


def lines_as_dict(out: str) -> dict[str, str]:
    pairs = [line.split(",", 1) for line in out.strip().splitlines() if "," in line]
    return {k: v for k, v in pairs}


class TestQuantile:
    def test_median(self, capsys: pytest.CaptureFixture[str]) -> None:
        code = main(["quantile", "--scenario", str(SCENARIO)])
        assert code == 0
        report = lines_as_dict(capsys.readouterr().out)
        assert float(report["t_alpha"]) == pytest.approx(1.5838873865203356, rel=1e-12)
        assert report["exists"] == "true"

    def test_extreme_alpha_reports_nonexistence(
        self, capsys: pytest.CaptureFixture[str]
    ) -> None:
        code = main(["quantile", "--scenario", str(SCENARIO), "--alpha", "1e-60"])
        assert code == 0
        report = lines_as_dict(capsys.readouterr().out)
        assert report["exists"] == "false"
        assert math.isnan(float(report["t_alpha"]))

    def test_quadratic_time_basis_reports_every_delta(self, capsys: pytest.CaptureFixture[str]) -> None:
        # Scenario files cannot express this basis; a library-built scenario can.
        model = quadratic_model()
        assert cmd_quantile(argparse.Namespace(alpha=0.5), Scenario(model=model)) == 0
        report = lines_as_dict(capsys.readouterr().out)
        deltas = [repr(float(d)) for d in eval_delta(model)]
        assert [report.get(f"delta_{i}") for i in (1, 2, 3, 4)] == [*deltas, None]
        assert float(report["t_alpha"]) == pytest.approx(median_failure_time(model), rel=1e-12)


    def test_affine_margin_turning_once_is_answered(
        self, tmp_path: Path, capsys: pytest.CaptureFixture[str]
    ) -> None:
        # h turns once and crosses z once; the run once exited 2 with
        # "h is not strictly increasing on [0.0, 1.0]".
        scn = tmp_path / "spike.scenario"
        scn.write_text(SPIKE)
        assert main(["quantile", "--scenario", str(scn), "--alpha", "0.69"]) == 0
        out = capsys.readouterr().out
        assert "t_alpha,0.2399268230557423\nexists,true\n" in out

    def test_refused_run_prints_no_partial_report(
        self, tmp_path: Path, capsys: pytest.CaptureFixture[str]
    ) -> None:
        # The quantile exists, but the report's median does not; the run once
        # printed command, alpha and both deltas before exiting 2.
        scn = tmp_path / "no_median.scenario"
        scn.write_text(SPIKE.replace("rho: -0.95", "rho: 0.5").replace("y0: 0.5", "y0: 0.0"))
        assert main(["quantile", "--scenario", str(scn), "--alpha", "0.95"]) == 2
        assert capsys.readouterr() == (
            "",
            "error: no positive median: need delta_2 > 0 and delta_1 < y0, got delta = (0.3, 2.0), y0 = 0.0\n",
        )


class TestOptimizeTime:
    def test_report_and_csv(self, tmp_path: Path, capsys: pytest.CaptureFixture[str]) -> None:
        out = tmp_path / "plan.csv"
        code = main(["optimize-time", "--scenario", str(SCENARIO), "--out", str(out)])
        assert code == 0
        report = lines_as_dict(capsys.readouterr().out)
        assert report["certified"] == "true"
        assert float(report["criterion_fixed"]) == pytest.approx(
            0.013925197199418806, rel=1e-10
        )
        with out.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["t"] for r in rows] == ["0.0", "0.05", "0.85", "0.9", "0.95", "1.0"]
        assert all(r["saturated"] == "true" for r in rows)

    def test_csv_is_byte_deterministic(self, tmp_path: Path, capsys: pytest.CaptureFixture[str]) -> None:
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["optimize-time", "--scenario", str(SCENARIO), "--out", str(a)]) == 0
        assert main(["optimize-time", "--scenario", str(SCENARIO), "--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()
        header = a.read_text().splitlines()[0]
        assert header == "t,weight,sensitivity,saturated"

    def test_no_temp_files_left(self, tmp_path: Path, capsys: pytest.CaptureFixture[str]) -> None:
        out = tmp_path / "plan.csv"
        main(["optimize-time", "--scenario", str(SCENARIO), "--out", str(out)])
        capsys.readouterr()
        assert [p.name for p in tmp_path.iterdir()] == ["plan.csv"]
        # A failed rename removes the temporary file it wrote beside the target.
        assert main(["optimize-time", "--scenario", str(SCENARIO), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert [p.name for p in tmp_path.iterdir()] == ["plan.csv"]

    def test_budget_exhaustion_exits_three(
        self, tmp_path: Path, capsys: pytest.CaptureFixture[str]
    ) -> None:
        # The plan on this grid needs seven exchange steps from its start.
        scn = tmp_path / "fine.scenario"
        scn.write_text(MODEL_ONLY + "grid:\n  J: 40\n  k: 30\n")
        code = main(
            ["optimize-time", "--scenario", str(scn), "--max-iters", "1"]
        )
        assert code == 3
        report = lines_as_dict(capsys.readouterr().out)
        assert report["certified"] == "false"

    def test_cap_one_plan_at_a_grid_point_exits_zero(
        self, tmp_path: Path, capsys: pytest.CaptureFixture[str]
    ) -> None:
        # The one-point plan at t* = 1 identifies f2(t*) but not f2 at the median.
        scn = tmp_path / "k1.scenario"
        scn.write_text(MODEL_ONLY + "grid:\n  J: 20\n  k: 1\n")
        code = main(["optimize-time", "--scenario", str(scn), "--t-star", "1.0"])
        assert code == 0
        report = lines_as_dict(capsys.readouterr().out)
        assert report["certified"] == "true"
        assert report["support_size"] == "1"
        assert report["criterion_fixed"] == "0.002304"
        assert report["avar_median"] == "inf"

    def test_missing_grid_exits_two(
        self, tmp_path: Path, capsys: pytest.CaptureFixture[str]
    ) -> None:
        scn = tmp_path / "nogrid.scenario"
        scn.write_text(MODEL_ONLY)
        code = main(["optimize-time", "--scenario", str(scn)])
        assert code == 2
        assert "grid" in capsys.readouterr().err
        # check refuses before it reads the design.
        code = main(["check", "--scenario", str(scn), "--design", str(tmp_path / "unread.csv")])
        assert code == 2
        assert capsys.readouterr().err == "error: scenario has no grid section; check needs grid.J and grid.k\n"


class TestOptimizeDestructive:
    def test_closed_form_report(self, tmp_path: Path, capsys: pytest.CaptureFixture[str]) -> None:
        out = tmp_path / "marginal.csv"
        code = main(["optimize-destructive", "--scenario", str(SCENARIO), "--out", str(out)])
        assert code == 0
        report = lines_as_dict(capsys.readouterr().out)
        assert float(report["pi_star"]) == pytest.approx(0.7684546643672014, rel=1e-12)
        assert float(report["w_star"]) == pytest.approx(0.050359712230215826, rel=1e-12)
        assert float(report["criterion_single_obs"]) == pytest.approx(
            0.12030595327704464, rel=1e-12
        )
        with out.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["t"] for r in rows] == ["0.0", "1.0"]
        # Both support points carry sensitivity 1 at the optimum.
        for r in rows:
            assert float(r["sensitivity"]) == pytest.approx(1.0, abs=1e-9)


class TestEfficiency:
    def test_nominal_benchmarks(self, capsys: pytest.CaptureFixture[str]) -> None:
        code = main(["efficiency", "--scenario", str(SCENARIO)])
        assert code == 0
        report = lines_as_dict(capsys.readouterr().out)
        assert float(report["eff_zeta_star"]) == pytest.approx(1.0, abs=1e-12)
        assert 0.0 < float(report["eff_tau6"]) < float(report["eff_tau2"]) < 1.0


class TestSweep:
    def test_csv_shape_and_nan_fill(self, tmp_path: Path, capsys: pytest.CaptureFixture[str]) -> None:
        scn = tmp_path / "sweep.scenario"
        scn.write_text(
            MODEL_ONLY
            + "sweep:\n  variable: sigma_ratio\n  lo: 0.2\n  hi: 5.0\n  n: 7\n"
        )
        out = tmp_path / "table.csv"
        code = main(["sweep", "--scenario", str(scn), "--out", str(out)])
        assert code == 0
        report = lines_as_dict(capsys.readouterr().out)
        assert int(report["unreachable_rows"]) > 0
        with out.open(newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = list(reader)
        assert header == ["abscissa", "pi_star", "eff_zeta_star", "eff_tau2", "eff_tau6"]
        assert len(rows) == 7
        assert all(len(r) == 5 for r in rows)
        assert any(r[2] == "nan" for r in rows)

    def test_variable_flag_without_section(
        self, tmp_path: Path, capsys: pytest.CaptureFixture[str]
    ) -> None:
        scn = tmp_path / "plain.scenario"
        scn.write_text(MODEL_ONLY)
        out = tmp_path / "t.csv"
        code = main(
            ["sweep", "--scenario", str(scn), "--variable", "t_median", "--out", str(out)]
        )
        assert code == 0
        capsys.readouterr()
        with out.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 200

    def test_no_section_no_flag_exits_two(
        self, tmp_path: Path, capsys: pytest.CaptureFixture[str]
    ) -> None:
        scn = tmp_path / "plain.scenario"
        scn.write_text(MODEL_ONLY)
        code = main(["sweep", "--scenario", str(scn)])
        assert code == 2
        assert "--variable" in capsys.readouterr().err

    def test_json_output_format(self, tmp_path: Path, capsys: pytest.CaptureFixture[str]) -> None:
        scn = tmp_path / "sweepj.scenario"
        out = tmp_path / "table.json"
        scn.write_text(
            MODEL_ONLY
            + "sweep:\n  variable: t_median\n  lo: 1.2\n  hi: 4.0\n  n: 5\n"
            + f"output:\n  format: json\n  path: {out}\n"
        )
        code = main(["sweep", "--scenario", str(scn)])
        assert code == 0
        capsys.readouterr()
        payload = json.loads(out.read_text())
        assert len(payload["rows"]) == 5

    def test_candidate_subset_leaves_the_other_columns_empty(
        self, tmp_path: Path, capsys: pytest.CaptureFixture[str]
    ) -> None:
        # The table keeps a column for every candidate; one the sweep does not
        # score reads nan in CSV and null in JSON, and the rest match the full sweep.
        section = "sweep:\n  variable: sigma_ratio\n  lo: 0.2\n  hi: 5.0\n  n: 9\n"
        tables = {}
        for tag, candidates in (("full", ""), ("tau2", "  candidates: [xi_tau2]\n")):
            for fmt in ("csv", "json"):
                scn = tmp_path / f"{tag}_{fmt}.scenario"
                out = tmp_path / f"{tag}.{fmt}"
                scn.write_text(MODEL_ONLY + section + candidates + f"output:\n  format: {fmt}\n  path: {out}\n")
                assert main(["sweep", "--scenario", str(scn)]) == 0
                tables[tag, fmt] = out.read_text()
        capsys.readouterr()
        (_, *full), (header, *tau2) = (list(csv.reader(tables[t, "csv"].splitlines())) for t in ("full", "tau2"))
        assert header == ["abscissa", "pi_star", "eff_zeta_star", "eff_tau2", "eff_tau6"]
        assert [[r[0], r[1], r[3]] for r in tau2] == [[r[0], r[1], r[3]] for r in full]
        assert [[r[2], r[4]] for r in tau2] == [["nan", "nan"]] * 9
        assert any(r[3] != "nan" for r in tau2) and any(r[3] == "nan" for r in tau2)
        full_json, tau2_json = (json.loads(tables[t, "json"])["rows"] for t in ("full", "tau2"))
        assert [[r[0], r[1], r[3]] for r in tau2_json] == [[r[0], r[1], r[3]] for r in full_json]
        assert [[r[2], r[4]] for r in tau2_json] == [[None, None]] * 9

    def test_overflowing_median_sweep_exits_two(
        self, tmp_path: Path, capsys: pytest.CaptureFixture[str]
    ) -> None:
        # Medians past about 1e154 overflow the closed forms; the sweep once
        # printed RuntimeWarnings and blamed a "NaN efficiency on unflagged row".
        scn = tmp_path / "huge.scenario"
        scn.write_text(MODEL_ONLY + "sweep:\n  variable: t_median\n  lo: 1.05\n  hi: 1.0e+300\n  n: 20\n")
        assert main(["sweep", "--scenario", str(scn), "--out", str(tmp_path / "t.csv")]) == 2
        assert capsys.readouterr().err == "error: criterion c' M^-1 c overflows; c is too large\n"

    def test_infinite_range_exits_two(self, tmp_path: Path, capsys: pytest.CaptureFixture[str]) -> None:
        # np.geomspace once warned on the infinite end, and the run blamed an
        # overflowing criterion instead.
        scn = tmp_path / "inf.scenario"
        scn.write_text(MODEL_ONLY + "sweep:\n  variable: t_median\n  lo: 1.05\n  hi: .inf\n  n: 20\n")
        assert main(["sweep", "--scenario", str(scn)]) == 2
        assert capsys.readouterr() == ("", "error: sweep: sweep range must be finite, got hi = inf\n")

    @pytest.mark.parametrize("subcommand", ["sweep", "efficiency"])
    def test_median_inside_the_horizon_exits_two(
        self, tmp_path: Path, capsys: pytest.CaptureFixture[str], subcommand: str
    ) -> None:
        # Both commands build the nominal candidates through one function, so
        # a nominal median <= 1 is refused in the same words.
        scn = tmp_path / "short.scenario"
        scn.write_text(
            MODEL_ONLY.replace("y0: 3.912", "y0: 3.1") + "sweep:\n  variable: t_median\n  lo: 1.05\n  hi: 5.0\n  n: 20\n"
        )
        assert main([subcommand, "--scenario", str(scn)]) == 2
        assert capsys.readouterr() == (
            "",
            "error: t_star = 0.7831792923475974 <= 1 is out of the extrapolation regime; "
            "use numeric_destructive_time_design\n",
        )


class TestCheck:
    def test_scores_benchmark_plan(self, tmp_path: Path, capsys: pytest.CaptureFixture[str]) -> None:
        design = tmp_path / "tau0.csv"
        sixth = repr(1 / 6)
        design.write_text(
            "t,weight\n"
            + "".join(f"{t},{sixth}\n" for t in (0.0, 0.05, 0.10, 0.90, 0.95, 1.00))
        )
        code = main(["check", "--scenario", str(SCENARIO), "--design", str(design)])
        assert code == 0
        report = lines_as_dict(capsys.readouterr().out)
        assert report["kkt_pass"] == "false"
        assert float(report["efficiency"]) == pytest.approx(0.9677827390963385, rel=1e-9)

    def test_renormalizes_near_unit_weights(
        self, tmp_path: Path, capsys: pytest.CaptureFixture[str]
    ) -> None:
        design = tmp_path / "near.csv"
        w = 1 / 6 + 1e-8
        design.write_text(
            "t,weight\n" + "".join(f"{t},{w!r}\n" for t in (0.0, 0.05, 0.10, 0.90, 0.95, 1.00))
        )
        assert main(["check", "--scenario", str(SCENARIO), "--design", str(design)]) == 0
        capsys.readouterr()

    def test_checks_the_cap_one_plan_it_wrote(self, tmp_path: Path, capsys: pytest.CaptureFixture[str]) -> None:
        # The one-point plan at t* = 1 has singular information; check once
        # exited 2 on the plan optimize-time had just certified.
        scn, plan = tmp_path / "k1.scenario", tmp_path / "plan.csv"
        scn.write_text(MODEL_ONLY + "grid:\n  J: 20\n  k: 1\n")
        assert main(["optimize-time", "--scenario", str(scn), "--t-star", "1.0", "--out", str(plan)]) == 0
        assert lines_as_dict(capsys.readouterr().out)["certified"] == "true"
        code = main(["check", "--scenario", str(scn), "--design", str(plan), "--t-star", "1.0"])
        assert code == 0
        report = lines_as_dict(capsys.readouterr().out)
        assert report["kkt_pass"] == "true"
        assert float(report["kkt_violation"]) == 0.0
        assert float(report["efficiency"]) == 1.0

    @pytest.mark.parametrize(
        "text, message",
        [
            ("t,weight\n", "has no rows"),
            ("t,weight\n0.0,0.5\n1.0,0.4\n", "sum to 0.9"),
            ("t,weight\n0.0,abc\n1.0,0.5\n", "could not convert string to float: 'abc'"),
            ("t,weight\n0.0,inf\n1.0,-inf\n", "sum to nan"),
            ("t,weight\n0.0,1e308\n1.0,1e308\n", "sum to inf"),
        ],
    )
    def test_design_csv_rejects(self, tmp_path: Path, text: str, message: str) -> None:
        design = tmp_path / "bad.csv"
        design.write_text(text)
        with pytest.raises(ValidationError, match=message):
            _read_design_csv(str(design))

    def test_nan_weights_exit_two(self, tmp_path: Path, capsys: pytest.CaptureFixture[str]) -> None:
        # They once reached kkt_check and failed there as a singular design.
        design = tmp_path / "nan.csv"
        design.write_text("t,weight\n0.0,nan\n1.0,nan\n")
        code = main(["check", "--scenario", str(SCENARIO), "--design", str(design)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {design}: design weights sum to nan, not 1\n"

    def test_non_numeric_cell_exits_two(self, tmp_path: Path, capsys: pytest.CaptureFixture[str]) -> None:
        # It once escaped main as a bare ValueError with a traceback and exit 1.
        design = tmp_path / "abc.csv"
        design.write_text("t,weight\n0.0,abc\n1.0,0.5\n")
        code = main(["check", "--scenario", str(SCENARIO), "--design", str(design)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {design}: could not convert string to float: 'abc'\n"

    def test_missing_column_exits_two(
        self, tmp_path: Path, capsys: pytest.CaptureFixture[str]
    ) -> None:
        design = tmp_path / "bad.csv"
        design.write_text("time,mass\n0.0,0.5\n1.0,0.5\n")
        code = main(["check", "--scenario", str(SCENARIO), "--design", str(design)])
        assert code == 2
        assert "weight" in capsys.readouterr().err

    def test_non_utf8_design_exits_two(self, tmp_path: Path, capsys: pytest.CaptureFixture[str]) -> None:
        # The decode error, a ValueError, once escaped main with a traceback and exit 1.
        design = tmp_path / "utf16.csv"
        design.write_bytes(b"\xff\xfe")
        code = main(["check", "--scenario", str(SCENARIO), "--design", str(design)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {design}: {_UTF8_ERROR}\n"


class TestErrorPaths:
    def test_invalid_scenario_exits_two(
        self, tmp_path: Path, capsys: pytest.CaptureFixture[str]
    ) -> None:
        scn = tmp_path / "bad.scenario"
        scn.write_text(MODEL_ONLY.replace("rho: -0.143", "rho: 1.5"))
        code = main(["quantile", "--scenario", str(scn)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "rho" in err

    @pytest.mark.parametrize(
        "subcommand, edit, message",
        [
            ("optimize-destructive", ("x_u: -0.056", "x_u: .nan"), "model: x_u must be finite, got nan"),
            ("quantile", ("y0: 3.912", "y0: .inf"), "model: y0 must be finite, got inf"),
        ],
    )
    def test_non_finite_model_exits_two(
        self, tmp_path: Path, capsys: pytest.CaptureFixture[str], subcommand: str, edit: tuple[str, str], message: str
    ) -> None:
        # A NaN x_u once failed later as "t_star = nan <= 1", and an infinite
        # y0 printed t_median,inf and t_alpha,nan with exit 0.
        scn = tmp_path / "bad.scenario"
        scn.write_text(MODEL_ONLY.replace(*edit))
        assert main([subcommand, "--scenario", str(scn)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_missing_file_exits_two(self, capsys: pytest.CaptureFixture[str]) -> None:
        code = main(["quantile", "--scenario", "/nonexistent/x.scenario"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_non_utf8_scenario_exits_two(self, tmp_path: Path, capsys: pytest.CaptureFixture[str]) -> None:
        scn = tmp_path / "utf16.scenario"
        scn.write_bytes(b"\xff\xfe")
        assert main(["quantile", "--scenario", str(scn)]) == 2
        assert capsys.readouterr().err == f"error: {scn}: {_UTF8_ERROR}\n"

    @pytest.mark.parametrize(
        "subcommand, t_star, message",
        [
            ("optimize-time", "inf", "t_star must be positive and finite, got inf"),
            ("optimize-time", "1e300", "criterion c' M^-1 c overflows at the start design; c is too large"),
            ("optimize-destructive", "inf", "t_star must be positive and finite, got inf"),
            ("efficiency", "inf", "t_star must be positive and finite, got inf"),
            ("check", "inf", "t_star must be positive and finite, got inf"),
            *(
                (subcommand, t_star, "criterion c' M^-1 c overflows; c is too large")
                for subcommand in ("optimize-destructive", "efficiency", "check")
                for t_star in ("1e160", "1e300")
            ),
        ],
    )
    def test_unusable_t_star_exits_two(
        self, capsys: pytest.CaptureFixture[str], subcommand: str, t_star: str, message: str
    ) -> None:
        # optimize-time once exited 1 with a traceback at both values; the
        # destructive commands blamed "weights must be non-negative, got (nan, nan)".
        # At 1e160 and 1e300 efficiency exited 0 printing eff_* nan, check
        # called the design singular, and optimize-destructive did so after
        # printing its report.
        args = [subcommand, "--scenario", str(SCENARIO), "--t-star", t_star]
        if subcommand == "check":
            args += ["--design", str(GOLDEN / "optimize_time.csv")]
        assert main(args) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


GOLDEN = Path(__file__).resolve().parent / "golden"

# Subcommand runs on example1 whose full stdout, and the file any --out
# writes, are pinned by golden file name; "{tmp}" stands for a scratch
# directory.
GOLDEN_RUNS = {
    "quantile": ["quantile"],
    "quantile_alpha_0.9": ["quantile", "--alpha", "0.9"],
    "optimize_time": ["optimize-time", "--out", "{tmp}/plan.csv"],
    "optimize_destructive": ["optimize-destructive"],
    "optimize_destructive_t2.5": ["optimize-destructive", "--t-star", "2.5", "--out", "{tmp}/marginal.csv"],
    "efficiency": ["efficiency"],
    "efficiency_t3": ["efficiency", "--t-star", "3.0"],
    "sweep_t_median": ["sweep", "--variable", "t_median", "--out", "{tmp}/sweep.csv"],
    "sweep_sigma_ratio": ["sweep", "--variable", "sigma_ratio", "--out", "{tmp}/sweep.csv"],
    "check": ["check", "--design", "{tmp}/tau0.csv"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_stdout_matches_golden(name: str, tmp_path: Path, capsys: pytest.CaptureFixture[str]) -> None:
    (tmp_path / "tau0.csv").write_text(
        "t,weight\n" + "".join(f"{t},{1 / 6!r}\n" for t in (0.0, 0.05, 0.10, 0.90, 0.95, 1.00))
    )
    argv = [a.format(tmp=tmp_path) for a in GOLDEN_RUNS[name]]
    assert main([argv[0], "--scenario", str(SCENARIO), *argv[1:]]) == 0
    out = capsys.readouterr().out.replace(str(tmp_path), "{tmp}")
    out = "".join(
        "elapsed_s,{masked}\n" if line.startswith("elapsed_s,") else line + "\n" for line in out.splitlines()
    )
    assert out == (GOLDEN / f"{name}.out").read_text()
    if "--out" in argv:
        written = Path(argv[argv.index("--out") + 1])
        assert written.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()


def json_table(name: str, tmp_path: Path) -> object:
    """The golden run's --out file under output.format json, parsed."""
    scn = tmp_path / "json.scenario"
    scn.write_text(SCENARIO.read_text() + "output:\n  format: json\n")
    out = tmp_path / "table.json"
    argv = [a.format(tmp=tmp_path) for a in GOLDEN_RUNS[name]]
    argv[argv.index("--out") + 1] = str(out)
    assert main([argv[0], "--scenario", str(scn), *argv[1:]]) == 0
    return json.loads(out.read_text())


@pytest.mark.parametrize("name", ["optimize_time", "optimize_destructive_t2.5"])
def test_design_json_matches_golden_csv(name: str, tmp_path: Path, capsys: pytest.CaptureFixture[str]) -> None:
    # output.format json writes the rows of the design CSV as objects with the same keys and values.
    payload = json_table(name, tmp_path)
    capsys.readouterr()
    with (GOLDEN / f"{name}.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [list(obj) for obj in payload] == [["t", "weight", "sensitivity", "saturated"]] * len(rows)
    assert payload == [
        {
            "t": float(r["t"]),
            "weight": float(r["weight"]),
            "sensitivity": float(r["sensitivity"]),
            "saturated": r["saturated"] == "true",
        }
        for r in rows
    ]


@pytest.mark.parametrize("name", ["sweep_t_median", "sweep_sigma_ratio"])
def test_sweep_json_matches_golden_csv(name: str, tmp_path: Path, capsys: pytest.CaptureFixture[str]) -> None:
    # output.format json writes the sweep CSV as its header and rows of cells, NaN as null.
    payload = json_table(name, tmp_path)
    capsys.readouterr()
    with (GOLDEN / f"{name}.csv").open(newline="") as fh:
        header, *rows = csv.reader(fh)
    assert list(payload) == ["columns", "rows"]
    assert payload["columns"] == header
    assert payload["rows"] == [[None if cell == "nan" else float(cell) for cell in row] for row in rows]
    assert any(None in row for row in payload["rows"]) == (name == "sweep_sigma_ratio")


def run_process(args: list[str], cwd: Path) -> subprocess.CompletedProcess[bytes]:
    """A fresh interpreter running args with this checkout's src/ importable."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True, cwd=cwd, env=env)


class TestProcess:
    """python -m adtplan.cli enters through run(), which freezes gc and exits with main()'s code."""

    def test_quantile_prints_golden(self, tmp_path: Path) -> None:
        done = run_process(["-m", "adtplan.cli", "quantile", "--scenario", str(SCENARIO)], tmp_path)
        assert (done.returncode, done.stdout) == (0, (GOLDEN / "quantile.out").read_bytes())

    def test_optimize_time_writes_golden(self, tmp_path: Path) -> None:
        argv = ["optimize-time", "--scenario", str(SCENARIO), "--out", str(tmp_path / "plan.csv")]
        assert run_process(["-m", "adtplan.cli", *argv], tmp_path).returncode == 0
        assert (tmp_path / "plan.csv").read_bytes() == (GOLDEN / "optimize_time.csv").read_bytes()

    def test_refusal_exits_2_with_empty_stdout(self, tmp_path: Path) -> None:
        done = run_process(["-m", "adtplan.cli", "quantile", "--scenario", str(SCENARIO), "--alpha", "2"], tmp_path)
        assert (done.returncode, done.stdout) == (2, b"")
        assert done.stderr == b"error: alpha must be in (0,1), got 2.0\n"

    def test_exit_runs_atexit_handlers(self, tmp_path: Path) -> None:
        # The process leaves through SystemExit, not os._exit: a handler that
        # coverage or a profiler would register still runs after run() froze
        # the heap, and the process keeps main()'s exit code.
        code = (
            "import atexit, gc, runpy, sys\n"
            "atexit.register(lambda: print('atexit', gc.get_freeze_count() > 0))\n"
            f"sys.argv = ['adtplan', 'quantile', '--scenario', {str(SCENARIO)!r}, '--alpha', '2']\n"
            "runpy.run_module('adtplan.cli', run_name='__main__')\n"
        )
        done = run_process(["-c", code], tmp_path)
        assert (done.returncode, done.stdout) == (2, b"atexit True\n")

    def test_main_leaves_gc_unfrozen(self, capsys: pytest.CaptureFixture[str]) -> None:
        frozen = gc.get_freeze_count()
        assert main(["quantile", "--scenario", str(SCENARIO)]) == 0
        assert gc.get_freeze_count() == frozen
