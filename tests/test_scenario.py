"""Scenario file parsing: happy path, error accumulation, round-trips."""

from __future__ import annotations

from pathlib import Path

import pytest

from adtplan import (
    GridSpec,
    ScenarioValidationError,
    load_scenario,
    median_failure_time,
    parse_scenario,
    serialize_scenario,
)

SCENARIO_PATH = Path(__file__).resolve().parent.parent / "scenarios" / "example1.scenario"

MINIMAL = """\
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


class TestHappyPath:
    def test_reference_file_parses(self) -> None:
        scenario = load_scenario(SCENARIO_PATH)
        model = scenario.model
        assert model.beta == (2.397, 1.018, 1.629, 0.0696)
        assert model.x_u == -0.056 and model.y0 == 3.912
        assert scenario.grid == GridSpec(J=20, k=6)
        assert median_failure_time(model) == pytest.approx(1.5838873865203356, rel=1e-12)

    def test_minimal_document(self) -> None:
        scenario = parse_scenario(MINIMAL)
        assert scenario.grid is None and scenario.sweep is None and scenario.output is None
        assert scenario.model.sigma_gamma[0][0] == pytest.approx(0.114**2)

    def test_polynomial_stress_basis(self) -> None:
        text = MINIMAL.replace("stress_basis: affine", "stress_basis: {degree: 2}").replace(
            "beta: [2.397, 1.018, 1.629, 0.0696]",
            "beta: [2.397, 1.018, 1.629, 0.0696, 0.1, 0.01]",
        )
        scenario = parse_scenario(text)
        assert scenario.model.stress_basis.dim == 3

    def test_quadratic_time_basis_needs_wider_covariance(self) -> None:
        # sigma1/sigma2/rho describe a two-dimensional random effect, so a
        # higher-degree time basis cannot be expressed in this file format.
        text = MINIMAL.replace("time_basis: affine", "time_basis: {degree: 2}").replace(
            "beta: [2.397, 1.018, 1.629, 0.0696]",
            "beta: [2.397, 1.018, 0.1, 1.629, 0.0696, 0.01]",
        )
        with pytest.raises(ScenarioValidationError, match="sigma_gamma"):
            parse_scenario(text)

    def test_sweep_and_output_sections(self) -> None:
        text = MINIMAL + (
            "sweep:\n"
            "  variable: sigma_ratio\n"
            "  lo: 0.5\n"
            "  hi: 2.0\n"
            "  n: 50\n"
            "  candidates: [xi_tau2]\n"
            "output:\n"
            "  format: json\n"
            "  path: out.json\n"
        )
        scenario = parse_scenario(text)
        assert scenario.sweep.variable == "sigma_ratio"
        assert scenario.sweep.n_points == 50
        assert scenario.sweep.candidates == ("xi_tau2",)
        assert scenario.output.format == "json"


class TestErrorReporting:
    def test_rho_out_of_range_message(self) -> None:
        text = MINIMAL.replace("rho: -0.143", "rho: 1.5")
        with pytest.raises(ScenarioValidationError) as exc:
            parse_scenario(text)
        assert "sigma_gamma.rho out of [-1,1]" in str(exc.value)

    def test_missing_field_names_path(self) -> None:
        text = MINIMAL.replace("  y0: 3.912\n", "")
        with pytest.raises(ScenarioValidationError, match=r"model\.y0"):
            parse_scenario(text)

    def test_errors_accumulate(self) -> None:
        text = MINIMAL.replace("rho: -0.143", "rho: 1.5").replace("  y0: 3.912\n", "")
        with pytest.raises(ScenarioValidationError) as exc:
            parse_scenario(text)
        assert len(exc.value.errors) >= 2

    def test_syntax_error_reports_position(self) -> None:
        with pytest.raises(ScenarioValidationError, match=r"syntax error at line"):
            parse_scenario("model: [unclosed\n")

    def test_unknown_section_and_field(self) -> None:
        with pytest.raises(ScenarioValidationError, match="unknown"):
            parse_scenario(MINIMAL + "extras:\n  a: 1\n")
        with pytest.raises(ScenarioValidationError, match="unknown"):
            parse_scenario(MINIMAL.replace("y0: 3.912", "y0: 3.912\n  zz: 1"))

    def test_beta_length_must_match_bases(self) -> None:
        text = MINIMAL.replace(
            "beta: [2.397, 1.018, 1.629, 0.0696]", "beta: [2.397, 1.018, 1.629]"
        )
        with pytest.raises(ScenarioValidationError, match="beta"):
            parse_scenario(text)

    def test_bool_is_not_a_number(self) -> None:
        text = MINIMAL.replace("sigma_eps: 0.048", "sigma_eps: true")
        with pytest.raises(ScenarioValidationError, match="sigma_eps"):
            parse_scenario(text)

    def test_non_mapping_document(self) -> None:
        with pytest.raises(ScenarioValidationError):
            parse_scenario("- 1\n- 2\n")

    def test_grid_requires_integers(self) -> None:
        with pytest.raises(ScenarioValidationError, match=r"grid\.J"):
            parse_scenario(MINIMAL + "grid:\n  J: 2.5\n  k: 6\n")

    def test_negative_sd_rejected(self) -> None:
        with pytest.raises(ScenarioValidationError, match=r"model\.sigma1"):
            parse_scenario(MINIMAL.replace("sigma1: 0.114", "sigma1: -0.1"))

    def test_sweep_unknown_variable(self) -> None:
        with pytest.raises(ScenarioValidationError, match=r"sweep.*variable.*nope"):
            parse_scenario(MINIMAL + "sweep:\n  variable: nope\n  lo: 1.1\n  hi: 2\n")


class TestRoundTrip:
    def test_serialize_then_parse_is_identity(self) -> None:
        original = load_scenario(SCENARIO_PATH)
        redone = parse_scenario(serialize_scenario(original))
        assert redone == original

    def test_round_trip_with_all_sections(self) -> None:
        text = MINIMAL + (
            "grid:\n  J: 40\n  k: 4\n"
            "sweep:\n  variable: t_median\n  lo: 1.1\n  hi: 9.0\n  n: 30\n"
            "output:\n  format: csv\n  path: plan.csv\n"
        )
        original = parse_scenario(text)
        assert parse_scenario(serialize_scenario(original)) == original


_BETA = "beta: [2.397, 1.018, 1.629, 0.0696]"


def _edit(*pairs: str) -> str:
    """MINIMAL with each (old, new) pair of substrings replaced; every old must occur."""
    text = MINIMAL
    for old, new in zip(pairs[::2], pairs[1::2]):
        assert old in text, old
        text = text.replace(old, new)
    return text


# Each malformed document with its full error list, in order, and each valid
# one with its serialize_scenario text.  Explicit nulls in required fields
# are pinned separately below.
_MALFORMED = {
    "no_model": (
        "grid:\n  J: 20\n  k: 6\n",
        ["model: required section is missing"],
    ),
    "model_null": (
        "model:\n",
        ["model: required section is missing"],
    ),
    "model_list": (
        "model: [1, 2]\n",
        ["model: expected a mapping, got list"],
    ),
    "model_scalar": (
        "model: 5\n",
        ["model: expected a mapping, got int"],
    ),
    "model_unknown_field": (
        _edit("y0: 3.912", "y0: 3.912\n  zz: 1\n  1: x"),
        ["model.zz: unknown field", "model.1: unknown field"],
    ),
    "model_missing_y0": (
        _edit("  y0: 3.912\n", ""),
        ["model.y0: required field is missing"],
    ),
    "model_missing_stress_basis": (
        _edit("  stress_basis: affine\n", ""),
        ["model.stress_basis: required field is missing"],
    ),
    "basis_bad_name": (
        _edit("stress_basis: affine", "stress_basis: quadratic"),
        ["model.stress_basis: expected 'affine' or {degree: n}, got 'quadratic'"],
    ),
    "basis_degree_zero": (
        _edit("stress_basis: affine", "stress_basis: {degree: 0}"),
        ["model.stress_basis.degree: expected a positive integer, got 0"],
    ),
    "basis_degree_bool": (
        _edit("time_basis: affine", "time_basis: {degree: true}"),
        ["model.time_basis.degree: expected a positive integer, got True"],
    ),
    "basis_degree_float": (
        _edit("stress_basis: affine", "stress_basis: {degree: 2.5}"),
        ["model.stress_basis.degree: expected a positive integer, got 2.5"],
    ),
    "basis_extra_key": (
        _edit("time_basis: affine", "time_basis: {degree: 2, extra: 1}"),
        ["model.time_basis: expected 'affine' or {degree: n}, got {'degree': 2, 'extra': 1}"],
    ),
    "basis_list": (
        _edit("time_basis: affine", "time_basis: [1]"),
        ["model.time_basis: expected 'affine' or {degree: n}, got [1]"],
    ),
    "beta_missing": (
        _edit("  " + _BETA + "\n", ""),
        ["model.beta: required field is missing"],
    ),
    "beta_empty": (
        _edit(_BETA, "beta: []"),
        ["model.beta: expected a non-empty list of numbers, got []"],
    ),
    "beta_string_entry": (
        _edit(_BETA, "beta: [1, a, 1, 1]"),
        ["model.beta: expected a non-empty list of numbers, got [1, 'a', 1, 1]"],
    ),
    "beta_scalar": (
        _edit(_BETA, "beta: 3"),
        ["model.beta: expected a non-empty list of numbers, got 3"],
    ),
    "beta_bool_entry": (
        _edit(_BETA, "beta: [true, 1, 1, 1]"),
        ["model.beta: expected a non-empty list of numbers, got [True, 1, 1, 1]"],
    ),
    "beta_length": (
        _edit(_BETA, "beta: [2.397, 1.018, 1.629]"),
        ["model.beta: expected 4 coefficients for the given bases, got 3"],
    ),
    "beta_length_degree2": (
        _edit("stress_basis: affine", "stress_basis: {degree: 2}"),
        ["model.beta: expected 6 coefficients for the given bases, got 4"],
    ),
    "rho_above_one": (
        _edit("rho: -0.143", "rho: 1.5"),
        ["model.rho: sigma_gamma.rho out of [-1,1], got 1.5"],
    ),
    "rho_int_below": (
        _edit("rho: -0.143", "rho: -2"),
        ["model.rho: sigma_gamma.rho out of [-1,1], got -2.0"],
    ),
    "rho_nan": (
        _edit("rho: -0.143", "rho: .nan"),
        ["model.rho: sigma_gamma.rho out of [-1,1], got nan"],
    ),
    "sigma1_negative_int": (
        _edit("sigma1: 0.114", "sigma1: -1"),
        ["model.sigma1: standard deviation must be nonnegative, got -1.0"],
    ),
    "sigma2_negative": (
        _edit("sigma2: 0.105", "sigma2: -0.5"),
        ["model.sigma2: standard deviation must be nonnegative, got -0.5"],
    ),
    "sigma_eps_negative": (
        _edit("sigma_eps: 0.048", "sigma_eps: -0.1"),
        ["model.sigma_eps: standard deviation must be nonnegative, got -0.1"],
    ),
    "sigma_eps_zero": (
        _edit("sigma_eps: 0.048", "sigma_eps: 0"),
        ["model: sigma_eps must be positive and finite, got 0.0"],
    ),
    "sigma_eps_nan": (
        _edit("sigma_eps: 0.048", "sigma_eps: .nan"),
        ["model: sigma_eps must be positive and finite, got nan"],
    ),
    "sigma_eps_inf": (
        _edit("sigma_eps: 0.048", "sigma_eps: .inf"),
        ["model: sigma_eps must be positive and finite, got inf"],
    ),
    "sigma_eps_string": (
        _edit("sigma_eps: 0.048", "sigma_eps: '0.05'"),
        ["model.sigma_eps: expected a number, got '0.05'"],
    ),
    "sigma_eps_bool": (
        _edit("sigma_eps: 0.048", "sigma_eps: true"),
        ["model.sigma_eps: expected a number, got True"],
    ),
    "x_u_list": (
        _edit("x_u: -0.056", "x_u: [1]"),
        ["model.x_u: expected a number, got [1]"],
    ),
    "quadratic_time_basis": (
        _edit(
            "time_basis: affine",
            "time_basis: {degree: 2}",
            _BETA,
            "beta: [2.397, 1.018, 0.1, 1.629, 0.0696, 0.01]",
        ),
        ["model: sigma_gamma has shape (2, 2), expected (3, 3)"],
    ),
    "model_many": (
        _edit(
            "rho: -0.143",
            "rho: 1.5",
            "  y0: 3.912\n",
            "",
            "x_u: -0.056",
            "x_u: -0.056\n  zz: 1",
            _BETA,
            "beta: [1, a]",
            "sigma2: 0.105",
            "sigma2: -1",
            "stress_basis: affine",
            "stress_basis: {degree: -1}",
        ),
        [
            "model.zz: unknown field",
            "model.stress_basis.degree: expected a positive integer, got -1",
            "model.y0: required field is missing",
            "model.beta: expected a non-empty list of numbers, got [1, 'a']",
            "model.rho: sigma_gamma.rho out of [-1,1], got 1.5",
            "model.sigma2: standard deviation must be nonnegative, got -1.0",
        ],
    ),
    "grid_list": (
        MINIMAL + "grid: [1]\n",
        ["grid: expected a mapping, got list"],
    ),
    "grid_float_J": (
        MINIMAL + "grid:\n  J: 2.5\n  k: 6\n",
        ["grid.J: expected an integer, got 2.5"],
    ),
    "grid_missing_k": (
        MINIMAL + "grid:\n  J: 20\n",
        ["grid.k: required field is missing"],
    ),
    "grid_empty": (
        MINIMAL + "grid: {}\n",
        ["grid.J: required field is missing", "grid.k: required field is missing"],
    ),
    "grid_unknown_field": (
        MINIMAL + "grid:\n  J: 20\n  k: 6\n  extra: 1\n",
        ["grid.extra: unknown field"],
    ),
    "grid_bool_J": (
        MINIMAL + "grid:\n  J: true\n  k: 6\n",
        ["grid.J: expected an integer, got True"],
    ),
    "grid_zero_J": (
        MINIMAL + "grid:\n  J: 0\n  k: 6\n",
        ["grid: J must be a positive integer, got 0"],
    ),
    "grid_zero_k": (
        MINIMAL + "grid:\n  J: 20\n  k: 0\n",
        ["grid: k must be a positive integer, got 0"],
    ),
    "grid_k_too_large": (
        MINIMAL + "grid:\n  J: 4\n  k: 9\n",
        ["grid: cap 1/9 over 5 grid points cannot carry total weight 1"],
    ),
    "sweep_scalar": (
        MINIMAL + "sweep: 5\n",
        ["sweep: expected a mapping, got int"],
    ),
    "sweep_missing_variable": (
        MINIMAL + "sweep:\n  lo: 1.1\n  hi: 2\n",
        ["sweep.variable: required field is missing"],
    ),
    "sweep_unknown_variable": (
        MINIMAL + "sweep:\n  variable: nope\n  lo: 1.1\n  hi: 2\n",
        ["sweep: sweep variable must be one of ('t_median', 'sigma_ratio'), got 'nope'"],
    ),
    "sweep_variable_int": (
        MINIMAL + "sweep:\n  variable: 5\n  lo: 1.1\n  hi: 2\n",
        ["sweep: sweep variable must be one of ('t_median', 'sigma_ratio'), got 5"],
    ),
    "sweep_bad_lo_missing_hi": (
        MINIMAL + "sweep:\n  variable: t_median\n  lo: a\n",
        ["sweep.lo: expected a number, got 'a'", "sweep.hi: required field is missing"],
    ),
    "sweep_float_n": (
        MINIMAL + "sweep:\n  variable: t_median\n  lo: 1.1\n  hi: 2\n  n: 2.5\n",
        ["sweep.n: expected an integer, got 2.5"],
    ),
    "sweep_null_n": (
        MINIMAL + "sweep:\n  variable: t_median\n  lo: 1.1\n  hi: 2\n  n:\n",
        ["sweep.n: expected an integer, got None"],
    ),
    "sweep_n_one": (
        MINIMAL + "sweep:\n  variable: t_median\n  lo: 1.1\n  hi: 2\n  n: 1\n",
        ["sweep: sweep needs at least 2 points, got 1"],
    ),
    "sweep_candidates_string": (
        MINIMAL + "sweep:\n  variable: t_median\n  lo: 1.1\n  hi: 2\n  candidates: xi_tau2\n",
        ["sweep.candidates: expected a list of names, got 'xi_tau2'"],
    ),
    "sweep_candidates_null": (
        MINIMAL + "sweep:\n  variable: t_median\n  lo: 1.1\n  hi: 2\n  candidates:\n",
        ["sweep.candidates: expected a list of names, got None"],
    ),
    "sweep_candidates_unknown": (
        MINIMAL + "sweep:\n  variable: t_median\n  lo: 1.1\n  hi: 2\n  candidates: [bogus]\n",
        ["sweep: unknown candidates ['bogus']; choose from ('zeta_star_nominal', 'xi_tau2', 'xi_tau6')"],
    ),
    "sweep_reversed_range": (
        MINIMAL + "sweep:\n  variable: sigma_ratio\n  lo: 2\n  hi: 1\n",
        ["sweep: sweep range needs lo < hi, got [2.0, 1.0]"],
    ),
    "sweep_unknown_field": (
        MINIMAL + "sweep:\n  variable: t_median\n  lo: 1.1\n  hi: 2\n  step: 1\n",
        ["sweep.step: unknown field"],
    ),
    "output_list": (
        MINIMAL + "output: [1]\n",
        ["output: expected a mapping, got list"],
    ),
    "output_bad_format": (
        MINIMAL + "output:\n  format: xml\n",
        ["output: output format must be csv or json, got 'xml'"],
    ),
    "output_null_format": (
        MINIMAL + "output:\n  format:\n",
        ["output: output format must be csv or json, got None"],
    ),
    "output_path_int": (
        MINIMAL + "output:\n  path: 5\n",
        ["output.path: expected a string, got 5"],
    ),
    "output_path_int_bad_format": (
        MINIMAL + "output:\n  format: xml\n  path: 5\n",
        ["output.path: expected a string, got 5"],
    ),
    "output_unknown_field": (
        MINIMAL + "output:\n  format: json\n  mode: w\n",
        ["output.mode: unknown field"],
    ),
    "unknown_section": (
        MINIMAL + "extras:\n  a: 1\n",
        ["extras: unknown section"],
    ),
    "every_section": (
        _edit("rho: -0.143", "rho: 1.5") + (
            "grid:\n  J: 2.5\n  zz: 1\nsweep:\n  variable: nope\n  lo: 1\n  hi: 2\noutput:\n  format: xml\n"
            "extras: 1\n"
        ),
        [
            "extras: unknown section",
            "model.rho: sigma_gamma.rho out of [-1,1], got 1.5",
            "grid.zz: unknown field",
            "grid.J: expected an integer, got 2.5",
            "grid.k: required field is missing",
            "sweep: sweep variable must be one of ('t_median', 'sigma_ratio'), got 'nope'",
            "output: output format must be csv or json, got 'xml'",
        ],
    ),
    "document_list": (
        "- 1\n- 2\n",
        ["scenario: expected a mapping, got list"],
    ),
    "document_empty": (
        "",
        ["scenario: expected a mapping, got NoneType"],
    ),
    "syntax_error": (
        "model: [unclosed\n",
        ["syntax error at line 2, column 1: expected ',' or ']', but got '<stream end>'"],
    ),
}
_VALID = {
    "minimal": (
        MINIMAL,
        (
            "model:\n  stress_basis: affine\n  time_basis: affine\n  beta:\n  - 2.397\n  - 1.018\n  - 1.629\n"
            "  - 0.0696\n  sigma1: 0.114\n  sigma2: 0.105\n  rho: -0.143\n  sigma_eps: 0.048\n  x_u: -0.056\n"
            "  y0: 3.912\n"
        ),
    ),
    "int_scalars": (
        _edit("sigma1: 0.114", "sigma1: 1", "x_u: -0.056", "x_u: -2", _BETA, "beta: [2, 1, 1, 0]"),
        (
            "model:\n  stress_basis: affine\n  time_basis: affine\n  beta:\n  - 2.0\n  - 1.0\n  - 1.0\n  - 0.0\n"
            "  sigma1: 1.0\n  sigma2: 0.105\n  rho: -0.143\n  sigma_eps: 0.048\n  x_u: -2.0\n  y0: 3.912\n"
        ),
    ),
    "degree2_stress": (
        _edit(
            "stress_basis: affine",
            "stress_basis: {degree: 2}",
            _BETA,
            "beta: [2.397, 1.018, 1.629, 0.0696, 0.1, 0.01]",
        ),
        (
            "model:\n  stress_basis:\n    degree: 2\n  time_basis: affine\n  beta:\n  - 2.397\n  - 1.018\n"
            "  - 1.629\n  - 0.0696\n  - 0.1\n  - 0.01\n  sigma1: 0.114\n  sigma2: 0.105\n  rho: -0.143\n"
            "  sigma_eps: 0.048\n  x_u: -0.056\n  y0: 3.912\n"
        ),
    ),
    "all_sections": (
        MINIMAL + (
            "grid:\n  J: 40\n  k: 4\nsweep:\n  variable: t_median\n  lo: 1.1\n  hi: 9\n  n: 30\n"
            "  candidates: [xi_tau2, xi_tau6]\noutput:\n  format: csv\n  path: plan.csv\n"
        ),
        (
            "model:\n  stress_basis: affine\n  time_basis: affine\n  beta:\n  - 2.397\n  - 1.018\n  - 1.629\n"
            "  - 0.0696\n  sigma1: 0.114\n  sigma2: 0.105\n  rho: -0.143\n  sigma_eps: 0.048\n  x_u: -0.056\n"
            "  y0: 3.912\ngrid:\n  J: 40\n  k: 4\nsweep:\n  variable: t_median\n  lo: 1.1\n  hi: 9.0\n  n: 30\n"
            "  candidates:\n  - xi_tau2\n  - xi_tau6\noutput:\n  format: csv\n  path: plan.csv\n"
        ),
    ),
    "sweep_defaults": (
        MINIMAL + "sweep:\n  variable: sigma_ratio\n  lo: 0.5\n  hi: 2\n",
        (
            "model:\n  stress_basis: affine\n  time_basis: affine\n  beta:\n  - 2.397\n  - 1.018\n  - 1.629\n"
            "  - 0.0696\n  sigma1: 0.114\n  sigma2: 0.105\n  rho: -0.143\n  sigma_eps: 0.048\n  x_u: -0.056\n"
            "  y0: 3.912\nsweep:\n  variable: sigma_ratio\n  lo: 0.5\n  hi: 2.0\n  n: 200\n  candidates:\n"
            "  - zeta_star_nominal\n  - xi_tau2\n  - xi_tau6\n"
        ),
    ),
    "output_defaults": (
        MINIMAL + "output: {}\n",
        (
            "model:\n  stress_basis: affine\n  time_basis: affine\n  beta:\n  - 2.397\n  - 1.018\n  - 1.629\n"
            "  - 0.0696\n  sigma1: 0.114\n  sigma2: 0.105\n  rho: -0.143\n  sigma_eps: 0.048\n  x_u: -0.056\n"
            "  y0: 3.912\noutput:\n  format: csv\n"
        ),
    ),
    "output_null_path": (
        MINIMAL + "output:\n  format: json\n  path:\n",
        (
            "model:\n  stress_basis: affine\n  time_basis: affine\n  beta:\n  - 2.397\n  - 1.018\n  - 1.629\n"
            "  - 0.0696\n  sigma1: 0.114\n  sigma2: 0.105\n  rho: -0.143\n  sigma_eps: 0.048\n  x_u: -0.056\n"
            "  y0: 3.912\noutput:\n  format: json\n"
        ),
    ),
    "optional_sections_null": (
        MINIMAL + "grid:\nsweep:\noutput:\n",
        (
            "model:\n  stress_basis: affine\n  time_basis: affine\n  beta:\n  - 2.397\n  - 1.018\n  - 1.629\n"
            "  - 0.0696\n  sigma1: 0.114\n  sigma2: 0.105\n  rho: -0.143\n  sigma_eps: 0.048\n  x_u: -0.056\n"
            "  y0: 3.912\n"
        ),
    ),
    "zero_sds": (
        _edit("sigma1: 0.114", "sigma1: 0", "sigma2: 0.105", "sigma2: 0.0"),
        (
            "model:\n  stress_basis: affine\n  time_basis: affine\n  beta:\n  - 2.397\n  - 1.018\n  - 1.629\n"
            "  - 0.0696\n  sigma1: 0.0\n  sigma2: 0.0\n  rho: 0.0\n  sigma_eps: 0.048\n  x_u: -0.056\n"
            "  y0: 3.912\n"
        ),
    ),
}


class TestPinnedMessages:
    @pytest.mark.parametrize("text, errors", _MALFORMED.values(), ids=_MALFORMED)
    def test_error_list(self, text: str, errors: list[str]) -> None:
        with pytest.raises(ScenarioValidationError) as exc:
            parse_scenario(text)
        assert exc.value.errors == errors

    @pytest.mark.parametrize("text, serialized", _VALID.values(), ids=_VALID)
    def test_serialized_text(self, text: str, serialized: str) -> None:
        assert serialize_scenario(parse_scenario(text)) == serialized

    @pytest.mark.parametrize(
        "text, error",
        [
            (_edit("sigma1: 0.114", "sigma1:"), "model.sigma1: required field is missing"),
            (_edit(_BETA, "beta:"), "model.beta: required field is missing"),
            (_edit("stress_basis: affine", "stress_basis:"), "model.stress_basis: required field is missing"),
            (
                _edit("time_basis: affine", "time_basis: {degree: null}"),
                "model.time_basis.degree: required field is missing",
            ),
            (MINIMAL + "grid:\n  J:\n  k: 6\n", "grid.J: required field is missing"),
            (MINIMAL + "sweep:\n  variable:\n  lo: 1.1\n  hi: 2\n", "sweep.variable: required field is missing"),
            (MINIMAL + "sweep:\n  variable: t_median\n  lo:\n  hi: 2\n", "sweep.lo: required field is missing"),
        ],
        ids=["sigma1", "beta", "stress_basis", "degree", "grid.J", "sweep.variable", "sweep.lo"],
    )
    def test_null_required_field_reads_as_missing(self, text: str, error: str) -> None:
        # One spelling for every required field; optional ones keep their
        # defaults only when absent (n: null is an error, path: null is no path).
        with pytest.raises(ScenarioValidationError) as exc:
            parse_scenario(text)
        assert exc.value.errors == [error]

    @pytest.mark.parametrize("sigma_eps", ["1.0e-200", "1.0e+200"])
    def test_sigma_eps_whose_square_leaves_the_float_range(self, sigma_eps: str) -> None:
        text = _edit("sigma_eps: 0.048", f"sigma_eps: {sigma_eps}")
        with pytest.raises(ScenarioValidationError) as exc:
            parse_scenario(text)
        assert exc.value.errors == [f"model: sigma_eps must be positive and finite, got {float(sigma_eps)}"]
