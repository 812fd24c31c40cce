"""Scenario files: one YAML document describing a model, a grid, and a sweep.

Schema (dotted paths as reported in validation errors):

    model:
      stress_basis: affine | {degree: n}
      time_basis:   affine | {degree: n}
      beta:         [b_00, b_01, ..., b_10, ...]   stress-major coefficient order
      sigma1:       random-intercept standard deviation
      sigma2:       random-slope standard deviation
      rho:          intercept/slope correlation
      sigma_eps:    measurement error standard deviation
      x_u:          standardized use stress
      y0:           degradation threshold
    grid:   {J: subdivisions, k: measurements per unit}     (optional)
    sweep:  {variable, lo, hi, n, candidates[]}             (optional)
    output: {format: csv | json, path}                      (optional)

Parsing is not fail-fast: every detectable problem is collected and raised
in one ScenarioValidationError, each message prefixed with the field path.
A required field set to null is reported as missing.

PyYAML is imported by parse_scenario and serialize_scenario at their first
call, not with the package: the library API needs no scenario file.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import ScenarioValidationError, ValidationError
from .model import DegradationModel, ErrorSpec, PowerBasis, sigma_gamma_from_sd_corr
from .sweeps import ALL_CANDIDATES, SweepSpec
from .timeplan import GridSpec

__all__ = ["OutputSpec", "Scenario", "parse_scenario", "serialize_scenario", "load_scenario"]

_SCALAR_MODEL_KEYS = ("sigma1", "sigma2", "rho", "sigma_eps", "x_u", "y0")
_MODEL_KEYS = ("stress_basis", "time_basis", "beta", *_SCALAR_MODEL_KEYS)
_REQUIRED = object()


@dataclass(frozen=True)
class OutputSpec:
    format: str = "csv"
    path: str | None = None

    def __post_init__(self) -> None:
        if self.format not in ("csv", "json"):
            raise ValidationError(f"output format must be csv or json, got {self.format!r}")


@dataclass(frozen=True)
class Scenario:
    model: DegradationModel
    grid: GridSpec | None = None
    sweep: SweepSpec | None = None
    output: OutputSpec | None = None


def _is_number(v: object) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_int(v: object) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _section(doc: dict, name: str, keys: tuple[str, ...], errors: list[str], required: bool = False) -> dict | None:
    """doc[name] if it is a mapping, its unknown fields reported; else None, reported unless optional and absent."""
    raw = doc.get(name)
    if raw is None:
        if required:
            errors.append(f"{name}: required section is missing")
    elif not isinstance(raw, dict):
        errors.append(f"{name}: expected a mapping, got {type(raw).__name__}")
    else:
        errors.extend(f"{name}.{key}: unknown field" for key in raw if key not in keys)
        return raw
    return None


def _field(
    section: dict,
    key: str,
    path: str,
    errors: list[str],
    expected: str = "",
    ok: Callable[[object], bool] | None = None,
    default: object = _REQUIRED,
) -> object:
    """section[key], or default when absent; None, reported, when required and absent or null, or when not ok."""
    if key not in section and default is not _REQUIRED:
        return default
    v = section.get(key)
    if v is None and default is _REQUIRED:
        errors.append(f"{path}.{key}: required field is missing")
    elif ok is not None and not ok(v):
        errors.append(f"{path}.{key}: expected {expected}, got {v!r}")
    else:
        return v
    return None


def _number(section: dict, key: str, path: str, errors: list[str]) -> float | None:
    v = _field(section, key, path, errors, "a number", _is_number)
    return None if v is None else float(v)


def _basis(section: dict, key: str, errors: list[str]) -> PowerBasis | None:
    v = _field(
        section, key, "model", errors, "'affine' or {degree: n}",
        lambda v: v == "affine" or isinstance(v, dict) and set(v) == {"degree"},
    )
    if v == "affine":
        return PowerBasis(1)
    if v is None:
        return None
    d = _field(v, "degree", f"model.{key}", errors, "a positive integer", lambda d: _is_int(d) and d >= 1)
    return None if d is None else PowerBasis(d)


def _read_model(raw: dict, errors: list[str]) -> Callable[[], DegradationModel]:
    stress = _basis(raw, "stress_basis", errors)
    time = _basis(raw, "time_basis", errors)
    s = {k: _number(raw, k, "model", errors) for k in _SCALAR_MODEL_KEYS}
    beta = _field(
        raw, "beta", "model", errors, "a non-empty list of numbers",
        lambda b: isinstance(b, list) and b and all(map(_is_number, b)),
    )
    if s["rho"] is not None and not (-1.0 <= s["rho"] <= 1.0):
        errors.append(f"model.rho: sigma_gamma.rho out of [-1,1], got {s['rho']}")
    for k in ("sigma1", "sigma2", "sigma_eps"):
        if s[k] is not None and s[k] < 0.0:
            errors.append(f"model.{k}: standard deviation must be nonnegative, got {s[k]}")
    if stress and time and beta and len(beta) != stress.dim * time.dim:
        errors.append(f"model.beta: expected {stress.dim * time.dim} coefficients for the given bases, got {len(beta)}")
    return lambda: DegradationModel(
        stress_basis=stress,
        time_basis=time,
        beta=tuple(map(float, beta)),
        sigma_gamma=sigma_gamma_from_sd_corr(s["sigma1"], s["sigma2"], s["rho"]),
        error_spec=ErrorSpec(sigma_eps=s["sigma_eps"]),
        x_u=s["x_u"],
        y0=s["y0"],
    )


def _read_grid(raw: dict, errors: list[str]) -> Callable[[], GridSpec]:
    J, k = (_field(raw, key, "grid", errors, "an integer", _is_int) for key in ("J", "k"))
    return lambda: GridSpec(J=J, k=k)


def _read_sweep(raw: dict, errors: list[str]) -> Callable[[], SweepSpec]:
    variable = _field(raw, "variable", "sweep", errors)
    lo, hi = _number(raw, "lo", "sweep", errors), _number(raw, "hi", "sweep", errors)
    n = _field(raw, "n", "sweep", errors, "an integer", _is_int, default=200)
    candidates = _field(
        raw, "candidates", "sweep", errors, "a list of names",
        lambda c: isinstance(c, list) and all(isinstance(name, str) for name in c), default=list(ALL_CANDIDATES),
    )
    return lambda: SweepSpec(variable=variable, lo=lo, hi=hi, n_points=n, candidates=tuple(candidates))


def _read_output(raw: dict, errors: list[str]) -> Callable[[], OutputSpec]:
    fmt = _field(raw, "format", "output", errors, default="csv")
    path = _field(raw, "path", "output", errors, "a string", lambda p: p is None or isinstance(p, str), default=None)
    return lambda: OutputSpec(format=fmt, path=path)


# Each section's fields and reader, in the order their errors are reported.  A
# reader checks the fields, reporting into errors, and returns the constructor
# call; parse_scenario makes it only when the reader reported nothing.
_SECTIONS = {
    "model": (_MODEL_KEYS, _read_model),
    "grid": (("J", "k"), _read_grid),
    "sweep": (("variable", "lo", "hi", "n", "candidates"), _read_sweep),
    "output": (("format", "path"), _read_output),
}


def parse_scenario(text: str) -> Scenario:
    """Parse and fully validate a scenario document.

    All problems are accumulated; the raised ScenarioValidationError lists
    every one with its field path.
    """
    import yaml

    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as e:
        mark = getattr(e, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ScenarioValidationError([f"syntax error{where}: {getattr(e, 'problem', e)}"]) from None
    if not isinstance(doc, dict):
        raise ScenarioValidationError([f"scenario: expected a mapping, got {type(doc).__name__}"])

    errors = [f"{key}: unknown section" for key in doc if key not in _SECTIONS]
    parts = {}
    for name, (keys, read) in _SECTIONS.items():
        raw = _section(doc, name, keys, errors, required=name == "model")
        if raw is None:
            continue
        n_errors = len(errors)
        make = read(raw, errors)
        if len(errors) == n_errors:
            try:
                parts[name] = make()
            except ValidationError as e:
                errors.append(f"{name}: {e}")
    if errors:
        raise ScenarioValidationError(errors)
    return Scenario(**parts)


def _basis_doc(basis: PowerBasis) -> object:
    return "affine" if basis.degree == 1 else {"degree": basis.degree}


def serialize_scenario(scenario: Scenario) -> str:
    """Inverse of parse_scenario up to semantic equality of the round trip."""
    import yaml

    m = scenario.model
    sg = m.sigma_gamma_matrix()
    s1 = float(sg[0, 0]) ** 0.5
    s2 = float(sg[1, 1]) ** 0.5
    rho = float(sg[0, 1]) / (s1 * s2) if s1 > 0.0 and s2 > 0.0 else 0.0
    doc: dict = {
        "model": {
            "stress_basis": _basis_doc(m.stress_basis),
            "time_basis": _basis_doc(m.time_basis),
            "beta": [float(b) for b in m.beta],
            "sigma1": s1,
            "sigma2": s2,
            "rho": rho,
            "sigma_eps": m.sigma_eps,
            "x_u": m.x_u,
            "y0": m.y0,
        }
    }
    if scenario.grid is not None:
        doc["grid"] = {"J": scenario.grid.J, "k": scenario.grid.k}
    if scenario.sweep is not None:
        sw = scenario.sweep
        doc["sweep"] = {
            "variable": sw.variable,
            "lo": sw.lo,
            "hi": sw.hi,
            "n": sw.n_points,
            "candidates": list(sw.candidates),
        }
    if scenario.output is not None:
        out: dict = {"format": scenario.output.format}
        if scenario.output.path is not None:
            out["path"] = scenario.output.path
        doc["output"] = out
    return yaml.safe_dump(doc, sort_keys=False, default_flow_style=False)


def load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario(fh.read())
