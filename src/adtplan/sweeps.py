"""Sensitivity sweeps for destructive c-optimal plans.

Tabulates the optimal endpoint weight pi* and the efficiency of fixed
candidate plans as the median failure time or the heteroscedasticity ratio
sigma(1)/sigma(0) moves away from its nominal value.  Efficiency of a
candidate zeta at a true parameter value theta is

    eff(zeta; theta) = c' M(zeta*_theta)^-1 c / c' M(zeta)^-1 c

in the single-observation model, where zeta*_theta is locally optimal at
theta.  Candidates and local optima share the Elfving stress design, so its
factor cancels and each efficiency is a ratio of time criteria on f2(t)/sigma(t):
with q_j = w_j / sigma^2(t_j), a time design scores
sum_j q_j (t - t_j)^2 / sum_{i<j} q_i q_j (t_i - t_j)^2 and the local optimum
(sigma(0)(t - 1) + sigma(1) t)^2 (Elfving 1952), for whole columns at once.
Ratio sweeps vary the ratio through the correlation rho under the
convention sigma1^2 = sigma2^2 + sigma_eps^2, which reaches only a bounded
ratio interval; rows outside it carry pi* (a function of the ratio alone)
but no efficiencies, and are flagged.

Sweep points are mutually independent; rows are ordered by abscissa.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple, Sequence

import numpy as np

from .criteria import _require_finite_criterion
from .destructive import (
    VarianceFunction,
    elfving_stress_design,
    elfving_time_design,
    pi_star_from_ratio,
)
from .errors import OutOfRegimeError, ValidationError
from .failure_time import median_failure_time
from .model import ApproximateDesign, DegradationModel, sigma_gamma_from_sd_corr

__all__ = [
    "CANDIDATE_ZETA_STAR",
    "CANDIDATE_TAU2",
    "CANDIDATE_TAU6",
    "ALL_CANDIDATES",
    "SweepSpec",
    "SweepRow",
    "SweepResult",
    "uniform_time_design",
    "candidate_time_designs",
    "vary_ratio_via_rho",
    "reachable_ratio_interval",
    "sweep_pi_star",
    "sweep_efficiency",
    "default_sweep_spec",
]

CANDIDATE_ZETA_STAR = "zeta_star_nominal"
CANDIDATE_TAU2 = "xi_tau2"
CANDIDATE_TAU6 = "xi_tau6"
ALL_CANDIDATES = (CANDIDATE_ZETA_STAR, CANDIDATE_TAU2, CANDIDATE_TAU6)

_VARIABLES = ("t_median", "sigma_ratio")

# A ratio counts as reachable while |rho| <= 1 + _RHO_SLACK; rho is then clipped to [-1, 1].
_RHO_SLACK = 1e-12


@dataclass(frozen=True)
class SweepSpec:
    """What to sweep, over which range, and which candidate plans to score.

    held_fixed pins the complementary parameter: the target median for
    sigma_ratio sweeps, the variance ratio for t_median sweeps.  None means
    the model's own nominal value.
    """

    variable: str
    lo: float
    hi: float
    n_points: int = 200
    held_fixed: float | None = None
    candidates: tuple[str, ...] = ALL_CANDIDATES

    def __post_init__(self) -> None:
        if self.variable not in _VARIABLES:
            raise ValidationError(
                f"sweep variable must be one of {_VARIABLES}, got {self.variable!r}"
            )
        if not (self.lo < self.hi):
            raise ValidationError(f"sweep range needs lo < hi, got [{self.lo}, {self.hi}]")
        if not math.isfinite(self.hi):  # lo < hi leaves only hi = inf; a lo of -inf fails the positivity checks
            raise ValidationError(f"sweep range must be finite, got hi = {self.hi}")
        if not isinstance(self.n_points, int):
            raise ValidationError(f"sweep needs an integer number of points, got {self.n_points!r}")
        if self.n_points < 2:
            raise ValidationError(f"sweep needs at least 2 points, got {self.n_points}")
        if self.variable == "t_median" and not (self.lo > 1.0):
            raise ValidationError(
                f"median sweeps need lo > 1 (extrapolation regime), got lo = {self.lo}"
            )
        if self.lo <= 0.0:
            raise ValidationError(f"sweep range must be positive for log spacing, got lo = {self.lo}")
        unknown = [c for c in self.candidates if c not in ALL_CANDIDATES]
        if unknown:
            raise ValidationError(f"unknown candidates {unknown}; choose from {ALL_CANDIDATES}")

    def abscissae(self) -> np.ndarray:
        return np.geomspace(self.lo, self.hi, self.n_points)


class SweepRow(NamedTuple):
    abscissa: float
    pi_star: float
    efficiencies: tuple[float, ...]
    reachable: bool = True


@dataclass(frozen=True)
class SweepResult:
    """Ordered sweep rows plus the nominal markers they are measured against."""

    spec: SweepSpec
    rows: tuple[SweepRow, ...]
    nominal_t_median: float
    nominal_ratio: float

    def __post_init__(self) -> None:
        for row in self.rows:
            if not (0.0 < row.pi_star < 1.0):
                raise ValidationError(f"pi_star out of (0,1) at abscissa {row.abscissa}: {row.pi_star}")
            for eff in row.efficiencies:
                if math.isnan(eff):
                    if row.reachable:
                        raise ValidationError(f"NaN efficiency on unflagged row at {row.abscissa}")
                    continue
                if not (0.0 < eff <= 1.0 + 1e-9):
                    raise ValidationError(f"efficiency out of (0,1] at abscissa {row.abscissa}: {eff}")

    def column(self, name: str) -> np.ndarray:
        if name == "abscissa":
            return np.array([r.abscissa for r in self.rows])
        if name == "pi_star":
            return np.array([r.pi_star for r in self.rows])
        try:
            idx = self.spec.candidates.index(name)
        except ValueError:
            raise KeyError(name) from None
        return np.array([r.efficiencies[idx] if idx < len(r.efficiencies) else math.nan for r in self.rows])


def uniform_time_design(k: int) -> ApproximateDesign:
    """Uniform design on k equally spaced time points, weight 1/k each."""
    if k < 2:
        raise ValidationError(f"uniform design needs k >= 2, got {k}")
    pts = tuple(j / (k - 1) for j in range(k))
    return ApproximateDesign(points=pts, weights=(1.0 / k,) * k)


def reachable_ratio_interval(model: DegradationModel) -> tuple[float, float]:
    """Ratio interval reachable by varying rho with sigma1^2 = sigma2^2 + sigma_eps^2."""
    sg = model.sigma_gamma_matrix()
    s2 = math.sqrt(sg[1, 1])
    se = model.sigma_eps
    s1 = math.sqrt(s2**2 + se**2)
    denom = s1**2 + se**2
    lo = math.sqrt((s1**2 + s2**2 + se**2 - 2.0 * s1 * s2) / denom)
    hi = math.sqrt((s1**2 + s2**2 + se**2 + 2.0 * s1 * s2) / denom)
    return lo, hi


def _rho_for_ratios(ratios: float | np.ndarray, model: DegradationModel) -> tuple[float, float, np.ndarray]:
    """sigma1, sigma2 and the unclipped rho that give each ratio; see vary_ratio_via_rho."""
    sg = model.sigma_gamma_matrix()
    s2 = math.sqrt(sg[1, 1])
    if s2 == 0.0:
        raise ValidationError("rho reparameterization needs sigma2 > 0")
    se = model.sigma_eps
    s1 = math.sqrt(s2**2 + se**2)
    rho = (np.square(ratios) * (s1**2 + se**2) - s1**2 - s2**2 - se**2) / (2.0 * s1 * s2)
    return s1, s2, rho


def vary_ratio_via_rho(target_ratio: float, model: DegradationModel) -> DegradationModel:
    """Reparameterize the variance components to hit a target sigma(1)/sigma(0).

    sigma2 and sigma_eps keep their nominal values, sigma1 is pinned to
    sqrt(sigma2^2 + sigma_eps^2), and rho is solved from

        ratio^2 = (sigma1^2 + 2 rho sigma1 sigma2 + sigma2^2 + sigma_eps^2)
                  / (sigma1^2 + sigma_eps^2).

    Ratios outside the |rho| <= 1 window are rejected with the reachable
    interval in the message.
    """
    if not (target_ratio > 0.0):
        raise ValidationError(f"target ratio must be positive, got {target_ratio}")
    s1, s2, rho = _rho_for_ratios(target_ratio, model)
    if abs(rho) > 1.0 + _RHO_SLACK:
        lo, hi = reachable_ratio_interval(model)
        raise ValidationError(
            f"ratio {target_ratio} is not reachable with |rho| <= 1 under "
            f"sigma1^2 = sigma2^2 + sigma_eps^2; reachable interval is [{lo:.6f}, {hi:.6f}]"
        )
    rho = min(1.0, max(-1.0, float(rho)))
    return dataclasses.replace(model, sigma_gamma=sigma_gamma_from_sd_corr(s1, s2, rho))


def _resolve_nominals(spec: SweepSpec, model: DegradationModel) -> tuple[DegradationModel, float, float, float]:
    """Apply held_fixed: (base model, pinned median, base median, base ratio sigma(1)/sigma(0))."""
    if spec.variable == "t_median":
        base = model if spec.held_fixed is None else vary_ratio_via_rho(spec.held_fixed, model)
        t_star = t_median = median_failure_time(base)
    else:
        base = model
        t_star = median_failure_time(model) if spec.held_fixed is None else spec.held_fixed
        if not (t_star > 1.0):
            raise OutOfRegimeError(f"ratio sweeps need a median beyond the horizon, got {t_star}")
        t_median = t_star if spec.held_fixed is None else median_failure_time(base)
    return base, t_star, t_median, VarianceFunction(base).ratio_end_over_start()


def _result(
    spec: SweepSpec,
    a: np.ndarray,
    t_star: float,
    t_median: float,
    ratio: float,
    effs: np.ndarray,
    reachable: np.ndarray,
) -> SweepResult:
    """Rows with pi* at every abscissa a (of t* at the base ratio, or of the ratio at t*) and the nominal markers."""
    pi = pi_star_from_ratio(a, ratio) if spec.variable == "t_median" else pi_star_from_ratio(t_star, a)
    # tuple.__new__ over whole rows builds each SweepRow in C.
    columns = zip(a.tolist(), pi.tolist(), map(tuple, effs.tolist()), reachable.tolist())
    rows = map(partial(tuple.__new__, SweepRow), columns)
    return SweepResult(spec=spec, rows=tuple(rows), nominal_t_median=t_median, nominal_ratio=ratio)


def sweep_pi_star(spec: SweepSpec, model: DegradationModel) -> SweepResult:
    """Optimal endpoint weight along the sweep, efficiencies left empty.

    t_median rows evaluate the closed-form design's pi* at each abscissa;
    ratio rows use pi* as a function of the ratio directly, so every
    positive ratio tabulates even where the rho reparameterization cannot
    reach.
    """
    if not model.time_basis.is_affine:
        raise ValidationError("pi* sweeps require the affine time basis")
    _, t_star, t_median, ratio = _resolve_nominals(spec, model)
    n = spec.n_points
    return _result(spec, spec.abscissae(), t_star, t_median, ratio, np.empty((n, 0)), np.ones(n, dtype=bool))


def candidate_time_designs(names: Sequence[str], model: DegradationModel, t_star: float) -> dict[str, ApproximateDesign]:
    """Time designs of the named candidate plans, built at (model, t_star).

    Every candidate crosses its time design with the model's Elfving stress
    design, so the time design is all that tells candidates apart.
    """
    zeta_star = elfving_time_design(model, t_star) if CANDIDATE_ZETA_STAR in names else None
    return {
        name: zeta_star if name == CANDIDATE_ZETA_STAR else uniform_time_design(2 if name == CANDIDATE_TAU2 else 6)
        for name in names
    }


def sweep_efficiency(spec: SweepSpec, model: DegradationModel) -> SweepResult:
    """Efficiency of the fixed candidate plans against the local optimum.

    Candidates are built once at the nominal parameters and held fixed; the
    locally optimal plan and the variance function are re-evaluated at each
    abscissa, in the closed forms of the module docstring.  Ratio rows that
    the rho reparameterization cannot reach are flagged and carry NaN
    efficiencies.
    """
    if not (model.time_basis.is_affine and model.stress_basis.is_affine):
        raise ValidationError("efficiency sweeps require affine stress and time bases")
    base, t_nom, t_median, ratio = _resolve_nominals(spec, model)
    elfving_stress_design(base)  # cancels from every efficiency; raises if x_u lies in [0, 1]
    candidates = candidate_time_designs(spec.candidates, base, t_nom)
    a = spec.abscissae()
    sg = base.sigma_gamma_matrix()
    if spec.variable == "t_median":
        t, s00, s01, s11 = a, sg[0, 0], np.full((a.size, 1), sg[0, 1]), sg[1, 1]
        reachable = np.ones(a.size, dtype=bool)
    else:
        t = np.full(a.size, t_nom)
        if sg[1, 1] == 0.0:  # sigma2 = 0: moving rho reaches no ratio
            nan = np.full((a.size, len(spec.candidates)), math.nan)
            return _result(spec, a, t_nom, t_median, ratio, nan, np.zeros(a.size, dtype=bool))
        s1, s2, rho = _rho_for_ratios(a, base)
        reachable = np.abs(rho) <= 1.0 + _RHO_SLACK
        s00, s01, s11 = s1**2, (np.clip(rho, -1.0, 1.0) * s1 * s2)[:, None], s2**2
    se2 = base.sigma_eps**2

    def variance(u: np.ndarray) -> np.ndarray:  # sigma^2, rows by abscissa, columns by u
        return s00 + 2.0 * s01 * u + s11 * u * u + se2

    effs = np.empty((a.size, len(spec.candidates)))
    with np.errstate(over="ignore"):  # a t_median far enough out overflows here; refused below
        sd = np.sqrt(variance(np.array([0.0, 1.0])))
        best = (sd[:, 0] * (t - 1.0) + sd[:, 1] * t) ** 2
        for col, name in enumerate(spec.candidates):
            pts, w = candidates[name].as_arrays()
            q = w / variance(pts)
            # Not criteria._christoffel: that moves 301 of 882 reachable golden-sweep cells away from their 40-digit values.
            i, j = np.triu_indices(pts.size, 1)
            spread = (q[:, i] * q[:, j] * (pts[i] - pts[j]) ** 2).sum(axis=1)
            crit = (q * (t[:, None] - pts) ** 2).sum(axis=1) / spread
            _require_finite_criterion(np.max(crit[reachable], initial=0.0))  # crit >= best, so best is finite too
            effs[:, col] = best / crit
    effs[~reachable] = math.nan
    return _result(spec, a, t_nom, t_median, ratio, effs, reachable)


def default_sweep_spec(variable: str) -> SweepSpec:
    """Figure-default ranges: t in [1.05, 10], ratio in [0.2, 5], 200 log-spaced points."""
    if variable == "t_median":
        return SweepSpec(variable="t_median", lo=1.05, hi=10.0, n_points=200)
    if variable == "sigma_ratio":
        return SweepSpec(variable="sigma_ratio", lo=0.2, hi=5.0, n_points=200)
    raise ValidationError(f"sweep variable must be one of {_VARIABLES}, got {variable!r}")
