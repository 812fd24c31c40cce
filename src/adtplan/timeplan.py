"""Constrained c-optimal time plans on a grid.

Minimizes the fixed-effect extrapolation criterion f2(t*)' M2_0(tau)^-1 f2(t*)
over approximate designs tau on the grid {j/J} subject to the per-point
weight cap 1/k (no time point can receive more than one of the k
measurements per unit).  The random-effect part of the criterion does not
depend on the design, so the same weights minimize the total criterion, and
the optimal plan is free of the random-coefficient covariance altogether:
the optimizer reads only the time basis, the error standard deviation, the
grid, and the extrapolation time.

Caps of at most 1/p (k >= p measurements per unit): pair exchange with an
exact step (REX; Harman, Filova & Richtarik 2020), started from the cap-1
optimum spread to the cap, in the basis where that start's information is
the identity (modified Gram-Schmidt on the columns of [V; c] maps them
there in place, as accurate as a QR, where a Cholesky factor of the
information would square the condition number, up to 1.3e10 in range).
Weight moves from the supported point of lowest sensitivity phi to the
unsaturated point of highest phi, then between interior points, each time
by the exact line minimum; each step factorizes the p x p information
summed over the current support only.  Cap 1 (k = 1): Elfving's linear
program by a p-row simplex that solves with its basis; the optimum may be
singular.  Every result carries a first-order (KKT) certificate from the
bounded-design equivalence theorem (Sahm & Schwabe 2001): phi must be
largest on saturated points, constant on interior points, and smallest on
zero-weight points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .criteria import _christoffel, _require_finite_criterion, _require_t_star, _span_coefficients, _target
from .errors import InfeasibleDesignError, SingularDesignError, ValidationError
from .model import ApproximateDesign, DegradationModel

__all__ = [
    "GridSpec",
    "OptimizerConfig",
    "OptimalityCertificate",
    "optimize_capped_weights",
    "optimize_time_plan",
    "support_design",
    "kkt_check",
    "round_to_exact",
    "design_sensitivity",
]

# Certificate tolerance, one value for three uses: the largest ordering
# violation a certified design may show, the engine's stopping gap in phi, and
# how close a weight must be to 0 or to the cap to count as zero or saturated.
_TOL = 1e-7

# Elfving's simplex: a relative change below _LP_TOL counts as none (in a
# price against 1 or the objective); pivots need d_i > _PIVOT_TOL max|d|, and
# it stops after _MAX_PIVOTS of them (a few suffice on power bases).
_LP_TOL, _PIVOT_TOL, _MAX_PIVOTS = 1e-12, 1e-9, 10_000


@dataclass(frozen=True, slots=True)
class GridSpec:
    """Equidistant candidate grid {j/J : j = 0..J} with per-point cap 1/k.

    Feasibility requires k <= J + 1 (the grid has J + 1 points, so k of them
    must be able to carry weight 1/k each); identifiability additionally
    needs k at least the basis dimension, which is checked where the model
    is known.
    """

    J: int
    k: int

    def __post_init__(self) -> None:
        if not isinstance(self.J, int) or self.J < 1:
            raise ValidationError(f"J must be a positive integer, got {self.J!r}")
        if not isinstance(self.k, int) or self.k < 1:
            raise ValidationError(f"k must be a positive integer, got {self.k!r}")
        if self.k > self.J + 1:
            raise InfeasibleDesignError(
                f"cap 1/{self.k} over {self.J + 1} grid points cannot carry total weight 1"
            )

    def points(self) -> np.ndarray:
        # j/J element-wise keeps the pretty decimal values (0.05, 0.85, ...).
        return np.arange(self.J + 1) / self.J

    @property
    def cap(self) -> float:
        return 1.0 / self.k


@dataclass(frozen=True, slots=True)
class OptimizerConfig:
    """max_iters bounds the number of exchange steps."""

    max_iters: int = 10_000

    def __post_init__(self) -> None:
        if not isinstance(self.max_iters, int) or self.max_iters < 1:
            raise ValidationError(f"max_iters must be a positive integer, got {self.max_iters!r}")


@dataclass(frozen=True, eq=False)
class OptimalityCertificate:
    """First-order optimality evidence for a capped-grid design.

    sensitivity is the read-only array of phi at the J + 1 grid points;
    saturated_set and interior_set are read-only, ascending arrays of the
    grid indices whose weight is within tol of the cap and strictly between
    (more than tol from 0 and from the cap).  Every other grid point carries
    weight at most tol.  max_violation is the largest breach of the required
    ordering

        min(phi on saturated) >= phi on interior (all equal) >= max(phi on the rest),

    and the certificate passes when it does not exceed tol.
    """

    max_violation: float
    saturated_set: np.ndarray
    interior_set: np.ndarray
    sensitivity: np.ndarray
    tol: float
    iterations: int = 0

    @property
    def certified(self) -> bool:
        return self.max_violation <= self.tol


def _first_positive_root(a: float, b: float, c: float) -> float:
    """Smallest positive root of a x^2 + b x + c (inf if there is none)."""
    q = -0.5 * (b + math.copysign(math.sqrt(max(b * b - 4.0 * a * c, 0.0)), b))
    roots = (c / q if q else math.inf, q / a if a else math.inf)
    return min((x for x in roots if x > 0.0), default=math.inf)


class _CappedCProblem:
    """Minimize c' M(w)^-1 c, M(w) = sum_j w_j v_j v_j', over the capped simplex.

    The iterate w and the lower Cholesky factor L of M(w) travel together:
    spread() sets them, and a move that accepts a trial design keeps the
    factor it took of that trial, so each design is factorized once.  M is
    summed over the support S of w, so a step costs O(|S| p^2), not a scan
    of the grid.  spread() also moves V and c to the start's basis and
    stacks them, [V; c], for the exchange's one gather.
    """

    def __init__(self, vectors: np.ndarray, c: np.ndarray, cap: float):
        self.V = np.asarray(vectors, dtype=float)
        self.c = np.asarray(c, dtype=float)
        if self.V.ndim != 2 or self.V.shape[1] != self.c.size:
            raise ValidationError("vectors must be rows of the same dimension as c")
        if not np.isfinite(self.c).all():
            raise ValidationError(f"target vector c must be finite, got {self.c.tolist()}")
        self.n, self.p = self.V.shape
        self.cap = float(cap)
        self.w = np.zeros(self.n)

    def cholesky(self, w: np.ndarray) -> np.ndarray | None:
        """Lower Cholesky factor of M(w), summed over the support of w; None when singular."""
        support = np.flatnonzero(w > 0.0)
        V = self.V[support]
        M = (V * w[support][:, None]).T @ V
        try:
            return np.linalg.cholesky(0.5 * (M + M.T))
        except np.linalg.LinAlgError:
            return None

    def criterion_and_sensitivity(self, L: np.ndarray) -> tuple[float, np.ndarray | None]:
        """Criterion value and per-point sensitivity phi from the factor L of M; (inf, None) unless 0 < c' M^-1 c < inf.

        phi_j = (c' M^-1 v_j)^2 / (c' M^-1 c), normalized so sum_j w_j phi_j = 1.
        """
        y = np.linalg.solve(L, self.c)
        crit = float(y @ y)
        if not (crit > 0.0) or not math.isfinite(crit):
            return math.inf, None
        b = self.V @ np.linalg.solve(L.T, y)
        return crit, b * b / crit

    def exchange(self, i: int, j: int, min_gap: float = 0.0) -> float | None:
        """Exact line search for moving weight between points i and j of the iterate.

        Weight flows from the point of lower sensitivity, d, to the other, r.
        Along M(a) = M + a (v_r v_r' - v_d v_d') Woodbury's identity gives,
        with U = [v_r, v_d], G = U'M^-1 U, g = U'M^-1 c and S = diag(1, -1),

            f(a) = f(0) - a g' adj(S + aG) g / det(S + aG),

        linear over quadratic in a, so f'(a) = 0 is a quadratic (the cubic
        terms cancel) whose first positive root is the line minimum.  It is
        clipped to the feasible length min(w_d, cap - w_r).  Returns the
        decrease f(0) - f(step) from this formula, which stays accurate below
        the rounding noise of a recomputed criterion, or None when
        phi_r - phi_d <= min_gap, no step is possible or the step would leave
        a singular design.  Once P(0) = -n0 > min_gap c'M^-1 c >= 0 the exact
        decrease is positive for every step in (0, first root of f'], so the
        test that the computed decrease is positive guards rounding alone.
        """
        w = self.w
        Y = np.linalg.solve(self.L, self.stack[[i, j, -1]].T)
        K = Y.T @ Y
        r, d, (a, b, dd, gr, gd) = i, j, (K[0, 0], K[0, 1], K[1, 1], K[0, 2], K[1, 2])
        if gr * gr < gd * gd:
            r, d, (a, dd, gr, gd) = j, i, (dd, a, gd, gr)
        limit = min(w[d], self.cap - w[r])
        n0, n1 = gd * gd - gr * gr, dd * gr * gr - 2.0 * b * gr * gd + a * gd * gd
        d1, d2 = dd - a, a * dd - b * b
        # f'(a) has the sign of P(a) = -n0 - 2 n1 a + (n1 d1 - n0 d2) a^2, P(0) > 0.
        qa, qb, qc = n1 * d1 - n0 * d2, -2.0 * n1, -n0
        if not (qc > min_gap * K[2, 2] and limit > 0.0):
            return None
        step = min(limit, _first_positive_root(qa, qb, qc))
        empties = step == w[d]
        decrease = step * (n0 + n1 * step) / (d2 * step * step + d1 * step - 1.0)
        if not decrease > 0.0:
            return None
        old = w[r], w[d]
        w[r] = self.cap if step == self.cap - w[r] else w[r] + step
        w[d] = 0.0 if empties else w[d] - step
        L = self.cholesky(w)
        if L is None:
            w[r], w[d] = old
            return None
        self.L = L
        return decrease

    def spread(self) -> None:
        """Start design: Elfving's cap-1 optimum spread to the cap, in a basis where its information is I.

        Each support point s of the cap-1 weights u takes a block of the
        points nearest it (s, s - 1, s + 1, s - 2, ...): floor(u_s / cap) of
        them at the cap and the remainder on the next free point, so the
        weights sum to sum u = 1.  On tight grids, where the blocks overlap,
        a remainder that finds no free point goes to the nearest points with
        room.  Then modified Gram-Schmidt on the columns of [V; c], in the
        start's inner product sum_S w_j x_j y_j, maps V and c to V R^-1 and
        c R^-1 in place, R the triangular factor of the weighted rows
        sqrt(w_S) V_S, whose diagonal the same column operations give:
        c' M^-1 c and phi do not change (Pukelsheim 1993), but a start
        clustered around a nearly one-point optimum (t* <= 1 near a grid
        point) no longer prices the steps by an ill-conditioned factor.  This
        is as accurate as Householder QR (Bjorck 1967; Golub & Van Loan,
        section 5.2); the Cholesky factor of the start's information would
        square the condition number of those rows, which reaches 1.3e10 on
        grids in range (cubic, J = 1000, k = 4, t* = 1).  A rank drop in R
        means dependent candidates.
        """
        n, cap = self.n, self.cap
        u, _, _ = _elfving_pivots(self.V, self.c)
        weight: dict[int, float] = {}
        for s, us in zip(np.flatnonzero(u).tolist(), u[u > 0.0].tolist()):
            full = math.floor(us / cap)
            frac = us - full * cap
            parts = [cap] * full + [min(frac, cap)] * (frac > 0.0)
            placed = 0
            for part, j in zip(parts, (j for j in _nearest(s, n) if j not in weight)):
                weight[j], placed = part, placed + 1
            rest = math.fsum(parts[placed:])
            for j in _nearest(s, n) if rest > 0.0 else ():
                room = cap - weight[j]
                weight[j] = min(weight[j] + rest, cap)
                rest -= room
                if rest <= 0.0:
                    break
        w = self.w
        w[list(weight)] = list(weight.values())
        S = np.flatnonzero(w > 0.0)
        columns, diagonal = np.column_stack([self.V.T, self.c]), []  # the columns of [V; c], as rows
        for i, x in enumerate(columns):
            norm = math.sqrt((w[S] * x[S]) @ x[S])
            diagonal.append(norm)
            if norm > 0.0:  # a zero column is a rank drop, which the test below reports
                x /= norm
            columns[i + 1 :] -= np.outer(columns[i + 1 :, S] @ (w[S] * x[S]), x)
        self.stack = columns.T
        self.V, self.c = self.stack[:-1], self.stack[-1]
        # Past the rank test the start's information is I up to rounding; a factor that still fails is a rank drop.
        if not min(diagonal) > self.p * 2.0**-52 * max(diagonal) or (L := self.cholesky(w)) is None:
            raise InfeasibleDesignError("singular start: some p candidate vectors are linearly dependent")
        self.L = L


def _nearest(s: int, n: int) -> Iterator[int]:
    """Indices 0..n-1 by distance from s, the lower first on ties: s, s - 1, s + 1, s - 2, ..."""
    yield s
    for d in range(1, n):
        if s - d >= 0:
            yield s - d
        if s + d < n:
            yield s + d


def _classify(w: np.ndarray, cap: float, weight_tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    saturated = w >= cap - weight_tol
    zero = (w <= weight_tol) & ~saturated
    interior = ~saturated & ~zero
    return saturated, interior, zero


def _ordering_violation(phi: np.ndarray, saturated: np.ndarray, interior: np.ndarray, zero: np.ndarray) -> float:
    lo_sat, hi_zero = phi[saturated].min(initial=np.inf), phi[zero].max(initial=-np.inf)
    gaps = [hi_zero - lo_sat]
    if interior.any():
        lo_int, hi_int = phi[interior].min(), phi[interior].max()
        gaps += [hi_int - lo_int, hi_zero - lo_int, hi_int - lo_sat]
    return float(max(*gaps, 0.0))


def _certificate(
    w: np.ndarray, phi: np.ndarray, cap: float, iterations: int, excess: float = 0.0
) -> OptimalityCertificate:
    """Certificate of the weights w priced by phi (kept, read-only); excess, a further violation, joins the ordering's."""
    saturated, interior, zero = _classify(w, cap, _TOL)
    violation = max(_ordering_violation(phi, saturated, interior, zero), excess)
    arrays = np.flatnonzero(saturated), np.flatnonzero(interior), phi  # saturated_set, interior_set, sensitivity
    for a in arrays:
        a.flags.writeable = False
    return OptimalityCertificate(violation, *arrays, _TOL, iterations)


def optimize_capped_weights(
    vectors: np.ndarray,
    c: np.ndarray,
    cap: float,
    cfg: OptimizerConfig = OptimizerConfig(),
    callback: Callable[[int, float, np.ndarray], None] | None = None,
) -> tuple[np.ndarray, OptimalityCertificate]:
    """Minimize c' (sum_j w_j v_j v_j')^-1 c subject to 0 <= w <= cap, sum w = 1.

    Generic engine shared by the time-plan and destructive-design fronts;
    rows of ``vectors`` are the candidate regression vectors v_j, and any p
    of them must be linearly independent, as the rows of a power basis and
    their positive scalings over distinct times are.  A singular start
    (dependent candidates) raises InfeasibleDesignError; a c that is not
    finite, or one whose criterion c' M^-1 c at the exchange's start
    overflows, raises ValidationError.  Returns the weight
    vector over all candidates together with its certificate.
    Cap 1 runs Elfving's simplex, a cap of at most 1/p the exchange; caps in
    between raise ValidationError.  ``callback(iteration, criterion,
    weights)`` is invoked at the start and after every step or pivot, which
    test suites use to watch feasibility and monotonicity; the criterion
    passed is the start value less the exact decrease of each step.  The
    exchange starts from Elfving's cap-1 optimum spread to the cap, which
    leaves affine plans a few steps from their optimum, and runs in the
    basis where that start's information is I (_CappedCProblem.spread); its
    certificate is priced in the caller's basis, by design_sensitivity.  It
    stops when phi on the unsaturated points exceeds phi on the supported
    points by at most the certificate's tolerance, the simplex at its
    optimum, and both after cfg.max_iters steps (the start's simplex pivots
    do not count).  Where the optimum is not unique, the exchange returns
    the first certified design it reaches from that start.

    Cost: the start takes the simplex's pivots, one pass of modified
    Gram-Schmidt that maps [V; c] to its basis, O(n p^2) (as accurate as a
    QR; a Cholesky factor of its information would square the condition
    number of its weighted rows, up to 1.3e10 in range), and one Cholesky
    factorization; each exchange step takes one factorization of the p x p
    information matrix, summed over the support S, per trial design, plus
    O(n p) per round for the sensitivities; the certificate takes one
    factorization.  The iterate's factor is carried, so an accepted trial
    is never factorized again.  The simplex takes three p x p solves with
    its basis and O(n p) pricing per pivot, a few pivots on power bases.
    """
    problem = _CappedCProblem(vectors, c, cap)
    if cap >= 1.0:  # phi_j = (v_j' y)^2 from the simplex's dual y
        w, g, pivots = _elfving_pivots(problem.V, problem.c, cfg.max_iters, callback)
        return w, _certificate(w, g * g, problem.cap, pivots)
    if problem.n * cap < 1.0 - 1e-12:
        raise InfeasibleDesignError(f"cap {cap} over {problem.n} candidate points cannot reach total weight 1")
    if cap * problem.p > 1.0 + 1e-12:
        raise ValidationError(f"cap {cap} lies between 1/p and 1 for p = {problem.p}; use cap 1 or a cap of at most 1/p")

    problem.spread()
    w = problem.w
    with np.errstate(over="ignore"):
        crit, phi = problem.criterion_and_sensitivity(problem.L)
    if phi is None:  # spread() refuses singular starts, so c' M^-1 c left the float range
        raise ValidationError("criterion c' M^-1 c overflows at the start design; c is too large")
    iteration = 0

    def step(move: Callable[..., float | None], *args: object) -> bool:
        """Apply one move within the budget; report it to the callback."""
        nonlocal crit, iteration
        decrease = move(*args) if iteration < cfg.max_iters else None
        if decrease is None:
            return False
        crit, iteration = crit - decrease, iteration + 1
        if callback is not None:
            callback(iteration, crit, w.copy())
        return True

    if callback is not None:
        callback(0, crit, w.copy())
    while iteration < cfg.max_iters:
        S = np.flatnonzero(w > 0.0)
        d = S[np.argmin(phi[S])]
        open_phi = np.where(w < problem.cap, phi, -np.inf)
        r = int(np.argmax(open_phi))
        if open_phi[r] - phi[d] <= _TOL or not step(problem.exchange, r, d):
            break
        interior = np.flatnonzero((w > 0.0) & (w < problem.cap)).tolist()
        for a, i in enumerate(interior):
            for j in interior[a + 1 :]:
                step(problem.exchange, i, j, _TOL)
        _, phi = problem.criterion_and_sensitivity(problem.L)

    return w, _certificate(w, design_sensitivity(vectors, c, w), problem.cap, iteration)


def _elfving_pivots(
    V: np.ndarray,
    c: np.ndarray,
    max_pivots: int = _MAX_PIVOTS,
    callback: Callable[[int, float, np.ndarray], None] | None = None,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Uncapped c-optimal weights |u| / sum |u| from min sum |u_j| s.t. sum u_j v_j = c (Elfving 1952).

    Revised simplex over the signed columns +-v_j (Harman & Jurik 2008) by
    solves with the basis B, never its inverse: B x = c, B' y = 1 and
    B d = v_j.  A basic column keeps its sign while its value is 0.  The dual
    y prices: the largest |v_j' y| enters, or the first above 1 (Bland) once
    degenerate pivots revisit a basis.  At the optimum all |v_j' y| <= 1.
    Returns the weights, the prices g = V y and the number of pivots.
    """
    n, p = V.shape
    # Start from round(linspace(0, n - 1, p)), signed by the solution there:
    # on a power basis over distinct times a row-scaled Vandermonde matrix.
    basis = np.array([round(i * (n - 1) / max(p - 1, 1)) for i in range(p)])
    try:
        u = np.linalg.solve(V[basis].T, c)
    except np.linalg.LinAlgError:
        raise InfeasibleDesignError("singular start basis: some p candidate vectors are linearly dependent") from None
    sign = np.where(u < 0.0, -1.0, 1.0)
    iteration, bland, total, seen = 0, False, math.nan, set()
    while True:
        B = V[basis].T * sign
        x = np.maximum(np.linalg.solve(B, c), 0.0)
        # Small values are degenerate zeros if the other columns give c to
        # rounding: the span test criteria._christoffel applies to supports.
        small = x <= _TOL * x.sum()
        rest = _span_coefficients(B[:, ~small], c) if small.any() else None
        if rest is not None:
            x[small], x[~small] = 0.0, rest
        w = np.zeros(n)
        w[basis] = x / x.sum()
        total = x.sum() if iteration == 0 else total
        if callback is not None:
            callback(iteration, total * total, w.copy())
        g = V @ np.linalg.solve(B.T, np.ones(p))
        g[basis] = sign  # exactly, as B' y = 1 says: rounding must not price them in
        over = np.flatnonzero(np.abs(g) > 1.0 + _LP_TOL)
        state = ((basis + 1) * sign).tobytes()
        # A revisit under Bland's rule, which cannot cycle, is rounding: stop.
        if over.size == 0 or iteration == max_pivots or (bland and state in seen):
            break
        if state in seen:
            bland, seen = True, set()
        j = over[0] if bland else over[np.argmax(np.abs(g[over]))]
        s = math.copysign(1.0, g[j])
        d = np.linalg.solve(B, s * V[j])
        rows = np.flatnonzero(d > _PIVOT_TOL * np.abs(d).max())
        ratio = x[rows] / d[rows]
        ties = rows[ratio == ratio.min()]
        r = ties[np.argmin(basis[ties])]
        decrease = ratio.min() * (abs(g[j]) - 1.0)
        basis[r], sign[r], total = j, s, total - decrease
        if decrease > _LP_TOL * total:
            bland, seen = False, set()
        seen.add(state)
        iteration += 1
    return w, g, iteration


def _time_problem(model: DegradationModel, grid_points: np.ndarray, t_star: float) -> tuple[np.ndarray, np.ndarray]:
    # Only the time basis and the error level enter: the optimal plan is
    # free of the random-coefficient covariance.
    return model.time_basis.evaluate_many(grid_points) / model.sigma_eps, _target(model, t_star)


def optimize_time_plan(
    grid: GridSpec,
    model: DegradationModel,
    t_star: float,
    cfg: OptimizerConfig = OptimizerConfig(),
    callback: Callable[[int, float, np.ndarray], None] | None = None,
) -> tuple[ApproximateDesign, OptimalityCertificate]:
    """Constrained c-optimal time plan on the grid, with certificate.

    The returned design keeps only the points whose weight exceeds the
    certificate's tolerance (see support_design); the certificate's index
    sets and sensitivity refer to the full grid.  A failed certificate
    (max_violation > tol) marks a non-converged run; the last iterate,
    which is the best, is still returned.
    """
    # k = 1 is the unconstrained sentinel (cap 1, destructive-style single
    # measurements); identifiability then rests on the support found, not
    # on the per-unit measurement count.
    if grid.k != 1 and grid.k < model.p2:
        raise InfeasibleDesignError(
            f"k = {grid.k} measurements cannot identify a basis of dimension {model.p2}"
        )
    _require_t_star(t_star)
    pts = grid.points()
    vectors, c = _time_problem(model, pts, t_star)
    w, cert = optimize_capped_weights(vectors, c, grid.cap, cfg, callback)
    return support_design(pts, w, grid.cap), cert


def support_design(points: np.ndarray, w: np.ndarray, cap: float) -> ApproximateDesign:
    """Design on the grid points whose weight exceeds the certificate's weight tolerance.

    Each weight cut off goes to the nearest kept point with room for it
    (w + cut <= cap to a relative 1e-12, then clipped at the cap): its
    regression vector is the closest, so the sensitivities move least, and
    no weight passes the cap.  A cut beside points at exactly the cap, with
    no room anywhere, is dropped.  Cap 1 cuts nothing: Elfving's simplex
    sets its degenerate zeros exactly, so every small weight it leaves is
    needed to identify f2(t*).
    """
    w, tol = w.copy(), _TOL if cap < 1.0 else 0.0
    kept = np.flatnonzero(w > tol)
    for j in np.flatnonzero((w > 0.0) & (w <= tol)):
        room = kept[w[kept] + w[j] <= cap * (1.0 + 1e-12)]
        if room.size:
            i = room[np.argmin(np.abs(room - j))]
            w[i] = min(w[i] + w[j], cap)
        w[j] = 0.0
    return ApproximateDesign(points=tuple(points[w > 0.0].tolist()), weights=tuple(w[w > 0.0].tolist()))


def design_sensitivity(vectors: np.ndarray, c: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Sensitivity phi_j = (c' M^-1 v_j)^2 / (c' M^-1 c) of every row v_j of vectors.

    M = sum_j w_j v_j v_j' is the information of the weights; phi is the
    quantity the engine's certificate orders, and sum_j w_j phi_j = 1.  A
    c' M^-1 c that overflows raises ValidationError, a singular M
    InfeasibleDesignError.
    """
    problem, w = _CappedCProblem(vectors, c, 1.0), np.asarray(weights, dtype=float)
    L = problem.cholesky(w)
    if L is None:
        raise InfeasibleDesignError("design information is singular for the target direction")
    with np.errstate(over="ignore"):
        crit, phi = problem.criterion_and_sensitivity(L)
    _require_finite_criterion(crit)  # M is regular, so phi is None only when c' M^-1 c overflowed
    return phi


def _design_on_grid(design: ApproximateDesign, grid_points: np.ndarray) -> np.ndarray:
    """Design weights over the ascending grid; each point must be within 1e-9 of exactly one grid point."""
    ts, ws = design.as_arrays()
    lo = np.searchsorted(grid_points, ts - 1e-9, side="left")
    hits = np.searchsorted(grid_points, ts + 1e-9, side="right") - lo
    if np.any(hits != 1):
        raise ValidationError(f"design point {design.points[np.argmax(hits != 1)]} is not a grid point")
    w = np.zeros(grid_points.size)
    w[lo] = ws
    return w


def kkt_check(
    design: ApproximateDesign,
    grid: GridSpec,
    model: DegradationModel,
    t_star: float,
) -> OptimalityCertificate:
    """First-order optimality certificate of a grid-supported design.

    Violations are reported in the certificate, never raised: a failed check
    is a legitimate answer about a suboptimal design.  At cap 1 the plan is
    priced as the cap-1 engine prices its own, phi_j = (v_j' y)^2 from the
    dual y of Elfving's simplex (Pukelsheim 1993, section 2.4): the plan's
    own sensitivity needs its information inverted, which is singular or
    nearly so for optimal plans that put weights near 0 or a single point
    at t*.  A dual optimum prices every optimal plan alike, so the plan's
    criterion excess over the simplex optimum, relative and both by
    criteria._christoffel, counts as a violation too.  A t* so far out that
    the plan's criterion overflows raises ValidationError.
    """
    _require_t_star(t_star)
    pts = grid.points()
    w = _design_on_grid(design, pts)
    vectors, c = _time_problem(model, pts, t_star)
    if grid.cap < 1.0:
        return _certificate(w, design_sensitivity(vectors, c, w), grid.cap, iterations=0)
    u, g, _ = _elfving_pivots(vectors, c)
    try:
        score = _christoffel(pts, w, t_star, model.p2)
    except SingularDesignError:
        raise InfeasibleDesignError("design information is singular for the target direction") from None
    _require_finite_criterion(score)
    excess = score / _christoffel(pts, u, t_star, model.p2) - 1.0
    return _certificate(w, g * g, grid.cap, iterations=0, excess=excess)


def round_to_exact(
    design: ApproximateDesign,
    k: int,
    model: DegradationModel,
    t_star: float,
) -> ApproximateDesign:
    """Exact k-point plan (weights 1/k) from a capped approximate plan.

    Keeps every saturated point, classified as in the certificate, and
    drops partial-weight points one at a time until k points remain: each
    time the one whose removal leaves the smallest criterion while the
    remaining partial points share the free weight equally (ties drop the
    lighter point, then the later one).  With at most two partial points
    this scores every choice; m partial points cost O(m^2) criteria where
    enumeration costs C(m, slots).  The ranking uses f2(t*)' M^- f2(t*) of
    the weights alone, the criterion under i.i.d. errors: sigma_eps and the
    design-free random part cancel from it.  With no free slot the partial
    points are dropped unscored.
    """
    if k < 1:
        raise ValidationError(f"k must be a positive count, got {k}")
    if k < model.time_basis.dim:
        raise ValidationError(
            f"an exact plan with k={k} distinct times cannot identify a "
            f"{model.time_basis.dim}-dimensional time effect"
        )
    cap = 1.0 / k
    ts, ws = design.as_arrays()
    if np.any(ws > cap + 1e-12):
        raise InfeasibleDesignError(f"design weight exceeds the cap 1/{k}")

    saturated, interior, _ = _classify(ws, cap, _TOL)
    n_slots = k - int(saturated.sum())
    if n_slots < 0:
        raise InfeasibleDesignError(f"more than {k} points already saturated at 1/{k}")
    kept = np.flatnonzero(interior).tolist()
    if len(kept) < n_slots:
        raise InfeasibleDesignError(f"only {k - n_slots + len(kept)} candidate points for {k} slots")
    if n_slots == 0:
        if not kept:
            return design
        kept = []  # no free slot: the partial mass is roundoff, dropped unscored
    free = 1.0 - cap * (k - n_slots)

    def without(i: int) -> tuple[float, float, int]:
        """Rank of dropping point i: the criterion left, then the lighter and the later point first."""
        q = np.where(saturated, cap, 0.0)
        q[[j for j in kept if j != i]] = free / (len(kept) - 1)
        return _christoffel(ts, q, float(t_star), model.p2), ws[i], -i

    while len(kept) > n_slots:
        kept.remove(min(kept, key=without))
    idx = sorted(np.flatnonzero(saturated).tolist() + kept)
    weights = [cap] * k
    weights[-1] = 1.0 - cap * (k - 1)  # absorb float residual
    return ApproximateDesign(points=tuple(ts[idx].tolist()), weights=tuple(weights))
