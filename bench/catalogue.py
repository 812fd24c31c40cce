"""Draw and screen the repeated-measures cases of workloads.REPEATED_CASES.

    PYTHONPATH=src python3 bench/catalogue.py

Draws (time-basis dimension, J, k, t*) from numpy.random.default_rng(SEED):
dimension 2 or 3 with equal odds, J log-uniform on [20, 1000], k uniform on
[max(2, dim), min(50, J + 1)], t* log-uniform on [1.1, 10] rounded to three
decimals.  Each draw is solved on example1's sigma_eps with an iteration
budget of SCREEN_ITERS.  A draw is skipped when the engine does not certify
it within that budget (at the default budget of 100000 such draws run for
tens of minutes) or when it takes longer than MAX_CASE_S (a single such
plan would outlast a whole run).  Draws are kept in order until their
solve times add up to BUDGET_S; the script prints the kept table and
every skipped draw with its reason.  Timings depend on the machine, so the
committed table, not this script, fixes the workload.
"""

from __future__ import annotations

import math
import time

import numpy as np

from adtplan import DegradationModel, ErrorSpec, GridSpec, OptimizerConfig, PowerBasis, optimize_time_plan

SEED = 211006114
SCREEN_ITERS = 300
MAX_CASE_S = 3.0
# Total solve time of the kept cases.
BUDGET_S = 6.0


def draws(seed: int = SEED):
    rng = np.random.default_rng(seed)
    while True:
        dim = 2 if rng.random() < 0.5 else 3
        J = int(round(math.exp(rng.uniform(math.log(20), math.log(1000)))))
        k = int(rng.integers(max(2, dim), min(50, J + 1) + 1))
        t_star = round(math.exp(rng.uniform(math.log(1.1), math.log(10.0))), 3)
        yield dim, J, k, t_star


def screen() -> None:
    kept, total = [], 0.0
    for case in draws():
        dim, J, k, t_star = case
        model = DegradationModel(
            stress_basis=PowerBasis(1),
            time_basis=PowerBasis(dim - 1),
            beta=(1.0,) * (2 * dim),
            sigma_gamma=np.eye(dim).tolist(),
            error_spec=ErrorSpec(sigma_eps=0.048),
            x_u=-0.056,
            y0=3.912,
        )
        start = time.perf_counter()
        design, cert = optimize_time_plan(GridSpec(J=J, k=k), model, t_star, OptimizerConfig(max_iters=SCREEN_ITERS))
        elapsed = time.perf_counter() - start
        if not (cert.certified and cert.iterations < SCREEN_ITERS):
            print(f"# skipped {case}: not certified within {SCREEN_ITERS} iterations ({elapsed:.1f} s)")
        elif elapsed > MAX_CASE_S:
            print(f"# skipped {case}: {elapsed:.1f} s over {MAX_CASE_S} s ({cert.iterations} iterations)")
        elif total + elapsed > BUDGET_S:
            break
        else:
            total += elapsed
            dust = " dust" if min(design.weights) < cert.tol else ""
            kept.append(case)
            print(f"    {case},  # {elapsed * 1e3:.0f} ms, {cert.iterations} iterations{dust}")
    print(f"# {len(kept)} cases, {total:.2f} s")


if __name__ == "__main__":
    screen()
