"""Benchmark of adtplan: three workloads, checked outputs, one JSON line.

    python3 bench/run.py --workload {cli,repeated,destructive} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source tree; the package is imported from its src/.
Each run is one process with one closed-loop client and no worker threads
(the cli workload starts one adtplan process at a time).  It runs a fixed
number of whole rounds of its workload's fixed operation list, set by S and
the workload's nominal round time (see n_rounds), checks every output with
checks.py, and prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 every
round runs once untraced and once under spans.Tracer, and the metrics are
the per-layer ones.  Results and spans are also written under bench/out/.
"""

from __future__ import annotations

import os

# One BLAS thread: the reference machine has two cores, and a thread pool
# would make CPU time and wall time depend on what else runs there.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")

WORKLOADS = ("cli", "repeated", "destructive")
# Fresh processes whose set-up time is measured; setup_s is their median.
SETUP_PROBES = 5
# cli: warm-up invocations, not counted as operations; setup_s is their median.
CLI_WARMUPS = 3
# Import-time probes of the traced run; each import.* metric is their median.
IMPORT_PROBES = 3
# Every run repeats the round at least this often, for per-position medians.
MIN_ROUNDS = 3
# Seconds one round takes on the machine of README.md.  They turn --seconds
# into a number of rounds, so the operations of a run depend on --seconds
# alone, not on how fast the machine runs that day.
ROUND_S = {"cli": 7.0, "repeated": 10.0, "destructive": 4.0}

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_units(name: str) -> str:
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("self_ms"):
        return "ms/op"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_per_s"):
        return "1/s"
    return "1/op"


def fail(message: str) -> None:
    sys.stderr.write(f"error: {message}\n")
    sys.exit(2)


def load_package() -> None:
    """Import adtplan from this tree's src/, or stop."""
    if not os.path.isfile(os.path.join(SRC, "adtplan", "__init__.py")):
        fail(f"no adtplan package under {SRC}; run from the root of a source tree")
    if not os.path.isfile(os.path.join(ROOT, "scenarios", "example1.scenario")):
        fail("scenarios/example1.scenario is missing")
    sys.path.insert(0, SRC)
    import adtplan

    if not os.path.abspath(adtplan.__file__).startswith(SRC + os.sep):
        fail(f"adtplan was imported from {adtplan.__file__}, not from {SRC}")


class Tally:
    """Attempted and failed operations, their times and the check results.

    Times are kept per position in the round.  The end-to-end metrics take
    each position's median over the rounds, so a burst of load from other
    tenants of a shared machine that hits one round does not move them.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wall: dict[int, list[float]] = {}
        self.cpu: dict[int, list[float]] = {}
        self.problems: list[str] = []
        self._reported: set[str] = set()

    def record(self, pos: int, label: str, wall: float, cpu: float, error: str | None, problems: list[str]) -> None:
        self.attempted += 1
        self.wall.setdefault(pos, []).append(wall)
        self.cpu.setdefault(pos, []).append(cpu)
        if error is not None:
            if label not in self._reported:
                self._reported.add(label)
                sys.stderr.write(f"failed: {label}: {error}\n")
            self.failed += 1
        elif problems:
            self.problems.append(f"{label}: {'; '.join(problems)}")
            sys.stderr.write(f"check: {label}: {'; '.join(problems)}\n")

    def end_to_end(self, setup_s: float, rss_mb: float) -> dict[str, float]:
        wall = [statistics.median(times) for times in self.wall.values()]
        cpu = [statistics.median(times) for times in self.cpu.values()]
        completed_share = (self.attempted - self.failed) / self.attempted
        return {
            "setup_s": setup_s,
            "ops_per_s": completed_share * len(wall) / sum(wall),
            "op_p50_ms": statistics.median(wall) * 1e3,
            "cpu_ms_per_op": statistics.fmean(cpu) * 1e3,
            "peak_rss_mb": rss_mb,
        }


def run_op(op, tally: Tally, pos: int) -> None:
    """One timed in-process operation, then its checks outside the timing."""
    error = None
    result = None
    cpu0, start = time.process_time(), time.perf_counter()
    try:
        result = op.run()
    except Exception as e:  # a fault of adtplan: count it and go on
        error = f"{type(e).__name__}: {e}"
    wall, cpu = time.perf_counter() - start, time.process_time() - cpu0
    if error is None and result.get("dust"):
        error = "dust support point (weight below the certificate's weight tolerance)"
    problems = [] if error is not None else op.check(result)
    tally.record(pos, op.label, wall, cpu, error, problems)


def probe_setup(args) -> float:
    """Seconds from starting a fresh process to the point it could time its first operation."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "1", "--trace", "0", "--setup-probe"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if line.strip() != "ready" or proc.returncode != 0:
        fail(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


def import_metrics() -> dict[str, float]:
    import spans
    import workloads

    probes = []
    for _ in range(IMPORT_PROBES):
        done = subprocess.run([sys.executable, "-X", "importtime", "-c", "import adtplan"], capture_output=True,
                              text=True, env=workloads.child_env(), cwd=ROOT, check=True)
        probes.append(spans.import_times(done.stderr))
    return {name: statistics.median(p[name] for p in probes) for name in probes[0]}


def build_round(workload: str, seed: int, workdir: str):
    import workloads

    if workload == "repeated":
        return workloads.repeated_round(seed)
    if workload == "destructive":
        return workloads.destructive_round(seed)
    return workloads.cli_inputs(seed, workdir)


def n_rounds(workload: str, seconds: float) -> int:
    """Rounds of a run: about `seconds` of work on the reference machine.

    On cli round r uses scenario r mod CLI_SCENARIOS, so the count is a
    multiple of CLI_SCENARIOS and every scenario runs equally often."""
    import workloads

    n = max(MIN_ROUNDS, math.ceil(seconds / ROUND_S[workload]))
    if workload == "cli":
        n = math.ceil(n / workloads.CLI_SCENARIOS) * workloads.CLI_SCENARIOS
    return n


def run_rounds(rounds: int, one_round, traced: bool):
    """`rounds` whole rounds.  Traced runs pair every traced round with an
    untraced one and return the two total times."""
    import spans

    tracer = spans.Tracer() if traced else None
    plain_s = traced_s = 0.0
    for n in range(rounds):
        t0 = time.perf_counter()
        one_round(n, None)
        plain_s += time.perf_counter() - t0
        if tracer is not None:
            tracer.install(sys.modules["workloads"])
            try:
                t0 = time.perf_counter()
                one_round(n, tracer)
                traced_s += time.perf_counter() - t0
            finally:
                tracer.remove()
    return tracer, plain_s, traced_s


def in_process(args, workdir: str) -> tuple[Tally, dict[str, float]]:
    setup_s = 0.0 if args.trace else statistics.median(probe_setup(args) for _ in range(SETUP_PROBES))
    ops = build_round(args.workload, args.seed, workdir)
    tally = Tally()

    def one_round(n: int, tracer) -> None:
        for pos, op in enumerate(ops):
            if tracer is not None:
                tracer.op_id += 1
            run_op(op, tally, pos)

    tracer, plain_s, traced_s = run_rounds(n_rounds(args.workload, args.seconds), one_round, bool(args.trace))
    if args.trace:
        return tally, layer_metrics(args, tracer, plain_s, traced_s)
    return tally, tally.end_to_end(setup_s, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)


def cli(args, workdir: str) -> tuple[Tally, dict[str, float]]:
    import workloads

    scenarios = build_round(args.workload, args.seed, workdir)
    warmup = ["quantile", "--scenario", workloads.EXAMPLE1_PATH]
    setup_s = 0.0
    if args.trace:
        in_process_main(warmup, None)
    else:
        setup_s = statistics.median(workloads.run_child(warmup, workdir)[2] for _ in range(CLI_WARMUPS))
    tally = Tally()
    peak = [0.0]

    def one_round(n: int, tracer) -> None:
        scenario = scenarios[n % len(scenarios)]
        invocations = workloads.cli_invocations(scenario, workdir, str(n % len(scenarios)))
        for pos, (argv, check) in enumerate(invocations):
            label = f"cli {argv[0]} {os.path.basename(scenario['path'])}"
            if args.trace:
                code, out, wall, cpu = in_process_main(argv, tracer)
            else:
                code, out, wall, cpu, rss = workloads.run_child(argv, workdir)
                peak[0] = max(peak[0], rss)
            tally.record(pos, label, wall, cpu, None, check(code, out))

    tracer, plain_s, traced_s = run_rounds(n_rounds(args.workload, args.seconds), one_round, bool(args.trace))
    if args.trace:
        return tally, layer_metrics(args, tracer, plain_s, traced_s)
    return tally, tally.end_to_end(setup_s, peak[0])


def in_process_main(argv: list[str], tracer) -> tuple[int, str, float, float]:
    """adtplan.cli.main(argv) in this process, stdout captured."""
    import adtplan.cli

    if tracer is not None:
        tracer.op_id += 1
    out = io.StringIO()
    cpu0, start = time.process_time(), time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = adtplan.cli.main(argv)
    return code, out.getvalue(), time.perf_counter() - start, time.process_time() - cpu0


def layer_metrics(args, tracer, plain_s: float, traced_s: float) -> dict[str, float]:
    metrics = import_metrics()
    metrics.update(tracer.metrics(tracer.op_id + 1))
    metrics["trace.overhead_ratio"] = traced_s / plain_s
    tracer.write(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.jsonl"))
    return metrics


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    load_package()
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT)
    try:
        if args.setup_probe:
            build_round(args.workload, args.seed, workdir)
            print("ready", flush=True)
            return
        tally, metrics = (cli if args.workload == "cli" else in_process)(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = END_TO_END_UNITS if not args.trace else {name: per_layer_units(name) for name in metrics}
    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    line = json.dumps(result)
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        fh.write(line + "\n")
    print(line)


if __name__ == "__main__":
    main()
