"""Spans and counts around the public functions of adtplan, from outside.

Tracer.install() replaces each traced function in every adtplan module that
binds it, including the names modules import from each other (for example
adtplan.sweeps.c_criterion_single_obs), and in the benchmark modules that
call it; Tracer.remove() puts the
originals back.  Spans (name, start, end, parent, operation id, attributes)
and counts stay in memory until write() dumps them as JSON lines.  Nothing
under src/ changes, and with no tracer installed the package runs untouched.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections import Counter

# Traced functions per layer, named after the modules that define them.
LAYERS = {
    "scenario": ("load_scenario",),
    "cli": ("main",),
    "failure_time": ("median_failure_time", "quantile"),
    "criteria": ("c_criterion_time", "efficiency", "avar_median"),
    "timeplan": ("optimize_time_plan", "optimize_capped_weights", "kkt_check", "round_to_exact"),
    "destructive": (
        "numeric_destructive_time_design",
        "elfving_time_design",
        "product_design",
        "c_criterion_single_obs",
    ),
    "sweeps": ("sweep_efficiency", "sweep_pi_star", "vary_ratio_via_rho"),
}


class Tracer:
    """Spans and counts of the traced calls; op_id is set by the caller per operation."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.op_id = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _span(self, name: str, call):
        """Run call() inside a span named name; returns call's result."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        attrs: dict = {}
        start = time.perf_counter()
        try:
            return call(attrs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.op_id, attrs)

    def _wrap(self, layer: str, fname: str, fn):
        name = f"{layer}.{fname}"
        counts = self.counts

        if fname == "main":
            def wrapper(argv=None):
                sub = (argv or sys.argv[1:])[0].replace("-", "_")
                return self._span(f"cli.{sub}", lambda attrs: fn(argv))
        elif fname == "optimize_capped_weights":
            def wrapper(vectors, c, cap, cfg=None, callback=None):
                def call(attrs):
                    attrs["cap"] = float(cap)
                    counts["timeplan.engine_calls"] += 1

                    def count(it, crit, w):
                        counts["timeplan.accepted_iterates"] += 1
                        if callback is not None:
                            callback(it, crit, w)

                    args = (vectors, c, cap) if cfg is None else (vectors, c, cap, cfg)
                    w, cert = fn(*args, callback=count)
                    counts["timeplan.engine_certified"] += int(cert.certified)
                    return w, cert
                return self._span(name, call)
        else:
            def wrapper(*args, **kwargs):
                def call(attrs):
                    out = fn(*args, **kwargs)
                    if fname == "optimize_time_plan":
                        counts["timeplan.iterations"] += out[1].iterations
                    elif fname == "numeric_destructive_time_design":
                        counts["destructive.iterations"] += out[1].iterations
                    elif fname in ("sweep_efficiency", "sweep_pi_star"):
                        attrs["rows"] = len(out.rows)
                    return out
                return self._span(name, call)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, *callers) -> None:
        """Wrap the traced functions in adtplan and in the caller modules given."""
        modules = [m for n, m in list(sys.modules.items()) if n == "adtplan" or n.startswith("adtplan.")]
        modules += callers
        for layer, fnames in LAYERS.items():
            home = sys.modules.get(f"adtplan.{layer}")
            if home is None:  # adtplan.cli is loaded only by the cli workload
                continue
            for fname in fnames:
                original = getattr(home, fname)
                wrapper = self._wrap(layer, fname, original)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is original:
                            self._patched.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def remove(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, attrs in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "op": op, **attrs}) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")

    def metrics(self, n_ops: int) -> dict[str, float]:
        """Per-layer metrics from the spans; n_ops is the number of traced operations."""
        n_ops = max(n_ops, 1)
        by_name: dict[str, list[float]] = {}
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            by_name.setdefault(name, []).append(end - start)
            if parent >= 0:
                child_time[parent] += end - start
        self_time: Counter = Counter()
        for (name, start, end, _, _, _), inner in zip(self.spans, child_time):
            layer = name.split(".")[0]
            self_time[layer] += end - start - inner

        def p50_ms(name: str) -> float:
            d = by_name.get(name)
            return statistics.median(d) * 1e3 if d else 0.0

        def p90_ms(name: str) -> float:
            d = by_name.get(name)
            if not d:
                return 0.0
            return (statistics.quantiles(d, n=10)[8] if len(d) > 1 else d[0]) * 1e3

        def per_op(name: str) -> float:
            return len(by_name.get(name, ())) / n_ops

        out: dict[str, float] = {"scenario.load_scenario_ms": p50_ms("scenario.load_scenario")}
        for sub in ("quantile", "optimize_time", "optimize_destructive", "efficiency", "sweep", "check"):
            out[f"cli.{sub}_ms"] = p50_ms(f"cli.{sub}")
        cap1 = [e - s for n, s, e, _, _, a in self.spans if n == "timeplan.optimize_capped_weights" and a.get("cap") == 1.0]
        sweep_rows = sum(a.get("rows", 0) for n, _, _, _, _, a in self.spans if n.startswith("sweeps.sweep_"))
        sweep_s = sum(sum(by_name.get(n, ())) for n in ("sweeps.sweep_efficiency", "sweeps.sweep_pi_star"))
        engine_calls = self.counts["timeplan.engine_calls"]
        out.update({
            "failure_time.quantile_ms": p50_ms("failure_time.quantile"),
            "failure_time.quantile_calls": per_op("failure_time.quantile"),
            "failure_time.median_failure_time_calls": per_op("failure_time.median_failure_time"),
            "criteria.c_criterion_time_ms": p50_ms("criteria.c_criterion_time"),
            "criteria.c_criterion_time_calls": per_op("criteria.c_criterion_time"),
            "criteria.efficiency_ms": p50_ms("criteria.efficiency"),
            "timeplan.optimize_time_plan_p50_ms": p50_ms("timeplan.optimize_time_plan"),
            "timeplan.optimize_time_plan_p90_ms": p90_ms("timeplan.optimize_time_plan"),
            "timeplan.optimize_time_plan_calls": per_op("timeplan.optimize_time_plan"),
            "timeplan.iterations": self.counts["timeplan.iterations"] / n_ops,
            "timeplan.accepted_iterates": self.counts["timeplan.accepted_iterates"] / n_ops,
            "timeplan.certified_ratio": self.counts["timeplan.engine_certified"] / engine_calls if engine_calls else 0.0,
            "timeplan.kkt_check_ms": p50_ms("timeplan.kkt_check"),
            "timeplan.round_to_exact_ms": p50_ms("timeplan.round_to_exact"),
            "timeplan.optimize_capped_weights_ms": statistics.median(cap1) * 1e3 if cap1 else 0.0,
            "destructive.numeric_destructive_time_design_p50_ms": p50_ms("destructive.numeric_destructive_time_design"),
            "destructive.numeric_destructive_time_design_calls": per_op("destructive.numeric_destructive_time_design"),
            "destructive.iterations": self.counts["destructive.iterations"] / n_ops,
            "destructive.c_criterion_single_obs_ms": p50_ms("destructive.c_criterion_single_obs"),
            "destructive.c_criterion_single_obs_calls": per_op("destructive.c_criterion_single_obs"),
            "sweeps.sweep_efficiency_ms": p50_ms("sweeps.sweep_efficiency"),
            "sweeps.rows_per_s": sweep_rows / sweep_s if sweep_s else 0.0,
            "sweeps.vary_ratio_via_rho_calls": per_op("sweeps.vary_ratio_via_rho"),
        })
        for layer in LAYERS:
            out[f"{layer}.self_ms"] = self_time[layer] * 1e3 / n_ops
        return out


def import_times(stderr: str) -> dict[str, float]:
    """Cumulative import time in ms of adtplan, numpy, scipy and yaml from -X importtime.

    Lines come in post-order (a module after everything it imported), so
    reading them backwards visits parents first.  A package's time is the
    sum over its topmost entries: those whose parent lies outside it.
    """
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, name.strip(), int(cumulative)))
    totals = Counter()
    stack: list[tuple[int, str]] = []
    for depth, name, cumulative in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        parent = stack[-1][1] if stack else ""
        stack.append((depth, name))
        top = name.split(".")[0]
        if top in ("adtplan", "numpy", "scipy", "yaml") and parent.split(".")[0] != top:
            totals[top] += cumulative
    return {f"import.{top}_ms": totals[top] / 1e3 for top in ("adtplan", "scipy", "numpy", "yaml")}
