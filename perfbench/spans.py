"""Spans around calls into fbplab's public functions, recorded from outside.

``Tracer.install`` replaces each traced function, in every fbplab module that
looks it up by that name, with a wrapper that records a span (name, start,
end, parent).  Nothing inside the package changes, and ``uninstall`` puts the
originals back.  Spans stay in memory; ``summary`` turns one pass of them into
the per-module metrics.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

#: functions timed as spans; each gives "<module>.<function>.s" (busy time,
#: counted once where the function nests inside itself) and ".calls"
SPANNED = (
    ("spectral", "write_field_csv"),
    ("spectral", "analyze_columns"),
    ("spectral", "synthesize_columns"),
    ("spectral", "x_derivative_columns"),
    ("phase_model", "entropy_primitive"),
    ("phase_model", "certificate_integrand_extended"),
    ("solvers", "solve_unstable_backward"),
    ("solvers", "solve_sourced"),
    ("solvers", "inverse_source_from_endpoints"),
    ("solvers", "solve_pseudoparabolic"),
    ("counterexample", "construct_family"),
    ("counterexample", "certify_horizon"),
    ("verifier", "run_triple_battery"),
    ("verifier", "structural_check"),
    ("verifier", "monotonicity_report"),
    ("verifier", "weak_residual"),
    ("verifier", "pointwise_certificate"),
    ("verifier", "certificate_identity_error"),
    ("verifier", "viscous_entropy_residual"),
    ("verifier", "distinctness"),
    ("cli", "cmd_counterexample"),
    ("cli", "cmd_regularize"),
    ("cli", "cmd_inverse"),
)
#: spans that also report self time: their duration less their child spans
SELF_TIMED = ("verifier.run_triple_battery", "cli.cmd_counterexample", "cli.cmd_regularize")
RELAXATION = "solvers.solve_pseudoparabolic"
CSV_WRITER = "spectral.write_field_csv"
MIB = float(1 << 20)


def metric_units() -> dict[str, str]:
    """Every per-module metric a traced run prints, with its unit."""
    units = {}
    for module, function in SPANNED:
        name = f"{module}.{function}"
        units[f"{name}.s"] = "s"
        units[f"{name}.calls"] = "count"
        if name in SELF_TIMED:
            units[f"{name}.self_s"] = "s"
    units[f"{CSV_WRITER}.mb"] = "MB"
    units[f"{RELAXATION}.pointwise_flux_calls"] = "count"
    units["trace.top_level_s"] = "s"
    units["trace.overhead_s"] = "s"
    units["host.probe_s"] = "s"
    return units


class Tracer:
    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent index, nested]
        self._stack: list[int] = []
        self._active: dict[str, int] = defaultdict(int)
        self._bytes = 0
        self._pointwise = 0
        self._patches: list[tuple] = []
        self.missing: list[str] = []

    def reset(self) -> None:
        self.spans.clear()
        self._bytes = 0
        self._pointwise = 0

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "fbplab" or n.startswith("fbplab.")) and m is not None]
        for module_name, function in SPANNED:
            home = sys.modules.get(f"fbplab.{module_name}")
            original = getattr(home, function, None)
            if original is None:
                self.missing.append(f"{module_name}.{function}")
                continue
            after = self._add_written if f"{module_name}.{function}" == CSV_WRITER else None
            self._replace(modules, function, original,
                          self._span(original, f"{module_name}.{function}", after))
        solvers = sys.modules.get("fbplab.solvers")
        eval_phi = getattr(solvers, "eval_phi", None)
        if eval_phi is None:
            self.missing.append("solvers.eval_phi")
        else:
            self._replace([solvers], "eval_phi", eval_phi, self._count_pointwise(eval_phi))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _replace(self, modules, attr, original, wrapper) -> None:
        for module in modules:
            if getattr(module, attr, None) is original:
                self._patches.append((module, attr, original))
                setattr(module, attr, wrapper)

    def _span(self, fn, name, after):
        spans, stack, active = self.spans, self._stack, self._active
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, active[name] > 0]
            stack.append(len(spans))
            spans.append(record)
            active[name] += 1
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
                active[name] -= 1
            if after is not None:
                after(args, kwargs)
            return result

        return wrapper

    def _count_pointwise(self, fn):
        active = self._active

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if active[RELAXATION]:
                self._pointwise += 1
            return fn(*args, **kwargs)

        return wrapper

    def _add_written(self, args, kwargs) -> None:
        path = args[1] if len(args) > 1 else kwargs["path"]
        self._bytes += os.path.getsize(path)

    # -- metrics -----------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Per-module metrics of the spans recorded since the last reset."""
        busy = defaultdict(float)
        calls = defaultdict(int)
        self_time = defaultdict(float)
        children = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                children[parent] += end - start
        top_level = 0.0
        for index, (name, start, end, parent, nested) in enumerate(self.spans):
            calls[name] += 1
            if nested:
                continue
            busy[name] += end - start
            self_time[name] += end - start - children[index]
            if parent < 0:
                top_level += end - start
        out = {}
        for metric in metric_units():
            stem, _, quantity = metric.rpartition(".")
            if quantity == "s":
                out[metric] = busy[stem]
            elif quantity == "calls":
                out[metric] = calls[stem]
            elif quantity == "self_s":
                out[metric] = self_time[stem]
        out[f"{CSV_WRITER}.mb"] = self._bytes / MIB
        out[f"{RELAXATION}.pointwise_flux_calls"] = self._pointwise
        out["trace.top_level_s"] = top_level
        return out
