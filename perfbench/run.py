#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload reference --seed 1 --seconds 10 --trace 0

Run from the root of a checkout: fbplab is imported from ``src/`` there and
nowhere else.  With ``--trace 0`` the result holds the end-to-end metrics
(``run_s``, ``setup_s``, ``peak_rss_mb``); with ``--trace 1`` it holds the
per-module metrics of ``perfbench/spans.py``.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread: pinned before numpy is first imported, and inherited
# by the fresh interpreters that time set-up
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(ROOT))

from perfbench.calibration import Sampler, probe, scale  # noqa: E402
WORK = ROOT / "perfbench" / "_work"
#: fresh interpreters timed per run for setup_s (after one discarded warm-up)
SETUP_SAMPLES = 5
#: probe units run before and after a set-up sample or a traced pass
PROBE_UNITS = 20


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Session:
    """Runs passes of one workload, checks every output, and counts operations."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def _fail(self, message: str) -> None:
        self.correct = False
        print(f"perfbench: {self.workload.name}: {message}", file=sys.stderr)

    def run(self, operations, counted: bool = True, sampler=None) -> float:
        """One pass: wall time of the operations, less the time of the
        sampler's probes among them; then (untimed) their checks."""
        from perfbench.checks import CheckFailed

        self.workload.clear()
        gc.collect()
        results = []
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            with sampler or contextlib.nullcontext():
                start = time.perf_counter()
                for name, operation in operations:
                    try:
                        results.append((name, operation()))
                    except (Exception, SystemExit) as exc:  # a failed operation, reported below
                        results.append((name, exc))
            elapsed = time.perf_counter() - start - (sampler.busy if sampler else 0.0)
        for name, result in results:
            failed = (isinstance(result, (Exception, SystemExit))
                      or (isinstance(result, int) and result != 0))
            if counted:
                self.attempted += 1
                self.failed += failed
            if failed:
                print(f"perfbench: {self.workload.name}: {name} failed: {result!r}",
                      file=sys.stderr)
                if not counted:
                    self._fail(f"warm-up {name} failed")
                continue
            try:
                self.workload.check(name, result)
            except CheckFailed as exc:
                self._fail(f"{name}: {exc}")
            except (OSError, ValueError) as exc:   # an output missing or unreadable
                self._fail(f"{name}: {exc!r}")
        return elapsed


def _setup_sample(workload) -> float:
    """Seconds from starting a fresh interpreter to fbplab.cli imported and the
    scenario built, read on the system-wide monotonic clock."""
    code = ("import sys, time\n"
            f"sys.path.insert(0, {str(SRC)!r})\n"
            "import fbplab.cli\n"
            f"{workload.setup_statements()}\n"
            "print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))\n")
    # bytecode is written whatever the caller's environment says, so that the
    # discarded first sample compiles fbplab's .pyc files for the others
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=120, env=env)
    if done.returncode != 0:
        raise RuntimeError(f"set-up interpreter failed:\n{done.stderr}")
    return float(done.stdout.strip().splitlines()[-1]) - start


def _scaled_setup_sample(workload) -> float:
    """One set-up sample in reference-host seconds, scaled by probes run just
    before and after it."""
    before = probe(PROBE_UNITS)
    wall = _setup_sample(workload)
    return wall * scale((before + probe(PROBE_UNITS)) / 2)


def measure(session: Session, seconds: float) -> dict:
    """End-to-end metrics: warm passes until ``seconds`` of pass time, with the
    set-up samples interleaved between them.  Each pass is scaled into
    reference-host seconds by the probes sampled inside it, each set-up sample
    by probes run just before and after it."""
    workload = session.workload
    sampler = Sampler()
    _setup_sample(workload)                       # compiles .pyc files; discarded
    session.run(workload.warm_up_operations(), counted=False, sampler=sampler)
    walls, passes, setups = [], [], []
    while not passes or sum(walls) < seconds:
        walls.append(session.run(workload.operations(), sampler=sampler))
        passes.append(walls[-1] * scale(sampler.mean))
        if len(setups) < SETUP_SAMPLES:
            setups.append(_scaled_setup_sample(workload))
    while len(setups) < SETUP_SAMPLES:
        setups.append(_scaled_setup_sample(workload))
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"perfbench: {workload.name}: wall passes {[round(p, 4) for p in walls]} "
          f"scaled {[round(p, 4) for p in passes]} set-up {[round(s, 4) for s in setups]}",
          file=sys.stderr)
    return {
        "run_s": (statistics.median(passes), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak, "MB"),
    }


def measure_traced(session: Session, seconds: float) -> dict:
    """Per-module metrics: untraced and traced passes alternate until the
    traced ones reach ``seconds`` of wall time; each metric is the median over
    traced passes.
    Untraced passes are scaled as in ``measure``; a traced pass, whose spans a
    probe must not interrupt, by probes run just before and after it.
    ``host.probe_s`` is the median unscaled time of one probe unit."""
    from perfbench.spans import Tracer, metric_units

    workload = session.workload
    sampler = Sampler()
    tracer = Tracer()
    units = metric_units()
    session.run(workload.warm_up_operations(), counted=False, sampler=sampler)
    plain, traced, summaries, probes, walls = [], [], [], [], []
    while not traced or sum(walls) < seconds:
        wall = session.run(workload.operations(), sampler=sampler)
        plain.append(wall * scale(sampler.mean))
        probes.append(sampler.mean)
        before = probe(PROBE_UNITS)
        tracer.reset()
        tracer.install()
        try:
            wall = session.run(workload.operations())
        finally:
            tracer.uninstall()
        after = probe(PROBE_UNITS)
        factor = scale((before + after) / 2)
        walls.append(wall)
        traced.append(wall * factor)
        summaries.append({name: value * factor if units[name] == "s" else value
                          for name, value in tracer.summary().items()})
    for name in tracer.missing:
        print(f"perfbench: {name} not found; its metrics read 0", file=sys.stderr)
    metrics = {name: (statistics.median(s[name] for s in summaries), unit)
               for name, unit in units.items() if name in summaries[0]}
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
    metrics["host.probe_s"] = (statistics.median(probes), "s")
    print(f"perfbench: {workload.name}: untraced {[round(p, 4) for p in plain]} "
          f"traced {[round(p, 4) for p in traced]} top-level spans "
          f"{metrics['trace.top_level_s'][0]:.4f}", file=sys.stderr)
    return metrics


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "fbplab" / "__init__.py").is_file():
        print(f"perfbench: no fbplab sources under {SRC}", file=sys.stderr)
        return 2
    # one CPU for the passes, the probes and the set-up interpreters, so that
    # every probe measures the CPU the timed work ran on
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    try:
        session = Session(WORKLOADS[args.workload](args.seed, WORK))
        metrics = (measure_traced if args.trace else measure)(session, args.seconds)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps({
        "correct": session.correct,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
