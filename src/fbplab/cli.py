"""Command-line orchestrator.

Subcommands::

    fbplab counterexample [--config FILE] [--out DIR]
        backward solve -> family construction -> full verifier battery on each
        triple's certified window -> pairwise distinctness; SUCCESS needs at least two
        triples passing everything and pairwise distinct, except that a family
        of one (no sources) succeeds when its baseline passes.

    fbplab regularize [--config FILE] [--out DIR]
        relaxation sweep over the configured eps values from the same initial
        datum; PASS needs both rows of ``verifier.relaxation_report`` (mass
        drift, viscous admissibility) to pass at every eps.

    fbplab inverse --a C0,C1,... --b C0,C1,... --T TIME [--config FILE] [--out DIR]
        closed-form source recovery between two cosine profiles, with a
        positivity report and the forward round-trip error.

    fbplab --seed-check
        runs the manufactured-violator suite (``controls.negative_controls``):
        every bounded row of the battery and of the relaxation report must
        reject its violator; each line names the target rows and their
        residuals.

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 numerical instability.  Outputs are plain text and tab-separated CSV and are
bit-reproducible from the config and the BLAS thread count.
"""

from __future__ import annotations

import argparse
import ctypes
import sys
from pathlib import Path

import numpy as np

from . import controls, verifier
from .config import ScenarioConfig, parse_floats
from .counterexample import construct_family
from .errors import ConfigurationError, FbpError, InstabilityError
from .solvers import (solve_pseudoparabolic, solve_unstable_backward,
                      inverse_source_from_endpoints, solve_sourced,
                      write_solver_metadata)
from .spectral import CosineSeries, Grid, write_field_csv, write_series_csv

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_CONFIG = 2
EXIT_INSTABILITY = 3

#: pairwise L2 distance above which two triples count as distinct
DISTINCT_THRESHOLD = 1e-6
#: glibc ``mallopt`` parameter numbers and the values ``fix_malloc_thresholds`` sets:
#: blocks of 4 MiB or more (a field of half a million values) are mapped on
#: allocation and unmapped on free; the heap keeps at most 2 MiB free at its top
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD_BYTES = 4 << 20
TRIM_THRESHOLD_BYTES = 2 << 20


def _triple_tag(index: int, provenance: str) -> str:
    kind = "baseline" if provenance == "baseline" else "sourced"
    return f"triple{index:02d}_{kind}"


def cmd_counterexample(config: ScenarioConfig) -> int:
    """Run the full multi-solution demonstration and write its audit trail."""
    out = Path(config.output_dir)
    params, grid = config.phase, config.grid
    family = construct_family(config.final_series(), config.source_series(),
                              params, grid, delta=config.delta)
    u0 = family[0].u.values[:, 0]     # the datum every triple shares

    lines = ["multi-solution demonstration", verifier.grid_summary(grid), ""]
    reports = []
    for i, triple in enumerate(family):
        tag = _triple_tag(i, triple.provenance)
        binding = triple.binding or "whole window"
        report = verifier.run_triple_battery(triple, u0, params)
        reports.append(report)

        for name, fld in (("u", triple.u), ("v", triple.v), ("lam", triple.lam)):
            write_field_csv(fld, out / "fields" / f"{tag}_{name}.csv")
            write_solver_metadata(
                out / "fields" / f"{tag}_{name}.meta.txt", fld.label,
                "state evolution u_t = v_xx with zero-flux sides",
                {"provenance": triple.provenance, "component": name,
                 "certified_horizon": triple.t_bar, "binding_condition": binding,
                 "delta": config.delta})
        report.to_csv(out / "reports" / f"{tag}_checks.csv")
        (out / "reports" / f"{tag}_report.txt").write_text(report.to_text() + "\n")

        worst = report.worst()
        lines.append(f"{tag}: provenance={triple.provenance}")
        lines.append(f"  certified horizon T_bar = {triple.t_bar:.6g} "
                     + (f"(binding: {binding})" if triple.binding else f"({binding})"))
        lines.append(f"  battery: {'pass' if report.passed else 'FAIL'} (least headroom "
                     f"{worst.headroom:.3f} of its bound in {worst.name}, "
                     f"residual {worst.residual:.3e})")
        for check in report.checks:
            lines.append(f"    {check.name}: "
                         f"{'pass' if check.passed else 'FAIL'} {check.residual:.3e}")

    passing = [i for i, rep in enumerate(reports) if rep.passed]
    lines.append("")
    lines.append("pairwise distinctness (u, v, lambda spatial L2 at half the joint horizon):")
    all_distinct = True
    for i in range(len(family)):
        for j in range(i + 1, len(family)):
            t_min = min(family[i].t_bar, family[j].t_bar)
            if t_min <= 0.0:
                # such a triple fails its identity check: the verdict is unchanged
                lines.append(f"  ({i},{j}): no common certified time after t=0 -> skipped")
                continue
            probe = grid.t[max(1, int(round(0.5 * t_min / grid.dt)))]
            du, dv, dl = verifier.distinctness(family[i], family[j], probe)
            distinct = max(du, dv, dl) > DISTINCT_THRESHOLD
            if i in passing and j in passing:
                all_distinct = all_distinct and distinct
            lines.append(f"  ({i},{j}) at t={probe:.4g}: du={du:.3e} dv={dv:.3e} "
                         f"dl={dl:.3e} -> {'distinct' if distinct else 'COINCIDENT'}")

    lines.append("")
    if len(family) < 2:
        lines.append("no non-uniqueness demonstrated (family size 1)")
        success = len(passing) == len(family)
    else:
        success = len(passing) >= 2 and all_distinct
        lines.append(f"{len(passing)}/{len(family)} triples pass the battery; "
                     f"pairwise distinct: {all_distinct}")
    lines.append("SUCCESS" if success else "FAILURE")
    (out / "summary.txt").write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    return EXIT_OK if success else EXIT_VERIFICATION


def cmd_regularize(config: ScenarioConfig) -> int:
    """Relaxation sweep from the shared initial datum, with admissibility audit."""
    out = Path(config.output_dir)
    params, grid = config.phase, config.grid
    back = solve_unstable_backward(config.final_series(), params, grid)

    rows = []
    for eps, tag in zip(config.eps_list, config.eps_tags()):
        sol = solve_pseudoparabolic(back.u0, eps, params, grid)
        rows.append((eps, verifier.relaxation_report(sol, params), sol))
        write_field_csv(sol.u_eps, out / "fields" / f"{tag}_u.csv")
        write_field_csv(sol.v_eps, out / "fields" / f"{tag}_v.csv")
        write_solver_metadata(out / "fields" / f"{tag}_u.meta.txt", sol.u_eps.label,
                              "relaxation u_t = v_xx, (I - eps d_xx) v = phi(u)",
                              {"eps": eps, "initial": "backward-solve datum"})

    lines = ["relaxation sweep", verifier.grid_summary(grid), "",
             "eps\tconservation drift\tworst viscous residual"]
    for eps, report, _ in rows:
        lines.append(f"{eps:g}\t{report.entry('mass-drift').residual:.3e}\t"
                     f"{report.entry('viscous-entropy').residual:.3e}")
    if len(rows) > 1:
        lines.append("")
        lines.append("max-norm distance between successive eps levels:")
        for (e1, _, s1), (e2, _, s2) in zip(rows, rows[1:]):
            d = float(np.max(np.abs(s1.u_eps.values - s2.u_eps.values)))
            lines.append(f"  u[eps={e1:g}] vs u[eps={e2:g}]: {d:.3e}")
    ok = all(report.passed for _, report, _ in rows)
    lines.append("")
    lines.append("PASS" if ok else "FAIL")
    (out / "regularize_summary.txt").write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    return EXIT_OK if ok else EXIT_VERIFICATION


def cmd_inverse(config: ScenarioConfig, a_coeffs, b_coeffs, t_end: float) -> int:
    """Recover the source between two cosine profiles and audit the round trip."""
    out = Path(config.output_dir)
    params, grid = config.phase, config.grid
    a, b = CosineSeries(grid.L, a_coeffs), CosineSeries(grid.L, b_coeffs)
    f = inverse_source_from_endpoints(a, b, t_end, params.sigma_abs)

    n_modes = max(len(a_coeffs) - 1, 1)
    rt_grid = Grid(grid.L, t_end, max(grid.n_x, 2 * n_modes + 2), grid.n_t,
                   max(grid.n_modes, n_modes))
    # the initial profile goes in as exact coefficients: sampling and
    # re-projecting would perturb them at round-off, which the growth factors
    # e^{mu_k T} amplify beyond any useful tolerance
    sol = solve_sourced(f, a, params.sigma_abs, rt_grid)
    round_trip = float(np.max(np.abs(sol.v.values[:, -1] - b.synthesize(rt_grid.x))))
    f_min = float(np.min(f.synthesize(rt_grid.x)))

    write_series_csv(f, out / "inverse_source.csv")
    lines = [
        "inverse source recovery",
        f"modes: {len(a_coeffs)}, T = {t_end:g}, |sigma| = {params.sigma_abs:g}",
        f"f coefficients: {[format(v, '.12g') for v in f.coeffs]}",
        f"min f on the grid: {f_min:.6g}"
        + ("  [below the positivity margin c2 = "
           f"{config.delta:g}]" if f_min < config.delta else ""),
        f"round-trip max-norm error at T: {round_trip:.3e}",
    ]
    (out / "inverse_summary.txt").write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    return EXIT_OK


def run_seed_check() -> int:
    """Negative-control suite: every check must reject its violator."""
    results = controls.negative_controls()
    ok = True
    for name, rejected, detail in results:
        print(f"{name}: {'rejected' if rejected else 'MISSED'} ({detail})")
        ok = ok and rejected
    print("all controls rejected" if ok else "SOME CONTROLS MISSED")
    return EXIT_OK if ok else EXIT_VERIFICATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fbplab",
        description="construct and verify non-unique admissible solutions of a "
                    "bistable forward-backward diffusion problem")
    parser.add_argument("--config", type=Path, default=None,
                        help="scenario file (defaults to the built-in reference scenario)")
    parser.add_argument("--out", type=Path, default=None,
                        help="output directory (overrides the config)")
    parser.add_argument("--seed-check", action="store_true",
                        help="run the negative-control suite and exit")
    # the same options are accepted after the subcommand; SUPPRESS keeps the
    # subparser from clobbering values parsed before it
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, default=argparse.SUPPRESS)
    common.add_argument("--out", type=Path, default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("counterexample", parents=[common],
                   help="multi-solution demonstration")
    sub.add_parser("regularize", parents=[common], help="relaxation sweep")
    inv = sub.add_parser("inverse", parents=[common],
                         help="source recovery from endpoint profiles")
    inv.add_argument("--a", required=True, help="comma list of initial cosine "
                     "coefficients; a leading minus needs the --a=-0.1,0.2 form")
    inv.add_argument("--b", required=True, help="comma list of final cosine "
                     "coefficients; a leading minus needs the --b=-0.1,0.2 form")
    inv.add_argument("--T", type=float, default=None,
                     help="final time (defaults to the grid horizon)")
    return parser


def fix_malloc_thresholds() -> None:
    """Keep the large fields of a fine grid out of the C heap for the rest of
    the process.

    glibc raises its mmap threshold to the size of each mapped block it frees,
    so once one field is freed the later ones are carved from the heap, whose
    freed gaps are neither returned nor always reused: a process that runs
    several commands grows from one to the next, by an amount that depends on
    what else it allocated in between.  Fixed thresholds keep every field of
    4 MiB or more mapped and freed at once, and smaller arrays reused from the
    heap, which keeps at most 2 MiB free at its top: the peak resident memory
    of a command is then the same whatever ran before it in the process.
    Where the C library has no ``mallopt`` this does nothing.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES)
        mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES)


def main(argv=None) -> int:
    fix_malloc_thresholds()
    args = build_parser().parse_args(argv)
    try:
        if args.seed_check:
            return run_seed_check()
        if args.command is None:
            raise ConfigurationError("choose a subcommand or --seed-check")
        config = (ScenarioConfig.from_file(args.config) if args.config
                  else ScenarioConfig.default())
        if args.out is not None:
            config = config.with_output(args.out)
        if args.command == "counterexample":
            return cmd_counterexample(config)
        if args.command == "regularize":
            return cmd_regularize(config)
        if args.command == "inverse":
            a, b = parse_floats(args.a, "--a"), parse_floats(args.b, "--b")
            t_end = args.T if args.T is not None else config.grid.T_end
            if not (np.isfinite(t_end) and t_end > 0):  # a grid's own T_end always is
                raise ConfigurationError(f"--T must be finite and positive, not {t_end:g}")
            return cmd_inverse(config, a, b, t_end)
        raise ConfigurationError(f"unknown command {args.command!r}")
    except InstabilityError as exc:
        print(f"numerical instability: {exc}", file=sys.stderr)
        return EXIT_INSTABILITY
    except FbpError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
