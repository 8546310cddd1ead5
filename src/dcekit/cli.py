r"""Command-line front end: solve, sweep, nmse, ser, rank.

All subcommands read a flat ``key = value`` config file (see
:mod:`dcekit.model`) and accept overrides for the leakage floor, the average
power cap, trial counts, and seeds.  ``sweep`` and ``ser`` write versioned
CSV (schema line, header line, then rows); ``--emit-plot-script`` drops a
gnuplot script next to the CSV for a quick look.

Exit codes::

    0  success
    2  the requested leakage floor is infeasible (solve / rank)
    3  config or usage problem (bad file, bad key, bad flag, bad value)
    4  the non-reciprocal solver stopped at its iteration cap
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path

from . import allocator, analytics, simkit
from .model import (
    NONRECIPROCAL,
    RECIPROCAL,
    ConfigError,
    RunSettings,
    load_config,
    nonreciprocal_plan,
    reciprocal_plan,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_CONFIG = 3
EXIT_NONCONVERGED = 4

SWEEP_SCHEMA = "# dcekit-sweep-v1"
SWEEP_HEADER = (
    "pave_db,gamma,scheme,e_r|e_t0,e_l1,e_l2,e_f|e_t3,sigma_a2,"
    "nmse_l_cf,nmse_u_cf,nmse_l_mc,nmse_l_mc_se,nmse_u_mc,nmse_u_mc_se,"
    "nmse_lb,scenario,status"
)
SER_SCHEMA = "# dcekit-ser-v1"
SER_HEADER = (
    "pave_db,gamma,scheme,data_power,ser_l,ser_l_ci,ser_u,ser_u_ci,"
    "ser_l_perfect,ser_l_perfect_ci,status"
)


class _Parser(argparse.ArgumentParser):
    """argparse, but usage problems exit with the config-error code."""

    def exit(self, status: int = 0, message: str | None = None):
        if message:
            sys.stderr.write(message)
        raise SystemExit(EXIT_CONFIG if status else EXIT_OK)


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float) and math.isinf(x):
        return "inf"
    return f"{x:.12g}" if isinstance(x, float) else str(x)


def _parse_pave_grid(text: str) -> list[float]:
    """``'18'`` -> [18.0]; ``'10:32:2'`` -> [10, 12, ..., 32] (inclusive)."""
    if ":" not in text:
        return [float(text)]
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"--pave-db range must be START:STOP:STEP, got {text!r}")
    start, stop, step = (float(p) for p in parts)
    if step <= 0:
        raise ConfigError(f"--pave-db step must be positive, got {step}")
    grid = []
    value = start
    while value <= stop + 1e-9:
        grid.append(round(value, 12))
        value += step
    return grid


def _parse_gammas(text: str) -> list[float]:
    try:
        gammas = [float(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ConfigError(f"--gamma expects comma-separated numbers, got {text!r}") from exc
    if not gammas:
        raise ConfigError("--gamma got an empty list")
    return gammas


def _load_settings(args) -> RunSettings:
    settings = load_config(args.config)
    if args.scheme and args.scheme != settings.plan.scheme:
        if args.scheme == RECIPROCAL:
            settings = settings.with_plan(reciprocal_plan(settings.config))
        else:
            settings = settings.with_plan(nonreciprocal_plan(settings.config))
    if getattr(args, "trials", None) is not None:
        settings = dataclasses.replace(settings, trials=args.trials)
    if getattr(args, "seed", None) is not None:
        settings = dataclasses.replace(settings, seed=args.seed)
    return settings


def _solve_point(settings: RunSettings, budget) -> allocator.SolveReport:
    if settings.plan.scheme == RECIPROCAL:
        return allocator.solve_reciprocal(settings.config, settings.plan, budget)
    return allocator.solve_nonreciprocal(settings.config, settings.plan, budget)


def _alloc_columns(report: allocator.SolveReport) -> list[str]:
    """The four shared energy columns: e_r|e_t0, e_l1, e_l2, e_f|e_t3."""
    alloc = report.allocation
    if alloc.scheme == RECIPROCAL:
        return [_fmt(alloc.e_r), "", "", _fmt(alloc.e_f)]
    return [_fmt(alloc.e_t0), _fmt(alloc.e_l1), _fmt(alloc.e_l2), _fmt(alloc.e_t3)]


def _write_lines(lines: list[str], out: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _emit_plot_script(out: str, kind: str) -> None:
    csv = Path(out)
    gp = csv.with_suffix(".gp")
    png = csv.with_suffix(".png")
    if kind == "sweep":
        plots = (
            f"plot '{csv.name}' every ::1 using 1:9 with linespoints title 'NMSE_L closed form', \\\n"
            f"     '{csv.name}' every ::1 using 1:10 with linespoints title 'NMSE_U closed form', \\\n"
            f"     '{csv.name}' every ::1 using 1:11 with points pt 6 title 'NMSE_L monte carlo', \\\n"
            f"     '{csv.name}' every ::1 using 1:15 with lines dt 2 title 'lower bound'"
        )
        ylabel = "NMSE"
    else:
        plots = (
            f"plot '{csv.name}' every ::1 using 1:5 with linespoints title 'LR', \\\n"
            f"     '{csv.name}' every ::1 using 1:7 with linespoints title 'UR', \\\n"
            f"     '{csv.name}' every ::1 using 1:9 with lines dt 2 title 'LR perfect CSI'"
        )
        ylabel = "symbol error rate"
    gp.write_text(
        "set terminal pngcairo size 900,600\n"
        f"set output '{png.name}'\n"
        "set datafile separator ','\n"
        "set logscale y\n"
        "set xlabel 'average power cap (dB)'\n"
        f"set ylabel '{ylabel}'\n"
        "set key bottom left\n"
        f"{plots}\n"
    )


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------


def _cmd_solve(args) -> int:
    settings = _load_settings(args)
    budget = settings.budget(pave_db=args.pave_db, gamma=args.gamma)
    report = _solve_point(settings, budget)
    alloc = report.allocation
    print(f"scheme: {alloc.scheme}")
    print(f"gamma: {_fmt(budget.gamma)}")
    print(
        f"budget: e_t_max={_fmt(budget.e_t_max)} e_l_max={_fmt(budget.e_l_max)} "
        f"e_ave_max={_fmt(budget.e_ave_max)}"
    )
    print(f"scenario: {report.scenario}")
    if alloc.scheme == RECIPROCAL:
        print(f"e_r={_fmt(alloc.e_r)} e_f={_fmt(alloc.e_f)} sigma_a2={_fmt(alloc.var_a)}")
    else:
        print(
            f"e_t0={_fmt(alloc.e_t0)} e_l1={_fmt(alloc.e_l1)} e_l2={_fmt(alloc.e_l2)} "
            f"e_t3={_fmt(alloc.e_t3)} sigma_a2={_fmt(alloc.var_a)}"
        )
    print(f"nmse_l: {_fmt(report.objective)}")
    print(f"nmse_u_slack: {_fmt(report.constraint_slack)}")
    print(f"iterations: {report.iterations}")
    print(f"converged: {report.converged}")
    if report.message:
        print(f"note: {report.message}")
    return EXIT_OK if report.converged else EXIT_NONCONVERGED


def _cmd_sweep(args) -> int:
    settings = _load_settings(args)
    gammas = _parse_gammas(args.gamma) if args.gamma else [settings.gamma]
    paves = _parse_pave_grid(args.pave_db) if args.pave_db else [settings.pave_db]
    scheme = settings.plan.scheme
    d = settings.plan.pilot_eigs

    lines = [SWEEP_SCHEMA, SWEEP_HEADER]
    any_nonconverged = False
    for pave in paves:
        for gamma in gammas:
            budget = settings.budget(pave_db=pave, gamma=gamma)
            prefix = [_fmt(pave), _fmt(gamma), scheme]
            lb = analytics.nmse_lower_bound(
                settings.config, budget.e_t_max, budget.e_ave_max, scheme
            )
            try:
                report = _solve_point(settings, budget)
            except allocator.InfeasibleGamma:
                row = prefix + [""] * 5 + ["", "", "", "", "", "", _fmt(lb), "", "infeasible"]
                lines.append(",".join(row))
                continue
            alloc = report.allocation
            e_fwd = alloc.e_f if scheme == RECIPROCAL else alloc.e_t3
            cf_u = analytics.nmse_u(settings.config, e_fwd, alloc.var_a, d)
            mc_cols = ["", "", "", ""]
            if settings.trials > 0:
                mc = simkit.mc_nmse(
                    settings.config, settings.plan, alloc,
                    settings.trials, settings.seed, workers=args.workers,
                )
                mc_cols = [_fmt(mc.nmse_l), _fmt(mc.nmse_l_se), _fmt(mc.nmse_u), _fmt(mc.nmse_u_se)]
            status = "ok" if report.converged else "nonconverged"
            any_nonconverged |= not report.converged
            row = (
                prefix
                + _alloc_columns(report)
                + [_fmt(alloc.var_a), _fmt(report.objective), _fmt(cf_u)]
                + mc_cols
                + [_fmt(lb), report.scenario, status]
            )
            lines.append(",".join(row))

    _write_lines(lines, args.out)
    if args.emit_plot_script:
        if not args.out:
            raise ConfigError("--emit-plot-script requires --out")
        _emit_plot_script(args.out, "sweep")
    return EXIT_NONCONVERGED if any_nonconverged else EXIT_OK


def _cmd_nmse(args) -> int:
    settings = _load_settings(args)
    budget = settings.budget(pave_db=args.pave_db, gamma=args.gamma)
    report = _solve_point(settings, budget)
    mc = simkit.mc_nmse(
        settings.config, settings.plan, report.allocation,
        settings.trials, settings.seed, workers=args.workers,
    )
    print(f"scheme: {settings.plan.scheme}")
    print(f"scenario: {report.scenario}")
    print(f"trials: {mc.trials}")
    print(f"nmse_l: {_fmt(mc.nmse_l)} se={_fmt(mc.nmse_l_se)} closed={_fmt(mc.nmse_l_closed)}")
    print(f"nmse_u: {_fmt(mc.nmse_u)} se={_fmt(mc.nmse_u_se)} closed={_fmt(mc.nmse_u_closed)}")
    return EXIT_OK if report.converged else EXIT_NONCONVERGED


def _cmd_ser(args) -> int:
    settings = _load_settings(args)
    gammas = _parse_gammas(args.gamma) if args.gamma else [settings.gamma]
    paves = _parse_pave_grid(args.pave_db) if args.pave_db else [settings.pave_db]
    scheme = settings.plan.scheme

    lines = [SER_SCHEMA, SER_HEADER]
    any_nonconverged = False
    for pave in paves:
        if pave is None or math.isinf(pave):
            raise ConfigError("ser needs a finite average power (pave_db in config or --pave-db)")
        data_power = 10.0 ** (pave / 10.0)
        for gamma in gammas:
            budget = settings.budget(pave_db=pave, gamma=gamma)
            prefix = [_fmt(pave), _fmt(gamma), scheme, _fmt(data_power)]
            try:
                report = _solve_point(settings, budget)
            except allocator.InfeasibleGamma:
                lines.append(",".join(prefix + [""] * 6 + ["infeasible"]))
                continue
            rep = simkit.mc_ser(
                settings.config, settings.plan, report.allocation,
                data_power, settings.trials, settings.seed, workers=args.workers,
            )
            status = "ok" if report.converged else "nonconverged"
            any_nonconverged |= not report.converged
            lines.append(",".join(
                prefix
                + [_fmt(rep.ser_l), _fmt(rep.ser_l_ci), _fmt(rep.ser_u), _fmt(rep.ser_u_ci),
                   _fmt(rep.ser_l_perfect), _fmt(rep.ser_l_perfect_ci), status]
            ))

    _write_lines(lines, args.out)
    if args.emit_plot_script:
        if not args.out:
            raise ConfigError("--emit-plot-script requires --out")
        _emit_plot_script(args.out, "ser")
    return EXIT_NONCONVERGED if any_nonconverged else EXIT_OK


def _cmd_rank(args) -> int:
    settings = _load_settings(args)
    budget = settings.budget(pave_db=args.pave_db, gamma=args.gamma)
    best_k, report = allocator.optimize_rank(settings.config, settings.plan, budget)
    print(f"scheme: {settings.plan.scheme}")
    print(f"best_rank: {best_k}")
    print(f"scenario: {report.scenario}")
    print(f"nmse_l: {_fmt(report.objective)}")
    print(f"nmse_u_slack: {_fmt(report.constraint_slack)}")
    return EXIT_OK if report.converged else EXIT_NONCONVERGED


# ---------------------------------------------------------------------------
# Parser assembly.
# ---------------------------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser, grid: bool) -> None:
    sub.add_argument("--config", required=True, help="path to a key = value config file")
    sub.add_argument(
        "--scheme", choices=(RECIPROCAL, NONRECIPROCAL),
        help="override the config's training scheme (plan lengths reset to defaults)",
    )
    sub.add_argument("--trials", type=int, help="Monte-Carlo trials (sweep: 0 disables MC columns)")
    sub.add_argument("--seed", type=int, help="Monte-Carlo seed override")
    sub.add_argument("--workers", type=int, default=1, help="worker threads for MC chunks")
    if grid:
        sub.add_argument("--gamma", help="leakage floor(s): one value or comma list")
        sub.add_argument(
            "--pave-db",
            help="average-power cap sweep: one value or START:STOP:STEP (dB)",
        )
        sub.add_argument("--out", help="write CSV here instead of stdout")
        sub.add_argument(
            "--emit-plot-script", action="store_true",
            help="also write a gnuplot script next to --out",
        )
    else:
        sub.add_argument("--gamma", type=float, help="leakage floor override")
        sub.add_argument(
            "--pave-db", type=float,
            help="average-power cap in dB ('inf' lifts the cap)",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dcekit",
        description="Discriminatory two-way channel training: solvers and simulations.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("solve", help="solve one energy-allocation problem")
    _add_common(p, grid=False)
    p.set_defaults(func=_cmd_solve)

    p = subs.add_parser("sweep", help="solve across power/gamma grids, CSV out")
    _add_common(p, grid=True)
    p.set_defaults(func=_cmd_sweep)

    p = subs.add_parser("nmse", help="Monte-Carlo NMSE check at one operating point")
    _add_common(p, grid=False)
    p.set_defaults(func=_cmd_nmse)

    p = subs.add_parser("ser", help="coded data-phase symbol error rates, CSV out")
    _add_common(p, grid=True)
    p.set_defaults(func=_cmd_ser)

    p = subs.add_parser("rank", help="optimize the forward-pilot rank")
    _add_common(p, grid=False)
    p.set_defaults(func=_cmd_rank)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except allocator.InfeasibleGamma as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
