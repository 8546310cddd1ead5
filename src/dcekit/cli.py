r"""Command-line front end: solve, sweep, nmse, ser, rank.

All subcommands read a flat ``key = value`` config file (see
:mod:`dcekit.model`) and accept overrides for the leakage floor, the average
power cap, trial counts, and seeds.  Every solve goes through
:func:`dcekit.allocator.solve`.  ``sweep`` and ``ser`` share one grid loop
and differ only in their row columns; both write versioned CSV (schema
line, header line, then rows), and ``--emit-plot-script`` drops a gnuplot
script next to the CSV for a quick look.

Exit codes::

    0  success
    2  the requested leakage floor is infeasible (solve / rank)
    3  config or usage problem (bad file, bad key, bad flag, bad value)
    4  the non-reciprocal solver stopped at its iteration cap
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import re
import sys
from pathlib import Path

from . import allocator, analytics, simkit
from .model import (
    MIN_TRIALS,
    NONRECIPROCAL,
    RECIPROCAL,
    ConfigError,
    EnergyBudget,
    RunSettings,
    db_to_energy,
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


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float) and math.isinf(x):
        return "inf"
    return f"{x:.12g}" if isinstance(x, float) else str(x)


# More P_ave points than any sweep needs; a range past it is a typo (a tiny STEP).
_MAX_PAVE_POINTS = 10_000


def _check_pave(pave: float) -> float:
    """A single ``--pave-db`` value: NaN or ``-inf`` is a config error,
    ``inf`` lifts the total cap."""
    if math.isnan(pave) or pave == -math.inf:
        raise ConfigError(f"--pave-db must be a number of dB or inf, got {pave}")
    return pave


def _parse_pave_grid(text: str) -> list[float]:
    """``'18'`` -> [18.0]; ``'10:32:2'`` -> [10, 12, ..., 32] (inclusive).

    A range is counted before it is built: more than :data:`_MAX_PAVE_POINTS`
    points, or points that do not strictly increase (a STEP below the float
    spacing of START), are a config error, and so is an empty value or a
    single value that :func:`_check_pave` rejects."""
    if not text.strip():
        raise ConfigError("--pave-db got an empty value")
    if ":" not in text:
        return [_check_pave(float(text))]
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"--pave-db range must be START:STOP:STEP, got {text!r}")
    start, stop, step = (float(p) for p in parts)
    if not (all(map(math.isfinite, (start, stop, step))) and step > 0 and start <= stop + 1e-9):
        raise ConfigError(f"--pave-db needs finite START <= STOP and STEP > 0, got {text!r}")
    count = (stop + 1e-9 - start) / step
    if not count < _MAX_PAVE_POINTS:
        raise ConfigError(f"--pave-db range has more than {_MAX_PAVE_POINTS} points, got {text!r}")
    grid = [round(start + i * step, 12) for i in range(math.floor(count) + 1)]
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ConfigError(f"--pave-db STEP is too small to advance from START, got {text!r}")
    return grid


def _parse_gammas(text: str) -> list[float]:
    """``'0.1,0.03'`` -> [0.1, 0.03]; an empty list or element is a config error."""
    parts = text.split(",")
    if not text.strip():
        raise ConfigError("--gamma got an empty list")
    if not all(part.strip() for part in parts):
        raise ConfigError(f"--gamma has an empty element, got {text!r}")
    try:
        return [float(part) for part in parts]
    except ValueError as exc:
        raise ConfigError(f"--gamma expects comma-separated numbers, got {text!r}") from exc


def _load_settings(args) -> RunSettings:
    for flag, value, least in (("--seed", args.seed, 0), ("--workers", args.workers, 1)):
        if value is not None and value < least:
            raise ConfigError(f"{flag} must be >= {least}, got {value}")
    if args.trials is not None and args.trials < MIN_TRIALS:
        # 0 turns the Monte Carlo off, which nmse and ser cannot run without.
        if args.trials != 0 or args.command in ("nmse", "ser"):
            raise ConfigError(
                f"--trials must be >= {MIN_TRIALS} (0 skips sweep's MC), got {args.trials}"
            )
    settings = load_config(args.config)
    if args.scheme and args.scheme != settings.plan.scheme:
        make_plan = reciprocal_plan if args.scheme == RECIPROCAL else nonreciprocal_plan
        settings = dataclasses.replace(settings, plan=make_plan(settings.config))
    overrides = {k: getattr(args, k) for k in ("trials", "seed") if getattr(args, k) is not None}
    return dataclasses.replace(settings, **overrides)


def _load_point(args) -> tuple[RunSettings, EnergyBudget]:
    """Settings and the budget at ``--pave-db`` / ``--gamma`` (solve, nmse, rank)."""
    settings = _load_settings(args)
    pave = None if args.pave_db is None else _check_pave(args.pave_db)
    return settings, settings.budget(pave_db=pave, gamma=args.gamma)


# Per grid command: CSV schema and header, the plot's y label, and its
# curves as (CSV column, gnuplot style, title).
_GRIDS = {
    "sweep": (SWEEP_SCHEMA, SWEEP_HEADER, "NMSE", (
        (9, "linespoints", "NMSE_L closed form"),
        (10, "linespoints", "NMSE_U closed form"),
        (11, "points pt 6", "NMSE_L monte carlo"),
        (15, "lines dt 2", "lower bound"),
    )),
    "ser": (SER_SCHEMA, SER_HEADER, "symbol error rate", (
        (5, "linespoints", "LR"),
        (7, "linespoints", "UR"),
        (9, "lines dt 2", "LR perfect CSI"),
    )),
}


def _emit_plot_script(out: str, ylabel: str, curves) -> None:
    csv = Path(out)
    plots = ", \\\n     ".join(
        f"'{csv.name}' every ::1 using 1:{column} with {style} title '{title}'"
        for column, style, title in curves
    )
    csv.with_suffix(".gp").write_text(
        "set terminal pngcairo size 900,600\n"
        f"set output '{csv.with_suffix('.png').name}'\n"
        "set datafile separator ','\n"
        "set logscale y\n"
        "set xlabel 'average power cap (dB)'\n"
        f"set ylabel '{ylabel}'\n"
        "set key bottom left\n"
        f"plot {plots}\n"
    )


def _grid(args, kind: str, row) -> int:
    """The loop of ``sweep`` and ``ser``: solve every (P_ave, gamma) point,
    P_ave outermost, and write one CSV row each, then the plot script.

    ``row(settings, pave, budget, report)`` gives a row's columns between
    the scheme and the status; ``report`` is ``None`` when the floor is
    infeasible.  Returns the nonconverged exit code if any solve stopped at
    its iteration cap.
    """
    if args.emit_plot_script and not args.out:
        raise ConfigError("--emit-plot-script requires --out")
    schema, header, ylabel, curves = _GRIDS[kind]
    settings = _load_settings(args)
    gammas = [settings.gamma] if args.gamma is None else _parse_gammas(args.gamma)
    paves = [settings.pave_db] if args.pave_db is None else _parse_pave_grid(args.pave_db)
    lines = [schema, header]
    any_nonconverged = False
    for pave in paves:
        for gamma in gammas:
            budget = settings.budget(pave_db=pave, gamma=gamma)
            try:
                report = allocator.solve(settings.config, settings.plan, budget)
                status = "ok" if report.converged else "nonconverged"
            except allocator.InfeasibleGamma:
                report, status = None, "infeasible"
            any_nonconverged |= status == "nonconverged"
            cells = row(settings, pave, budget, report)
            lines.append(",".join([_fmt(pave), _fmt(gamma), settings.plan.scheme, *cells, status]))

    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    if args.emit_plot_script:
        _emit_plot_script(args.out, ylabel, curves)
    return EXIT_NONCONVERGED if any_nonconverged else EXIT_OK


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------


def _cmd_solve(args) -> int:
    settings, budget = _load_point(args)
    report = allocator.solve(settings.config, settings.plan, budget)
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
    def row(settings, pave, budget, report):
        scheme = settings.plan.scheme
        lb = analytics.nmse_lower_bound(settings.config, budget.e_t_max, budget.e_ave_max, scheme)
        if report is None:
            return [""] * 11 + [_fmt(lb), ""]
        alloc = report.allocation
        mc_cols = ["", "", "", ""]
        if settings.trials > 0:
            mc = simkit.mc_nmse(
                settings.config, settings.plan, alloc,
                settings.trials, settings.seed, workers=args.workers,
            )
            mc_cols = [_fmt(mc.nmse_l), _fmt(mc.nmse_l_se), _fmt(mc.nmse_u), _fmt(mc.nmse_u_se)]
        if scheme == RECIPROCAL:
            energies = [_fmt(alloc.e_r), "", "", _fmt(alloc.e_f)]
        else:
            energies = [_fmt(alloc.e_t0), _fmt(alloc.e_l1), _fmt(alloc.e_l2), _fmt(alloc.e_t3)]
        return (
            energies
            + [_fmt(alloc.var_a), _fmt(report.objective), _fmt(report.nmse_u)]
            + mc_cols
            + [_fmt(lb), report.scenario]
        )

    return _grid(args, "sweep", row)


def _cmd_nmse(args) -> int:
    settings, budget = _load_point(args)
    report = allocator.solve(settings.config, settings.plan, budget)
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
    def row(settings, pave, budget, report):
        data_power = math.inf if pave is None else db_to_energy(pave, 1)
        if not 0.0 < data_power < math.inf:
            raise ConfigError("ser needs a finite average power (pave_db in config or --pave-db)")
        if report is None:
            return [_fmt(data_power)] + [""] * 6
        rep = simkit.mc_ser(
            settings.config, settings.plan, report.allocation,
            data_power, settings.trials, settings.seed, workers=args.workers,
        )
        return [
            _fmt(data_power), _fmt(rep.ser_l), _fmt(rep.ser_l_ci), _fmt(rep.ser_u),
            _fmt(rep.ser_u_ci), _fmt(rep.ser_l_perfect), _fmt(rep.ser_l_perfect_ci),
        ]

    return _grid(args, "ser", row)


def _cmd_rank(args) -> int:
    settings, budget = _load_point(args)
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
    sub.add_argument(
        "--trials", type=int,
        help=f"Monte-Carlo trials, at least {MIN_TRIALS} (sweep: 0 disables MC columns)",
    )
    sub.add_argument("--seed", type=int, help="Monte-Carlo seed override")
    sub.add_argument("--workers", type=int, default=1, help="MC chunks run at once (this thread and helper threads)")
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


class _Parser(argparse.ArgumentParser):
    """An argument parser that reads any token starting ``-<digit>`` or
    ``-.<digit>`` as a value, not an option, so ``--pave-db -5:5:5`` and
    ``--pave-db -5e0`` parse like ``--pave-db=-5:5:5``.  (argparse itself
    only takes plain ``-5`` and ``-.5``; no option here starts with a
    digit.)  Subparsers inherit the class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dcekit",
        description="Discriminatory two-way channel training: solvers and simulations.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, handler, grid, help_text in (
        ("solve", _cmd_solve, False, "solve one energy-allocation problem"),
        ("sweep", _cmd_sweep, True, "solve across power/gamma grids, CSV out"),
        ("nmse", _cmd_nmse, False, "Monte-Carlo NMSE check at one operating point"),
        ("ser", _cmd_ser, True, "coded data-phase symbol error rates, CSV out"),
        ("rank", _cmd_rank, False, "optimize the forward-pilot rank"),
    ):
        sub = subs.add_parser(name, help=help_text)
        _add_common(sub, grid)
        sub.set_defaults(func=handler)
    return parser


# Built on the first call of main and kept: parsing leaves no state in it,
# and building takes about 20 times as long as parsing one command line.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # --help, or a usage error argparse has reported
        return EXIT_CONFIG if exc.code else EXIT_OK
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
