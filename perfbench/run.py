#!/usr/bin/env python3
"""dcekit benchmark: four closed-loop workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload ser_curve --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``ser_curve``, ``nmse_check``, ``gp_sweep``,
``round_api``.  The package is imported from ``src/`` next to this directory
and driven only through its public calls.

Set-up (import of dcekit, configs and plans, a small warm-up) is timed in this
process and in four fresh child processes; ``setup_s`` is the median of the
five.  The measured phase then repeats passes of fixed work until
``--seconds`` have passed (at least three passes).  Times are scaled to a
reference machine speed (see ``REF_NOMINAL_S`` below); the raw times are
printed next to them.  With ``--trace 0`` the last line of stdout carries the
end-to-end metrics; with ``--trace 1`` the first half of the time runs
untraced and the second half traced, and the last line carries the per-layer
metrics.  Every output is checked; ``failed`` counts operations that broke a
check or raised, and ``correct`` is false if any did.  A full record
(environment, every metric, problems, and with tracing the raw spans) is
written under ``perfbench/out/``.

Exit code 0 with a result; 1 without one (no ``src/dcekit`` here, or an
internal error).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

# The only threads are simkit's own workers: pin BLAS and OpenMP pools to one
# thread before numpy is imported, here and in the set-up children.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# Every set-up compiles dcekit from source, as in a fresh checkout, so that
# setup_s does not depend on bytecode left behind by an earlier run.
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 3
MIN_TRACE_PASSES = 2
SETUP_CHILDREN = 4
CHILD_TIMEOUT_S = 120

# Machine-speed normalization.  On a shared host the same code runs up to
# ~1.5x slower while neighbours load the physical cores, in spells from a
# fraction of a second to minutes, so no statistic over one run's passes
# removes them.  A fixed reference kernel (numpy small-matrix linear algebra
# plus interpreter work, the two things dcekit spends its time on) is timed
# between operations, at most every SEGMENT_S seconds, and each operation's
# wall and CPU time is multiplied by (REF_NOMINAL_S / mean reference time
# around it) ** SPEED_EXPONENT.  The exponent is the workloads' sensitivity to
# host load relative to the kernel's: regressing log op time on log kernel
# time gave 0.4-0.8 on a shared 2-vCPU Xeon VM (Python 3.11, numpy 2.4), and
# 0.5 gave the lowest pass-to-pass spread on all four workloads together.  The end-to-end
# times are therefore "seconds at the speed where the reference kernel takes
# REF_NOMINAL_S".  The kernel uses no dcekit code, so a change to dcekit
# moves them in full.  Raw times are printed next to them and kept in the
# record.
SEGMENT_S = 0.1
SETUP_REF_RUNS = 5
REF_NOMINAL_S = 0.015
SPEED_EXPONENT = 0.5

# name -> unit; the order is the order of BENCHMARK.json.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "work_per_s": "1/s",
    "op_ms_p50": "ms",
    "peak_rss_mb": "MB",
}

# name -> (unit, better)
PER_LAYER = {
    "simkit.ostbc_detect.busy_s": ("s", "lower"),
    "simkit.ostbc_detect.calls": ("count", "lower"),
    "simkit.ostbc_encode.busy_s": ("s", "lower"),
    "simkit.mc_ser.busy_s": ("s", "lower"),
    "simkit.mc_ser.self_s": ("s", "lower"),
    "simkit.mc_nmse.busy_s": ("s", "lower"),
    "simkit.mc_nmse.self_s": ("s", "lower"),
    "simkit.chunks": ("count", "lower"),
    "simkit.trials": ("count", "higher"),
    "allocator.solve_nonreciprocal.busy_s": ("s", "lower"),
    "allocator.solve_nonreciprocal.self_s": ("s", "lower"),
    "allocator.solve_nonreciprocal.calls": ("count", "lower"),
    "allocator.gp_outer_iters": ("count", "lower"),
    "allocator.converged_frac": ("ratio", "higher"),
    "allocator.infeasible": ("count", "lower"),
    "allocator.solve_reciprocal.busy_s": ("s", "lower"),
    "allocator.solve_general.busy_s": ("s", "lower"),
    "analytics.busy_s": ("s", "lower"),
    "analytics.calls": ("count", "lower"),
    "analytics.nmse_l_nonreciprocal_approx.calls": ("count", "lower"),
    "protocol.run_reciprocal.self_s": ("s", "lower"),
    "protocol.run_nonreciprocal.self_s": ("s", "lower"),
    "protocol.dft_semiunitary.busy_s": ("s", "lower"),
    "protocol.forward_pilot.busy_s": ("s", "lower"),
    "model.validate.busy_s": ("s", "lower"),
    "model.allocation_violations.busy_s": ("s", "lower"),
    "model.draw_channels.busy_s": ("s", "lower"),
    "numerics.random_gaussian.busy_s": ("s", "lower"),
    "estimator.effective_forward_noise_var.calls": ("count", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "model.load_config.busy_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.self_sum_s": ("s", "lower"),
    "trace.coverage": ("ratio", "higher"),
}

# Per-layer counts: every traced pass must give the same value.
EXACT_COUNTS = tuple(
    name for name, (unit, _) in PER_LAYER.items() if unit == "count"
)

ENGINE_NOTE = (
    "the batched training engine (protocol's private *_core) has no public "
    "entry point yet, so its time reads as the self time of simkit.mc_*"
)


def import_dcekit() -> dict:
    """Import dcekit from this checkout's src/ (never from site-packages)."""
    if not (SRC / "dcekit" / "__init__.py").is_file():
        raise SystemExit(f"error: no dcekit package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy

    import dcekit
    from dcekit import allocator, analytics, cli, estimator, model, numerics, protocol, simkit

    if Path(dcekit.__file__).resolve().parent != (SRC / "dcekit").resolve():
        raise SystemExit(f"error: imported dcekit from {dcekit.__file__}, not from {SRC}")
    return {
        "dcekit": dcekit, "allocator": allocator, "analytics": analytics, "cli": cli,
        "estimator": estimator, "model": model, "numerics": numerics, "protocol": protocol,
        "simkit": simkit, "numpy": numpy, "scipy": scipy,
    }


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


class Reference:
    """The fixed reference kernel; :meth:`seconds` times one run of it."""

    def __init__(self, np):
        gen = np.random.default_rng(12345)
        self.np = np
        self.mats = gen.standard_normal((256, 4, 2)) + 1j * gen.standard_normal((256, 4, 2))

    def seconds(self) -> float:
        np, mats = self.np, self.mats
        t0 = time.perf_counter()
        for _ in range(10):
            np.linalg.svd(mats)
            np.linalg.qr(mats)
            mats @ np.swapaxes(mats.conj(), -1, -2)
        acc = 0
        for i in range(10000):
            acc += i * i
        return time.perf_counter() - t0


def set_up(name: str, seed: int, sizes: workloads.Sizes):
    """Import, build and warm up one workload.

    Returns (modules, workload, set-up seconds, reference seconds right after).
    """
    t0 = time.perf_counter()
    dk = import_dcekit()
    OUT.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[name](dk, sizes, seed, nproc(), OUT)
    wl.setup()
    seconds = time.perf_counter() - t0
    ref = Reference(dk["numpy"])
    return dk, wl, seconds, median(ref.seconds() for _ in range(SETUP_REF_RUNS))


def child_setup_seconds(name: str, seed: int) -> tuple[float, float]:
    """(set-up seconds, reference seconds) of one set-up in a fresh process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--setup-only"]
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=CHILD_TIMEOUT_S, check=False)
    if res.returncode != 0:
        raise RuntimeError(f"set-up child failed ({res.returncode}): {res.stderr.strip()[-500:]}")
    setup, ref = res.stdout.strip().splitlines()[-1].split()
    return float(setup), float(ref)


def environment(dk, seed: int, wl) -> dict:
    np = dk["numpy"]
    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version', '')}".strip()
    except (TypeError, KeyError, AttributeError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": dk["scipy"].__version__,
        "dcekit": dk["dcekit"].__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": nproc(),
        "platform": platform.platform(),
        "seed": seed,
        "workload": wl.name,
        "workers": wl.workers,
    }


class Probe:
    """Runs the reference kernel between ops and gives each op a speed factor."""

    def __init__(self, ref: Reference):
        self.ref = ref
        self.factors: list[float] = []  # one per op, in order
        self._pending = 0
        self._last = ref.seconds()
        self._since = time.perf_counter()

    def after_op(self) -> None:
        self._pending += 1
        if time.perf_counter() - self._since >= SEGMENT_S:
            self.close()

    def close(self) -> None:
        if not self._pending:
            return
        now = self.ref.seconds()
        factor = (REF_NOMINAL_S / (0.5 * (self._last + now))) ** SPEED_EXPONENT
        self.factors += [factor] * self._pending
        self._pending, self._last, self._since = 0, now, time.perf_counter()


def measure(wl, seconds: float, min_passes: int, ref: Reference, tracer=None) -> dict:
    """Run whole passes until ``seconds`` have passed.

    Per pass: raw and scaled wall and CPU seconds (sums over its ops), the raw
    and scaled op latencies, and the pass's effective speed factor.
    """
    phase = {k: [] for k in ("wall", "cpu", "scaled_wall", "scaled_cpu", "latencies", "scaled_latencies", "factors")}
    probe = Probe(ref)
    start = time.perf_counter()
    while len(phase["wall"]) < min_passes or time.perf_counter() - start < seconds:
        if tracer is not None:
            tracer.pass_index = len(phase["wall"])
        times = wl.run_pass(probe.after_op)
        probe.close()
        factors = probe.factors[-len(times):]
        walls = [w for w, _ in times]
        scaled = [w * f for w, f in zip(walls, factors)]
        phase["wall"].append(sum(walls))
        phase["cpu"].append(sum(c for _, c in times))
        phase["scaled_wall"].append(sum(scaled))
        phase["scaled_cpu"].append(sum(c * f for (_, c), f in zip(times, factors)))
        phase["latencies"].append(walls)
        phase["scaled_latencies"].append(scaled)
        phase["factors"].append(sum(scaled) / sum(walls))
    return phase


def tail_percentile(latencies: list[float]):
    """Highest of a fixed ladder of percentiles with >= 10 samples beyond it."""
    n = len(latencies)
    ordered = sorted(latencies)
    for q in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - q / 100.0) >= 10:
            return q, ordered[max(0, math.ceil(q / 100.0 * n) - 1)]
    return None, None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def scaled_median(phase: dict, key: str = "wall") -> float:
    return float(median(phase[f"scaled_{key}"]))


def layer_metrics(tr, untraced: dict, traced: dict, traced_counts: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer metrics of the traced passes: medians of per-pass values.

    Times are scaled by each pass's speed factor, like the end-to-end times;
    counts must be the same in every traced pass.
    """
    factors = traced["factors"]
    passes = len(factors)
    stats = tracing.summarize(tr, passes)
    for p, counts in enumerate(traced_counts):
        for key, value in counts.items():
            stats.setdefault(key, [0.0] * passes)[p] = value
    stats["trace.wall_s"] = list(traced["wall"])
    stats["trace.coverage"] = [
        s / w for s, w in zip(stats.get("trace.self_sum_s", [0.0] * passes), traced["wall"])
    ]
    solves = stats.get("allocator.gp_solves", [0.0] * passes)
    conv = stats.get("allocator.gp_converged", [0.0] * passes)
    stats["allocator.converged_frac"] = [c / s if s else 1.0 for c, s in zip(conv, solves)]

    problems = []
    if "allocator.infeasible_rows" in stats and stats["allocator.infeasible_rows"] != stats.get(
        "allocator.infeasible", [0.0] * passes
    ):
        problems.append("infeasible CSV rows differ from InfeasibleGamma raised by the solver")
    metrics = {}
    for name, (unit, _) in PER_LAYER.items():
        values = stats.get(name, [0.0] * passes)
        if name in EXACT_COUNTS:
            if len(set(values)) != 1:
                problems.append(f"count {name} differs between passes: {values}")
            value = int(values[0])
        elif unit == "s":
            value = float(median(v * f for v, f in zip(values, factors)))
        else:
            value = float(median(values))
        metrics[name] = {"value": value, "unit": unit}
    metrics["trace.overhead_s"]["value"] = scaled_median(traced) - scaled_median(untraced)
    return metrics, problems


def save_spans(tr, path: Path, np) -> None:
    spans = sorted(tr.spans)
    cols = list(zip(*spans)) if spans else [()] * 7
    np.savez_compressed(
        path,
        names=np.array(tr.names),
        span_id=np.array(cols[0], dtype=np.int64),
        name_id=np.array(cols[1], dtype=np.int32),
        start=np.array(cols[2], dtype=float),
        end=np.array(cols[3], dtype=float),
        parent=np.array(cols[4], dtype=np.int64),
        pass_index=np.array(cols[5], dtype=np.int32),
        failed=np.array(cols[6], dtype=bool),
    )


def run(name: str, seed: int, seconds: float, trace: bool, sizes: workloads.Sizes = workloads.FULL,
        setup_children: int = SETUP_CHILDREN, write: bool = True) -> dict:
    """Run one workload and return the full record (the printed JSON is a subset)."""
    dk, wl, setup, setup_ref = set_up(name, seed, sizes)
    setups = [(setup, setup_ref)] + [child_setup_seconds(name, seed) for _ in range(setup_children)]
    env = environment(dk, seed, wl)
    ref = Reference(dk["numpy"])

    problems: list[str] = []
    tr = None
    if trace:
        phase = measure(wl, seconds / 2.0, MIN_TRACE_PASSES, ref)
        n_untraced = len(phase["wall"])
        tr = tracing.install(dk)
        try:
            traced = measure(wl, seconds / 2.0, MIN_TRACE_PASSES, ref, tracer=tr)
        finally:
            tr.uninstall()
        metrics, count_problems = layer_metrics(tr, phase, traced, wl.pass_counts[n_untraced:])
        problems += count_problems
    else:
        phase = measure(wl, seconds, MIN_PASSES, ref)

    attempted, failed, op_problems = wl.check()
    problems += op_problems
    wall = scaled_median(phase)
    latencies = [x for lats in phase["scaled_latencies"] for x in lats]
    raw_latencies = [x for lats in phase["latencies"] for x in lats]
    q, tail = tail_percentile(latencies)
    summary = {
        "setup_s": float(median(s * (REF_NOMINAL_S / r) ** SPEED_EXPONENT for s, r in setups)),
        "wall_s": wall,
        "cpu_s": scaled_median(phase, "cpu"),
        "work_per_s": wl.items_per_pass / wall,
        "op_ms_p50": median(latencies) * 1e3,
        "op_ms_tail": None if tail is None else tail * 1e3,
        "op_tail_percentile": q,
        "op_samples": len(latencies),
        "peak_rss_mb": peak_rss_mb(),
        "failed_frac": failed / attempted,
        "raw_setup_s": median(s for s, _ in setups),
        "raw_wall_s": median(phase["wall"]),
        "raw_cpu_s": median(phase["cpu"]),
        "raw_op_ms_p50": median(raw_latencies) * 1e3,
        "speed_factor": median(phase["factors"]),
    }
    if not trace:
        metrics = {key: {"value": float(summary[key]), "unit": unit} for key, unit in END_TO_END.items()}
    record = {
        "env": env,
        "passes": len(phase["wall"]),
        "items_per_pass": wl.items_per_pass,
        "item_unit": wl.unit,
        "ops_per_pass": len(wl.ops()),
        "ref_nominal_s": REF_NOMINAL_S,
        "setup_samples_s": setups,
        "passes_measured": phase,
        "summary": summary,
        "alarms": getattr(wl, "alarms", 0),
        "problems": problems,
        "result": {
            "correct": failed == 0 and not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        },
    }
    if write:
        stem = f"{name}-seed{seed}-trace{int(trace)}"
        (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str))
        if tr is not None:
            save_spans(tr, OUT / f"{stem}.spans.npz", dk["numpy"])
    return record


def print_report(record: dict, trace: bool) -> None:
    s, env = record["summary"], record["env"]
    print(f"env: {json.dumps(env)}")
    phase = "untraced passes" if trace else "passes"
    print(
        f"workload {env['workload']}: closed loop, 1 caller, workers={env['workers']}, "
        f"{record['passes']} {phase} of {record['ops_per_pass']} ops and "
        f"{record['items_per_pass']} {record['item_unit']}; times are scaled to "
        f"reference speed (median factor {s['speed_factor']:.4g})"
    )
    throughput = {"trials": "trials_per_s", "rounds": "trials_per_s", "solves": "solves_per_s"}
    n_setups = len(record["setup_samples_s"])
    lines = [
        ("setup_s", s["setup_s"], "s", f"median of {n_setups} set-ups; raw {s['raw_setup_s']:.6g} s"),
        ("wall_s", s["wall_s"], "s", f"one pass, median; raw {s['raw_wall_s']:.6g} s"),
        ("cpu_s", s["cpu_s"], "s", f"one pass, median; raw {s['raw_cpu_s']:.6g} s"),
        (throughput[record["item_unit"]], s["work_per_s"], "1/s", f"{record['item_unit']} per wall second"),
        ("op_ms_p50", s["op_ms_p50"], "ms", f"{s['op_samples']} ops; raw {s['raw_op_ms_p50']:.6g} ms"),
    ]
    if s["op_ms_tail"] is not None:
        lines.append(("op_ms_tail", s["op_ms_tail"], "ms", f"p{s['op_tail_percentile']:g} of {s['op_samples']} ops"))
    lines += [
        ("peak_rss_mb", s["peak_rss_mb"], "MB", "whole process"),
        ("failed_frac", s["failed_frac"], "ratio",
         f"{record['result']['failed']} of {record['result']['attempted']} ops"),
    ]
    for name, value, unit, note in lines:
        print(f"metric {name} = {value:.6g} {unit}  ({note})")
    if trace:
        print(f"note: {ENGINE_NOTE}")
        for name, m in record["result"]["metrics"].items():
            print(f"layer {name} = {m['value']:.6g} {m['unit']}")
    if record["alarms"]:
        print(f"note: {record['alarms']} 3-SE excursion(s) re-tested on an independent stream")
    for problem in record["problems"][:20]:
        print(f"problem: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up and print its seconds (used for setup_s)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if args.setup_only:
        _, _, seconds, ref_seconds = set_up(args.workload, args.seed, workloads.FULL)
        print(f"{seconds!r} {ref_seconds!r}")
        return 0
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print_report(record, bool(args.trace))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
