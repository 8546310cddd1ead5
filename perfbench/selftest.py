#!/usr/bin/env python3
"""Quick self-test of the benchmark at tiny sizes (about half a minute).

Run from the repository root::

    python3 perfbench/selftest.py

For every workload it checks that the untraced and the traced run print each
named metric with its unit (and that ``BENCHMARK.json`` names the same
metrics), that the seed code passes every check, that a deliberately wrong
output raises ``failed_frac``, and that the exact counts repeat between two
traced runs at the same seed.  Exit code 0 when all of that holds.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import sys
from unittest import mock

import run
import workloads

SECONDS = 0.01  # every run does its minimum number of passes


def printed_run(name: str, trace: bool, seed: int = 5) -> tuple[dict, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        record = run.run(name, seed, SECONDS, trace, sizes=workloads.TINY, setup_children=0, write=False)
        run.print_report(record, trace)
        print(json.dumps(record["result"]))
    return record, buf.getvalue()


def check_printed(name: str, trace: bool, record: dict, text: str, errors: list[str]) -> None:
    lines = text.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{name}: result keys {sorted(result)}")
    wanted = {k: u for k, (u, _) in run.PER_LAYER.items()} if trace else run.END_TO_END
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    if got != wanted:
        errors.append(f"{name} trace={int(trace)}: metrics {got} != {wanted}")
    for key, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            errors.append(f"{name}: metric {key} = {m['value']!r}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        errors.append(f"{name} trace={int(trace)}: seed code not clean: {result} {lines[-12:-1]}")
    for metric in ("setup_s", "wall_s", "cpu_s", "op_ms_p50", "peak_rss_mb", "failed_frac"):
        if not any(line.startswith(f"metric {metric} = ") for line in lines):
            errors.append(f"{name}: no printed line for {metric}")
    # A tail needs ten samples beyond it; tiny gp_sweep runs have fewer ops.
    has_tail = any(line.startswith("metric op_ms_tail = ") for line in lines)
    if has_tail != (record["summary"]["op_samples"] >= 20):
        errors.append(f"{name}: op_ms_tail line {'present' if has_tail else 'missing'}")


def check_benchmark_json(errors: list[str]) -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        errors.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    if {m["name"]: m["unit"] for m in spec["end_to_end"]} != run.END_TO_END:
        errors.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} != run.PER_LAYER:
        errors.append("BENCHMARK.json per_layer differs from run.PER_LAYER")


def wrong_outputs(dk) -> dict:
    """One patch per workload that makes a public call return a wrong answer."""
    simkit, allocator, protocol = dk["simkit"], dk["allocator"], dk["protocol"]
    mc_ser, mc_nmse = simkit.mc_ser, simkit.mc_nmse
    solve_n, run_r = allocator.solve_nonreciprocal, protocol.run_reciprocal

    def bad_ser(*a, **k):  # UR decodes perfectly
        return dataclasses.replace(mc_ser(*a, **k), ser_u=0.0)

    def bad_nmse(*a, **k):  # UR NMSE 50% above its exact closed form
        rep = mc_nmse(*a, **k)
        return dataclasses.replace(rep, nmse_u=1.5 * rep.nmse_u_closed)

    def bad_solve(*a, **k):  # objective 1% above the reference optimum
        rep = solve_n(*a, **k)
        return dataclasses.replace(rep, objective=rep.objective * 1.01)

    def bad_round(*a, **k):
        tr = run_r(*a, **k)
        return dataclasses.replace(tr, squared_errors={**tr.squared_errors, "lr": math.nan})

    return {
        "ser_curve": mock.patch.object(simkit, "mc_ser", bad_ser),
        "nmse_check": mock.patch.object(simkit, "mc_nmse", bad_nmse),
        "gp_sweep": mock.patch.object(allocator, "solve_nonreciprocal", bad_solve),
        "round_api": mock.patch.object(protocol, "run_reciprocal", bad_round),
    }


def main() -> int:
    errors: list[str] = []
    check_benchmark_json(errors)
    dk = run.import_dcekit()
    patches = wrong_outputs(dk)
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            record, text = printed_run(name, trace)
            check_printed(name, trace, record, text, errors)
            if trace:
                again, _ = printed_run(name, trace)
                for key in run.EXACT_COUNTS:
                    a = record["result"]["metrics"][key]["value"]
                    b = again["result"]["metrics"][key]["value"]
                    if a != b:
                        errors.append(f"{name}: count {key} did not repeat: {a} then {b}")
        with patches[name]:
            record, _ = printed_run(name, False)
        if not record["summary"]["failed_frac"] > 0 or record["result"]["correct"]:
            errors.append(f"{name}: a wrong output left failed_frac at {record['summary']['failed_frac']}")
        print(f"{name}: ok" if not any(e.startswith(name) for e in errors) else f"{name}: FAILED", flush=True)
    for e in errors:
        print(f"error: {e}")
    print("selftest passed" if not errors else f"selftest failed ({len(errors)} errors)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
