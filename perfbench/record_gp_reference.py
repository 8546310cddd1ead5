#!/usr/bin/env python3
"""Record gp_sweep's reference values: status and objective at every grid point.

Run from the repository root on the code the reference should describe::

    python3 perfbench/record_gp_reference.py

It drives the same CLI calls as the gp_sweep workload over its full grid and
writes ``perfbench/gp_reference.json``.  gp_sweep then requires the same set
of infeasible points and objectives no more than 1e-6 relative above these.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    dk = run.import_dcekit()
    run.OUT.mkdir(parents=True, exist_ok=True)
    wl = workloads.GpSweep(dk, workloads.FULL, 0, run.nproc(), run.OUT)
    wl.prepare()
    header = dk["cli"].SWEEP_HEADER.split(",")
    points = []
    for gamma, pave in sorted(wl.ops()):
        code, text = wl.run_op((gamma, pave))
        if code != 0:
            raise SystemExit(f"cli exited {code} at gamma={gamma}, pave_db={pave}")
        row = dict(zip(header, text.strip().splitlines()[-1].split(",")))
        entry = {"gamma": gamma, "pave_db": pave, "status": row["status"]}
        if row["status"] != "infeasible":
            entry["nmse_l_cf"] = float(row["nmse_l_cf"])
        points.append(entry)
    workloads.REFERENCE_FILE.write_text(json.dumps({
        "what": "non-reciprocal `dcekit sweep --trials 0`, SystemConfig(4, 2, 2), "
                "pt_db = 30, pl_db = pave_db - 10, total cap pave_db",
        "dcekit": dk["dcekit"].__version__,
        "points": points,
    }, indent=1) + "\n")
    print(f"wrote {len(points)} points to {workloads.REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
