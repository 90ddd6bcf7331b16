#!/usr/bin/env python3
"""Self-tests of the benchmark itself (not of the simulator).

    python3 perfbench/selftest.py

Run from the root of a source checkout; builds like run.py. Checks that
  * the exact metrics (simulated cycles, model error, link transfers,
    profiler category sums and phase bins) are identical across two runs
    and across WSS_SIM_THREADS 1 and 2;
  * the routers' link_words add up to FabricStats::link_transfers;
  * a deliberately corrupted result is reported as a failed op;
  * ambient WSS_* variables do not leak into a workload's environment;
  * run.py fails without printing a result when the simulator sources
    are missing.
Exits 0 when every check passes.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

KINDS = ["bicgstab", "allreduce_wave", "stencilfe_heat"]
EXACT = ["sim_cycles_per_op", "model_err_ratio", "wse.link_transfers_per_op",
         "wse.flits_forwarded_per_op"]
EXACT_TRACED = (["telemetry.profiled_tile_cycles",
                 "telemetry.worst_link_blocked_cycles",
                 "telemetry.worst_link_words"]
                + [f"telemetry.cat_frac.{c}" for c in
                   ["compute", "send_blocked", "recv_starved", "router_stall",
                    "idle"]]
                + [f"perfmodel.meas_cycles_per_iter.{p}" for p in run.PHASES])
FEW_OPS = ["--min-ops", "2"]

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def short_pass(kind, threads, *, traced=False, extra=()):
    return run.run_pass(f"selftest-{kind}", kind, threads, False, 7, 0.001,
                        traced=traced, extra=[*FEW_OPS, *extra])


def exactness():
    for kind in KINDS:
        runs = [short_pass(kind, 1), short_pass(kind, 2), short_pass(kind, 2)]
        traced = [short_pass(kind, 1, traced=True),
                  short_pass(kind, 2, traced=True)]
        for r in runs + traced:
            check(r["failed"] == 0, f"{kind}: no failed ops {r['errors']}")
        for name in EXACT:
            vals = [r["metrics"][name] for r in runs + traced]
            check(len(set(vals)) == 1 and vals[0] > 0,
                  f"{kind}: {name} identical over runs and threads {vals}")
        for name in EXACT_TRACED:
            vals = [r["metrics"][name] for r in traced]
            check(len(set(vals)) == 1,
                  f"{kind}: {name} identical across threads {vals}")
        m = runs[0]["metrics"]
        check(m["wse.link_words_per_op"] == m["wse.link_transfers_per_op"],
              f"{kind}: sum of router link_words == link_transfers")


def corruption():
    for kind in KINDS:
        r = short_pass(kind, 1, extra=["--min-ops", "3", "--corrupt-op", "1"])
        check(r["attempted"] == 3 and r["failed"] == 1 and
              r["errors"][0].startswith("op 1:"),
              f"{kind}: corrupted op 1 reported as the one failed op")


def hermetic():
    os.environ["WSS_WATCHDOG_CYCLES"] = "200000"
    os.environ["WSS_POSTMORTEM_DIR"] = "/nonexistent"
    try:
        env, wss = run.hermetic_env(2, False, None)
    finally:
        del os.environ["WSS_WATCHDOG_CYCLES"], os.environ["WSS_POSTMORTEM_DIR"]
    leaked = sorted(k for k in env if k.startswith("WSS_") and k not in wss)
    check(not leaked and wss == {"WSS_SIM_BACKEND": "turbo",
                                 "WSS_SIM_THREADS": "2"},
          f"ambient WSS_* variables stripped (leaked: {leaked})")


def refuses_without_sources():
    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "bicgstab",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, timeout=170)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          "run.py exits non-zero with no result when src/ is missing")


def main():
    run.build()
    run.OUT.mkdir(parents=True, exist_ok=True)
    hermetic()
    refuses_without_sources()
    corruption()
    exactness()
    print(f"{len(failures)} failed check(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
