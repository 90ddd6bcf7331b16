#!/usr/bin/env python3
"""End-to-end benchmark of the wafer-scale fabric simulator.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. Builds perfbench/ (the simulator
libraries plus the wss_perfbench program) into .bench_build/perfbench, then
runs the workload with a hermetic WSS_* environment. The last line of
stdout is one JSON object: correct, attempted, failed, metrics. --trace 0
reports the end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer
ones (from an untraced pass, the observed/unobserved pair and a traced
pass). See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "wss_perfbench"
OUT = ROOT / ".bench_build" / "perfbench-out"

# Benchmark workload -> wss_perfbench kind, host threads, observers on.
WORKLOADS = {
    "bicgstab": ("bicgstab", 2, False),
    "allreduce_wave": ("allreduce_wave", 1, False),
    "stencilfe_heat": ("stencilfe_heat", 1, False),
    "bicgstab_watched": ("bicgstab", 2, True),
}
# What CI and users attach through the environment (bicgstab_watched).
WATCH_ENV = {
    "WSS_WATCHDOG_CYCLES": "200000",
    "WSS_SAMPLE_CYCLES": "256",
    "WSS_NETFLOWS": "1",
}
RUN_BUDGET_S = 170  # hard cap on all passes of one run, after the build

deadline = None  # monotonic end of the run's budget, set after the build

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

# Per-layer metrics read straight from the workload's own untraced pass /
# its traced pass; the three composed ones are added in trace_metrics().
# Host span timings come from the untraced pass, which keeps the turbo
# backend; the traced pass steps the reference loop.
FROM_UNTRACED = ["wsekernels.build_s", "stencilfe.build_s",
                 "stencilfe.step_s_p50", "stencilfe.read_s_p50",
                 "stencilfe.load_s_p50",
                 "wsekernels.tile_memory_bytes", "wse.bytes_per_tile",
                 "wse.core_busy_frac", "wse.core_stall_frac",
                 "wse.core_idle_frac", "wse.link_transfers_per_op",
                 "wse.flits_forwarded_per_op", "wse.queue_highwater_max",
                 "wse.fifo_highwater_max", "wse.turbo_promotions_per_op",
                 "wse.turbo_demotions_per_op"]
PHASES = ["spmv", "dot", "axpy", "allreduce", "control"]
FROM_TRACED = ([f"perfmodel.meas_cycles_per_iter.{p}" for p in PHASES]
               + [f"perfmodel.err_pct.{p}" for p in PHASES]
               + ["perfmodel.wafer_iter_us"]
               + [f"telemetry.cat_frac.{c}" for c in
                  ["compute", "send_blocked", "recv_starved", "router_stall",
                   "idle"]]
               + ["telemetry.worst_link_blocked_cycles",
                  "telemetry.worst_link_words"])


def build():
    """Configure once, then an incremental build (a no-op when current)."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"no simulator sources under {ROOT / 'src'}")
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                   check=True, stdout=sys.stderr)


def hermetic_env(threads, watched, ledger_dir):
    """The caller's environment minus every WSS_* variable, plus exactly
    this pass's WSS_* settings."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("WSS_")}
    wss = {"WSS_SIM_BACKEND": "turbo", "WSS_SIM_THREADS": str(threads)}
    if watched:
        wss.update(WATCH_ENV)
        wss["WSS_LEDGER_DIR"] = str(ledger_dir)
    env.update(wss)
    return env, wss


def run_pass(name, kind, threads, watched, seed, seconds, *, traced=False,
             spans=False, extra=()):
    """One wss_perfbench process; returns its parsed result object."""
    ledger = OUT / f"{name}-{os.getpid()}-ledger"
    shutil.rmtree(ledger, ignore_errors=True)
    env, wss = hermetic_env(threads, watched, ledger)
    cmd = [str(BINARY), "--workload", kind, "--seed", str(seed),
           "--seconds", str(seconds), *extra]
    if traced:
        cmd.append("--traced")
    if spans:
        cmd += ["--spans-out", str(OUT / f"{name}-{os.getpid()}.spans.json")]
    if watched:
        ledger.mkdir(parents=True)
        cmd += ["--watched-dir", str(ledger)]
    print(f"pass {name}: env " +
          " ".join(f"{k}={v}" for k, v in sorted(wss.items())) +
          (" (traced)" if traced else ""), flush=True)
    timeout = None if deadline is None else max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    finally:
        shutil.rmtree(ledger, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"pass {name} exited with {proc.returncode}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    for err in res["errors"]:
        print(f"pass {name}: FAILED {err}", flush=True)
    return res


def end_to_end(workload, seed, seconds):
    kind, threads, watched = WORKLOADS[workload]
    res = run_pass(workload, kind, threads, watched, seed, seconds)
    m = res["metrics"]
    # The tail is informational: it has ten ops beyond it only on the
    # fast workloads, so it carries no bound (see README.md).
    print(f"  op_s_p90 {m['op_s_p90']:.6g} s over {m['ops']:.0f} ops "
          f"({int(m['ops'] * 0.1)} beyond it)")
    return [res], {e["name"]: m[e["name"]] for e in SPEC["end_to_end"]}


def trace_metrics(workload, seed, seconds):
    """Per-layer metrics from three passes sharing the run's seconds: the
    workload's untraced pass, its counterpart with observers toggled (for
    telemetry.observed_tc_ratio), and a traced pass."""
    kind, threads, watched = WORKLOADS[workload]
    share = seconds / 3.0
    own = run_pass(workload, kind, threads, watched, seed, share, spans=True)
    other = run_pass(workload + "-toggled", kind, threads, not watched, seed,
                     share)
    traced = run_pass(workload + "-traced", kind, threads, watched, seed,
                      share, traced=True, extra=["--min-ops", "2"])
    plain, observed = (other, own) if watched else (own, other)
    m = {k: own["metrics"][k] for k in FROM_UNTRACED}
    m.update({k: traced["metrics"][k] for k in FROM_TRACED})
    m["telemetry.observed_tc_ratio"] = (
        observed["metrics"]["tile_cycles_per_s"] /
        plain["metrics"]["tile_cycles_per_s"])
    m["telemetry.artifact_bytes_per_op"] = (
        observed["metrics"]["telemetry.artifact_bytes_per_op"])
    m["trace.overhead_pct"] = 100.0 * (
        traced["metrics"]["op_s_p50"] / own["metrics"]["op_s_p50"] - 1.0)
    missing = {e["name"] for e in SPEC["per_layer"]} ^ m.keys()
    if missing:
        raise KeyError(f"per-layer metrics out of step with BENCHMARK.json: "
                       f"{sorted(missing)}")
    return [own, other, traced], m


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    try:
        build()
        global deadline
        deadline = time.monotonic() + RUN_BUDGET_S
        OUT.mkdir(parents=True, exist_ok=True)
        measure = trace_metrics if args.trace else end_to_end
        passes, metrics = measure(args.workload, args.seed, args.seconds)
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for name in sorted(metrics):
        print(f"  {name:42s} {metrics[name]:.6g} {UNITS[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
