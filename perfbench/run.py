#!/usr/bin/env python3
"""Benchmark runner: builds perfbench.exe from this checkout, runs one
workload for --seconds, and prints one JSON result as its last line.

    python3 perfbench/run.py --workload mc-por --seed 1 --seconds 24 --trace 0

Each measured unit runs in a fresh process (perfbench.exe prints one JSON
line per process); end-to-end metrics are medians over the units of the
run. --trace 1 runs an untraced unit, a traced unit and the layer probes,
and prints the per-layer metrics. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
EVENTS_DIR = ".perfbench_events"
# A run must end within 180 s of its build; a unit that hangs is killed
# before that.
UNITS_S = 170
deadline = None

WORKLOADS = ("mc-por", "mc-none", "svc-crash")

E2E = {
    "setup_s": "s",
    "verdict_s": "s",
    "steps": "count",
    "alloc_mb": "MB",
    "peak_heap_mb": "MB",
    "req_per_s": "1/s",
    "latency_p50_us": "us",
    "latency_p99_us": "us",
    "passages": "count",
}

LAYER = {
    "mc.runs": "count",
    "mc.pruned_runs": "count",
    "mc.pruned_branches": "count",
    "mc.run_us_p50": "us",
    "mc.run_us_p99": "us",
    "sim.steps_per_s": "1/s",
    "sim.replay_ns_per_step": "ns",
    "sim.alloc_b_per_step": "B",
    "fp.calls": "count",
    "mc.search_ns_per_step": "ns",
    "vset.states": "count",
    "vset.hit_ratio": "ratio",
    "vset.ns_per_op": "ns",
    "pool.speedup": "ratio",
    "gc.minor_collections": "count",
    "gc.major_collections": "count",
    "gc.pause_ms": "ms",
    "traffic.gen_s": "s",
    "table.passage_ns_p50": "ns",
    "table.passage_ns_p99": "ns",
    "table.materialize_us": "us",
    "client.mean_batch": "ratio",
    "client.max_batch": "count",
    "client.flush_ns_per_req": "ns",
    "recovery.drain_ms": "ms",
    "recovery.sweep_passages": "count",
    "recovery.sweep_ns_per_shard": "ns",
    "loadgen.hot_shard_p99_us": "us",
}
LAYER.update({"overhead." + m: "ratio" for m in E2E})


def fail(msg):
    sys.stderr.write("perfbench: " + msg + "\n")
    sys.exit(1)


def build():
    # The shared dune cache lives outside the checkout; keep the build in it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/perfbench.exe"],
        capture_output=True, text=True, env=env)
    if r.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write(r.stdout + r.stderr)
        fail("build failed")


def unit(args, traced=False):
    """Run one perfbench.exe process; return its parsed report, or an
    error report if it died or printed none."""
    env = dict(os.environ)
    if traced:
        os.makedirs(EVENTS_DIR, exist_ok=True)
        env["OCAML_RUNTIME_EVENTS_DIR"] = EVENTS_DIR
        args = args + ["--trace"]
    cmd = [EXE] + args + ["--launched", str(time.monotonic_ns())]
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, env=env,
                           timeout=max(1.0, deadline - time.monotonic()))
        lines = r.stdout.strip().splitlines()
        if r.returncode == 0 and lines:
            return json.loads(lines[-1])
        why = "exit %d: %s" % (r.returncode, r.stderr.strip()[-500:])
    except (subprocess.TimeoutExpired, ValueError) as e:
        why = str(e)
    return {"ok": False, "errors": [" ".join(args) + ": " + why],
            "attempted": 1, "failed": 1, "e2e": {}, "layer": {}}


def unit_args(workload, seed):
    if workload == "svc-crash":
        return ["service", "--seed", str(seed)]
    return ["checker", workload]


def median_of(reports, name):
    vals = [r["e2e"][name] for r in reports if name in r["e2e"]]
    return statistics.median(vals) if vals else 0.0


def measure(workload, seed, seconds):
    """Fresh-process units until the next one would overrun the run."""
    args = unit_args(workload, seed)
    start = time.monotonic()
    reports = []
    while True:
        t = time.monotonic()
        reports.append(unit(args))
        took = time.monotonic() - t
        if time.monotonic() - start + took > seconds:
            return reports


def traced(workload, seed):
    """Untraced unit (the overhead baseline), traced unit, layer probes,
    and for mc-none a jobs-1 unit for the pool speed-up."""
    args = unit_args(workload, seed)
    base = unit(args)
    tr = unit(args, traced=True)
    n = {"mc-por": 3}.get(workload, 2)
    probes = unit(["probes", "--seed", str(seed), "--n", str(n)])
    reports = [base, tr, probes]
    layer = dict(tr["layer"])
    layer.update(probes["layer"])
    be = base["e2e"]
    if workload == "mc-por" and be.get("steps"):
        layer["mc.search_ns_per_step"] = (
            be["verdict_s"] * 1e9 / be["steps"]
            - probes["layer"].get("sim.replay_ns_per_step", 0.0))
    if workload == "mc-none":
        seq = unit(args + ["--jobs", "1"])
        reports.append(seq)
        if be.get("verdict_s") and "verdict_s" in seq["e2e"]:
            layer["pool.speedup"] = seq["e2e"]["verdict_s"] / be["verdict_s"]
    for m in E2E:
        if be.get(m) and m in tr["e2e"]:
            layer["overhead." + m] = tr["e2e"][m] / be[m] - 1.0
    return reports, layer


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    build()
    global deadline
    deadline = time.monotonic() + UNITS_S
    try:
        if a.trace:
            reports, values = traced(a.workload, a.seed)
            units = LAYER
        else:
            reports = measure(a.workload, a.seed, a.seconds)
            values = {m: median_of(reports, m) for m in E2E}
            units = E2E
    finally:
        shutil.rmtree(EVENTS_DIR, ignore_errors=True)
    errors = [e for r in reports for e in r["errors"]]
    for e in errors:
        sys.stderr.write("perfbench: check failed: " + e + "\n")
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": {m: {"value": float(values.get(m, 0.0)), "unit": u}
                    for m, u in units.items()},
    }))


if __name__ == "__main__":
    main()
