#!/usr/bin/env python3
"""Run one benchmark workload for one seed and print its metrics.

    python3 perfbench/run.py --workload tile-cme --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The script builds the benchmark worker
(perfbench/bench.exe) and the `tiler` CLI with dune, runs the workload,
checks every answer (the worker compares each chosen tiling with the
trace-driven simulator and each repeated answer with the first one) and
prints, as the last line of standard output, one JSON object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 the per-layer ones.  The line before it holds the machine
descriptor and the sample count of every metric; stderr gets a table.
Exits non-zero when an answer check fails or the build or a run breaks.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

BENCH = os.path.join("_build", "default", "perfbench", "bench.exe")
TILER = os.path.join("_build", "default", "bin", "tiler.exe")

# Worker arguments per workload: tile-cme runs the default cme-sample
# backend over two domains.
WORKLOADS = {
    "tile-cme": ["tile", "--backend", "cme-sample", "--domains", "2"],
    "serve-mixed": ["serve"],
}

# tile-cme set-up is the worker's CPU time from process start to its
# "ready" line (its first optimize call): once in the measured run plus
# this many set-up-only launches.  serve-mixed times its own daemon spawns.
SETUP_PROBES = 3

# Every worker of one run must have ended this many seconds after the
# build, so the command as a whole stays within its time limit.
RUN_BUDGET_S = 165
DEADLINE = None


def die(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def check_checkout():
    for path in ("dune-project", "lib", "bin", "BENCHMARK.json"):
        if not os.path.exists(path):
            die("no %s here: run from the root of a checkout" % path, 2)


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "./perfbench/bench.exe", "./bin/tiler.exe"]
    try:
        rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode
    except OSError as e:
        die("cannot run dune: %s" % e)
    if rc != 0:
        die("build failed (dune exit %d)" % rc)


# The worker running now, stopped with its process group on a signal.
CURRENT = None


def on_signal(signum, _frame):
    if CURRENT is not None:
        kill_group(CURRENT)
    die("stopped by signal %d" % signum)


def kill_group(proc):
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def run_worker(args):
    """Run the worker; return (set-up seconds from its "ready" line or
    None, raw result)."""
    cmd = [BENCH] + args
    # Its own process group, so a timeout also takes down any daemon.
    global CURRENT
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True, start_new_session=True)
    CURRENT = proc
    # The deadline covers the worker's whole life: a daemon that stops
    # answering leaves the worker blocked on its socket, printing nothing.
    expired = threading.Event()

    def expire():
        expired.set()
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    timer = threading.Timer(max(0.0, DEADLINE - time.monotonic()), expire)
    timer.daemon = True
    timer.start()
    try:
        first = proc.stdout.readline()
        rest = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
    if expired.is_set():
        die("worker timed out: %s" % " ".join(cmd))
    if proc.returncode != 0:
        die("worker exited %d: %s" % (proc.returncode, " ".join(cmd)))
    ready = None
    if first.startswith("ready "):
        ready = float(first.split()[1])
        first = ""
    lines = (first + rest).strip().splitlines()
    try:
        raw = json.loads(lines[-1]) if lines else None
    except ValueError:
        raw = None
    return ready, raw


def workload(name, seed, seconds, traced, run_dir):
    args = WORKLOADS[name] + ["--seed", str(seed), "--seconds", str(seconds),
                              "--trace", "1" if traced else "0"]
    if name == "serve-mixed":
        args += ["--tiler", TILER, "--dir", run_dir]
    ready, raw = run_worker(args)
    if raw is None:
        die("worker printed no result")
    if name != "serve-mixed":
        probes = [ready] + [run_worker(args + ["--setup-only"])[0]
                            for _ in range(SETUP_PROBES)]
        if None in probes:
            die("worker did not report set-up")
        raw["e2e"]["setup_s"] = {"value": statistics.median(probes), "unit": "s",
                                 "samples": len(probes)}
    return raw


def source_digest():
    h = hashlib.sha256()
    for top in ("dune-project", "lib", "bin", "perfbench"):
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in paths:
            h.update(p.encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def cpu_ticks():
    """(stolen, total) jiffies of all CPUs, from /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    return fields[7], sum(fields)


def git_sha():
    if not os.path.isdir(".git"):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    except OSError:
        return None
    return out.stdout.strip() or None


def main():
    global DEADLINE
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    check_checkout()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    build()
    DEADLINE = time.monotonic() + RUN_BUDGET_S

    ticks0 = cpu_ticks()
    run_dir = os.path.join(".perfbench", "run-%d" % os.getpid())
    os.makedirs(run_dir)
    try:
        raw = workload(a.workload, a.seed, a.seconds, False, run_dir)
        if a.trace:
            untraced_main = raw["main_timing"]
            shutil.rmtree(run_dir)
            os.makedirs(run_dir)
            traced = workload(a.workload, a.seed, a.seconds, True, run_dir)
            traced["layers"]["trace_overhead_pct"] = {
                "value": 100.0 * (traced["main_timing"] - untraced_main) / untraced_main,
                "unit": "%"}
            attempted = raw["attempted"] + traced["attempted"]
            failed = raw["failed"] + traced["failed"]
            errors = raw["errors"] + traced["errors"]
            # Layer figures from the traced run; wall times, tails and store
            # counts from the untraced one.
            source = dict(raw["e2e"], **traced["layers"])
            wanted = spec["per_layer"]
        else:
            attempted, failed, errors = raw["attempted"], raw["failed"], raw["errors"]
            source, wanted = raw["e2e"], spec["end_to_end"]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(".perfbench")
        except OSError:
            pass

    ticks1 = cpu_ticks()
    metrics, samples = {}, {}
    for m in wanted:
        got = source.get(m["name"])
        if got is None or got["value"] is None:
            die("worker gave no value for %s" % m["name"])
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
        samples[m["name"]] = got.get("samples", 1)
        print("%-32s %14.6g %-6s n=%d" % (m["name"], got["value"], m["unit"],
                                          samples[m["name"]]), file=sys.stderr)
    for e in errors:
        print("check failed: " + e, file=sys.stderr)

    descriptor = {
        "workload": a.workload, "seed": a.seed, "seconds": a.seconds, "trace": a.trace,
        "nproc": len(os.sched_getaffinity(0)), "ocaml": raw.get("ocaml_version"),
        "git_sha": git_sha(), "source_sha256": source_digest(),
        "steal_pct": round(100.0 * (ticks1[0] - ticks0[0]) / max(1, ticks1[1] - ticks0[1]), 2),
    }
    print(json.dumps({"descriptor": descriptor, "samples": samples, "errors": errors}))
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
