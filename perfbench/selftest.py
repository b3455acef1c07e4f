#!/usr/bin/env python3
"""The benchmark's own test: for a fixed seed, the answer metrics and the
layer counts must repeat exactly from run to run.

    python3 perfbench/selftest.py [WORKLOAD ...]

Run from the root of a checkout.  Each workload (default: both) runs
twice untraced and twice traced with the same seed and a one-second
budget; the test fails if answer_repl_ratio or estimate_err_pp differs
between the untraced runs (serve-mixed's fresh searches, which make its
answer_repl_ratio, run only untraced), if any count of the fixed work
(ga.*, eval.*, cme.classify and the other cme counts, closed_form.*)
differs between the traced runs, or if any run fails an answer check.
Time-filled phases are excluded: how many warm repeats fit in a budget
depends on the machine.
"""

import json
import os
import shutil
import sys
import time

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SEED = 7
EXACT_E2E = ["answer_repl_ratio", "estimate_err_pp"]
EXACT_LAYERS = [
    "ga.generations", "ga.evaluations", "eval.fresh", "eval.hits",
    "cme.engines_created", "cme.classify", "cme.fallbacks",
    "closed_form.rows", "closed_form.rows_probed", "closed_form.rows_extrapolated",
    "closed_form.points_classified", "symbolic.fallbacks", "symbolic.answer_repl_ratio",
]


def once(workload, run_dir, trace):
    args = run.WORKLOADS[workload] + ["--seed", str(SEED), "--seconds", "1",
                                      "--trace", str(trace)]
    if workload == "serve-mixed":
        shutil.rmtree(run_dir, ignore_errors=True)
        os.makedirs(run_dir)
        args += ["--tiler", run.TILER, "--dir", run_dir]
    run.DEADLINE = time.monotonic() + run.RUN_BUDGET_S
    _, raw = run.run_worker(args)
    return raw


def main():
    workloads = sys.argv[1:] or sorted(run.WORKLOADS)
    run.check_checkout()
    run.build()
    run_dir = os.path.join(".perfbench", "selftest-%d" % os.getpid())
    bad = []
    try:
        for w in workloads:
            a, b = once(w, run_dir, 0), once(w, run_dir, 0)
            ta, tb = once(w, run_dir, 1), once(w, run_dir, 1)
            for raw in (a, b, ta, tb):
                if raw["failed"]:
                    bad.append("%s: answer checks failed: %s" % (w, raw["errors"]))
            pairs = [(m, a["e2e"][m]["value"], b["e2e"][m]["value"]) for m in EXACT_E2E]
            pairs += [(m, ta["layers"][m]["value"], tb["layers"][m]["value"])
                      for m in EXACT_LAYERS]
            for m, x, y in pairs:
                status = "ok" if x == y and x is not None else "DIFFERS"
                print("%-14s %-32s %s %s %s" % (w, m, json.dumps(x), json.dumps(y), status))
                if x != y or x is None:
                    bad.append("%s: %s differs: %r vs %r" % (w, m, x, y))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(".perfbench")
        except OSError:
            pass
    for b in bad:
        print("FAIL " + b, file=sys.stderr)
    print("selftest: %s" % ("FAIL" if bad else "ok"))
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
