#!/usr/bin/env python3
"""Fast self-test of the benchmark itself (about a minute).

    python3 perfbench/selftest.py

Runs every workload with two-layer models for one second, traced and
untraced, and checks:
  - output parsing: the last stdout line is the result object with
    exactly the contract's keys, and its metrics are exactly the
    BENCHMARK.json names and units of the requested set;
  - replay parity: traced runs pass their bitwise replay check, and a
    run with one output bit flipped (--corrupt) is caught (exit 1,
    correct false);
  - reconciliation: the stage spans in the written Chrome trace cover
    each replayed forward to within 5%, and trace.unattributed_frac as
    reported matches the figure recomputed from the file;
  - refusals: an ambient VITALITY_* variable or a bad argument exits 2
    without printing a result.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (perfbench/run.py: build helpers)

STAGES = {"ln1", "qkv", "mha", "proj", "ln2", "mlp1_gelu", "mlp2", "prune"}
failures = []


def check(cond, what):
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        failures.append(what)


def bench(binary, workload, trace, extra=(), env=None):
    cmd = [binary, "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--tiny",
           "--trace-dir", os.path.join(run.build_dir(), "traces")] + list(extra)
    return subprocess.run(cmd, capture_output=True, text=True, env=env)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def config_of(proc):
    for line in proc.stdout.splitlines():
        if line.startswith("config "):
            return json.loads(line[len("config "):])
    return {}


def check_result(tag, proc, wanted):
    try:
        r = result_of(proc)
    except ValueError:
        r = None
    check(proc.returncode == 0, "%s exits 0 (got %d)" % (tag, proc.returncode))
    check(isinstance(r, dict) and set(r) == {"correct", "attempted", "failed",
                                             "metrics"},
          "%s last line is the result object" % tag)
    if not isinstance(r, dict) or "metrics" not in r:
        return None
    check(r["correct"] is True and r["failed"] == 0 and r["attempted"] >= 1,
          "%s outputs correct (attempted %s, failed %s)"
          % (tag, r.get("attempted"), r.get("failed")))
    got = {k: v.get("unit") for k, v in r["metrics"].items()}
    check(got == wanted, "%s metrics and units match BENCHMARK.json" % tag)
    check(all(isinstance(v.get("value"), (int, float)) and
              math.isfinite(v["value"]) for v in r["metrics"].values()),
          "%s metric values are finite numbers" % tag)
    return r


def check_trace(tag, proc, r):
    path = config_of(proc).get("trace_file", "")
    try:
        with open(path) as f:
            events = json.load(f)["traceEvents"]
    except (OSError, ValueError, KeyError):
        check(False, "%s trace file %r parses" % (tag, path))
        return
    forward = {e["args"]["span"]: e for e in events if e["name"] == "forward"}
    names = {e["name"] for e in events}
    check(forward and STAGES - {"prune"} <= names,
          "%s trace holds forward, layer and stage spans" % tag)
    staged = {}
    for e in events:
        if e["name"] in STAGES:
            staged[e["args"]["call"]] = staged.get(e["args"]["call"], 0.0) + e["dur"]
    fracs = sorted(1.0 - staged.get(f["args"]["call"], 0.0) / f["dur"]
                   for f in forward.values())
    median = fracs[len(fracs) // 2] if len(fracs) % 2 else \
        0.5 * (fracs[len(fracs) // 2 - 1] + fracs[len(fracs) // 2])
    check(0.0 <= median <= 0.05,
          "%s stage spans reconcile with the forward span (unattributed %.4f)"
          % (tag, median))
    reported = r["metrics"]["trace.unattributed_frac"]["value"]
    check(abs(reported - median) < 0.005,
          "%s reported unattributed_frac %.4f matches the trace" % (tag, reported))


def main():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    units = {s: {m["name"]: m["unit"] for m in spec[s]}
             for s in ("end_to_end", "per_layer")}
    binary = run.build()
    os.makedirs(os.path.join(run.build_dir(), "traces"), exist_ok=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("VITALITY_")}

    for w in (x["name"] for x in spec["workloads"]):
        proc = bench(binary, w, 0, env=env)
        r = check_result(w + " trace=0", proc, units["end_to_end"])
        if r:
            check(all(v["value"] > 0 for v in r["metrics"].values()),
                  w + " end-to-end metrics are non-zero")
        proc = bench(binary, w, 1, env=env)
        r = check_result(w + " trace=1", proc, units["per_layer"])
        if r:
            check_trace(w + " trace=1", proc, r)
        for trace in (0, 1):
            proc = bench(binary, w, trace, ["--corrupt"], env=env)
            r = result_of(proc) if proc.stdout.strip() else None
            check(proc.returncode == 1 and r and r["correct"] is False
                  and r["failed"] >= 1,
                  "%s trace=%d catches a flipped output bit" % (w, trace))

    bad_env = dict(env, VITALITY_TOKENS="0.5")
    proc = bench(binary, spec["workloads"][0]["name"], 0, env=bad_env)
    check(proc.returncode == 2 and not proc.stdout.strip(),
          "ambient VITALITY_TOKENS is refused without a result")
    proc = bench(binary, "no-such-workload", 0, env=env)
    check(proc.returncode == 2 and not proc.stdout.strip(),
          "unknown workload is refused without a result")

    print("selftest: %s" % ("FAILED (%d)" % len(failures) if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
