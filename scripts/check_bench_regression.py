#!/usr/bin/env python3
"""Bench-regression gate for SHA-keyed benchmark trajectories.

Compares the newest run entry against prior *comparable* entries and
fails (exit 1) if any gated metric regressed by more than the threshold
(default +20%) at any (model, kernel, shape) present in both. Kernel
rows (bench_attention) gate median wall-clock per batch size (ragged
rows additionally gate tokens_per_s, inverted); serve rows
(bench_serve) gate the p50/p95/p99 client-observed latency and
sustained images_per_s / tokens_per_s per batching policy (max_batch,
max_wait_us) and token-keep policy (keep_ratio) — see keyed_results()
for why the policies are part of the key. Two entries are comparable when their full execution
configuration matches — gemm_backend, gemm_tile, pool_threads, gemm_threads (the
intra-GEMM row-band width), and epilogue mode: a scalar run is expected
to be slower than an avx2 run, a single-thread run slower than a
pool-parallel one, and wall-clock from a machine with a different core
count is hardware signal, not code signal — flagging any of those
would just train people to ignore the gate. (Legacy entries predating
a field carry None for it and therefore only compare against each
other.)

The newest entry is gated pairwise against
  - the most recent comparable prior entry (run-over-run regressions),
  - and the oldest comparable entry in the file (slow creep that stays
    under the threshold per run but compounds across the window).

With --fold-latest-from SRC, the newest entry of SRC is first appended
to the target trajectory, which is trimmed to --keep entries and
written back. CI uses this to maintain a runner-local baseline carried
between runs via the actions cache; the baseline is only persisted when
the gate passes, so a flagged regression cannot grandfather itself into
the next run's baseline.

Metric: wall_ms_median, falling back to wall_ms_mean for legacy entries
that predate the median column.

Usage: check_bench_regression.py [trajectory.json] [--threshold 1.20]
           [--fold-latest-from SRC] [--keep 10]

With BENCH_GATE_SKIP=<reason> in the environment the gate prints
"SKIPPED (<reason>)" and exits 0 without reading anything — used by
sanitizer CI legs, where instrumented wall-clock is not a signal, so
the skip is an explicit log line instead of a silently absent step.
"""

import argparse
import json
import os
import sys


def load_trajectory(path):
    with open(path) as fh:
        data = json.load(fh)
    return data if isinstance(data, list) else [data]


# The execution-configuration fields an entry is keyed by: wall-clock
# is only a code signal between runs whose configuration matches.
# sparse_mode (VITALITY_SPARSE, "csr" or "dense") joined in PR 5: a
# dense-masked run is expected to be slower than a compressed one at
# the same (model, kernel, batch) shape, so the two only compare
# against themselves. quant_mode (VITALITY_QUANT, "off" or "int8")
# joined in PR 6 for the same reason in the other direction: an int8
# dense path is expected to be faster than fp32, and comparing across
# the two would either mask fp32 regressions or flag the mode switch.
# gemm_tile ("6x32z", "6x16y" or "scalar") joined with the AVX-512
# tile: the avx2 backend runs the zmm tile only on avx512f hosts, so a
# runner without AVX-512 must never be gated against a zmm baseline.
CONFIG_FIELDS = ("gemm_backend", "gemm_tile", "pool_threads",
                 "gemm_threads", "epilogue", "sparse_mode", "quant_mode")


def comparable(old, new):
    return all(old.get(f) == new.get(f) for f in CONFIG_FIELDS)


# Serve-row latency percentiles: each is gated independently (a p99
# blowup with a flat p50 is a queueing regression worth catching).
SERVE_PERCENTILES = ("p50_ms", "p95_ms", "p99_ms")

# Throughput metrics degrade DOWNWARD: the gate inverts the ratio so
# "lower than before" flags, the opposite of the latency metrics.
INVERTED_METRICS = ("images_per_s", "tokens_per_s")


def keep_suffix(r):
    """Execution-mode shape-key suffix. Token-keep (PR 9): a keep=0.5
    run prunes most of its work away and would mask regressions in (or
    be flagged against) an unpruned run at the same shape, so the keep
    ratio — and the ragged-vs-uniform execution mode, which differ in
    dispatch even at keep=1.0 — are part of the key. Compiled plans
    (PR 10) extend the suffix with prepack ("on"/"off": a prepacked
    run skips the per-call pack loop, so the eager baseline and the
    planned run sit on different cost curves) and layers (the per-layer
    kernel schedule text: a hybrid taylor/softmax plan runs a different
    program than a uniform one). Legacy rows predating the fields carry
    no suffix and only compare against each other."""
    parts = []
    if r.get("ragged"):
        parts.append("ragged")
    keep = r.get("keep_ratio")
    if keep is not None and keep >= 0:
        parts.append(f"keep={keep:g}")
    prepack = r.get("prepack")
    if prepack is not None:
        parts.append(f"prepack={prepack}")
    layers = r.get("layers")
    if layers:
        parts.append(f"layers={layers}")
    return ("," + ",".join(parts)) if parts else ""


def keyed_results(entry):
    """Map (model, kernel, shape, metric) -> value.

    Kernel rows (bench_attention) carry median wall-clock — keyed on
    the batch size plus the keep/ragged suffix — and, for ragged rows,
    tokens_per_s (gated inverted: lower is worse). Serve rows
    (bench_serve, kernel "Serve(<name>)", recognized by their p50_ms
    column) carry a client-observed latency distribution plus sustained
    throughput; each percentile, images_per_s, and tokens_per_s is its
    own gated metric, keyed on the batching policy (max_batch,
    max_wait_us) and the model's token-keep policy — the policy is part
    of the shape the way batch is for kernel rows: a 2 ms-window run
    sits on a different latency/throughput point than a no-batching
    run, and a keep=0.5 model on a different one than an unpruned
    model; comparing across either would flag the policy, not the code.
    """
    out = {}
    for r in entry.get("results", []):
        model, kernel = r.get("model"), r.get("kernel")
        if model is None or kernel is None:
            continue
        if r.get("p50_ms") is not None:
            shape = (f"mb={r.get('max_batch')},"
                     f"wait={r.get('max_wait_us')}us" + keep_suffix(r))
            for metric in SERVE_PERCENTILES + INVERTED_METRICS:
                if r.get(metric) is not None:
                    out[(model, kernel, shape, metric)] = float(r[metric])
        else:
            shape = f"B={r.get('batch')}" + keep_suffix(r)
            wall = r.get("wall_ms_median", r.get("wall_ms_mean"))
            if r.get("batch") is not None and wall is not None:
                out[(model, kernel, shape, "wall_ms")] = float(wall)
            tok = r.get("tokens_per_s")
            if r.get("batch") is not None and tok is not None and tok >= 0:
                out[(model, kernel, shape, "tokens_per_s")] = float(tok)
    return out


def regression_ratio(key, old_value, new_value):
    """Degradation ratio, >1 means worse. Latency metrics degrade
    upward (new/old); throughput metrics degrade downward (old/new)."""
    metric = key[3]
    num, den = ((old_value, new_value) if metric in INVERTED_METRICS
                else (new_value, old_value))
    return num / den if den else 1.0


def compare(old, new, threshold, label):
    """Print the per-shape ratio table; return the regressed keys."""
    old_results = keyed_results(old)
    new_results = keyed_results(new)
    shared = sorted(set(old_results) & set(new_results))
    if not shared:
        print(f"bench-regression [{label}]: no shared "
              f"(model, kernel, shape) metrics; nothing to compare")
        return []

    print(f"bench-regression [{label}]: {old.get('sha', '?')[:12]} -> "
          f"{new.get('sha', '?')[:12]} (backend "
          f"{new.get('gemm_backend')!r}, threshold {threshold:.2f}x)")
    failures = []
    for key in shared:
        model, kernel, shape, metric = key
        ratio = regression_ratio(key, old_results[key], new_results[key])
        flag = ""
        if ratio > threshold:
            failures.append(key)
            flag = "  <-- REGRESSION"
        print(f"  {model:<12} {kernel:<16} {shape:<16} {metric:<12} "
              f"{old_results[key]:9.3f} -> {new_results[key]:9.3f} "
              f"({ratio:5.2f}x){flag}")
    return failures


def main():
    # Sanitizer and checked CI legs measure instrumented binaries, so
    # wall-clock gating there is noise; they set BENCH_GATE_SKIP to a
    # reason string, and the skip is printed rather than silent — a
    # log line proves the step ran and says why it gated nothing.
    skip = os.environ.get("BENCH_GATE_SKIP")
    if skip:
        print(f"bench-regression: SKIPPED ({skip})")
        return 0

    ap = argparse.ArgumentParser()
    ap.add_argument("trajectory", nargs="?", default="BENCH_attention.json")
    ap.add_argument("--threshold", type=float, default=1.20,
                    help="fail when new/old exceeds this ratio")
    ap.add_argument("--fold-latest-from", metavar="SRC",
                    help="append SRC's newest entry to the trajectory "
                         "(creating it if missing) before gating")
    ap.add_argument("--keep", type=int, default=10,
                    help="entries retained when folding (default 10)")
    args = ap.parse_args()

    if args.fold_latest_from:
        src = load_trajectory(args.fold_latest_from)
        if not src:
            print(f"bench-regression: {args.fold_latest_from} holds no "
                  f"entries; did the bench step run?")
            return 1
        data = (load_trajectory(args.trajectory)
                if os.path.exists(args.trajectory) else [])
        data.append(src[-1])
        data = data[-args.keep:]
        with open(args.trajectory, "w") as fh:
            json.dump(data, fh, indent=1)
        print(f"bench-regression: folded newest entry of "
              f"{args.fold_latest_from} into {args.trajectory} "
              f"({len(data)} entries retained)")
    else:
        data = load_trajectory(args.trajectory)

    if len(data) < 2:
        print("bench-regression: fewer than two trajectory entries; "
              "nothing to compare")
        return 0

    new = data[-1]
    priors = [e for e in data[:-1] if comparable(e, new)]
    if not priors:
        config = ", ".join(f"{f}={new.get(f)!r}" for f in CONFIG_FIELDS)
        print(f"bench-regression: no prior entry matches ({config}); "
              f"entries are from a different configuration or machine, "
              f"skipping")
        return 0

    failures = compare(priors[-1], new, args.threshold, "vs previous")
    if priors[0] is not priors[-1]:
        failures += compare(priors[0], new, args.threshold,
                            "vs oldest in window")

    if failures:
        print(f"bench-regression: {len(failures)} comparison(s) regressed "
              f"more than {(args.threshold - 1) * 100:.0f}%")
        return 1
    print("bench-regression: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
