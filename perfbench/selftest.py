#!/usr/bin/env python3
"""Self-tests of the benchmark itself (not of the library).

    python3 perfbench/selftest.py

Run from the repository root; takes about two minutes. It checks that

  1. a delay (a busy wait) injected into the benchmark's wrapper around
     one layer shows up in that layer's per-layer time and in request
     CPU and wall time, and not in other layers, set-up or memory;
  2. a perturbed answer handed to the checker is counted as failed,
     while the unperturbed run has no failure;
  3. traced and untraced runs of one seed return the same results.

Runs use reduced sizes (--size) so they finish quickly. Exits 1 on the
first failed expectation.
"""

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
SMALL = {"batch_cora": 600, "search_scan": 40000, "stream_window": 300,
         "approx_large": 3000}


def bench(workload, trace, *extra, seconds=3, seed=5):
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--size", str(SMALL[workload]), *extra]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    digest = next((l.split()[-1] for l in lines if l.startswith("results digest")), None)
    # Gated metrics from the JSON, wall-clock figures from the summary.
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    for line in lines[:-1]:
        parts = line.split()
        if line.startswith("  ") and len(parts) == 3:
            metrics.setdefault(parts[0], float(parts[1]))
    return result, metrics, digest


def expect(ok, what):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        sys.exit(1)


def delay_test(workload, layer, layer_metric, wall_metric, delay_ms, spans_per_request):
    added_s = delay_ms * spans_per_request / 1000.0
    wall_scale = 1.0 if wall_metric.endswith("_ms") else 1000.0
    flag = ["--inject_delay", f"{layer}:{delay_ms}"]
    _, base, base_digest = bench(workload, 0)
    _, slow, _ = bench(workload, 0, *flag)
    _, tbase, trace_digest = bench(workload, 1)
    _, tslow, _ = bench(workload, 1, *flag)
    tag = f"{workload} +{delay_ms} ms in {layer}:"

    grew = (tslow[layer_metric] - tbase[layer_metric]) / added_s
    expect(grew > 0.8, f"{tag} {layer_metric} grew by {grew:.2f} of the delay")
    for name in tbase:
        if "." in name and name.endswith("_s") and name != layer_metric:
            moved = abs(tslow[name] - tbase[name]) / added_s
            expect(moved < 0.25, f"{tag} {name} moved by {moved:.2f} of the delay")

    grew = (slow["request_cpu_p50_ms"] - base["request_cpu_p50_ms"]) / (added_s * 1000)
    expect(grew > 0.8, f"{tag} request_cpu_p50_ms grew by {grew:.2f} of the delay")
    grew = (slow[wall_metric] - base[wall_metric]) * wall_scale / (added_s * 1000)
    expect(grew > 0.8, f"{tag} {wall_metric} grew by {grew:.2f} of the delay")
    expect(slow["pairs_per_s"] < base["pairs_per_s"], f"{tag} pairs_per_s fell")
    for name in ("setup_s", "peak_rss_mb"):
        moved = abs(slow[name] / base[name] - 1)
        expect(moved < 0.25, f"{tag} {name} moved by {moved:.2%}")

    expect(base_digest is None or base_digest == trace_digest,
           f"{workload}: traced and untraced results are identical ({base_digest})")


def main():
    delay_test("batch_cora", "detect", "detect.s", "determine_p50_s", 100, 2)
    delay_test("stream_window", "incr", "incr.apply_s", "batch_p50_ms", 4, 1)
    for workload in SMALL:
        result, _, _ = bench(workload, 0, seconds=1)
        expect(result["correct"] and result["failed"] == 0,
               f"{workload}: {result['attempted']} requests, none failed")
        result, _, _ = bench(workload, 0, "--perturb", "1", seconds=1)
        expect(not result["correct"] and result["failed"] == result["attempted"],
               f"{workload}: perturbed answers fail {result['failed']}"
               f" of {result['attempted']} requests")
    print("all self-tests passed")


if __name__ == "__main__":
    main()
