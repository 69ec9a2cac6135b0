"""A/A check: two sets of runs of the same code, alternating.

    python3 benchmark/aa.py

Each set runs every workload of BENCHMARK.json with seeds 1 to 10; run
i of both sets uses seed i, and the set that goes first alternates from
one run to the next.  For every workload and end-to-end metric the table
gives each set's median, its quartiles, the quartile spread as a share
of the median, and the change of set B's median against set A's, next
to the metric's bound from BENCHMARK.json.  The check passes when every
spread, that of ``setup_s`` included, and every change, up or down,
stays within the bound, every run is correct, and both sets fail the
same share of operations.  Raw results are kept in
.benchmark-out/aa-<time>.json.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
RUNS = 10


def one_run(workload, seed, seconds):
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: status {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["log"] = proc.stderr.strip().splitlines()
    result["elapsed_s"] = time.monotonic() - start
    return result


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    chosen = [w["name"] for w in spec["workloads"]]

    results = {w: {"A": [], "B": []} for w in chosen}
    for i in range(RUNS):
        seed = i + 1
        for w in chosen:
            for side in ("AB" if i % 2 == 0 else "BA"):
                results[w][side].append(one_run(w, seed, spec["run_seconds"]))
                print(f"run {seed}/{RUNS} {w} set {side} done", file=sys.stderr, flush=True)

    os.makedirs(".benchmark-out", exist_ok=True)
    raw = os.path.join(".benchmark-out", f"aa-{int(time.time())}.json")
    with open(raw, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1)

    ok = True
    print(f"{'workload':16} {'metric':12} {'A median':>10} {'A q1..q3':>21} {'A spread':>8} "
          f"{'B median':>10} {'B spread':>8} {'B vs A':>7} {'bound':>6}")
    for w in chosen:
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            a = summarize([r["metrics"][name]["value"] for r in results[w]["A"]])
            b = summarize([r["metrics"][name]["value"] for r in results[w]["B"]])
            change = (b[0] - a[0]) / a[0]
            ok &= max(a[3], b[3]) <= bound and abs(change) <= bound
            print(f"{w:16} {name:12} {a[0]:10.4f} {a[1]:10.4f}..{a[2]:<10.4f}{a[3]:8.2%} "
                  f"{b[0]:10.4f} {b[3]:8.2%} {change:+7.2%} {bound:6.2f}")
        shares = {s: [(r["failed"], r["attempted"]) for r in results[w][s]] for s in "AB"}
        fa = sum(f for f, _ in shares["A"]) / sum(a for _, a in shares["A"])
        fb = sum(f for f, _ in shares["B"]) / sum(a for _, a in shares["B"])
        correct = all(r["correct"] for s in "AB" for r in results[w][s])
        ok &= correct and fa == fb
        print(f"{w:16} failed share A {fa:.4f} B {fb:.4f}; all correct: {correct}")
    print(f"raw results: {raw}")
    print("A/A within bounds" if ok else "A/A OUTSIDE bounds")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
