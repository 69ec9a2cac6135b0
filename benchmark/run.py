"""Benchmark entry point: one workload, one seed, one JSON line.

    python3 benchmark/run.py --workload tree_solve --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the program is imported from
``src/`` as is, nothing is installed.  Each repetition is a fresh
interpreter (``child.py``) that runs the workload through the program's
entry points and then checks what it produced.  Set-up time is the
median over several extra fresh starts that stop at the first solver
call, plus the starts of the repetitions themselves.

The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; with ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_PROBES = 5
CHILD_TIMEOUT = 150.0
# run the program as a user does: one Monte Carlo thread, BLAS at its default
UNSET = ("CMVLQ_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "GOTO_NUM_THREADS",
         "MKL_NUM_THREADS")


def child_env(root):
    env = {k: v for k, v in os.environ.items() if k not in UNSET}
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(root, env, workload, seed, work_dir, mode, index):
    result_file = os.path.join(work_dir, f"result-{mode}-{index}.json")
    launch = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), workload, str(seed),
         repr(launch), work_dir, result_file, mode],
        cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=CHILD_TIMEOUT,
    )
    if proc.returncode != 0 or not os.path.exists(result_file):
        sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
        raise SystemExit(f"{workload}: {mode} process failed with status {proc.returncode}")
    with open(result_file, encoding="utf-8") as fh:
        return json.load(fh), time.monotonic() - launch


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "cmvlq", "cli.py")):
        sys.stderr.write("run from the root of a cmvlq checkout: src/cmvlq is missing\n")
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        parser.error(f"unknown workload {args.workload!r}")

    env = child_env(root)
    scratch = os.path.join(root, ".benchmark-out")
    os.makedirs(scratch, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        return measure(root, env, args, work_dir, spec)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def measure(root, env, args, work_dir, spec) -> int:
    os.makedirs(os.path.join(work_dir, "cfg"))
    for name, text in workloads.configs(args.workload).items():
        with open(os.path.join(work_dir, "cfg", name), "w", encoding="utf-8") as fh:
            fh.write(text)

    def run(mode, index):
        return spawn(root, env, args.workload, args.seed, work_dir, mode, index)

    run("probe", "warm")  # fills the bytecode caches; not timed
    setup = []
    if not args.trace:
        setup = [run("probe", i)[0]["setup_s"] for i in range(SETUP_PROBES)]

    reps = []
    spent = 0.0
    elapsed = []
    mode = "trace" if args.trace else "run"
    while not reps or spent < args.seconds:
        rep, seconds = run(mode, len(reps))
        reps.append(rep)
        elapsed.append(seconds)
        spent += rep["setup_s"] + rep["wall_s"]
    setup += [r["setup_s"] for r in reps]

    checks = [c for r in reps for c in r["checks"]]
    failing = [c for c in checks if not c["passed"]]
    for c in failing:
        sys.stderr.write(f"check failed: {c['name']} = {c['value']:.6g} (limit {c['limit']:.3g})\n")
    for r in reps:
        for e in r["errors"]:
            sys.stderr.write(f"operation failed: {e}\n")
    walls = " ".join(f"{r['wall_s']:.3f}" for r in reps)
    print(f"{args.workload}: {len(reps)} repetitions, wall_s {walls}, elapsed "
          f"{' '.join(f'{e:.1f}' for e in elapsed)} s, {len(checks)} checks, "
          f"{len(failing)} failing", file=sys.stderr)

    if args.trace:
        samples = {name: [r["layers"][name] for r in reps] for name in reps[0]["layers"]}
        print(f"traced wall_s median {statistics.median(r['wall_s'] for r in reps):.4f} s",
              file=sys.stderr)
    else:
        samples = {name: [r[name] for r in reps] for name in ("wall_s", "cpu_s", "peak_rss_mb")}
        samples["setup_s"] = setup
    metrics = {}
    for m in spec["per_layer" if args.trace else "end_to_end"]:
        if m["name"] not in samples:
            raise SystemExit(f"no measurement for metric {m['name']}")
        metrics[m["name"]] = {"value": statistics.median(samples[m["name"]]), "unit": m["unit"]}

    print(json.dumps({
        "correct": not failing,
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
