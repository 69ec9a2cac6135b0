"""One fresh interpreter running one repetition of a workload.

    python3 benchmark/child.py WORKLOAD SEED LAUNCH WORK_DIR RESULT_FILE MODE

LAUNCH is the parent's monotonic clock just before it started this
process (the clock is system-wide), so set-up time counts interpreter
start-up too.  MODE is one of

* ``probe``: stop at the first solver call and report set-up time only;
* ``run``: run the workload, then check its outputs;
* ``trace``: the same with every layer traced.

The result is one JSON object written to RESULT_FILE.
"""

from __future__ import annotations

import json
import os
import sys
import time

import hooks
import workloads

# public functions whose results the checks inspect, per workload
CAPTURED = {
    "tree_solve": ("lattice.build_joint_tree", "fbsde.assemble_optimal_control",
                   "fbsde.solve_coupled_mv_fbsde"),
    "oracle_compare": ("lattice.build_joint_tree", "fbsde.assemble_optimal_control",
                       "oracle.solve_qp_exact", "oracle.solve_qp_bar", "oracle.solve_qp_breve"),
    "mc_simulate": ("sim.simulate_forward",),
}


def _write(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def main(argv):
    workload, seed, launch, work_dir, result_file, mode = argv
    seed = int(seed)
    launch = float(launch)

    start = time.monotonic()
    import cmvlq.cli
    import_s = time.monotonic() - start

    def report_setup(stamp):
        _write(result_file, {"setup_s": stamp[0] - launch})
        os._exit(0)

    tracer = None
    if mode == "trace":
        tracer = hooks.Tracer()
        tracer.install()
    capture = hooks.Capture(CAPTURED[workload])
    capture.install()
    marker = hooks.Marker(report_setup if mode == "probe" else None)
    marker.install()

    cfg_dir = os.path.join(work_dir, "cfg")
    errors = []
    calls = workloads.cli_calls(workload, cfg_dir, os.path.join(work_dir, "out"), seed)
    for args in calls:
        status = cmvlq.cli.main(args)
        if status != 0:
            errors.append(f"cmvlq {' '.join(args)} exited with status {status}")
    end = hooks.usage()
    peak = hooks.peak_rss_mb()

    if marker.stamp is None:
        raise SystemExit("the workload never called into a solver layer")
    result = {
        "setup_s": marker.stamp[0] - launch,
        "wall_s": end[0] - marker.stamp[0],
        "cpu_s": end[1] - marker.stamp[1],
        "peak_rss_mb": peak,
        "attempted": len(calls),
        "failed": len(errors),
        "errors": errors,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics(import_s)

    import checks

    result["checks"] = checks.run(workload, work_dir, seed, capture.values)
    _write(result_file, result)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
