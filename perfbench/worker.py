"""One benchmark process: set up a workload, then measure or trace it.

Started by run.py, never by hand.  It reports on stdout through lines
that start with ``@@perfbench``: ``ready`` as soon as the workload's
inputs exist, then, unless ``--mode setup``, one ``result`` line.

``--mode run`` repeats whole passes of the workload in a closed loop (one
caller; each operation starts when the previous one returns) until
``--seconds`` have elapsed, and reports every pass time.  ``--mode trace``
installs the tracer before set-up, makes exactly one traced pass, removes
the tracer and makes one untraced pass, so that the per-layer counts
depend only on the seed.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def emit(kind: str, payload: dict) -> None:
    print("@@perfbench", kind, json.dumps(payload), flush=True)


def run_pass(workload, tally: dict, tracer=None) -> float:
    started = time.perf_counter()
    for i, (label, fn) in enumerate(workload.ops(), start=1):
        if tracer is not None:
            tracer.op_id = i
        tally["attempted"] += 1
        try:
            errs = fn()
        except Exception as exc:  # a raising operation is a failed one; keep measuring
            errs = [f"{label}: {type(exc).__name__}: {exc}"]
        if errs:
            tally["failed"] += 1
            tally["failures"].extend(errs)
    return time.perf_counter() - started


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=["setup", "run", "trace"], required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--short", action="store_true")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    out_dir = Path(args.out)

    import numpy as np

    import workloads

    tracer = None
    if args.mode == "trace":
        from tracer import LAYER_METRICS, Tracer

        tracer = Tracer()
        tracer.install()
    workload = workloads.setup(args.workload, args.seed, args.short, out_dir)
    emit("ready", {})
    if args.mode == "setup":
        return 0

    tally = {"attempted": 0, "failed": 0, "failures": []}
    result: dict = {"numpy": np.__version__}
    if args.mode == "run":
        passes = []
        started = time.perf_counter()
        while not passes or time.perf_counter() - started < args.seconds:
            passes.append(run_pass(workload, tally))
        result["passes"] = passes
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        traced = run_pass(workload, tally, tracer)
        tracer.uninstall()
        untraced = run_pass(workload, tally)
        values = tracer.layer_metrics(workload.hyperplanes, traced - untraced)
        result["layers"] = {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS}
        spans = out_dir / f"trace-{args.workload}.npz"
        tracer.dump(spans, {"workload": args.workload, "seed": args.seed, "short": args.short})
        result["spans"] = str(spans)
        result["span_count"] = len(tracer.start)
    result.update(tally)
    emit("result", result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
