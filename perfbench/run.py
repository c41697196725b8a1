"""Benchmark of the subdesigns library and CLI; see BENCHMARK.json at the repo root.

    python3 perfbench/run.py --workload headline --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the library is imported from its
``src/`` directory, with nothing to build.  Every process runs one thread,
with BLAS/OpenMP pinned to one thread and ``PYTHONHASHSEED`` fixed.

``--trace 0`` starts the workload in several fresh processes to time set-up
(``setup_s``, the median), measures the last one for ``--seconds`` and
reports the end-to-end metrics.  ``--trace 1`` makes one traced process
and reports the per-layer metrics.  ``--short`` uses the small inputs the
benchmark's own tests run on.  The last line of stdout is the result as
one JSON object; an ``env`` line before it records the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"
# Per workload, the fresh processes whose set-up is timed in one run; the
# measured process is the last of them.
SETUP_REPS = {"headline": 9, "corpus": 9, "big_fields": 3}
DEADLINE_S = 170.0
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


class BenchError(Exception):
    pass


def environment_record() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = done.stdout.strip() or commit
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": sys.version.split()[0],
        "commit": commit,
        "src_lines": src_lines,
    }


def run_worker(args, mode: str, deadline: float) -> tuple[float, dict | None]:
    """Start one worker; return (seconds from start until its inputs exist, result)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--mode", mode, "--seconds", str(args.seconds), "--out", str(OUT)]
    if args.short:
        cmd.append("--short")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **PINNED)
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=HERE, env=env, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    watchdog.start()
    setup_s = None
    result = None
    try:
        for line in proc.stdout:
            if not line.startswith("@@perfbench "):
                sys.stderr.write(line)
                continue
            _, kind, payload = line.rstrip("\n").split(" ", 2)
            if kind == "ready":
                setup_s = time.perf_counter() - started
            elif kind == "result":
                result = json.loads(payload)
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or setup_s is None or (mode != "setup" and result is None):
        raise BenchError(f"{mode} worker for {args.workload} exited with {proc.returncode}")
    return setup_s, result


def measure(args, deadline: float) -> tuple[dict, dict]:
    """Time set-up in fresh processes, then measure the last one; return (result, metrics)."""
    reps = 2 if args.short else SETUP_REPS[args.workload]
    setups = [run_worker(args, "setup", deadline)[0] for _ in range(reps - 1)]
    setup_s, res = run_worker(args, "run", deadline)
    setups.append(setup_s)
    ok = res["attempted"] - res["failed"]
    return res, {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "run_s": {"value": statistics.median(res["passes"]), "unit": "s"},
        "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        "ok_ratio": {"value": ok / res["attempted"], "unit": "ratio"},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=list(SETUP_REPS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--short", action="store_true", help="small inputs, for the benchmark's own tests")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    # a terminated benchmark still kills and reaps its worker (run_worker's finally)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    if not (ROOT / "src" / "subdesigns" / "__init__.py").is_file():
        print(f"no library source at {ROOT / 'src' / 'subdesigns'}; run from a source checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    env = environment_record()
    try:
        if args.trace:
            res = run_worker(args, "trace", deadline)[1]
            metrics = res["layers"]
        else:
            res, metrics = measure(args, deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    env["numpy"] = res["numpy"]
    print("env " + json.dumps(env, sort_keys=True))
    for msg in res["failures"][:20]:
        print("failure " + msg)
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
