"""Self-checks of the benchmark, on the small (--short) inputs.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def short_run(workload: str, trace: int, seed: int = 3) -> dict:
    done = bench("--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--short")
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_metrics(result: dict, spec: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result = short_run(workload, 0)
    check_metrics(result, SPEC["end_to_end"])
    assert result["metrics"]["ok_ratio"]["value"] == 1.0
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_for_a_seed(workload):
    first, second = short_run(workload, 1), short_run(workload, 1)
    check_metrics(first, SPEC["per_layer"])
    check_metrics(second, SPEC["per_layer"])
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "ratio")]
    assert {n: first["metrics"][n]["value"] for n in counts} == {n: second["metrics"][n]["value"] for n in counts}


def test_headline_sweeps_every_hyperplane_five_times():
    metrics = short_run("headline", 1)["metrics"]
    assert metrics["sweep.useful_ratio"]["value"] == 0.2
    assert metrics["cli.main.calls"]["value"] == 4


def test_tracer_restores_every_binding():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        from subdesigns import design, fieldcore, gf, subspace
        from tracer import Tracer

        before = (design.find_irreducible, design.enumerate_fqm_subspaces, fieldcore.SmallField.mul,
                  gf.FieldTower.__dict__["norm_table"], subspace.FqmSubspace.expand_fq)
        tracer = Tracer()
        tracer.install()
        patched = (design.find_irreducible, design.enumerate_fqm_subspaces, fieldcore.SmallField.mul,
                   gf.FieldTower.__dict__["norm_table"], subspace.FqmSubspace.expand_fq)
        tracer.uninstall()
        after = (design.find_irreducible, design.enumerate_fqm_subspaces, fieldcore.SmallField.mul,
                 gf.FieldTower.__dict__["norm_table"], subspace.FqmSubspace.expand_fq)
    finally:
        del sys.path[:2]
    assert all(p is not b for p, b in zip(patched, before))
    assert all(a is b for a, b in zip(after, before))


def test_fails_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = bench("--workload", "headline", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
