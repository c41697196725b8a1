#!/usr/bin/env python3
"""Check that two source trees give byte-identical CLI output.

    python3 scripts/check_cli_identity.py PARENT_SRC [--src SRC]

Writes the headline glued design (q=3, m=3, k=4, t=2) and the
``max1_corpus`` designs with Q^k <= 4096 to a temporary directory, built
with the PARENT_SRC tree.  Then runs each verb below on each design in a
fresh process, once against PARENT_SRC and once against SRC (default: this
repository's ``src/``), and compares exit codes, stdout and every file the
verb writes.  ``srg --verify-graph --dot`` runs only on the designs with
Q^k <= 256, the DOT cap.  Each tree runs in its own working directory and writes its
files under the same relative names, so echoed output paths agree too.
Prints one line per difference and exits 1 if there is any.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Run in the reference tree: writes one design JSON per name and prints each name, its k and Q^k.
WRITE_DESIGNS = """
import sys
from pathlib import Path
from subdesigns import formats as fmt
from subdesigns.repro import glued_design, max1_corpus
out = Path(sys.argv[1])
designs = [("headline glued q3 m3 k4 t2", glued_design(3, 3, 4, 2))]
designs += [(n, D) for n, D in max1_corpus() if D.ambient.tower.order ** D.ambient.k <= 4096]
for i, (name, D) in enumerate(designs):
    (out / f"design{i:02d}.json").write_text(fmt.dumps(fmt.design_to_json(D)))
    print(f"design{i:02d}.json", D.ambient.k, D.ambient.tower.order ** D.ambient.k, name, sep="\\t")
"""


def verbs(design: str, k: int, size: int) -> list[list[str]]:
    """The CLI runs for one design; file arguments are relative to the run's directory."""
    runs = [
        ["weights", design, "--hist-csv", "hist.csv", "--enumerator-csv", "enum.csv"],
        ["srg", design],
        ["msrd", design, "--spectrum-csv", "spectrum.csv", "--emit-code", "code.json"],
        ["cutting", design],
        ["classify", design],
        ["minimal", design, "--method", "geometric"],
        ["minimal", design, "--method", "pairs"],
        ["construct", "direct-sum", design, design, "-o", "sum.json"],
    ]
    if size <= 256:
        runs.append(["srg", design, "--verify-graph", "--dot", "graph.dot"])
    return runs + [["profile", design, "--s", str(s)] for s in range(1, k)]


def run(src: Path, cwd: Path, argv: list[str]) -> dict[str, bytes]:
    """Exit code, stdout, stderr and every file the run writes, keyed by name."""
    cwd.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "subdesigns.cli", *argv], cwd=cwd, env=env, capture_output=True)
    out = {"exit code": str(proc.returncode).encode(), "stdout": proc.stdout, "stderr": proc.stderr}
    out.update({p.name: p.read_bytes() for p in sorted(cwd.iterdir())})
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent_src", type=Path, help="the reference tree's src/ directory")
    ap.add_argument("--src", type=Path, default=ROOT / "src", help="the tree under test (default: %(default)s)")
    args = ap.parse_args()
    trees = {"parent": args.parent_src.resolve(), "change": args.src.resolve()}

    with tempfile.TemporaryDirectory(prefix="cli-identity-") as tmp:
        tmp = Path(tmp)
        listing = subprocess.run([sys.executable, "-c", WRITE_DESIGNS, str(tmp)], check=True, capture_output=True,
                                 text=True, env=dict(os.environ, PYTHONPATH=str(trees["parent"]))).stdout
        jobs = []
        for line in listing.splitlines():
            name, k, size, label = line.split("\t")
            for j, argv in enumerate(verbs(str(tmp / name), int(k), int(size))):
                jobs.append((f"{label}: {' '.join(argv[:1] + argv[2:])}", f"{name}-{j:02d}", argv))

        def compare(job) -> list[str]:
            title, slot, argv = job
            got = {tree: run(src, tmp / tree / slot, argv) for tree, src in trees.items()}
            return [f"{title}: {key} differs" for key in sorted(set(got["parent"]) | set(got["change"]))
                    if got["parent"].get(key) != got["change"].get(key)]

        with ThreadPoolExecutor(max_workers=2) as pool:
            diffs = [d for found in pool.map(compare, jobs) for d in found]

    for line in diffs:
        print(line)
    print(f"{len(jobs)} runs per tree, {len(diffs)} differences")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
