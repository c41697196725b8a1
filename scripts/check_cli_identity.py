#!/usr/bin/env python3
"""Check that two source trees give byte-identical CLI output.

    python3 scripts/check_cli_identity.py PARENT_SRC [--src SRC]

Writes the headline glued design (q=3, m=3, k=4, t=2) and the
``max1_corpus`` designs with Q^k <= 4096 to a temporary directory, built
with the PARENT_SRC tree.  Then runs each verb below on each design, and the
design-free runs of ``FIXED_RUNS`` once, in a fresh process per step, once
against PARENT_SRC and once against SRC (default: this repository's
``src/``), and compares exit codes, stdout and every file the run writes.
A run of several steps (``msrd --emit-code`` then ``minimal`` on the code
file) runs them in order in one directory.  ``srg --verify-graph --dot``
runs only on the designs with Q^k <= 256, the DOT cap.  Each tree runs in
its own working directory and writes its files under the same relative
names, so echoed output paths agree too.  One more step, ``SIGMA_VALUES``,
prints sigma-polynomial kernel dimensions, lambda-values and gcrd/lclm
coefficients in each tree, since the CLI shows them only in timed output.
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
    print(f"design{i:02d}.json", D.ambient.k, D.t, D.ambient.tower.order ** D.ambient.k, name, sep="\\t")
"""

# Criterion 4's seeded polynomials F over its towers, then eight over each big_fields tower with a random
# sigma exponent s; per F the twist kernels and lambda-values for lambda = 1..q-1, and gcrd and lclm of
# F o R and H o R for seeded H, R (a common right factor, so that the gcrd is not 1), the quotient and
# remainder of H o F + R by F, and F on the basis 1, y, ..., y^(m-1).
SIGMA_VALUES = """
import numpy as np
from subdesigns import skewpoly as sk
from subdesigns.gf import make_tower
from subdesigns.repro import SEEDS, distinct_norm_elements, sigma_towers
rng, other = np.random.default_rng(SEEDS["sigma"]), np.random.default_rng(2020)
def poly(t, d, s=1, gen=rng):
    return sk.SigmaPoly(t, [int(gen.integers(0, t.order)) for _ in range(d)] + [int(gen.integers(1, t.order))], s)
cases = [(t, [poly(t, int(rng.integers(1, 4))) for _ in range(200)]) for t in sigma_towers()]
for key in [(3, 2, 4), (3, 2, 5), (2, 2, 6), (5, 1, 6)]:
    t = make_tower(*key)
    s = int(other.choice([s for s in range(1, t.m) if np.gcd(s, t.m) == 1]))
    cases.append((t, [poly(t, 1 + i % t.m, s, other) for i in range(8)]))
for t, polys in cases:
    alphas = dict(enumerate(distinct_norm_elements(t, t.q - 1), 1))
    for F in polys:
        H, R = poly(t, int(other.integers(0, 3)), F.s, other), poly(t, int(other.integers(0, 3)), F.s, other)
        print(t, F.s, F.coeffs, [sk.kernel_dim(sk.twist(F, a)) for a in alphas.values()],
              [sk.lambda_value(F, lam, check=True) for lam in alphas],
              *(X.coeffs for X in sk.gcrd_lclm(sk.skew_mul(F, R), sk.skew_mul(H, R))),
              *(X.coeffs for X in sk.right_divmod(sk.skew_mul(H, F) + R, F)), F.evaluate(t.y_basis).tolist())
"""


# Runs that read no design file: twisted designs, accepted with eta = 0 and eta != 0
# or refused with EtaInNormGroup, the other constructions over several fields
# (field-partition with k = 1 too), strong designs, one written and read back, and
# the README's expander on its twisted q3 m3 k2 design, exhaustive to dimension 1
# and sampled with the default seed, the weights, cutting and msrd verbs on the
# twisted q9 m4 k2 t2 design over F_{9^4}, which the Q^k <= 4096 filter leaves out,
# and the cutting verb on the headline design under two seeded changes of
# coordinates, whose first uncut hyperplanes lie in the first and the second chunk
# of the cutting sweep (normals 254 and 383), then profile --s 1 and classify there,
# whose s = 1 witnesses are ties broken off the canonical basis, and cutting under
# a cap below its 20,440 hyperplanes, which it must refuse; the README's design enlarged, the PG(3, 2)
# point pencil read over the intermediate fields F_4 and F_8, and a places
# embedding over F_{4^3}, enlarged in turn.
TWISTED = ["construct", "twisted", "--alphas", "1", "-o", "tw.json"]
README_D2 = ["construct", "twisted", "--q", "3", "--m", "3", "--k", "2", "--alphas", "1,2", "--eta", "0", "-o", "d2.json"]
CONSTRUCT = ["construct", "-o", "design.json"]
CL = ["strong", "cameron-liebler", "--n", "1", "-o", "strong.json"]
PENCIL = CL + ["--kind", "point_pencil", "--k", "3", "--q", "2"]
# Writes places.json: three polynomial spaces over F_4 at the place y^3 + y + 1 and its image under x -> 2x.
PLACES = ["-c", "from pathlib import Path\nPath('places.json').write_text('{\"q\": 4, \"m\": 3, \"zeta\": 2, \"k\": 2, '\n"
                "'\"p\": [1, 1, 0, 1], \"members\": [[[1], [0, 1]], [[1]], [[0, 1], [1, 0, 1]]]}')\n"]
Q9M4 = ["-c", "from pathlib import Path\nfrom subdesigns import formats as fmt\n"
              "from subdesigns.repro import twisted_design\n"
              "Path('q9m4.json').write_text(fmt.dumps(fmt.design_to_json(twisted_design(9, 4, 2, 2))))\n"]
# Writes moved.json: the headline design under v -> v g for the first invertible g of a seeded draw.
HEADLINE_MOVED = """
import sys
import numpy as np
from pathlib import Path
from subdesigns import formats as fmt, linalg
from subdesigns.design import SubspaceDesign
from subdesigns.repro import glued_design
from subdesigns.subspace import FqSubspace
D = glued_design(3, 3, 4, 2)
amb, F = D.ambient, D.ambient.tower.fqm
rng = np.random.default_rng(int(sys.argv[1]))
g = rng.integers(0, F.size, (4, 4))
while linalg.rank(F, g) < 4:
    g = rng.integers(0, F.size, (4, 4))
members = [FqSubspace.from_expanded_rows(amb, amb.expand(linalg.matmul(F, amb.contract(U.basis), g))) for U in D.members]
Path("moved.json").write_text(fmt.dumps(fmt.design_to_json(SubspaceDesign(amb, members))))
"""
FIXED_RUNS = [
    [TWISTED + ["--q", "3", "--m", "2", "--k", "2", "--eta", "1+y"]],
    [TWISTED + ["--q", "3", "--m", "2", "--k", "2", "--eta", "y"]],
    [TWISTED + ["--q", "3", "--m", "3", "--k", "3", "--eta", "1"]],
    [["strong", "cameron-liebler", "--kind", "point_pencil", "--n", "1", "--k", "3", "--q", "2", "-o", "strong.json"],
     ["strong", "verify", "strong.json", "--s", "2"]],
    [CONSTRUCT + ["pseudoregulus", "--q", "3", "--m", "3", "--r", "1", "--mus", "1,2"]],
    [CONSTRUCT + ["pseudoregulus", "--q", "4", "--m", "3", "--r", "2", "--mus", "1", "--s-exp", "2"]],
    [CONSTRUCT + ["field-partition", "--q", "2", "--m", "2", "--k", "3"]],
    [CONSTRUCT + ["field-partition", "--q", "3", "--m", "2", "--k", "3"]],
    [CONSTRUCT + ["field-partition", "--q", "2", "--m", "3", "--k", "2"]],
    [CONSTRUCT + ["field-partition", "--q", "3", "--m", "2", "--k", "1"]],
    [CONSTRUCT + ["basis-partition", "--q", "4", "--m", "2", "--k", "3", "--partition", "1;2,3"]],
    [CONSTRUCT + ["twisted", "--q", "4", "--m", "3", "--k", "3", "--alphas", "1,y"]],
    [CONSTRUCT + ["twisted", "--q", "5", "--m", "2", "--k", "3", "--alphas", "1,y,y+1", "--eta", "y"]],
    [CONSTRUCT + ["twisted", "--q", "5", "--m", "2", "--k", "3", "--alphas", "1,2", "--eta", "y"]],
    [CL + ["--kind", "complement", "--of", "mixed", "--k", "3", "--q", "3"]],
    [CL + ["--kind", "in_hyperplane", "--k", "4", "--q", "2"]],
    [README_D2, ["expander", "d2.json", "--beta", "default", "--max-dim", "1", "--target", "1/6", "2"]],
    [README_D2, ["expander", "d2.json", "--mode", "sample"]],
    [Q9M4, ["weights", "q9m4.json"], ["cutting", "q9m4.json"], ["msrd", "q9m4.json"]],
    [["-c", HEADLINE_MOVED, "1"], ["cutting", "moved.json"], ["profile", "moved.json", "--s", "1"],
     ["classify", "moved.json"]],
    [["-c", HEADLINE_MOVED, "2"], ["cutting", "moved.json"], ["profile", "moved.json", "--s", "1"],
     ["classify", "moved.json"]],
    [["-c", HEADLINE_MOVED, "1"], ["--cap", "20439", "cutting", "moved.json"]],
    [README_D2, ["construct", "enlarge", "d2.json", "--s", "1", "--increments", "1,0", "-o", "enlarged.json"]],
    [PENCIL, ["strong", "intermediate", "strong.json", "--c", "2", "--s", "1", "-o", "intermediate.json"]],
    [PENCIL, ["strong", "intermediate", "strong.json", "--c", "3", "--s", "2", "--A", "8", "-o", "intermediate.json"]],
    [PLACES, ["strong", "places", "places.json", "-o", "embedded.json"],
     ["construct", "enlarge", "embedded.json", "--s", "1", "--increments", "1,0,2", "-o", "enlarged.json"]],
]


def verbs(design: str, k: int, t: int, size: int) -> list[list[list[str]]]:
    """The CLI runs for one design, each a list of steps; file arguments are relative to the run's directory."""
    runs = [
        [["weights", design, "--hist-csv", "hist.csv", "--enumerator-csv", "enum.csv"]],
        [["srg", design]],
        [["msrd", design, "--spectrum-csv", "spectrum.csv", "--emit-code", "code.json"], ["minimal", "code.json"]],
        [["cutting", design]],
        [["classify", design]],
        [["minimal", design, "--method", "geometric"]],
        [["minimal", design, "--method", "pairs"]],
        [["construct", "direct-sum", design, design, "-o", "sum.json"]],
        [["dual", "ordinary", design, "--s", "1", "--A", "1", "-o", "dual.json"]],
        [["dual", "delsarte", design, "-o", "delsarte.json"]],
        [["--cap", "10", "dual", "delsarte", design, "-o", "delsarte.json"]],
        [["construct", "enlarge", design, "--s", "1", "--increments", ",".join(["1"] + ["0"] * (t - 1)),
          "-o", "enlarged.json"]],
    ]
    if size <= 256:
        runs.append([["srg", design, "--verify-graph", "--dot", "graph.dot"]])
    return runs + [[["profile", design, "--s", str(s)]] for s in range(1, k)]


def run(src: Path, cwd: Path, steps: list[list[str]]) -> dict[str, bytes]:
    """Exit code, stdout and stderr of each step and every file the run writes, keyed by name."""
    cwd.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(src))
    out = {}
    for i, argv in enumerate(steps):
        cmd = argv if argv[0] == "-c" else ["-m", "subdesigns.cli", *argv]
        proc = subprocess.run([sys.executable, *cmd], cwd=cwd, env=env, capture_output=True)
        step = f"step {i + 1} " if len(steps) > 1 else ""
        out.update({f"{step}exit code": str(proc.returncode).encode(), f"{step}stdout": proc.stdout,
                    f"{step}stderr": proc.stderr})
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
        jobs = [(" then ".join(" ".join(argv) for argv in steps), f"fixed-{j:02d}", steps)
                for j, steps in enumerate(FIXED_RUNS)]
        jobs.append(("sigma-polynomial values", "sigma", [["-c", SIGMA_VALUES]]))
        for line in listing.splitlines():
            name, k, t, size, label = line.split("\t")
            path = str(tmp / name)
            for j, steps in enumerate(verbs(path, int(k), int(t), int(size))):
                title = " then ".join(" ".join(a for a in argv if a != path) for argv in steps)
                jobs.append((f"{label}: {title}", f"{name}-{j:02d}", steps))

        def compare(job) -> list[str]:
            title, slot, steps = job
            got = {tree: run(src, tmp / tree / slot, steps) for tree, src in trees.items()}
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
