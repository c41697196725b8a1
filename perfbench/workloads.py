"""The benchmark workloads: seeded inputs, one pass of operations, expected outputs.

``setup(name, seed, short, out_dir)`` builds a workload's inputs and
returns a :class:`Workload`.  ``Workload.ops()`` returns one pass: a list
of ``(label, fn)`` operations built on fresh library objects, so no
object-level cache carries from one pass to the next.  Each ``fn``
returns a list of failure messages, empty when the output is correct.

The seed drives the GL(k, q^m) changes of coordinates, the random
sum-rank codes and the random sigma-polynomials; the library sees only
the generated inputs.  Every checked quantity is invariant under a change
of coordinates, so every seed is checked against the same values.
``short`` selects small inputs for the benchmark's own tests.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from subdesigns import cli
from subdesigns import design as de
from subdesigns import expander as ex
from subdesigns import formats as fmt
from subdesigns import gf
from subdesigns import hamming as ha
from subdesigns import linalg
from subdesigns import repro
from subdesigns import skewpoly as sk
from subdesigns import strongbridge as sb
from subdesigns import subspace as sp
from subdesigns import sumrank as sr
from subdesigns.fieldcore import DTYPE


# --- shared helpers ------------------------------------------------------------------


def random_gl(rng: np.random.Generator, tower, k: int) -> np.ndarray:
    """A uniformly random invertible k x k matrix over F_{q^m}."""
    while True:
        g = rng.integers(0, tower.order, (k, k)).astype(DTYPE)
        if linalg.rank(tower.fqm, g) == k:
            return g


def change_coordinates(D: de.SubspaceDesign, g: np.ndarray) -> de.SubspaceDesign:
    """The image of every member under v -> v g."""
    amb = D.ambient
    members = []
    for U in D.members:
        img = linalg.matmul(amb.tower.fqm, amb.contract(U.basis), g)
        members.append(sp.FqSubspace.from_expanded_rows(amb, amb.expand(img)))
    return de.SubspaceDesign(amb, members)


@dataclass(frozen=True)
class DesignSpec:
    """A design as plain arrays, rebuilt into fresh library objects per pass."""

    name: str
    tower: gf.FieldTower
    k: int
    members: tuple

    @classmethod
    def of(cls, name: str, D) -> "DesignSpec":
        return cls(name, D.ambient.tower, D.ambient.k, tuple((U.basis, list(U.pivots)) for U in D.members))

    def hyperplanes(self) -> int:
        return sp.gaussian_binomial(self.k, 1, self.tower.order)

    def build(self) -> de.SubspaceDesign:
        amb = sp.AmbientSpace(self.tower, self.k)
        return de.SubspaceDesign(amb, [sp.FqSubspace(amb, b, list(p)) for b, p in self.members])


def _expect(label: str, got, want) -> list[str]:
    return [] if got == want else [f"{label}: got {got!r}, expected {want!r}"]


@dataclass
class Workload:
    ops: Callable[[], list[tuple[str, Callable[[], list[str]]]]]
    hyperplanes: int  # hyperplanes of the designs one pass analyses


# --- headline --------------------------------------------------------------------------

# (q, m, k, t) of the glued design and the CLI outputs every seed must give.
HEADLINE = {
    False: ((3, 3, 4, 2), {
        "weights": {"histogram": {"6": 19712, "7": 728},
                    "enumerator": {"0": 1, "675": 18928, "702": 512512}, "length": 728},
        "srg": {"v": 531441, "K": 18928, "lambda": 1327, "mu": 650},
        "msrd": {"d": 5, "is_msrd": True},
        "cutting": {"cutting": False, "intersection_constant": False},
    }),
    True: ((3, 2, 4, 2), {
        "weights": {"histogram": {"4": 740, "5": 80},
                    "enumerator": {"0": 1, "63": 640, "72": 5920}, "length": 80},
        "srg": {"v": 6561, "K": 640, "lambda": 121, "mu": 56},
        "msrd": {"d": 3, "is_msrd": True},
        "cutting": {"cutting": False, "intersection_constant": False},
    }),
}


def _cli_op(verb: str, path: str, expected: dict):
    def run() -> list[str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main([verb, path])
        if rc != 0:
            return [f"{verb}: exit {rc}: {out.getvalue().strip()}"]
        report = json.loads(out.getvalue())
        errs = []
        for key, want in expected.items():
            errs += _expect(f"{verb} {key}", report.get(key), want)
        return errs

    return run


def setup_headline(seed: int, short: bool, out_dir: Path) -> Workload:
    (q, m, k, t), expected = HEADLINE[short]
    rng = np.random.default_rng(seed)
    D = repro.glued_design(q, m, k, t)
    D = change_coordinates(D, random_gl(rng, D.ambient.tower, k))
    path = out_dir / "headline-design.json"
    path.write_text(fmt.dumps(fmt.design_to_json(D)))
    count = sp.gaussian_binomial(k, 1, D.ambient.tower.order)
    # each verb reloads the design from disk, as a CLI user's run does
    return Workload(lambda: [(verb, _cli_op(verb, str(path), want)) for verb, want in expected.items()], count)


# --- corpus ------------------------------------------------------------------------------

# Outputs of the canonical-coordinate designs: classify A_min for s = 1..k-1,
# weight enumerator, SRG parameters (two-intersection sets only), minimum
# distance and the cutting verdict.
CORPUS_EXPECTED = {
    "pseudoregulus q2 m2 r1 t1": ([1], {0: 1, 2: 9, 3: 6}, (16, 9, 4, 6), 1, False),
    "glued q2 m2 k4 t1": ([1, 2, 3], {0: 1, 8: 45, 12: 210}, (256, 45, 16, 6), 1, False),
    "pseudoregulus q2 m3 r1 t1": ([1], {0: 1, 6: 49, 7: 14}, (64, 49, 36, 42), 2, False),
    "glued q2 m3 k4 t1": ([1, 3, 4], {0: 1, 48: 441, 56: 3654}, (4096, 441, 92, 42), 2, False),
    "pseudoregulus q2 m2 r2 t1": ([1, 2, 3], {0: 1, 8: 45, 12: 210}, (256, 45, 16, 6), 1, False),
    "twisted q2 m3 k2 t1": ([1], {0: 1, 6: 49, 7: 14}, (64, 49, 36, 42), 2, False),
    "field-partition q2 m2 k3": ([1, 4], {0: 1, 16: 63}, None, 5, True),
    "pseudoregulus q3 m2 r1 t1": ([1], {0: 1, 3: 32, 4: 48}, (81, 32, 13, 12), 1, False),
    "pseudoregulus q3 m3 r1 t1": ([1], {0: 1, 12: 338, 13: 390}, (729, 338, 157, 156), 2, False),
    "twisted q3 m3 k2 t1": ([1], {0: 1, 12: 338, 13: 390}, (729, 338, 157, 156), 2, False),
    "pseudoregulus q3 m2 r1 t2": ([1], {0: 1, 7: 64, 8: 16}, (81, 64, 49, 56), 3, False),
    "pseudoregulus q3 m3 r1 t2": ([1], {0: 1, 25: 676, 26: 52}, (729, 676, 625, 650), 5, False),
    "twisted q3 m3 k2 t2": ([1], {0: 1, 25: 676, 26: 52}, (729, 676, 625, 650), 5, False),
    "field-partition q3 m2 k3": ([1, 8], {0: 1, 81: 728}, None, 13, True),
}
# Largest ambient size Q^k of a corpus design.  The four F_9^4 designs of
# repro.max1_corpus() are left out: they alone would add about 26 s to a pass.
CORPUS_MAX_AMBIENT = {False: 4096, True: 256}
CORPUS_CODES = {False: 40, True: 4}
CORPUS_CODE_PARAMS = [(2, 1, 2), (2, 1, 3), (3, 1, 2), (3, 1, 3)]
EXPANDER_DIM = {False: 2, True: 1}
EXPANDER_EXPECTED = {1: (3, 364), 2: (2, 11011)}  # dim -> (min ratio, subspaces)
STRONG_A = 14


def _design_op(spec: DesignSpec):
    A_mins, enum_want, srg_want, d_want, cut_want = CORPUS_EXPECTED[spec.name]

    def run() -> list[str]:
        D = spec.build()
        tower, k = spec.tower, spec.k
        errs = []
        report = de.classify(D)
        errs += _expect("classify A_min", [report["per_s"][s]["A_min"] for s in range(1, k)], A_mins)
        errs += _expect("maximum 1-design", report["per_s"][1]["is_maximum"], True)
        hist = de.hyperplane_weight_distribution(D)
        lo = D.t * tower.m * (k - 2) // 2
        h0, h1 = de.h_values(tower.q, tower.m, k, D.t)
        errs += _expect("h-values", hist, {c: n for c, n in ((lo, h0), (lo + 1, h1)) if n})
        P = ha.ext_system(D)
        errs += _expect("enumerator", ha.weight_enumerator(P), enum_want)
        if srg_want is not None:
            errs += _expect("srg", ha.srg_from_two_intersection(P).as_tuple(), srg_want)
        cut = de.is_cutting(D).cutting
        C = sr.code_from_system(D)
        geometric = sr.is_minimal_code(C, method="geometric")[0]
        pairs = sr.is_minimal_code(C, method="pairs")[0]
        errs += _expect("cutting / geometric / pairs minimality", (cut, geometric, pairs), (cut_want,) * 3)
        errs += _expect("min distance", sr.min_distance(C, method="classes"), d_want)
        return [f"{spec.name}: {e}" for e in errs]

    return run


def _random_codes(rng: np.random.Generator, count: int) -> list[tuple]:
    """Full-rank random generator blocks of the shapes criterion 10 draws.

    The shapes come from a fixed seed, so every workload seed does the same
    amount of work; the workload seed draws only the entries.
    """
    shapes = np.random.default_rng(0)
    codes = []
    while len(codes) < count:
        p, h, m = CORPUS_CODE_PARAMS[int(shapes.integers(0, len(CORPUS_CODE_PARAMS)))]
        tower = gf.make_tower(p, h, m)
        k = int(shapes.integers(1, 4))
        lengths = sorted((int(shapes.integers(1, 4)) for _ in range(int(shapes.integers(1, 4)))), reverse=True)
        if k > sum(lengths):
            continue  # no k x N generator of full row rank
        while True:
            G = rng.integers(0, tower.order, (k, sum(lengths))).astype(DTYPE)
            if linalg.rank(tower.fqm, G) == k:
                break
        codes.append((tower, lengths, np.split(G, np.cumsum(lengths)[:-1], axis=1)))
    return codes


def _code_op(tower, lengths, blocks):
    def run() -> list[str]:
        C = sr.SumRankCode(tower, lengths, blocks)
        d = sr.min_distance(C, method="classes")
        verdict = sr.singleton_msrd(C, d=d)
        if verdict["bound_log_q"] < verdict["code_log_q"]:
            return [f"code {lengths} over F_{tower.order}: Singleton bound violated: {verdict}"]
        return []

    return run


def _expander_op(spec: DesignSpec, max_dim: int):
    def run() -> list[str]:
        report = ex.expansion_check(ex.build_expander(spec.build()), max_dim)
        got = {r: (data["min_ratio"], data["count"]) for r, data in report.per_dim.items()}
        want = {r: EXPANDER_EXPECTED[r] for r in range(1, max_dim + 1)}
        return _expect("expander min ratios", got, want)

    return run


def _strong_op(tower, k: int, members, predicted_A: int):
    def run() -> list[str]:
        amb = sp.AmbientSpace(tower, k)
        S = sb.StrongSubspaceDesign(amb, [sp.FqmSubspace(amb, b, list(p)) for b, p in members])
        return _expect("strong A (closed form, brute force)", (predicted_A, sb.verify_strong(S, 2)), (STRONG_A,) * 2)

    return run


def setup_corpus(seed: int, short: bool, out_dir: Path) -> Workload:
    rng = np.random.default_rng(seed)
    specs = []
    for name, D in repro.max1_corpus():
        if D.ambient.tower.order ** D.ambient.k <= CORPUS_MAX_AMBIENT[short]:
            g = random_gl(rng, D.ambient.tower, D.ambient.k)
            specs.append(DesignSpec.of(name, change_coordinates(D, g)))
    codes = _random_codes(rng, CORPUS_CODES[short])
    expander = DesignSpec.of("twisted q3 m3 k2 t2", repro.twisted_design(3, 3, 2, 2))
    S, predicted = sb.cameron_liebler("point_pencil", 1, 3, 3)
    strong = (S.ambient.tower, S.ambient.k, tuple((V.basis, list(V.pivots)) for V in S.members), predicted["A"])

    def ops():
        out = [(spec.name, _design_op(spec)) for spec in specs]
        out += [(f"code {i}", _code_op(*code)) for i, code in enumerate(codes)]
        out.append(("expander", _expander_op(expander, EXPANDER_DIM[short])))
        out.append(("strong", _strong_op(*strong)))
        return out

    return Workload(ops, sum(spec.hyperplanes() for spec in specs))


# --- big_fields -----------------------------------------------------------------------

# Towers (p, h, m) for the sigma-polynomial suite, the twisted design
# (q, m, k, t) and its expected histogram and minimum distance.  The two
# largest buildable towers, (3, 2, 6) and (5, 2, 4), take 10 s and 5 s to
# build and are left out so that set-up can be repeated within one run.
BIG_FIELDS = {
    False: ([(3, 2, 4), (3, 2, 5), (2, 2, 6), (5, 1, 6)], (9, 4, 2, 2), {0: 4922, 1: 1640}, 7),
    True: ([(2, 2, 6)], (9, 2, 2, 2), {0: 62, 1: 20}, 3),
}
SIGMA_POLYS = {False: 8, True: 2}


def _sigma_op(tower, alphas: dict, polys: list):
    def run() -> list[str]:
        errs = []
        for coeffs in polys:
            F = sk.SigmaPoly(tower, coeffs)
            total = 0
            for lam, alpha in alphas.items():
                kd = sk.kernel_dim(sk.twist(F, alpha))
                total += kd
                errs += _expect(f"{tower} kernel vs lambda-value", kd, sk.lambda_value(F, lam, check=False))
            if total > F.deg:
                errs.append(f"{tower}: twist kernels sum to {total} > degree {F.deg}")
        return errs

    return run


def setup_big_fields(seed: int, short: bool, out_dir: Path) -> Workload:
    tower_keys, (q, m, k, t), hist_want, d_want = BIG_FIELDS[short]
    rng = np.random.default_rng(seed)
    suites = []
    for key in tower_keys:
        tower = gf.make_tower(*key)
        table = np.asarray(tower.norm_table)
        alphas = {lam: int(np.nonzero(table == lam)[0][0]) for lam in range(1, tower.q)}
        polys = []
        for i in range(SIGMA_POLYS[short]):
            deg = 1 + i % tower.m  # a fixed degree schedule keeps the work equal across seeds
            polys.append([int(rng.integers(0, tower.order)) for _ in range(deg)] + [int(rng.integers(1, tower.order))])
        suites.append((tower, alphas, polys))
    D = repro.twisted_design(q, m, k, t)
    spec = DesignSpec.of(f"twisted q{q} m{m} k{k} t{t}", change_coordinates(D, random_gl(rng, D.ambient.tower, k)))
    Q = spec.tower.order

    def ops():
        D = spec.build()  # one object per pass, shared by the sweeps below

        def weights() -> list[str]:
            errs = _expect("histogram", de.hyperplane_weight_distribution(D), hist_want)
            enum = ha.weight_enumerator(ha.ext_system(D))
            return errs + _expect("enumerator total", sum(enum.values()), Q**k)

        def msrd() -> list[str]:
            C = sr.code_from_system(D)
            d = sr.min_distance(C)
            return _expect("min distance", d, d_want) + _expect("msrd", sr.singleton_msrd(C, d=d)["is_msrd"], True)

        def cutting() -> list[str]:
            return _expect("cutting", de.is_cutting(D).cutting, False)

        out = [(f"sigma {s[0]}", _sigma_op(*s)) for s in suites]
        return out + [("weights", weights), ("msrd", msrd), ("cutting", cutting)]

    return Workload(ops, spec.hyperplanes())


SETUPS = {"headline": setup_headline, "corpus": setup_corpus, "big_fields": setup_big_fields}


def setup(name: str, seed: int, short: bool, out_dir: Path) -> Workload:
    return SETUPS[name](seed, short, out_dir)
