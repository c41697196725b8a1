"""Reproduction of every desk-scale numerical claim, as ten checks.

Each criterion builds its objects from scratch, recomputes the claimed
values by enumeration, and compares exactly (all quantities here are
integers or rationals; there are no tolerances to tune).  Each criterion
registers through the ``criterion`` decorator, which numbers it in
definition order, times it and collects its failures into a
``CriterionResult``, so both the test suite and the CLI verb
``repro paper-examples`` can consume them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from subdesigns import design as de
from subdesigns import expander as ex
from subdesigns import hamming as ha
from subdesigns import linalg
from subdesigns import skewpoly as sk
from subdesigns import strongbridge as sb
from subdesigns import subspace as sp
from subdesigns import sumrank as sr
from subdesigns.errors import BadParameters
from subdesigns.fieldcore import DTYPE
from subdesigns.gf import make_tower, tower_for

# deterministic seeds for all randomized sub-suites
SEEDS = {"sigma": 20240901, "duality": 20240902, "grassmann": 20240903, "singleton": 20240904, "rref": 20240905}


@dataclass
class CriterionResult:
    number: int
    name: str
    ok: bool
    details: str
    elapsed: float
    failures: list[str] = field(default_factory=list)


ALL_CRITERIA = []


def criterion(name: str):
    """Register a check as the next criterion, numbered in definition order.  The check
    appends what fails to the list it is given and returns its details; the registered
    function takes no argument and returns the timed CriterionResult."""

    def register(check):
        number = len(ALL_CRITERIA) + 1

        @functools.wraps(check)
        def timed() -> CriterionResult:
            started, failures = perf_counter(), []
            details = check(failures)
            return CriterionResult(number, name, not failures, details, perf_counter() - started, failures)

        ALL_CRITERIA.append(timed)
        return timed

    return register


# --- shared corpus builders ---------------------------------------------------------


def distinct_norm_elements(tower, t: int) -> list[int]:
    """Smallest element codes realizing the first t norm values 1, 2, ..."""
    if t > tower.q - 1:
        raise BadParameters(f"the norms of t = {t} twisting elements must be distinct elements of F_{tower.q}^*: "
                            f"t must be at most q - 1 = {tower.q - 1}")
    table = np.asarray(tower.norm_table)
    out = []
    for lam in range(1, t + 1):
        idx = np.nonzero(table == lam)[0]
        out.append(int(idx[0]))
    return out


def twisted_design(q: int, m: int, k: int, t: int, eta=0, s_exp: int = 1) -> de.SubspaceDesign:
    tower = tower_for(q, m)
    amb = sp.AmbientSpace(tower, k)
    alphas = distinct_norm_elements(tower, t)
    blocks = [de.full_field_block(tower)] * t
    return de.construct_twisted(amb, alphas, eta if not isinstance(eta, int) else tower.element(eta), blocks, s_exp=s_exp)


def glued_design(q: int, m: int, k: int, t: int) -> de.SubspaceDesign:
    """Maximum 1-design in V(k, q^m), k even, glued from k/2 twisted pieces."""
    if k % 2:
        raise BadParameters("glued designs need an even k")
    piece = twisted_design(q, m, 2, t)
    if k == 2:
        de.certify_max_1_design(piece)
        return piece
    out = de.direct_sum([piece] * (k // 2), s=1)
    de.certify_max_1_design(out)
    return out


def pseudoregulus_design(q: int, m: int, r: int, t: int, s_exp: int = 1) -> de.SubspaceDesign:
    tower = tower_for(q, m)
    amb = sp.AmbientSpace(tower, 2 * r)
    mus = distinct_norm_elements(tower, t)
    return de.construct_pseudoregulus(amb, s_exp, mus)


def max1_corpus() -> list[tuple[str, de.SubspaceDesign]]:
    """Every maximum 1-design the constructors reach with q in {2,3}, m in {2,3},
    k in {2,3,4} and mk even."""
    corpus: list[tuple[str, de.SubspaceDesign]] = []
    for q in (2, 3):
        for t in range(1, q):
            for m in (2, 3):
                corpus.append((f"pseudoregulus q{q} m{m} r1 t{t}", pseudoregulus_design(q, m, 1, t)))
                corpus.append((f"glued q{q} m{m} k4 t{t}", glued_design(q, m, 4, t)))
            corpus.append((f"pseudoregulus q{q} m2 r2 t{t}", pseudoregulus_design(q, 2, 2, t)))
            corpus.append((f"twisted q{q} m3 k2 t{t}", twisted_design(q, 3, 2, t)))
        corpus.append((f"field-partition q{q} m2 k3", de.construct_field_partition(q, 2, 3)))
    # deduplicate by construction name only; overlapping member sets are fine
    return corpus


def sigma_towers() -> list:
    """All towers with m >= 2 and q^m <= 3^4 from the built-in modulus range."""
    out = []
    for p, h in ((2, 1), (3, 1), (2, 2), (5, 1), (3, 2)):
        q = p**h
        m = 2
        while q**m <= 81:
            out.append(make_tower(p, h, m))
            m += 1
    return out


# --- criteria ------------------------------------------------------------------------


@criterion("headline worked example (two-weight code + SRG)")
def criterion_1(failures: list[str]) -> str:
    """Glued q=3 t=2 k=4 m=3: enumerator, SRG tuple, sweep under 60 s."""
    D = glued_design(3, 3, 4, 2)
    sweep_start = perf_counter()
    hist = de.hyperplane_weight_distribution(D)
    P = ha.ext_system(D)
    enum = ha.weight_enumerator(P)
    sweep_elapsed = perf_counter() - sweep_start
    if sum(hist.values()) != 20440:
        failures.append(f"hyperplane count {sum(hist.values())} != 20440")
    if enum != {0: 1, 675: 18928, 702: 512512}:
        failures.append(f"enumerator {enum} != 1 + 18928 z^675 + 512512 z^702")
    params = ha.srg_from_two_intersection(P)
    if params.as_tuple() != (531441, 18928, 1327, 650):
        failures.append(f"SRG {params.as_tuple()} != (531441, 18928, 1327, 650)")
    if sweep_elapsed >= 60.0:
        failures.append(f"sweep took {sweep_elapsed:.1f}s >= 60s")
    return f"enumerator {enum}; SRG {params.as_tuple()}; sweeps {sweep_elapsed:.1f}s"


@criterion("h-value closed forms across the corpus")
def criterion_2(failures: list[str]) -> str:
    """Closed-form h-values vs brute-force histograms over the whole corpus."""
    checked = 0
    for name, D in max1_corpus():
        t = D.ambient.tower
        k = D.ambient.k
        q, m = t.q, t.m
        hist = de.hyperplane_weight_distribution(D)
        lo = D.t * m * (k - 2) // 2
        h0, h1 = de.h_values(q, m, k, D.t)
        expected = {c: n for c, n in ((lo, h0), (lo + 1, h1)) if n}
        if hist != expected:
            failures.append(f"{name}: histogram {hist} != {expected}")
        two_valued = len(hist) == 2
        saturating = D.t * (q**m - 1) == (q - 1) * (q ** (m * k // 2) + 1)
        if two_valued == saturating:
            failures.append(f"{name}: two-valued={two_valued} but t-bound saturated={saturating}")
        checked += 1
    return f"{checked} maximum 1-designs checked"


@criterion("MSRD certification incl. duals")
def criterion_3(failures: list[str]) -> str:
    """Singleton equality for twisted / pseudoregulus codes and their duals."""

    cases = []
    for q in (2, 3):
        for t in range(1, q):
            cases.append((f"pseudoregulus q{q} m2 r1 t{t}", pseudoregulus_design(q, 2, 1, t)))
            cases.append((f"pseudoregulus q{q} m3 r1 t{t}", pseudoregulus_design(q, 3, 1, t)))
            for m, k in ((2, 2), (3, 2), (3, 3)):
                cases.append((f"twisted q{q} m{m} k{k} t{t} eta0", twisted_design(q, m, k, t)))
    cases.append(("twisted q3 m2 k3 t2 eta0", twisted_design(3, 2, 3, 2)))
    # admissible eta != 0 instances (q = 3; for q = 2 the norm group is everything)
    t27 = make_tower(3, 1, 3)
    t9 = make_tower(3, 1, 2)
    eta9 = distinct_norm_elements(t9, 2)[1]      # N = 2, (-1)^{km} = 1
    eta27 = distinct_norm_elements(t27, 2)[1]    # N = 2 for km even
    cases.append(("twisted q3 m2 k2 t1 eta!=0", twisted_design(3, 2, 2, 1, eta=t9.element(eta9))))
    cases.append(("twisted q3 m3 k2 t1 eta!=0", twisted_design(3, 3, 2, 1, eta=t27.element(eta27))))
    cases.append(("twisted q3 m3 k3 t1 eta!=0", twisted_design(3, 3, 3, 1, eta=t27.one())))

    duals = 0
    for name, D in cases:
        C = sr.code_from_system(D)
        d = sr.min_distance(C)
        verdict = sr.singleton_msrd(C, d=d)
        if not verdict["is_msrd"]:
            failures.append(f"{name}: not MSRD ({verdict})")
        Cd = sr.dual_code(C)
        if Cd.k == 0:
            continue  # N = k: the dual is the zero code, nothing to measure
        duals += 1
        dd = sr.min_distance(Cd)
        m = D.ambient.tower.m
        ns = C.lengths
        if ns[0] <= m:
            expect = C.N - d + 2
        else:
            expect = C.t * m - d + 2
        if dd != expect:
            failures.append(f"{name}: dual distance {dd} != {expect}")
        if not sr.singleton_msrd(Cd, d=dd)["is_msrd"]:
            failures.append(f"{name}: dual not MSRD")
    return f"{len(cases)} codes, {duals} nonzero duals"


@criterion("sigma-polynomial theorem suite")
def criterion_4(failures: list[str]) -> str:
    """Kernel/lambda-value theorem on 200 random sigma-polynomials per tower."""
    rng = np.random.default_rng(SEEDS["sigma"])
    towers = sigma_towers()
    for tower in towers:
        Q, q, m = tower.order, tower.q, tower.m
        alphas = dict(enumerate(distinct_norm_elements(tower, q - 1), 1))  # norm lam -> alpha
        for _ in range(200):
            d = int(rng.integers(1, 4))
            coeffs = [int(rng.integers(0, Q)) for _ in range(d)] + [int(rng.integers(1, Q))]
            F = sk.SigmaPoly(tower, coeffs)
            total = 0
            dims = []
            for lam, alpha in alphas.items():
                kd = sk.kernel_dim(sk.twist(F, alpha))  # certifies the Gow bound
                dlam = sk.lambda_value(F, lam, check=False)
                if kd != dlam:
                    failures.append(f"{tower}: kernel {kd} != d_lambda {dlam}")
                total += kd
                dims.append((lam, kd))
            if total > F.deg:
                failures.append(f"{tower}: sum of twist kernels {total} > degree {F.deg}")
            if total == F.deg:
                f0, fd = F.coeffs[0], F.coeffs[-1]
                if f0 == 0:
                    failures.append(f"{tower}: equality case with f0 = 0")
                    continue
                lhs = tower.norm_code(int(tower.fqm.div(f0, fd)))
                rhs = int(tower.fq.pow(tower.p - 1, F.deg * m))
                for lam, kd in dims:
                    rhs = int(tower.fq.mul(rhs, int(tower.fq.pow(lam, kd))))
                if lhs != rhs:
                    failures.append(f"{tower}: norm identity {lhs} != {rhs}")
            if failures:
                break
        if failures:
            break
    return f"{len(towers)} towers x 200 random polynomials"


@criterion("ordinary duality suite")
def criterion_5(failures: list[str]) -> str:
    """Ordinary duality: involution, dimension identity, max-1 preservation."""
    # exhaustive involution over every F_2-subspace of F_4^2
    t4 = make_tower(2, 1, 2)
    amb4 = sp.AmbientSpace(t4, 2)
    count = 0
    for r in range(5):
        for M, piv in sp.enumerate_rref_matrices(2, r, 4):
            U = sp.FqSubspace(amb4, M, piv)
            if sp.ordinary_dual(sp.ordinary_dual(U)) != U:
                failures.append(f"involution failed on {M.tolist()}")
            count += 1
    if count != 67:
        failures.append(f"F_2^4 subspace count {count} != 67")
    rng = np.random.default_rng(SEEDS["duality"])
    # sampled involution + the km-h-ms identity on random pairs
    pairs = 0
    for p, h, m, k in ((3, 1, 2, 2), (2, 1, 3, 2), (2, 2, 2, 2), (3, 1, 2, 3)):
        tower = make_tower(p, h, m)
        amb = sp.AmbientSpace(tower, k)
        for _ in range(125):
            U = sp.FqSubspace.from_expanded_rows(
                amb, rng.integers(0, tower.q, (int(rng.integers(0, amb.n_fq + 1)), amb.n_fq))
            )
            if sp.ordinary_dual(sp.ordinary_dual(U)) != U:
                failures.append(f"involution failed on random subspace in {amb}")
            W = sp.FqmSubspace.from_rows(amb, rng.integers(0, tower.order, (int(rng.integers(0, k + 1)), k)))
            lhs = sp.meet_join(sp.ordinary_dual(U), sp.fqm_dual(W))[0].dim - sp.meet_join(U, W)[0].dim
            rhs = amb.n_fq - U.dim - tower.m * W.dim
            if lhs != rhs:
                failures.append(f"km-h-ms identity: {lhs} != {rhs}")
            pairs += 1
    # dual of every constructed maximum 1-design re-certifies
    duals = 0
    for name, D in max1_corpus():
        Dd = de.dual_design(D, 1, 1)  # re-certifies maximum 1-design internally
        duals += 1
        if Dd.dims != D.dims:
            failures.append(f"{name}: dual dims changed")
    return f"67 exhaustive + {pairs} random pairs + {duals} max-1 duals"


@criterion("cutting <=> minimal")
def criterion_6(failures: list[str]) -> str:
    """Cutting <=> minimal across the desk-scale corpus."""
    corpus: list[tuple[str, de.SubspaceDesign]] = []
    for name, D in max1_corpus():
        if D.ambient.tower.order ** D.ambient.k <= 3**8:
            corpus.append((name, D))
    t4 = make_tower(2, 1, 2)
    amb4 = sp.AmbientSpace(t4, 2)
    one, zero = t4.one(), t4.zero()
    corpus.append(("basis-partition F_4^2", de.construct_basis_partition(
        amb4, [(one, zero), (zero, one)], [[1], [2]])))
    checked = 0
    for name, D in corpus:
        C = sr.code_from_system(D)
        cut = de.is_cutting(D)
        geo, _ = sr.is_minimal_code(C, method="geometric")
        pairs, _ = sr.is_minimal_code(C, method="pairs")
        if geo != cut.cutting:
            failures.append(f"{name}: geometric minimality {geo} != cutting {cut.cutting}")
        if geo != pairs:
            failures.append(f"{name}: geometric {geo} != brute-force pairs {pairs}")
        checked += 1
    baer = de.construct_field_partition(2, 2, 3)
    if not de.is_cutting(baer).cutting:
        failures.append("3 Baer subplanes of PG(2,4) must be cutting")
    pseudo = pseudoregulus_design(3, 2, 1, 2)
    if de.is_cutting(pseudo).cutting:
        failures.append("the q=3 m=2 pseudoregulus must not be cutting")
    return f"{checked} codes compared both ways"


@criterion("SRG direct check")
def criterion_7(failures: list[str]) -> str:
    """(16, 9, 4, 6) SRG from the canonical subgeometry, verified on the graph."""
    t4 = make_tower(2, 1, 2)
    amb = sp.AmbientSpace(t4, 2)
    one, zero = t4.one(), t4.zero()
    U = sp.span_fq(amb, [(one, zero), (zero, one)])
    D = de.SubspaceDesign(amb, [U])
    params = ha.srg_from_two_intersection(ha.ext_system(D), verify_graph=True)
    if params.as_tuple() != (16, 9, 4, 6):
        failures.append(f"params {params.as_tuple()} != (16, 9, 4, 6)")
    return f"params {params.as_tuple()}, 16-vertex graph verified"


@criterion("Cameron-Liebler strong design")
def criterion_8(failures: list[str]) -> str:
    """Cameron-Liebler point-pencil of PG(3,2): closed form A = 8 = brute force."""
    S, predicted = sb.cameron_liebler("point_pencil", 1, 3, 2)
    A = sb.verify_strong(S, 2)
    if predicted["A"] != 8:
        failures.append(f"closed form A {predicted['A']} != 8")
    if A != 8:
        failures.append(f"brute force A {A} != 8")
    if S.t != 7:
        failures.append(f"pencil size {S.t} != 7")
    return f"A={A} over 35 lines; predicted {predicted}"


@criterion("dimension expander")
def criterion_9(failures: list[str]) -> str:
    """q=3 m=3 k=2 t=2 expander: exhaustive dim-1 ratio >= 2 within 10 s."""
    D = twisted_design(3, 3, 2, 2)
    fam = ex.build_expander(D)
    scan_start = perf_counter()
    report = ex.expansion_check(fam, 1, target=("1/6", 2))
    scan_elapsed = perf_counter() - scan_start
    data = report.per_dim[1]
    if data["count"] != 364:
        failures.append(f"scanned {data['count']} != 364 subspaces")
    if data["min_ratio"] < 2:
        failures.append(f"min ratio {data['min_ratio']} < 2")
    if not report.verdict:
        failures.append("verdict against (1/6, 2) target failed")
    if scan_elapsed >= 10.0:
        failures.append(f"scan took {scan_elapsed:.1f}s >= 10s")
    return f"min ratio {data['min_ratio']} over 364 subspaces in {scan_elapsed:.2f}s"


@criterion("property suites")
def criterion_10(failures: list[str]) -> str:
    """Property suites: s<=A, monotonicity, Grassmann, canonicality, rank identity, Singleton."""
    # s <= A and monotonicity on every corpus design (generic s included)
    designs = [(n, D) for n, D in max1_corpus() if D.ambient.tower.order ** D.ambient.k <= 3**8]
    for name, D in designs:
        k = D.ambient.k
        flags = {}
        for s in range(1, k):
            prof = de.design_profile(D, s)
            if prof.span_dim >= s and prof.A_min < s:
                failures.append(f"{name}: A_min {prof.A_min} < s {s}")
            flags[s] = de.is_s_design(prof)
        top = max((s for s, f in flags.items() if f), default=0)
        if any(not flags[i] for i in range(1, top + 1)):
            failures.append(f"{name}: monotonicity broken ({flags})")
    # randomized suites (fixed seeds)
    rng = np.random.default_rng(SEEDS["grassmann"])
    for p, h, m, k in ((3, 1, 2, 2), (2, 1, 2, 2), (2, 1, 3, 2), (3, 1, 2, 3), (2, 2, 2, 2)):
        tower = make_tower(p, h, m)
        amb = sp.AmbientSpace(tower, k)
        for _ in range(100):
            A = sp.FqSubspace.from_expanded_rows(amb, rng.integers(0, tower.q, (int(rng.integers(0, 5)), amb.n_fq)))
            B = sp.FqSubspace.from_expanded_rows(amb, rng.integers(0, tower.q, (int(rng.integers(0, 5)), amb.n_fq)))
            sp.meet_join(A, B)  # certifies the Grassmann identity
    rng = np.random.default_rng(SEEDS["rref"])
    t9 = make_tower(3, 1, 2)
    amb9 = sp.AmbientSpace(t9, 2)
    for _ in range(100):
        vecs = rng.integers(0, 9, (3, 2))
        U1 = sp.span_fq(amb9, vecs.tolist())
        perm = rng.permutation(3)
        scals = rng.integers(1, t9.q, 3)  # F_q^* scalars keep the F_q-span
        scaled = [[int(t9.fqm.mul(int(s), int(c))) for c in vecs[i]] for i, s in zip(perm, scals)]
        U2 = sp.span_fq(amb9, scaled)
        if U1 != U2:
            failures.append("canonical RREF changed under permutation/rescaling")
        if U1.dim:
            sp.linear_set(U1)  # certifies the rank identity internally
    # Singleton bound never violated on 1000 random small codes
    rng = np.random.default_rng(SEEDS["singleton"])
    params = [(2, 1, 2), (2, 1, 3), (3, 1, 2), (3, 1, 3)]
    built = 0
    while built < 1000:
        p, h, m = params[int(rng.integers(0, len(params)))]
        tower = make_tower(p, h, m)
        k = int(rng.integers(1, 4))
        t_count = int(rng.integers(1, 4))
        lengths = sorted((int(rng.integers(1, 4)) for _ in range(t_count)), reverse=True)
        G = rng.integers(0, tower.order, (k, sum(lengths)))
        if linalg.rank(tower.fqm, np.asarray(G, dtype=DTYPE)) != k:
            continue
        C = sr.SumRankCode(tower, lengths, np.split(G, np.cumsum(lengths)[:-1], axis=1))
        d = sr.min_distance(C, method="classes")
        try:
            verdict = sr.singleton_msrd(C, d=d)
        except Exception as exc:  # InvalidDistance would mean a broken bound
            failures.append(f"singleton decomposition failed: {exc}")
            break
        if verdict["bound_log_q"] < verdict["code_log_q"]:
            failures.append(f"Singleton bound violated: {verdict}")
            break
        built += 1
    return f"{len(designs)} designs, 500 Grassmann pairs, 100 canonicality trials, {built} Singleton codes"


def run(only=None) -> list[CriterionResult]:
    return [fn() for number, fn in enumerate(ALL_CRITERIA, 1) if not only or number in only]
