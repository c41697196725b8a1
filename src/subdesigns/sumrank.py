"""Linear sum-rank metric codes and the correspondence with subspace designs.

A code is an F_{q^m}-row space of a blocked generator matrix
G = (G_1 | ... | G_t); block i of a codeword xG is measured by the
F_q-rank of its matrix expansion.  The two directions of the
code/design correspondence are `code_from_system` (columns of G_i are
an F_q-basis of member U_i) and `system_from_code`.  Weights are always
computable two ways - expansion ranks and hyperplane-section dimensions
of the associated system - and the pair is certified equal wherever both
apply.  The minimum distance and the weight spectrum scan one message
per projective class: N minus the design's cached section totals, else
the expansion ranks of ``linalg.block_ranks``, in chunks.  Every
comparison of supports is a ``linalg.base_ranks`` of the block codes
``linalg.block_codes`` forms: supp(y) lies in supp(x) exactly when the
ranks of the blocks of x, stacked with those of y, sum to wt(x).  A Delsarte
dual is always certified, its distance read off the design's own profiles:
d(C^perp) is the least s + 1 with A_min(s) >= s + 1.  A code built by
``code_from_system`` reads its design's ``digit_tables`` in block order.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from subdesigns import linalg
from subdesigns.design import (
    SubspaceDesign,
    design_profile,
    hyperplane_profile_sums,
    is_cutting,
    section_dims,
    section_spans,
)
from subdesigns.errors import (
    BadParameters,
    DegenerateCode,
    DegenerateDual,
    InvalidDistance,
    LengthProfileBroken,
    NotInvertible,
    ProfileNotSorted,
    ZeroMember,
    certify,
)
from subdesigns.fieldcore import DTYPE
from subdesigns.gf import FieldTower, code_of
from subdesigns.subspace import (
    DEFAULT_ENUMERATION_CAP,
    AmbientSpace,
    canonical_projective_reps,
    check_cap,
    fqm_dual,
    gaussian_binomial,
    span_fq,
)


class SumRankCode:
    """[(n_1, ..., n_t), k] code over F_{q^m}/F_q, lengths sorted descending."""

    _member_order = None  # for a code_from_system code, block i is member _member_order[i] of design

    def __init__(self, tower: FieldTower, lengths, blocks, design: SubspaceDesign | None = None):
        lengths = tuple(int(n) for n in lengths)
        if list(lengths) != sorted(lengths, reverse=True):
            raise ProfileNotSorted("length profile must be sorted descending")
        if any(n < 1 for n in lengths):
            raise BadParameters("block lengths must be positive")
        blocks = [np.asarray(b, dtype=DTYPE) for b in blocks]
        if not blocks or len(blocks) != len(lengths):
            raise BadParameters("one generator block per length, and at least one")
        k = blocks[0].shape[0]
        for b, n in zip(blocks, lengths):
            if b.shape != (k, n):
                raise BadParameters("generator block shape mismatch")
        self.tower = tower
        self.lengths = lengths
        self.k = k
        self.blocks = blocks
        # the associated system, once known (code_from_system, system()), whose
        # cached sections give the class weights
        self.design = design
        if linalg.rank(tower.fqm, self.generator) != k:
            raise DegenerateCode("generator must have full row rank over F_{q^m}")

    @property
    def t(self) -> int:
        return len(self.lengths)

    @property
    def N(self) -> int:
        return sum(self.lengths)

    @property
    def generator(self) -> np.ndarray:
        return np.hstack(self.blocks)

    def __repr__(self) -> str:
        return f"SumRankCode(n={list(self.lengths)}, k={self.k} over F_{self.tower.order}/F_{self.tower.q})"

    @cached_property
    def non_degenerate(self) -> bool:
        """Every block has F_q-independent columns; ranked once per code object."""
        amb = AmbientSpace(self.tower, self.k)
        return all(linalg.rank(self.tower.fq, amb.expand(b.T)) == n for b, n in zip(self.blocks, self.lengths))

    @cached_property
    def digit_tables(self) -> list[tuple[np.ndarray, int]]:
        """linalg.block_codes tables of the blocks, built on first use: those of the source
        design, in block order, for a code_from_system code, else the code's own."""
        if self._member_order is not None:
            return [self.design.digit_tables[i] for i in self._member_order]
        return linalg.digit_tables(self.tower.fqm, self.blocks)

    def system(self) -> SubspaceDesign:
        """The associated system, built once: the source design of a code_from_system
        code, whose members then come in design order, else system_from_code, kept as design."""
        if self.design is None:
            self.design = system_from_code(self)
        return self.design

    def encode(self, x) -> list[np.ndarray]:
        """Blocked codeword xG for a message vector x over F_{q^m}."""
        x = np.asarray(x, dtype=DTYPE)
        return [linalg.vecmat(self.tower.fqm, x, b) for b in self.blocks]


def code_from_system(D: SubspaceDesign) -> SumRankCode:
    """Phi: columns of block i are the canonical F_q-basis of member i."""
    if any(U.dim == 0 for U in D.members):
        raise ZeroMember("members must be nonzero to form a code")
    order = sorted(range(D.t), key=lambda i: -D.members[i].dim)
    blocks = [D.members[i].gen_block() for i in order]
    lengths = [D.members[i].dim for i in order]
    C = SumRankCode(D.ambient.tower, lengths, blocks, design=D)
    C._member_order = order
    return C


def system_from_code(C: SumRankCode) -> SubspaceDesign:
    """Psi: member i is the F_q-span of the columns of G_i."""
    if not C.non_degenerate:
        raise DegenerateCode("system of a degenerate code is undefined")
    amb = AmbientSpace(C.tower, C.k)
    members = [span_fq(amb, b.T.tolist()) for b in C.blocks]
    return SubspaceDesign(amb, members)


def _weights(C: SumRankCode, X: np.ndarray) -> np.ndarray:
    """Sum-rank weights (B,) of the codewords xG for the rows x of X (B, k)."""
    return linalg.block_ranks(C.tower.fqm, X[:, None], C.digit_tables).sum(axis=0)


def sumrank_weight(C: SumRankCode, x) -> int:
    """Sum of expansion ranks of the blocks of xG; certified equal to the geometric weight."""
    x = np.asarray(x, dtype=DTYPE)
    w = int(_weights(C, x.reshape(1, -1))[0])
    if np.any(x) and C.non_degenerate:
        geo = C.N - int(section_dims(C.system(), x.reshape(1, 1, -1)).sum())
        certify(geo == w, "direct and geometric weights disagree")
    return w


def _class_weights(C: SumRankCode, cap: int | None) -> np.ndarray:
    """The weight of xG for one message x per projective class, aligned with
    canonical_projective_reps: N minus the hyperplane-section totals of the code's
    design once it has one, else expansion ranks (degenerate blocks too)."""
    check_cap(gaussian_binomial(C.k, 1, C.tower.order), cap, "classes")
    if C.design is not None:
        return C.N - hyperplane_profile_sums(C.design, cap=cap)
    return _weights(C, canonical_projective_reps(C.tower.order, C.k))


def min_distance(C: SumRankCode, cap: int | None = DEFAULT_ENUMERATION_CAP, method: str = "classes") -> int:
    """Exact minimum distance: the least weight over projective classes of messages, from
    ``_class_weights``; "classes" is the one method."""
    if C.k == 0:
        raise InvalidDistance("the zero code has no minimum distance")
    if method != "classes":
        raise BadParameters("method must be 'classes'")
    return int(_class_weights(C, cap).min())


def singleton_msrd(C: SumRankCode, d: int) -> dict:
    """Singleton-bound decomposition of d-1 and the MSRD verdict.

    Writes d - 1 = sum_{i<j} min(m, n_i) + delta with
    0 <= delta <= min(m, n_j) - 1 and compares the bound exponent
    m * sum_{i>=j} n_i - max(m, n_j) * delta against mk = log_q |C|.
    """
    m = C.tower.m
    ns = C.lengths
    if d < 1 or d > sum(min(m, n) for n in ns):
        raise InvalidDistance(f"no valid Singleton decomposition for d={d}")
    j = None
    acc = 0
    for idx, n in enumerate(ns):
        acc += min(m, n)
        if d <= acc:
            j = idx
            break
    delta = d - 1 - sum(min(m, n) for n in ns[:j])
    certify(0 <= delta <= min(m, ns[j]) - 1, "delta must lie in [0, min(m, n_j) - 1]")
    bound_log_q = m * sum(ns[j:]) - max(m, ns[j]) * delta
    out = {
        "d": d,
        "j": j + 1,
        "delta": delta,
        "bound_log_q": bound_log_q,
        "code_log_q": m * C.k,
        "is_msrd": bound_log_q == m * C.k,
    }
    # the optimal-design inequality in its two closed regimes
    M = C.N - d
    if ns[0] <= m:
        out["optimal_bound"] = C.k - 1
        out["optimal_ok"] = M <= C.k - 1
    elif len(set(ns)) == 1 and ns[0] >= m:
        n = ns[0]
        # M <= N - tm + (m/n) k - 1, compared exactly over the integers
        out["optimal_bound_num"] = n * (C.N - C.t * m - 1) + m * C.k
        out["optimal_ok"] = n * M <= n * (C.N - C.t * m - 1) + m * C.k
    return out


def dual_code(C: SumRankCode) -> SumRankCode:
    """Dual under the blockwise dot form; dimension N - k."""
    ker = linalg.right_kernel(C.tower.fqm, C.generator)
    certify(ker.shape[0] == C.N - C.k, "the dual code must have dimension N - k")
    return SumRankCode(C.tower, C.lengths, np.split(ker, np.cumsum(C.lengths)[:-1], axis=1))


def delsarte_dual(D: SubspaceDesign, cap: int | None = DEFAULT_ENUMERATION_CAP) -> SubspaceDesign:
    """The system of the dual code; a canonical Delsarte-dual representative, certified.

    d(C^perp) = min {s + 1 : A_min(s) >= s + 1}, read off the profiles of D for s < k,
    else k + 1: a dual word of weight w is an F_{q^m}-dependence among w F_q-independent
    vectors of the members, which lie in a (w - 1)-space, and s + 1 dimensions of the
    members inside an s-space are dependent.  Every profile and the class scan of C check
    the cap before they enumerate, and all run before the dual's system is built."""
    C = code_from_system(D)
    Cd = dual_code(C)
    if Cd.k == 0:
        raise DegenerateDual("dual code is the zero code")
    if not Cd.non_degenerate:
        raise DegenerateDual("dual code has an F_q-dependent block")
    d = min_distance(C, cap=cap)
    dd = next((s + 1 for s in range(1, C.k) if design_profile(D, s, cap=cap).A_min >= s + 1), C.k + 1)
    v1, v2 = singleton_msrd(C, d=d), singleton_msrd(Cd, d=dd)
    certify(all(v["bound_log_q"] >= v["code_log_q"] for v in (v1, v2)), "both codes must obey the Singleton bound")
    m, ns, M, Md = D.ambient.tower.m, C.lengths, C.N - d, Cd.N - dd
    if m >= ns[0] or len(set(ns)) == 1:  # the two regimes in which duality keeps MSRD codes MSRD
        bound = C.N - M - 2 if m >= ns[0] else 2 * C.N - C.t * m - M - 2
        certify(Md >= bound, "Delsarte parameter inequality violated")
        certify(v1["is_msrd"] == v2["is_msrd"], "MSRD optimality must be preserved by duality")
    Dd = system_from_code(Cd)
    certify(sorted(Dd.dims) == sorted(C.lengths), "Delsarte dual must preserve the dimension multiset")
    return Dd


def is_minimal_code(
    C: SumRankCode,
    method: str = "geometric",
    cap: int | None = DEFAULT_ENUMERATION_CAP,
) -> tuple[bool, tuple | None]:
    """Minimality verdict with a violating codeword pair (x, y) on failure.

    "geometric" goes through the cutting property of the associated
    system; "pairs" compares the supports of all ordered pairs of
    projective classes of codewords.
    """
    t = C.tower
    if method == "pairs":
        check_cap(gaussian_binomial(C.k, 1, t.order) ** 2, cap, "codeword pairs")
        reps = canonical_projective_reps(t.order, C.k)
        # supp(y) <= supp(x) iff sum_i rk [S_i(x); S_i(y)] = wt(x) for the expansions
        # S_i of block i: no joint rank is below rk S_i(x), so the sums meet only when
        # every block does.  As the joint rank is also at least rk S_i(y), only pairs
        # with wt_i(y) <= wt_i(x) in every block are ranked.  The F_q digits (n_i, m)
        # of the codes of x G_i are S_i(x) transposed.
        codes = linalg.block_codes(t.fqm, reps, C.digit_tables)
        bw = np.stack([linalg.base_ranks(t.fqm, c[:, None]) for c in codes], axis=1)  # (n, t) block weights
        wt = bw.sum(axis=1)
        n = len(reps)
        for rows in linalg.chunks(n, n * C.t):  # the candidates of a slice of rows a, in row-major order
            a = np.arange(n)[rows]
            pa, pb = np.nonzero((bw[None] <= bw[a, None]).all(axis=2) & (a[:, None] != np.arange(n)))
            for part in linalg.chunks(len(pa), 2 * t.m * max(C.lengths)):
                x, y = a[pa[part]], pb[part]  # [x G_i | y G_i] per block, row j coded x u_j + (y u_j) q^m
                joint = sum(linalg.base_ranks(t.fqm, np.stack([c[x], c[y]], axis=1)) for c in codes)
                hit = np.flatnonzero(joint == wt[x])
                if hit.size:  # the first pair (x, y) in row-major order
                    return False, (np.hstack(C.encode(reps[x[hit[0]]])), np.hstack(C.encode(reps[y[hit[0]]])))
        return True, None
    if method != "geometric":
        raise BadParameters("method must be 'geometric' or 'pairs'")
    D = C.system()
    report = is_cutting(D, cap=cap)
    if report.cutting:
        return True, None
    # turn the violating hyperplane into a violating codeword pair
    u = fqm_dual(report.witness).basis[0]
    S = section_spans(D, u.reshape(1, -1))[0]
    # any v with S v = 0 and v not proportional to u gives supp(vG) <= supp(uG)
    cands = linalg.right_kernel(t.fqm, S)
    v = next((row for row in cands if linalg.rank(t.fqm, np.vstack([u, row])) == 2), None)
    certify(v is not None, "a second hyperplane through the section span must exist")
    # supp(vG) <= supp(uG) by the identity of the pairs path: sum_i rk [S_i(u); S_i(v)] = wt(u)
    codes = linalg.block_codes(t.fqm, np.stack([u, v]), C.digit_tables)  # (2, n_i) per block
    wt, joint = (sum(int(linalg.base_ranks(t.fqm, c[None, :r])[0]) for c in codes) for r in (1, 2))
    certify(joint == wt, "constructed witness must have nested supports")
    return False, (np.hstack(C.encode(u)), np.hstack(C.encode(v)))


def apply_isometry(C: SumRankCode, scalars, matrices, perm) -> SumRankCode:
    """(a, M_1..M_t, pi) acting blockwise; perm[i] is the source of new block i."""
    t = C.tower
    perm = list(perm)
    if sorted(perm) != list(range(C.t)):
        raise LengthProfileBroken("perm must be a permutation of the blocks")
    if any(C.lengths[perm[i]] != C.lengths[i] for i in range(C.t)):
        raise LengthProfileBroken("permutation must preserve the length profile")
    scalars = [code_of(a) for a in scalars]
    if len(scalars) != C.t or len(matrices) != C.t or not all(0 < a < t.order for a in scalars):
        raise BadParameters(f"need t block matrices and t nonzero scalars, codes in [1, {t.order})")
    blocks = []
    for i in range(C.t):
        M = np.asarray(matrices[i])  # checked before the int32 cast, which would truncate, wrap or overflow
        n = C.lengths[i]
        entries = [code_of(x) for x in M.reshape(-1).tolist()]
        if M.shape != (n, n) or not all(0 <= x < t.q for x in entries):
            raise NotInvertible("block matrices must be n_i x n_i over F_q")
        M = np.array(entries, dtype=DTYPE).reshape(n, n)
        if linalg.rank(t.fq, M) < n:
            raise NotInvertible("block matrix is singular over F_q")
        G = linalg.matmul(t.fqm, C.blocks[perm[i]], M)
        blocks.append(np.asarray(t.fqm.mul(scalars[i], G), dtype=DTYPE))
    return SumRankCode(t, C.lengths, blocks)


def weight_spectrum(C: SumRankCode, cap: int | None = DEFAULT_ENUMERATION_CAP) -> dict[int, int]:
    """Codeword counts per sum-rank weight (scalar classes share a weight)."""
    t = C.tower
    weights, counts = np.unique(_class_weights(C, cap), return_counts=True)
    spec: dict[int, int] = {0: 1}
    for w, n in zip(weights, counts):
        spec[int(w)] = spec.get(int(w), 0) + (t.order - 1) * int(n)
    certify(sum(spec.values()) == t.order**C.k, "the weight spectrum must count all q^(mk) codewords")
    return spec
