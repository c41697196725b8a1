"""Subspace designs: construction, brute-force certification, dualities, cutting.

A design is an ordered tuple (U_1, ..., U_t) of F_q-subspaces of
V = F_{q^m}^k.  Certification is exact enumeration: the profile at s is
the true maximum of sum_i dim_q(U_i meet W) over all s-dimensional
F_{q^m}-subspaces W, with a maximising witness (ties broken by
enumeration order).  The two ends each reduce one array built once per
design.  At s = 1 it is ``SubspaceDesign.point_dims``: dim_q(U_i meet P)
on the points P some member meets, in enumeration order (``met_point_weights``),
which ``hamming`` also reads for the Ext points.  At s = k-1 it is
``SubspaceDesign.hyperplane_dims``: dim_q(U_i meet x^perp) for every member
and canonical normal x.  A member with dim U_i >= 2m reads its row off its
ordinary dual U_i' as dim U_i - m + dim_q(U_i' meet <x>) (``point_weights``);
the others are swept as dim U_i - rk_q(x G_i).  Its column sums give the
(k-1)-profile, the histogram and the cutting totals, and ``hamming`` its point counts.  ``section_spans``
gives F_q-bases of the sections themselves, eliminated over F_{q^m}, for
the cutting test, which walks the normals in chunks, spans only those
their dims leave open and stops once it knows its answer.
Every other s reads the same identity off a closed-form basis X of W^perp:
dim_q(U_i meet W) = dim U_i - rk_q(X G_i).  The ranks rk_q(X G_i) are
``linalg.block_ranks`` of tables built once per design (``digit_tables``),
which a code built from it reads in its block order, run in
``linalg.chunks``; a code's weights are the same sweep.
``SubspaceDesign.span_dim`` is computed once per design object, like the
point and hyperplane arrays; ``MemberTuple`` is its base and strong designs'.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property, reduce
from math import gcd

import numpy as np

from subdesigns import linalg
from subdesigns.errors import (
    AmbientMismatch,
    BadExponent,
    BadParameters,
    BadPartition,
    DimensionMismatch,
    DualSpanTooSmall,
    EtaInNormGroup,
    GcdViolation,
    IncrementTooLarge,
    MixedParameters,
    NormClash,
    NotABasis,
    ParameterMismatch,
    TooFewBlocks,
    TooManyBlocks,
    certify,
)
from subdesigns.fieldcore import DTYPE, find_irreducible
from subdesigns.gf import FieldTower, check_field_size, make_tower, prime_power, small_field
from subdesigns.subspace import (
    DEFAULT_ENUMERATION_CAP,
    AmbientSpace,
    FqSubspace,
    FqmSubspace,
    check_cap,
    enumerate_fqm_subspaces,
    fqm_subspace_blocks,
    hyperplane_subspace,
    met_point_weights,
    ordinary_dual,
    point_weights,
    span_fq,
    subspace_count,
)

class MemberTuple:
    """An ordered, nonempty tuple of subspaces of one ambient; `_kind` names the design."""

    _kind = "a design"

    def __init__(self, ambient: AmbientSpace, members):
        members = tuple(members)
        if not members:
            raise BadParameters(f"{self._kind} needs at least one member")
        if any(U.ambient != ambient for U in members):
            raise AmbientMismatch("member from a different ambient")
        self.ambient = ambient
        self.members = members

    @property
    def t(self) -> int:
        return len(self.members)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(U.dim for U in self.members)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(t={self.t}, dims={list(self.dims)}, ambient={self.ambient})"


class SubspaceDesign(MemberTuple):
    """Ordered tuple of F_q-subspaces sharing one ambient space."""

    def __init__(self, ambient: AmbientSpace, members):
        super().__init__(ambient, members)
        self._point_dims = None
        self._hyperplane_dims = None
        self._cutting = None
        self._span_dim = None

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SubspaceDesign)
            and other.ambient == self.ambient
            and other.members == self.members
        )

    @cached_property
    def digit_tables(self) -> list[tuple[np.ndarray, int]]:
        """linalg.block_codes tables of the members' generator blocks, built on first use."""
        return linalg.digit_tables(self.ambient.tower.fqm, [U.gen_block() for U in self.members])

    def point_dims(self, cap: int | None = DEFAULT_ENUMERATION_CAP) -> tuple[np.ndarray, np.ndarray]:
        """(points, dims): the canonical points some member meets, shape (#P, k), in reps
        order, and dim_q(U_i meet P), shape (t, #P); built once by met_point_weights, with
        the cap on the members' q^dim vectors checked on every call."""
        for U in self.members:
            if U.dim:
                check_cap(self.ambient.tower.q**U.dim, cap, "vectors")
        if self._point_dims is None:
            pts, dims = met_point_weights(self.members)
            pts.flags.writeable = dims.flags.writeable = False
            self._point_dims = (pts, dims)
        return self._point_dims

    def hyperplane_dims(self, cap: int | None = DEFAULT_ENUMERATION_CAP) -> np.ndarray:
        """dim_q(U_i meet x^perp), shape (t, #H), rows in member order, columns in
        AmbientSpace.normals order; built once, with the cap checked on every call.

        x^perp is the trace dual of the point <x>, so a member's row is
        dim U - m + dim_q(U' meet <x>) for its ordinary dual U' (Polverino,
        Discrete Math. 310, 2010).  A member with dim U >= 2m reads it off the
        point_weights of U', whose (q^(mk - dim U) - 1)/(q - 1) lines are fewer
        than #H / q^m; the others are swept by linalg.block_ranks on their
        entries of digit_tables.  With no member swept, neither the normals
        nor the tables are built.
        """
        check_cap(subspace_count(self.ambient, 1), cap, "hyperplanes")
        if self._hyperplane_dims is None:
            m = self.ambient.tower.m
            dims = np.empty((self.t, subspace_count(self.ambient, 1)), dtype=np.int64)
            for i, U in enumerate(self.members):
                if U.dim >= 2 * m:
                    dims[i] = U.dim - m + point_weights(ordinary_dual(U))
            swept = [i for i, n in enumerate(self.dims) if n < 2 * m]
            if swept:
                tables = [self.digit_tables[i] for i in swept]
                ranks = linalg.block_ranks(self.ambient.tower.fqm, self.ambient.normals[:, None], tables)
                dims[swept] = np.array(self.dims)[swept, None] - ranks
            _keep_hyperplane_dims(self, dims)
        return self._hyperplane_dims

    def span_dim(self) -> int:
        """dim_{q^m} of the span of the members; computed once, as the members are a tuple."""
        if self._span_dim is None:
            rows = self.ambient.contract(np.vstack([U.basis for U in self.members]))
            self._span_dim = linalg.rank(self.ambient.tower.fqm, rows)
        return self._span_dim


@dataclass
class DesignProfile:
    """Exact answer to: what is the smallest A making this an (s, A) design?"""

    s: int
    A_min: int
    span_dim: int
    witness: FqmSubspace
    non_degenerate: bool


def _keep_hyperplane_dims(D: SubspaceDesign, dims: np.ndarray) -> None:
    """Keep dims as D's read-only hyperplane_dims, certified by double counting: each of the
    q^n - 1 nonzero vectors of a member of dim n lies on (Q^(k-1) - 1)/(Q - 1) hyperplanes,
    so its row's sum of q^(d_x) - 1 (a table over d <= mk) is (q^n - 1)(Q^(k-1) - 1)/(Q - 1)."""
    t, k, mk = D.ambient.tower, D.ambient.k, D.ambient.n_fq
    through = (t.order ** (k - 1) - 1) // (t.order - 1)
    vectors = t.q ** np.arange(mk + 1, dtype=np.int64) - 1
    certify(0 <= dims.min(initial=0) and dims.max(initial=0) <= mk
            and vectors[dims].sum(axis=1).tolist() == [(t.q**n - 1) * through for n in D.dims],
            "hyperplane section dims fail the count of member vectors on hyperplanes")
    dims.flags.writeable = False
    D._hyperplane_dims = dims


def section_dims(D: SubspaceDesign, X: np.ndarray) -> np.ndarray:
    """dim_q(U_i meet X_b^perp) = dim U_i - rk_q(X_b G_i) for a stack X (B, r, k), shape (t, B):
    row j of member i's F_q matrix (dim U_i, r m) holds the digits of x_l . u_j for every
    row x_l of X_b (linalg.block_ranks)."""
    return np.array(D.dims)[:, None] - linalg.block_ranks(D.ambient.tower.fqm, X, D.digit_tables)


def section_spans(D: SubspaceDesign, normals: np.ndarray) -> np.ndarray:
    """F_q-bases of the sections U_i meet x^perp as F_{q^m}-rows, shape (B, sum_i dim U_i, k).

    Per member, the rows [F_q digits of x u_j | u_j] over its basis u_j,
    with u_j as F_{q^m} codes, are eliminated over F_{q^m} on their m digit
    columns for all normals at once.  The digits are the F_{q^m} codes
    below q, so every multiplier lies in F_q and each row stays an F_q
    combination of the [x u_j | u_j].  The rows left without a pivot there
    have x u = 0, and as the rows stay independent their right parts are
    a basis of the section; the other rows are zero.  The F_{q^m}-rank of
    spans[b] is the dimension of the span of the sections.
    """
    amb = D.ambient
    F, m = amb.tower.fqm, amb.tower.m
    spans = []
    for U, codes in zip(D.members, linalg.block_codes(F, normals, D.digit_tables)):
        basis = np.broadcast_to(amb.contract(U.basis), (*codes.shape, amb.k))
        E, lead = linalg.echelon_batch(F, np.concatenate([F.to_digits(codes), basis], axis=2), stop=m)
        spans.append(np.where((lead >= m)[:, :, None], E[:, :, m:], 0))
    return np.concatenate(spans, axis=1)


def hyperplane_profile_sums(D: SubspaceDesign, cap: int | None = DEFAULT_ENUMERATION_CAP) -> np.ndarray:
    """sum_i dim_q(U_i meet H) for every hyperplane, aligned with AmbientSpace.normals."""
    return D.hyperplane_dims(cap).sum(axis=0)


def _profile_points(D: SubspaceDesign, cap) -> tuple[int, FqmSubspace]:
    """Fast s=1 path via the members' point weights: points run in enumeration order."""
    amb = D.ambient
    pts, dims = D.point_dims(cap)
    if not len(pts):
        return 0, next(enumerate_fqm_subspaces(amb, 1, cap=cap))
    totals = dims.sum(axis=0)
    i = int(np.argmax(totals))  # the first maximum keeps enumeration order
    return int(totals[i]), FqmSubspace.from_rows(amb, pts[i : i + 1])


def _profile_sections(D: SubspaceDesign, s: int, cap) -> tuple[int, FqmSubspace]:
    """Generic s: the first maximiser in enumeration order of the section totals, read off
    the W^perp basis x_f = e_f - sum_i W[i, f] e_{piv_i}, f not a pivot of the RREF block W."""
    amb = D.ambient
    best, witness = -1, None
    for W, piv in fqm_subspace_blocks(amb, s, cap=cap):
        free = [f for f in range(amb.k) if f not in piv]
        X = np.zeros((len(W), len(free), amb.k), dtype=DTYPE)
        X[:, range(len(free)), free] = 1
        X[:, :, piv] = amb.tower.fqm.neg(W[:, :, free]).swapaxes(1, 2)
        totals = section_dims(D, X).sum(axis=0)
        i = int(np.argmax(totals))  # the first maximum keeps enumeration order
        if totals[i] > best:
            best, witness = int(totals[i]), FqmSubspace(amb, W[i].copy(), piv)
    return best, witness


def design_profile(D: SubspaceDesign, s: int, cap: int | None = DEFAULT_ENUMERATION_CAP) -> DesignProfile:
    """Exact maximum intersection total over all s-dimensional F_{q^m}-subspaces."""
    amb, k = D.ambient, D.ambient.k
    if not 1 <= s <= k:
        raise DimensionMismatch(f"s must lie in [1, {k}]")
    span = D.span_dim()
    if s == 1 and (cap is None or amb.tower.q ** max(D.dims) <= cap):
        # the linear sets enumerate q^dim vectors per member; past the cap the sweep visits points
        best, witness = _profile_points(D, cap)
    elif 1 < s == k - 1:
        sums = D.hyperplane_dims(cap).sum(axis=0)
        idx = int(np.argmax(sums))  # the first maximum keeps enumeration order
        best = int(sums[idx])
        witness = hyperplane_subspace(amb, amb.normals[idx])
    else:
        best, witness = _profile_sections(D, s, cap)
    if span >= s:
        certify(best >= s, "every design with span >= s meets some W in total >= s")
    return DesignProfile(s=s, A_min=best, span_dim=span, witness=witness, non_degenerate=span == k)


def is_s_design(profile: DesignProfile) -> bool:
    return profile.span_dim >= profile.s and profile.A_min == profile.s


def max_design_dim(tower: FieldTower, k: int, s: int) -> int | None:
    mk = tower.m * k
    return mk // (s + 1) if tower.m >= s + 1 and mk % (s + 1) == 0 else None


def classify(D: SubspaceDesign, max_s: int | None = None, cap: int | None = DEFAULT_ENUMERATION_CAP) -> dict:
    """Design-hood, maximality, monotonicity, bound bookkeeping for s = 1..max_s."""
    amb, t, k = D.ambient, D.ambient.tower, D.ambient.k
    max_s = k - 1 if max_s is None else min(max_s, k - 1)
    report: dict = {"dims": list(D.dims), "t": D.t, "per_s": {}}
    design_flags = {}
    for s in range(1, max_s + 1):
        prof = design_profile(D, s, cap=cap)
        flag = is_s_design(prof)
        design_flags[s] = flag
        target = max_design_dim(t, k, s)
        is_max = flag and target is not None and all(d == target for d in D.dims)
        if is_max:
            certify(prof.non_degenerate, "maximum designs must span the whole space")
        if flag and t.m >= s + 1:
            certify(all((s + 1) * d <= t.m * k for d in D.dims), "dimension bound violated")
        report["per_s"][s] = {
            "A_min": prof.A_min,
            "span_dim": prof.span_dim,
            "is_design": flag,
            "is_maximum": is_max,
        }
    # monotonicity: an s-design is an i-design for every i <= s
    top = max((s for s, f in design_flags.items() if f), default=0)
    mono_ok = all(design_flags.get(i, False) for i in range(1, top + 1))
    report["monotonicity_ok"] = mono_ok
    certify(mono_ok, "monotonicity of designs violated; enumeration is broken")

    # t-bound for maximum 1-designs
    if report["per_s"].get(1, {}).get("is_maximum"):
        q, m = t.q, t.m
        mk = m * k
        lhs = D.t * (q**m - 1)
        rhs = (q - 1) * (q ** (mk // 2) + 1)
        report["max1_t_bound"] = {
            "t": D.t,
            "bound_num": rhs,
            "bound_den": q**m - 1,
            "satisfied": lhs <= rhs,
            "saturated": lhs == rhs,
        }
        certify(lhs <= rhs, "maximum 1-design exceeds the block-count bound")

    # equal-dimension (k-1, A) bounds: n <= m + A/t - 1 and tn <= tm + A - k + 1
    if (
        len(set(D.dims)) == 1
        and D.dims[0] >= t.m
        and (k - 1) in report["per_s"]
        and report["per_s"][k - 1]["span_dim"] >= k - 1
    ):
        A = report["per_s"][k - 1]["A_min"]
        n = D.dims[0]
        entry = {"A": A, "n": n}
        if A < D.t * t.m * (k - 1):
            # n < m + A/t, i.e. tn <= tm + A - 1 (sharp when t divides A)
            entry["n_bound"] = (t.m * D.t + A - 1) // D.t
            certify(n * D.t <= t.m * D.t + A - 1, "equal-dims bound (1) violated")
        if A * (k - 1) < D.t * t.m + (k - 2) * (k - 1):
            entry["tn_bound"] = D.t * t.m + A - k + 1
            certify(D.t * n <= D.t * t.m + A - k + 1, "equal-dims bound (2) violated")
        report["equal_dims_bounds"] = entry

    # optimality through the sum-rank Singleton bound (hyperplane regime)
    dims = sorted(D.dims, reverse=True)
    applicable = all(d <= t.m for d in dims) or (
        len(set(dims)) == 1 and dims[0] >= t.m
    )
    if applicable and all(d > 0 for d in dims) and D.span_dim() == k:
        from subdesigns import sumrank

        code = sumrank.code_from_system(D)
        d_min = sumrank.min_distance(code, cap=cap)
        verdict = sumrank.singleton_msrd(code, d=d_min)
        report["optimal"] = {
            "applicable": True,
            "min_distance": d_min,
            "is_msrd": verdict["is_msrd"],
        }
    else:
        report["optimal"] = {"applicable": False}
    return report


# --- constructions -------------------------------------------------------------


def _distinct_norms(tower: FieldTower, codes) -> list[int]:
    norms = [tower.norm_code(c) for c in codes]
    if len(set(norms)) != len(norms) or any(n == 0 for n in norms):
        raise NormClash("twist scalars must be nonzero with pairwise distinct norms")
    return norms


def construct_basis_partition(ambient: AmbientSpace, basis, partition) -> SubspaceDesign:
    """Members spanned over F_q by the blocks of a partition of an F_{q^m}-basis."""
    M = np.asarray([[int(e) for e in vec] for vec in basis], dtype=DTYPE)
    k = ambient.k
    if M.shape != (k, k) or linalg.rank(ambient.tower.fqm, M) != k:
        raise NotABasis("need k independent vectors over F_{q^m}")
    blocks = [list(block) for block in partition]
    flat = sorted(i for block in blocks for i in block)
    if len(blocks) < 2 or any(not block for block in blocks) or flat != list(range(1, k + 1)):
        raise BadPartition("partition must have >= 2 nonempty disjoint blocks covering 1..k")
    members = [span_fq(ambient, [M[i - 1] for i in block]) for block in blocks]
    return SubspaceDesign(ambient, members)


def _block_field_elements(block) -> list[int]:
    """An F_q-basis (codes) of a subspace of F_{q^m} given as a k=1 FqSubspace."""
    amb = block.ambient
    if amb.k != 1:
        raise DimensionMismatch("blocks must be subspaces of F_{q^m} itself (k = 1 ambient)")
    return [int(c) for c in amb.contract(block.basis).reshape(-1)]


def full_field_block(tower: FieldTower) -> FqSubspace:
    """F_{q^m} as an F_q-subspace of itself (the standard block for max designs)."""
    return span_fq(AmbientSpace(tower, 1), tower.y_basis[:, None].tolist())


def construct_twisted(
    ambient: AmbientSpace,
    alphas,
    eta,
    blocks,
    s_exp: int = 1,
    cap: int | None = DEFAULT_ENUMERATION_CAP,
) -> SubspaceDesign:
    """The twisted evaluation construction of (k-1)-designs.

    Member i is the image of the block S_i under
    x -> (x + eta N^k(a_i) sigma^k(x), sigma(x) N^1(a_i), ..., sigma^(k-1)(x) N^(k-1)(a_i));
    eta = 0 recovers the linearized Reed-Solomon designs.  On an F_q-basis x of S_i,
    column j is N^j(a_i) sigma^j(x), and eta times the term for j = k joins column 0.
    """
    t = ambient.tower
    k = ambient.k
    alpha_codes = [int(t.element(a)) for a in alphas]
    eta_code = int(t.element(eta))
    if len(alpha_codes) >= t.q:
        raise TooManyBlocks(f"need t < q = {t.q}")
    norms = _distinct_norms(t, alpha_codes)
    if gcd(s_exp, t.m) != 1:
        raise BadExponent("sigma exponent must be coprime to m")
    block_bases = [_block_field_elements(b) for b in blocks]
    if len(block_bases) != len(alpha_codes):
        raise BadParameters("one block per alpha")
    if sum(len(b) for b in block_bases) < k:
        raise TooFewBlocks("total block dimension must be at least k")
    if eta_code != 0:
        # the alpha norms generate the g^j of the cyclic group F_q^* with gcd(q - 1, log N(alpha_i)) | j
        step = reduce(gcd, (int(t.fq._log[n]) for n in norms), t.q - 1)
        sign = int(t.fq.pow(t.p - 1, k * t.m))
        val = int(t.fq.mul(sign, t.fq_code(t.norm_code(eta_code))))
        if t.fq._log[val] % step == 0:
            raise EtaInNormGroup("(-1)^{km} N(eta) lies in the norm subgroup")

    members = []
    for alpha, base in zip(alpha_codes, block_bases):
        cols = [t.fqm.mul(t.nsigma_code(alpha, j, s_exp), t.frob_powers[s_exp * j % t.m][base]) for j in range(k + 1)]
        cols[0] = t.fqm.add(cols[0], t.fqm.mul(eta_code, cols[k]))
        U = span_fq(ambient, np.stack(cols[:k], axis=1))
        certify(U.dim == len(base), "the evaluation map must be injective on the block")
        members.append(U)
    D = SubspaceDesign(ambient, members)
    prof = design_profile(D, k - 1, cap=cap)
    certify(prof.A_min <= k - 1, "twisted construction failed its (k-1)-design certificate")
    return D


def construct_pseudoregulus(
    ambient: AmbientSpace,
    s_exp: int,
    mus,
    cap: int | None = DEFAULT_ENUMERATION_CAP,
) -> SubspaceDesign:
    """Members {(x_1, mu_i x_1^(q^s), ..., x_r, mu_i x_r^(q^s))}; maximum 1-design."""
    t = ambient.tower
    k = ambient.k
    if k % 2:
        raise DimensionMismatch("pseudoregulus needs an even ambient dimension k = 2r")
    r = k // 2
    if gcd(s_exp, t.m) != 1:
        raise BadExponent("exponent must be coprime to m")
    mu_codes = [int(t.element(u)) for u in mus]
    _distinct_norms(t, mu_codes)
    members = []
    for mu in mu_codes:  # the pairs (x, mu sigma^s(x)) over the y^j, one block of coordinates per slot
        pair = np.stack([t.y_basis, t.fqm.mul(mu, t.frob_powers[s_exp % t.m][t.y_basis])], axis=1)
        U = span_fq(ambient, np.kron(np.eye(r, dtype=DTYPE), pair))
        certify(U.dim == r * t.m, "a pseudoregulus member must have dimension rm")
        members.append(U)
    D = SubspaceDesign(ambient, members)
    certify_max_1_design(D, cap=cap)
    on_members = (D.point_dims(cap)[1] > 0).sum(axis=0)
    certify(np.all(on_members == 1), "pseudoregulus linear sets must be pairwise disjoint")
    return D


def certify_max_1_design(D: SubspaceDesign, cap: int | None = DEFAULT_ENUMERATION_CAP) -> DesignProfile:
    t = D.ambient.tower
    mk = t.m * D.ambient.k
    certify(mk % 2 == 0 and all(d == mk // 2 for d in D.dims), "members must have dim mk/2")
    prof = design_profile(D, 1, cap=cap)
    certify(is_s_design(prof) and prof.non_degenerate, "maximum 1-design certificate failed")
    return prof


def direct_sum(designs, s: int | None = None, cap: int | None = DEFAULT_ENUMERATION_CAP) -> SubspaceDesign:
    """Member-wise direct sum; optionally re-certifies an s-design claim."""
    designs = list(designs)
    if not designs:
        raise MixedParameters("nothing to sum")
    tower = designs[0].ambient.tower
    t_count = designs[0].t
    for D in designs:
        if D.ambient.tower is not tower or D.t != t_count:
            raise MixedParameters("summands need one tower and equal t")
    k = sum(D.ambient.k for D in designs)
    amb = AmbientSpace(tower, k)
    ends = np.cumsum([D.ambient.n_fq for D in designs])
    members = []
    for i in range(t_count):  # each summand's expanded basis in its own block of columns, canonicalised once
        rows = [np.pad(D.members[i].basis, ((0, 0), (end - D.ambient.n_fq, amb.n_fq - end)))
                for D, end in zip(designs, ends)]
        members.append(FqSubspace.from_expanded_rows(amb, np.vstack(rows)))
    out = SubspaceDesign(amb, members)
    certify(out.dims == tuple(sum(D.dims[i] for D in designs) for i in range(t_count)), "direct-sum dims must add up")
    if s is not None:
        prof = design_profile(out, s, cap=cap)
        certify(is_s_design(prof), "direct sum lost the s-design property")
        target = max_design_dim(tower, k, s)
        if target is not None and all(d == target for d in out.dims):
            certify(prof.non_degenerate, "a maximum direct sum must span the whole space")
    return out


def construct_field_partition(q: int, m: int, k: int, cap: int | None = DEFAULT_ENUMERATION_CAP) -> SubspaceDesign:
    """Subgeometry-partition 1-design via multiplicative cosets in F_{q^{mk}}.

    Identifies F_{q^{mk}} with F_{q^m}^k through the basis 1, z, ..., z^(k-1)
    for the lexicographically smallest degree-k modulus over F_{q^m};
    members are c F_{q^k} for coset representatives c = g^0, g^1, ... of
    F_{q^k}^* F_{q^m}^* in F_{q^{mk}}^*.
    """
    if gcd(k, m) != 1:
        raise GcdViolation("subgeometry partitions need gcd(k, m) = 1")
    # locate the tower for F_q: q = p^h with our supported shapes
    p, h = prime_power(q)
    check_field_size(q, m * k)
    tower = make_tower(p, h, m)
    amb = AmbientSpace(tower, k)
    big = small_field(p, tower.fqm, find_irreducible(tower.fqm, k))  # codes are F_{q^m}-digit vectors
    Q = big.size
    g = big.generator_code
    e_k = (Q - 1) // (q**k - 1)
    e_m = (Q - 1) // (q**m - 1)
    t_count = gcd(e_k, e_m)
    expected = (q ** (m * k) - 1) * (q - 1) // ((q**k - 1) * (q**m - 1))
    certify(t_count == expected, "coset index does not match the closed form")
    subfield = [int(big.pow(g, e_k * j)) for j in range(q**k - 1)]  # F_{q^k}^*
    members = []
    for j in range(t_count):
        U = span_fq(amb, big.to_digits(big.mul(big.pow(g, j), subfield)))
        certify(U.dim == k, "every subgeometry must have dimension k")
        members.append(U)
    D = SubspaceDesign(amb, members)
    # partition check: every projective point covered exactly once
    pts, dims = D.point_dims(cap)
    certify(len(pts) == (q ** (m * k) - 1) // (q**m - 1) and np.all(dims.sum(axis=0) == 1),
            "subgeometries failed to partition the point set")
    return D


def enlarge(
    D: SubspaceDesign,
    s: int,
    increments,
    cap: int | None = DEFAULT_ENUMERATION_CAP,
) -> SubspaceDesign:
    """Grow members by deterministic extra vectors; (s, A) becomes (s, A + sum j_i)."""
    amb = D.ambient
    F = amb.tower.fq
    try:
        increments = [operator.index(j) for j in increments]
    except TypeError:
        raise BadParameters("increments must be integers") from None
    if len(increments) != D.t:
        raise BadParameters("one increment per member")
    if any(j < 0 or j > amb.n_fq - U.dim for j, U in zip(increments, D.members)):
        raise IncrementTooLarge("increments must fit inside the ambient dimension")
    profile = design_profile(D, s, cap=cap)
    members = []
    for U, j in zip(D.members, increments):
        basis, col = U.basis, 0
        while len(basis) < U.dim + j:  # add e_col where it leaves the span; RREF is canonical
            basis = linalg.rref(F, np.vstack([basis, np.eye(1, amb.n_fq, col, dtype=DTYPE)]))[0]
            col += 1
        members.append(FqSubspace.from_expanded_rows(amb, basis))
    out = SubspaceDesign(amb, members)
    new_prof = design_profile(out, s, cap=cap)
    certify(new_prof.A_min <= profile.A_min + sum(increments), "enlargement bound violated")
    return out


def dual_design(
    D: SubspaceDesign,
    s: int,
    A: int,
    cap: int | None = DEFAULT_ENUMERATION_CAP,
) -> SubspaceDesign:
    """Member-wise ordinary dual; declared as a (k-s, A + t(k-s)m - N) design."""
    amb = D.ambient
    k = amb.k
    duals = [ordinary_dual(U) for U in D.members]
    out = SubspaceDesign(amb, duals)
    if out.span_dim() < k - s:
        raise DualSpanTooSmall("dual members span too little for the duality statement")
    declared = A + D.t * (k - s) * amb.tower.m - D.total_dim
    prof = design_profile(out, k - s, cap=cap)
    if prof.A_min > declared:  # the bound holds whenever D is an (s, A) design: check the declared A first
        least = design_profile(D, s, cap=cap).A_min
        if A < least:
            raise ParameterMismatch(f"A = {A} is below the input design's A_min = {least} at s = {s}")
    certify(prof.A_min <= declared, "ordinary duality parameter bound violated")
    mk = amb.tower.m * k
    if mk % 2 == 0 and all(d == mk // 2 for d in D.dims):
        if is_s_design(design_profile(D, 1, cap=cap)):
            certify_max_1_design(out, cap=cap)
    return out


def hyperplane_weight_distribution(D: SubspaceDesign, cap: int | None = DEFAULT_ENUMERATION_CAP) -> dict[int, int]:
    """Histogram c -> #{H : sum_i dim(U_i meet H) = c} over all hyperplanes.

    For a maximum 1-design the histogram is checked on the spot against
    the two-point support and the closed-form counts.
    """
    sums = hyperplane_profile_sums(D, cap=cap)  # totals of at most t mk: counted, not sorted
    hist = {v: c for v, c in enumerate(np.bincount(sums).tolist()) if c}
    t, k, mk = D.ambient.tower, D.ambient.k, D.ambient.n_fq
    if mk % 2 == 0 and all(d == mk // 2 for d in D.dims) and D.span_dim() == k:
        lo = D.t * t.m * (k - 2) // 2
        if max(hist) <= lo + 1:
            # by the hyperplane characterization this IS a maximum 1-design
            h0, h1 = h_values(t.q, t.m, k, D.t)
            certify(set(hist) <= {lo, lo + 1}, "a maximum 1-design has exactly two hyperplane totals")
            certify(hist.get(lo, 0) == h0 and hist.get(lo + 1, 0) == h1,
                    f"histogram {hist} does not match the closed form (h0={h0}, h1={h1})")
    return hist


def h_values(q: int, m: int, k: int, t: int) -> tuple[int, int]:
    """Closed-form counts (h0, h1) of low/high hyperplanes of a maximum 1-design."""
    if (m * k) % 2:
        raise BadParameters("mk must be even")
    mk2 = m * k // 2
    mkm2 = m * (k - 2) // 2
    num = t * ((q**mk2 - 1) * (q ** (m * (k - 1)) - 1) - (q**mkm2 - 1) * (q ** (m * k) - 1))
    den = (q**m - 1) * (q - 1) * q**mkm2
    certify(num % den == 0, "h1 closed form must be an integer")
    h1 = num // den
    h0 = (q ** (m * k) - 1) // (q**m - 1) - h1
    return h0, h1


# Normals whose sections is_cutting spans and ranks in one go.  It bounds the
# work done past the first violating hyperplane (1,024 doubles the time on a
# design over F_6561), while much smaller chunks slow a full sweep down.
CUTTING_CHUNK = 256


@dataclass(frozen=True)
class CuttingReport:
    cutting: bool
    witness: FqmSubspace | None
    intersection_constant: bool
    constant_value: int | None


def is_cutting(D: SubspaceDesign, cap: int | None = DEFAULT_ENUMERATION_CAP) -> CuttingReport:
    """Do the members' hyperplane sections always span the hyperplane?

    Also reports whether the total section dimension is constant across
    hyperplanes (a sufficient condition, cross-checked when it holds).
    The witness, when any, is the first violating hyperplane in
    enumeration order.  The normals go in CUTTING_CHUNK chunks, with the
    section dims of each read off the design's hyperplane_dims when it
    has them, else swept for the chunk alone.  Dims totalling less than
    k - 1 cannot span, and a section of F_q-dim above m(k - 2) fits in no
    (k - 2)-dim F_{q^m}-space, so only the other normals (none for k = 2)
    have their section spans ranked.  The walk stops once it holds a
    witness and two different totals.  A walk to the end keeps
    its dims as the design's hyperplane_dims.  The report is built once
    per design object, with the cap checked on every call.
    """
    amb = D.ambient
    check_cap(subspace_count(amb, 1), cap, "hyperplanes")
    if D._cutting is None:
        normals = amb.normals
        cached = D._hyperplane_dims
        chunks, witness, constant = [], None, True
        for lo in range(0, len(normals), CUTTING_CHUNK):
            part = normals[lo : lo + CUTTING_CHUNK]
            chunks.append(section_dims(D, part[:, None]) if cached is None else cached[:, lo : lo + CUTTING_CHUNK])
            sums = chunks[-1].sum(axis=0)
            if not lo:
                first = int(sums[0])
            constant = constant and bool((sums == first).all())
            if witness is None:  # decided by the dims, else by the rank of the section span
                bad = sums < amb.k - 1
                open_ = np.flatnonzero(~bad & (chunks[-1].max(axis=0) <= amb.tower.m * (amb.k - 2)))
                if open_.size:
                    bad[open_] = linalg.rank_batch(amb.tower.fqm, section_spans(D, part[open_])) != amb.k - 1
                if bad.any():  # the first violating normal keeps enumeration order
                    witness = hyperplane_subspace(amb, part[int(np.argmax(bad))])
            if witness is not None and not constant:
                break
        else:  # a walk to the end swept every normal: one sweep per design
            if cached is None:
                _keep_hyperplane_dims(D, np.concatenate(chunks, axis=1))
        if constant and first > 0:
            certify(witness is None, "constant positive intersection must imply cutting")
        D._cutting = CuttingReport(
            cutting=witness is None,
            witness=witness,
            intersection_constant=constant,
            constant_value=first if constant else None,
        )
    return D._cutting
