import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from subdesigns import design as de
from subdesigns import expander as ex
from subdesigns import hamming as ha
from subdesigns import cli, linalg, subspace
from subdesigns import formats as fmt
from subdesigns import sumrank as sr
from subdesigns.errors import (
    AmbientMismatch,
    BadExponent,
    BadParameters,
    BadPartition,
    DimensionMismatch,
    DualSpanTooSmall,
    EnumerationCapExceeded,
    EtaInNormGroup,
    GcdViolation,
    IncrementTooLarge,
    MixedParameters,
    NormClash,
    NotABasis,
    ParameterMismatch,
    TooFewBlocks,
    TooManyBlocks,
)
from subdesigns.fieldcore import DTYPE
from subdesigns.gf import make_tower
from subdesigns.repro import distinct_norm_elements, glued_design, max1_corpus, pseudoregulus_design, twisted_design
from subdesigns.skewpoly import SigmaPoly, lambda_value, twist
from subdesigns.subspace import (
    AmbientSpace,
    FqmSubspace,
    FqSubspace,
    enumerate_fqm_subspaces,
    fqm_dual,
    hyperplane_subspace,
    linear_set,
    meet_join,
    span_fq,
)
from test_linalg import RANK_TOWERS
from test_subspace import in_reps_order, oracle_linear_set


@pytest.fixture(scope="module")
def pseudo9():
    return pseudoregulus_design(3, 2, 1, 2)


def test_pseudoregulus_profile(pseudo9):
    prof = de.design_profile(pseudo9, 1)
    assert prof.A_min == 1 and prof.non_degenerate
    assert prof.witness.dim == 1


def test_basis_partition(f4=None):
    t = make_tower(2, 1, 2)
    amb = AmbientSpace(t, 2)
    one, zero = t.one(), t.zero()
    D = de.construct_basis_partition(amb, [(one, zero), (zero, one)], [[1], [2]])
    assert de.design_profile(D, 1).A_min == 1
    with pytest.raises(BadPartition):
        de.construct_basis_partition(amb, [(one, zero), (zero, one)], [[1, 2], []])
    with pytest.raises(NotABasis):
        de.construct_basis_partition(amb, [(one, zero), (one, zero)], [[1], [2]])
    # F_8^3 basis partition {{1,2},{3}} is a (k-1)-design with dims (2,1)
    t8 = make_tower(2, 1, 3)
    amb8 = AmbientSpace(t8, 3)
    e = np.eye(3, dtype=int).tolist()
    D8 = de.construct_basis_partition(amb8, e, [[1, 2], [3]])
    assert D8.dims == (2, 1)
    prof = de.design_profile(D8, 2)  # 73 hyperplanes of PG(2,8)
    assert prof.A_min == 2


def test_single_expanded_line_profile():
    t = make_tower(2, 1, 2)
    amb = AmbientSpace(t, 2)
    line = FqmSubspace.from_rows(amb, [[1, 0]]).expand_fq()
    prof = de.design_profile(de.SubspaceDesign(amb, [line]), 1)
    assert prof.A_min == 2
    assert prof.witness.basis.tolist() == [[1, 0]]


def test_twisted_maximum_and_pseudoregulus_equality(pseudo9):
    T = twisted_design(3, 2, 2, 2)
    de.certify_max_1_design(T)
    assert set(T.members) == set(pseudo9.members)


def test_twisted_preconditions():
    t = make_tower(3, 1, 2)
    amb = AmbientSpace(t, 2)
    blocks = [de.full_field_block(t)] * 2
    with pytest.raises(NormClash):
        de.construct_twisted(amb, [t.one(), t.element(2)], t.zero(), blocks)  # N(2)=4=1
    with pytest.raises(TooManyBlocks):
        de.construct_twisted(amb, [t.one()] * 3, t.zero(), [de.full_field_block(t)] * 3)
    # eta in the norm subgroup is rejected: t=2 makes G = F_q^*
    a2 = t.element("i+1")
    with pytest.raises(EtaInNormGroup):
        de.construct_twisted(amb, [t.one(), a2], t.one(), blocks)


@pytest.mark.parametrize("key,norms", [((5, 1, 2), [4]), ((7, 1, 2), [2]), ((7, 1, 2), [6, 1]), ((2, 2, 2), [1]),
                                       ((3, 2, 2), [2]), ((3, 2, 2), [8])])
def test_twisted_eta_check_matches_the_norm_closure(key, norms):
    # EtaInNormGroup exactly when (-1)^(km) N(eta) lies in the closure of the alpha norms under products
    t, k = make_tower(*key), 2
    alphas = [next(c for c in range(1, t.order) if t.norm_code(c) == n) for n in norms]
    group = {1}
    while (grown := group | {int(t.fq.mul(g, n)) for g in group for n in norms}) != group:
        group = grown
    sign = int(t.fq.pow(t.p - 1, k * t.m))
    for eta in range(1, t.order):
        build = lambda: de.construct_twisted(AmbientSpace(t, k), alphas, eta, [de.full_field_block(t)] * len(alphas))
        if int(t.fq.mul(sign, t.norm_code(eta))) in group:
            with pytest.raises(EtaInNormGroup):
                build()
        else:
            assert build().dims == (t.m,) * len(alphas)


def test_twisted_blocks_of_total_dimension_below_k_are_too_few():
    t = make_tower(3, 1, 2)
    with pytest.raises(TooFewBlocks):
        de.construct_twisted(AmbientSpace(t, 3), [1], 0, [span_fq(AmbientSpace(t, 1), [[1]])])


def test_twisted_with_proper_blocks():
    # blocks may be proper subspaces of F_{q^m}; dims follow the blocks
    t = make_tower(3, 1, 3)
    amb = AmbientSpace(t, 2)
    amb1 = AmbientSpace(t, 1)
    S1 = span_fq(amb1, [[1], [t.q]])  # <1, y> over F_3
    S2 = de.full_field_block(t)
    D = de.construct_twisted(amb, [t.one(), t.element(2)], t.zero(), [S1, S2])
    assert D.dims == (2, 3)
    assert de.design_profile(D, 1).A_min == 1


def test_twisted_k3_m3():
    D = twisted_design(3, 3, 3, 2)  # sweep of 757 hyperplanes of PG(2,27)
    prof = de.design_profile(D, 2)
    assert prof.A_min == 2 and prof.non_degenerate
    rep = de.classify(D)
    assert rep["per_s"][2]["is_maximum"]


def test_direct_sum(pseudo9):
    DS = de.direct_sum([pseudo9, pseudo9], s=1)
    assert DS.dims == (4, 4)
    de.certify_max_1_design(DS)
    with pytest.raises(MixedParameters):
        de.direct_sum([pseudo9, twisted_design(3, 2, 2, 1)])
    # summing with a single-member design of matching t concatenates ambients
    A = twisted_design(3, 2, 2, 1)
    t = A.ambient.tower
    amb1 = AmbientSpace(t, 1)
    B = de.SubspaceDesign(amb1, [span_fq(amb1, [[1]])])
    out = de.direct_sum([A, B])
    assert out.ambient.k == 3 and out.dims == (A.dims[0] + 1,)
    # the member is spanned by each summand's member placed in its own coordinates
    for left, right in ((A, B), (B, A)):
        rows = [r + [0] * right.ambient.k for r in left.ambient.contract(left.members[0].basis).tolist()]
        rows += [[0] * left.ambient.k + r for r in right.ambient.contract(right.members[0].basis).tolist()]
        out = de.direct_sum([left, right])
        assert out.members[0] == span_fq(out.ambient, rows)


def test_pseudoregulus_preconditions():
    t = make_tower(3, 1, 2)
    amb = AmbientSpace(t, 2)
    with pytest.raises(NormClash):
        de.construct_pseudoregulus(amb, 1, [t.one(), t.element(2)])
    with pytest.raises(BadExponent):
        de.construct_pseudoregulus(amb, 2, [t.one()])
    t8 = make_tower(2, 1, 3)
    D = de.construct_pseudoregulus(AmbientSpace(t8, 2), 1, [t8.one()])
    assert D.dims == (3,)  # scattered dim 3 in F_8^2


def test_field_partition():
    D = de.construct_field_partition(2, 2, 3)
    assert D.t == 3 and D.dims == (3, 3, 3)
    D9 = de.construct_field_partition(3, 2, 3)
    assert D9.t == 7
    with pytest.raises(GcdViolation):
        de.construct_field_partition(2, 2, 2)
    # gcd(k, m) = 1 with m = 3: a plain (non-maximum) 1-design
    D8 = de.construct_field_partition(2, 3, 2)
    assert D8.t == 3 and D8.dims == (2, 2, 2)
    assert de.design_profile(D8, 1).A_min == 1


def test_enlarge(pseudo9):
    same = de.enlarge(pseudo9, 1, [0, 0])
    assert same.dims == pseudo9.dims
    E = de.enlarge(pseudo9, 1, [1, 0])
    assert E.dims == (3, 2)
    assert de.design_profile(E, 1).A_min == 2
    with pytest.raises(IncrementTooLarge):
        de.enlarge(pseudo9, 1, [3, 0])


def _looped_enlarge(D, increments):
    """Oracle of enlarge's members: per member, the unit vectors e_0, e_1, ... in turn, each kept
    when it raises the rank, until j of them are kept."""
    out = []
    for U, j in zip(D.members, increments):
        rows = list(U.basis)
        for e in np.eye(D.ambient.n_fq, dtype=DTYPE):
            if len(rows) == U.dim + j:
                break
            if linalg.rank(D.ambient.tower.fq, np.array(rows + [e])) > len(rows):
                rows.append(e)
        out.append(FqSubspace.from_expanded_rows(D.ambient, np.array(rows, dtype=DTYPE).reshape(-1, D.ambient.n_fq)))
    return out


@pytest.mark.parametrize("make,increments", [
    (lambda: pseudoregulus_design(3, 2, 1, 2), [1, 2]),
    (lambda: twisted_design(3, 2, 2, 1), [2]),
    (lambda: de.construct_field_partition(2, 2, 3), [1, 0, 3]),
    (lambda: de.construct_field_partition(2, 3, 2), [4, 1, 0]),
])
def test_enlarge_matches_the_looped_unit_vectors(make, increments):
    D = make()
    assert de.enlarge(D, 1, increments).members == tuple(_looped_enlarge(D, increments))


def test_designs_share_one_member_tuple_base():
    from subdesigns.strongbridge import StrongSubspaceDesign

    amb = AmbientSpace(make_tower(3, 1, 2), 2)
    other = AmbientSpace(amb.tower, 3)
    for cls, noun in ((de.SubspaceDesign, "a design"), (StrongSubspaceDesign, "a strong design")):
        assert issubclass(cls, de.MemberTuple)
        with pytest.raises(BadParameters, match=f"^{noun} needs at least one member$"):
            cls(amb, iter([]))
        W = FqmSubspace.from_rows(amb, [[1, 0]])
        with pytest.raises(AmbientMismatch, match="^member from a different ambient$"):
            cls(amb, [W, FqmSubspace.from_rows(other, [[1, 0, 0]])])
        S = cls(amb, (X for X in [W, W.expand_fq()]))
        assert S.t == 2 and S.dims == (1, 2)
        assert repr(S) == f"{cls.__name__}(t=2, dims=[1, 2], ambient=AmbientSpace(F_9^2))"


@pytest.mark.parametrize("call", [
    lambda: SigmaPoly(make_tower(3, 1, 2), [1.7, 2.2]),  # read as (1, 2)
    lambda: twist(SigmaPoly(make_tower(3, 1, 2), [1, 2]), 1.9),  # a twist by 1
    lambda: lambda_value(SigmaPoly(make_tower(3, 1, 2), [1, 2]), 1.5),  # the value for lambda = 1
    lambda: ex.build_expander(twisted_design(3, 3, 2, 2), beta=[1.2, 3.9, 9.5]),  # beta (1, 3, 9)
    lambda: de.enlarge(twisted_design(3, 2, 2, 1), 1, [1.5]),  # two added vectors
], ids=["sigma-poly", "twist", "lambda-value", "expander-beta", "enlarge"])
def test_float_codes_are_refused_not_truncated(call):
    with pytest.raises(BadParameters, match="integer"):
        call()


def test_dual_design(pseudo9):
    DD = de.dual_design(pseudo9, 1, 1)
    de.certify_max_1_design(DD)
    assert de.dual_design(DD, 1, 1).members == pseudo9.members  # involution
    t = make_tower(2, 1, 2)
    amb = AmbientSpace(t, 2)
    one, zero = t.one(), t.zero()
    BP = de.construct_basis_partition(amb, [(one, zero), (zero, one)], [[1], [2]])
    # declared (k-s, A + t(k-s)m - N) = (1, 1 + 2*1*2 - 2) = (1, 3); sharp here
    BPD = de.dual_design(BP, 1, 1)
    assert BPD.dims == (3, 3)
    assert de.design_profile(BPD, 1).A_min == 3


def test_dual_of_the_whole_space_spans_too_little():
    amb = AmbientSpace(make_tower(3, 1, 2), 2)
    whole = FqSubspace.from_expanded_rows(amb, np.eye(amb.n_fq, dtype=DTYPE))
    with pytest.raises(DualSpanTooSmall):
        de.dual_design(de.SubspaceDesign(amb, [whole]), 1, 4)


def test_span_dim_of_zero_members_is_zero():
    amb = AmbientSpace(make_tower(3, 1, 2), 2)
    assert de.SubspaceDesign(amb, [span_fq(amb, [])] * 2).span_dim() == 0


def test_dual_design_blames_a_declared_A_below_A_min():
    D = glued_design(2, 2, 4, 1)
    assert de.design_profile(D, 2).A_min == 2
    with pytest.raises(ParameterMismatch, match="A_min = 2"):
        de.dual_design(D, 2, 1)
    assert de.dual_design(D, 2, 2).dims == tuple(8 - d for d in D.dims)


def test_hyperplane_histogram(pseudo9):
    hist = de.hyperplane_weight_distribution(pseudo9)
    h0, h1 = de.h_values(3, 2, 2, 2)
    assert hist == {0: h0, 1: h1} and h0 + h1 == 10
    # t = 1 subgeometry in F_4^2: support {0, 1}
    t = make_tower(2, 1, 2)
    amb = AmbientSpace(t, 2)
    one, zero = t.one(), t.zero()
    U = span_fq(amb, [(one, zero), (zero, one)])
    hist = de.hyperplane_weight_distribution(de.SubspaceDesign(amb, [U]))
    assert hist == {0: 2, 1: 3}


def test_histogram_closed_form_glued_k4():
    D = glued_design(3, 3, 4, 2)
    hist = de.hyperplane_weight_distribution(D)
    assert hist == {6: 19712, 7: 728}


def test_is_cutting(pseudo9):
    baer = de.construct_field_partition(2, 2, 3)
    rep = de.is_cutting(baer)
    assert rep.cutting and rep.intersection_constant and rep.constant_value == 4
    rep2 = de.is_cutting(pseudo9)
    assert not rep2.cutting and rep2.witness is not None
    # witness is genuinely uncovered: both members miss it
    t = make_tower(2, 1, 2)
    amb = AmbientSpace(t, 2)
    single = de.SubspaceDesign(amb, [span_fq(amb, [(t.one(), t.zero())])])
    assert not de.is_cutting(single).cutting


def test_cutting_verdict_is_computed_once_per_design(monkeypatch, pseudo9):
    # the report is cached next to the hyperplane sections: a second call and the geometric
    # minimality test read it without spanning any section, and the cap is still checked
    baer = de.construct_field_partition(2, 2, 3)
    reports = [(D, de.is_cutting(D)) for D in (baer, pseudo9)]
    calls = []
    spans = de.section_spans
    monkeypatch.setattr(de, "section_spans", lambda *args: calls.append(args) or spans(*args))
    for D, report in reports:
        assert de.is_cutting(D) is report
        with pytest.raises(EnumerationCapExceeded):
            de.is_cutting(D, cap=3)
    assert sr.is_minimal_code(sr.code_from_system(baer), method="geometric") == (True, None)
    assert calls == []


def _first_uncut_normal(D):
    """Looped oracle: index of the first normal whose sections, one right_kernel
    per member, span less than x^perp; None for a cutting design."""
    amb = D.ambient
    t = amb.tower
    for b, x in enumerate(amb.normals):
        rows = []
        for U in D.members:
            if U.dim:
                digs = t.fqm.to_digits(linalg.matmul(t.fqm, x.reshape(1, -1), U.gen_block()))[0]
                ker = linalg.right_kernel(t.fq, digs.T)
                if ker.shape[0]:
                    rows.append(linalg.matmul(t.fq, ker, U.basis))
        S = amb.contract(np.vstack(rows)) if rows else np.zeros((0, amb.k), dtype=DTYPE)
        if linalg.rank(t.fqm, S) != amb.k - 1:
            return b
    return None


def _moved(D, seed):
    """D under a seeded random change of coordinates v -> v g, g in GL(k, q^m)."""
    amb = D.ambient
    t = amb.tower
    rng = np.random.default_rng(seed)
    while True:
        g = rng.integers(0, t.order, (amb.k, amb.k))
        if linalg.rank(t.fqm, g) == amb.k:
            break
    return de.SubspaceDesign(amb, [FqSubspace.from_expanded_rows(
        amb, amb.expand(linalg.matmul(t.fqm, amb.contract(U.basis), g))) for U in D.members])


def test_cutting_witness_matches_looped_sections():
    glued = glued_design(3, 2, 4, 2)
    amb = glued.ambient
    placed = []
    for seed in (0, 1, 448, 580):
        D = _moved(glued, seed)
        b = _first_uncut_normal(D)
        rep = de.is_cutting(D)
        assert not rep.cutting and rep.witness == hyperplane_subspace(amb, amb.normals[b])
        placed.append(b)
    assert max(placed) >= de.CUTTING_CHUNK  # a witness past the first chunk of normals
    baer = de.construct_field_partition(2, 2, 3)
    assert _first_uncut_normal(baer) is None and de.is_cutting(baer).cutting
    # a 0-dimensional member contributes no section rows
    U = span_fq(amb, [])
    for D in (de.SubspaceDesign(amb, [glued.members[0], U]), de.SubspaceDesign(amb, [U])):
        b = _first_uncut_normal(D)
        assert de.is_cutting(D).witness == hyperplane_subspace(amb, amb.normals[b])


def _full_sweep_report(D):
    """Oracle: the report from every normal's span rank at once and np.unique of the totals."""
    amb = D.ambient
    normals = amb.normals
    sums = D.hyperplane_dims().sum(axis=0)
    bad = np.flatnonzero(linalg.rank_batch(amb.tower.fqm, de.section_spans(D, normals)) != amb.k - 1)
    witness = hyperplane_subspace(amb, normals[bad[0]]) if bad.size else None
    constant = len(np.unique(sums)) == 1
    return de.CuttingReport(witness is None, witness, constant, int(sums[0]) if constant else None)


def _fresh(D):
    return de.SubspaceDesign(D.ambient, D.members)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_chunked_cutting_matches_the_full_sweep(seed):
    # a fresh design stops at its answer, one with cached sections reads them chunk by chunk,
    # and both give the full sweep's witness, constancy and constant value
    from subdesigns.repro import max1_corpus

    designs = [glued_design(3, 2, 4, 2), glued_design(3, 3, 4, 2)]
    designs += [D for _, D in max1_corpus() if D.ambient.tower.order ** D.ambient.k <= 4096]
    for D in designs:
        D = _moved(D, 100 * seed + D.ambient.tower.order)
        swept = _fresh(D)
        swept.hyperplane_dims()
        want = _full_sweep_report(swept)
        assert de.is_cutting(_fresh(D)) == de.is_cutting(swept) == want


def test_cutting_stops_at_its_answer(monkeypatch):
    # an early witness on a design with two totals: no section_dims call reaches past its chunk
    glued = glued_design(3, 3, 4, 2)
    D = _fresh(glued)
    rows = []
    dims = de.section_dims
    monkeypatch.setattr(de, "section_dims", lambda D, X: rows.append(len(X)) or dims(D, X))
    rep = de.is_cutting(D)
    assert not rep.cutting and not rep.intersection_constant
    assert rows and max(rows) <= de.CUTTING_CHUNK and sum(rows) < len(D.ambient.normals)
    assert D._hyperplane_dims is None


def test_completed_cutting_walk_caches_the_sections(monkeypatch):
    # a cutting field partition and a design of one 0-dimensional member (constant zero totals,
    # a witness at normal 0) walk every normal, so a later histogram makes no rank call
    baer = _fresh(de.construct_field_partition(2, 2, 3))
    amb = AmbientSpace(make_tower(3, 1, 2), 3)
    empty = de.SubspaceDesign(amb, [span_fq(amb, [])])
    reports = [de.is_cutting(baer), de.is_cutting(empty)]
    assert reports[0] == de.CuttingReport(True, None, True, 4)
    assert reports[1] == de.CuttingReport(False, hyperplane_subspace(amb, amb.normals[0]), True, 0)
    calls = []
    for name in ("rank_codes", "rank_batch", "block_codes"):
        fn = getattr(linalg, name)
        monkeypatch.setattr(linalg, name, lambda *args, fn=fn: calls.append(args) or fn(*args))
    assert de.hyperplane_weight_distribution(baer) == {4: 21}
    assert de.hyperplane_weight_distribution(empty) == {0: len(amb.normals)}
    assert calls == []


def _fq_expanded_spans(D, normals):
    """Oracle: the section spans eliminated over F_q on [F_q digits of x u_j | u_j expanded]."""
    amb = D.ambient
    m = amb.tower.m
    spans = []
    for U, codes in zip(D.members, linalg.block_codes(amb.tower.fqm, normals, D.digit_tables)):
        digits = amb.tower.fqm.to_digits(codes)
        rows = np.concatenate([digits, np.broadcast_to(U.basis, (*codes.shape, amb.n_fq))], axis=2)
        E, lead = linalg.echelon_batch(amb.tower.fq, rows, stop=m)
        spans.append(np.where((lead >= m)[:, :, None], E[:, :, m:], 0))
    return amb.contract(np.concatenate(spans, axis=1))


@pytest.mark.parametrize("key", RANK_TOWERS)
def test_section_spans_match_the_fq_expanded_elimination(key):
    # eliminated over F_{q^m} with multipliers in F_q, the spans are the same vectors, row for row
    t = make_tower(*key)
    k = 3 if t.order <= 64 else 2
    amb = AmbientSpace(t, k)
    rng = np.random.default_rng(sum(key))
    members = [FqSubspace.from_expanded_rows(amb, rng.integers(0, t.q, (n, amb.n_fq))) for n in (0, 1, t.m, amb.n_fq - 1)]
    D = de.SubspaceDesign(amb, members)
    normals = amb.normals
    normals = normals[rng.choice(len(normals), min(len(normals), 300), replace=False)]
    spans = de.section_spans(D, normals)
    assert spans.shape == (len(normals), D.total_dim, k)
    assert np.array_equal(spans, _fq_expanded_spans(D, normals))


@pytest.mark.parametrize("cells", [1, 150, 300, 690, 1095, 1 << 16])
def test_section_dims_in_chunks_match_one_shot(monkeypatch, cells):
    # chunks of one matrix stack, chunk ends inside and at the end of the 73 normals and the 23
    # stacks of two rows (r m max_i dim U_i = 15 or 30 cells per stack), 0-dimensional members,
    # and stacks with no matrices or no rows
    t = make_tower(2, 1, 3)
    amb = AmbientSpace(t, 3)
    rng = np.random.default_rng(3)
    members = [FqSubspace.from_expanded_rows(amb, rng.integers(0, 2, (n, 9))) for n in (0, 2, 5)]
    D = de.SubspaceDesign(amb, members)
    assert D.dims == (0, 2, 5)
    stacks = [amb.normals[:, None], rng.integers(0, 8, (23, 2, 3)),
              np.zeros((0, 1, 3), dtype=DTYPE), np.zeros((5, 0, 3), dtype=DTYPE)]
    monkeypatch.setattr(linalg, "RANK_CELLS", 1 << 40)
    want = [de.section_dims(D, X) for X in stacks]
    monkeypatch.setattr(linalg, "RANK_CELLS", cells)
    for X, dims in zip(stacks, want):
        got = de.section_dims(D, X)
        assert got.shape == (3, len(X)) and got.dtype == dims.dtype and np.array_equal(got, dims)
    assert want[3].tolist() == [[d] * 5 for d in D.dims]  # no rows: X^perp is the whole space


def test_design_certificate_survives_python_O():
    # a maximum 1-design certificate must refuse members of the wrong dimension with asserts stripped
    check = (
        "from subdesigns import design as de\n"
        "from subdesigns.gf import make_tower\n"
        "from subdesigns.subspace import AmbientSpace, span_fq\n"
        "t = make_tower(3, 1, 2)\n"
        "amb = AmbientSpace(t, 2)\n"
        "de.certify_max_1_design(de.SubspaceDesign(amb, [span_fq(amb, [(1, 0)])]))\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", check], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert "CertificateFailed: members must have dim mk/2" in proc.stderr


def test_witnesses_keep_enumeration_order(pseudo9):
    # A_min and the first maximising W / first non-cut hyperplane in enumeration order
    for D, A in ((glued_design(2, 2, 4, 1), 2), (glued_design(2, 3, 4, 1), 3), (pseudoregulus_design(2, 2, 2, 1), 2)):
        prof = de.design_profile(D, 2)
        assert (prof.A_min, prof.witness.basis.tolist()) == (A, [[1, 0, 0, 0], [0, 1, 0, 0]])
        whole = de.design_profile(D, 4)  # the one 4-subspace: the identity, meeting every member fully
        assert (whole.A_min, whole.witness.basis.tolist()) == (D.total_dim, np.eye(4, dtype=int).tolist())
    assert de.is_cutting(pseudo9).witness.basis.tolist() == [[0, 1]]


@pytest.mark.parametrize("m,seed", [(2, 2), (3, 3)])
def test_generic_profile_matches_looped_meets(m, seed):
    # the first maximiser in enumeration order of sum_i dim(U_i meet W), with every meet built
    D = _moved(glued_design(2, m, 4, 1), seed)
    best, witness = -1, None
    for W in enumerate_fqm_subspaces(D.ambient, 2):
        total = sum(meet_join(U, W)[0].dim for U in D.members)
        if total > best:
            best, witness = total, W
    prof = de.design_profile(D, 2)
    assert (prof.A_min, prof.witness) == (best, witness)
    assert witness.basis.tolist() != [[1, 0, 0, 0], [0, 1, 0, 0]]


def test_classify(pseudo9):
    rep = de.classify(pseudo9)
    assert rep["per_s"][1]["is_maximum"]
    assert rep["optimal"]["applicable"] and rep["optimal"]["is_msrd"]
    assert rep["max1_t_bound"]["satisfied"]
    baer = de.construct_field_partition(2, 2, 3)
    repb = de.classify(baer, max_s=1)
    assert repb["per_s"][1]["is_maximum"] and repb["max1_t_bound"]["saturated"]
    # a single canonical subgeometry is a maximum 1-design with t = 1
    t = make_tower(2, 1, 2)
    amb = AmbientSpace(t, 2)
    one, zero = t.one(), t.zero()
    sub = de.SubspaceDesign(amb, [span_fq(amb, [(one, zero), (zero, one)])])
    reps = de.classify(sub)
    assert reps["per_s"][1]["is_maximum"] and reps["optimal"]["is_msrd"]


def test_classify_equal_dims_bounds(pseudo9):
    # proof-exact bounds for equal-dimension designs: tn <= tm + A - 1 and
    # tn <= tm + A - k + 1; the pseudoregulus pair saturates both
    rep = de.classify(pseudo9)
    assert rep["equal_dims_bounds"] == {"A": 1, "n": 2, "n_bound": 2, "tn_bound": 4}
    rep3 = de.classify(twisted_design(3, 3, 3, 2))
    assert rep3["equal_dims_bounds"] == {"A": 2, "n": 3, "n_bound": 3, "tn_bound": 6}


def test_profile_cap():
    D = glued_design(3, 3, 4, 1)
    with pytest.raises(EnumerationCapExceeded):
        de.design_profile(D, 3, cap=1000)


def test_monotonicity_small():
    # 2-design implies 1-design on the twisted q=3 m=3 k=3 example
    D = twisted_design(3, 3, 3, 2)
    for s in (1, 2):
        assert de.is_s_design(de.design_profile(D, s))


def test_cached_linear_sets_still_check_the_cap():
    # members of dim 2 over F_3 have 9 vectors each: over cap 5 whether or not the linear sets are cached
    D = pseudoregulus_design(3, 2, 1, 2)
    with pytest.raises(EnumerationCapExceeded):
        de.design_profile(D, 1, cap=5)
    assert de.design_profile(D, 1).A_min == 1  # builds and caches the linear sets
    with pytest.raises(EnumerationCapExceeded):
        de.design_profile(D, 1, cap=5)
    with pytest.raises(EnumerationCapExceeded):
        D.point_dims(cap=8)
    assert len(D.point_dims(cap=9)[1]) == D.t


@pytest.mark.parametrize("key", RANK_TOWERS)
@settings(max_examples=20)
@given(st.integers(0, 10_000))
def test_point_dims_match_member_linear_sets(key, seed):
    # overlapping members and a zero member: dims[i, p] = linear_set(U_i).get(p, 0), points in reps order
    t = make_tower(*key)
    rng = np.random.default_rng(seed)
    amb = AmbientSpace(t, int(rng.integers(1, 4)))
    n = min(amb.n_fq, int(np.log(2000) / np.log(t.q)))
    U = FqSubspace.from_expanded_rows(amb, rng.integers(0, t.q, (int(rng.integers(1, n + 1)), amb.n_fq)))
    shared = U.basis[: int(rng.integers(0, n))]
    V = FqSubspace.from_expanded_rows(amb, np.vstack([shared, rng.integers(0, t.q, (1, amb.n_fq))]))
    members = [U, span_fq(amb, []), V]
    sets = [linear_set(M) if M.dim else {} for M in members]
    pts, dims = de.SubspaceDesign(amb, members).point_dims()
    assert {tuple(p) for p in pts.tolist()} == {p for ls in sets for p in ls} and in_reps_order(pts, t.order)
    assert dims.tolist() == [[ls.get(tuple(p), 0) for p in pts.tolist()] for ls in sets]


def _point_sort_key(point: tuple) -> tuple:
    lead = next(i for i, c in enumerate(point) if c)
    return (lead, point[lead + 1 :])


def _sort_key_witness(D):
    """The s = 1 witness by the earlier rule: among the maximisers of the summed oracle linear sets,
    the least point by _point_sort_key."""
    sets = [oracle_linear_set(U) for U in D.members]
    totals = {p: sum(ls.get(p, 0) for ls in sets) for ls in sets for p in ls}
    best = max(totals.values())
    return best, min((p for p, v in totals.items() if v == best), key=_point_sort_key)


@pytest.mark.parametrize("seed", [1, 2])
def test_s1_witness_is_the_sort_key_minimum(seed):
    # the first argmax of the point totals in reps order is the least maximiser by (pivot, tail), on the
    # headline and max1_corpus designs under seeded changes of coordinates v -> v g
    rng = np.random.default_rng(seed)
    for D in [glued_design(3, 3, 4, 2)] + [D for _, D in max1_corpus()]:
        amb, F = D.ambient, D.ambient.tower.fqm
        g = rng.integers(0, F.size, (amb.k, amb.k))
        while linalg.rank(F, g) < amb.k:
            g = rng.integers(0, F.size, (amb.k, amb.k))
        moved = de.SubspaceDesign(amb, [FqSubspace.from_expanded_rows(amb, amb.expand(
            linalg.matmul(F, amb.contract(U.basis), g))) for U in D.members])
        prof = de.design_profile(moved, 1)
        best, pick = _sort_key_witness(moved)
        assert prof.A_min == best and prof.witness.basis.tolist() == [list(pick)]


# --- block codes --------------------------------------------------------------------


def matmul_block_digits(tower, X, blocks):
    """The oracle of linalg.block_codes: an F_{q^m} product per block, split into F_q digits."""
    rows = X.reshape(-1, X.shape[-1])
    return [tower.fqm.to_digits(linalg.matmul(tower.fqm, rows, G)).reshape(*X.shape[:-1], G.shape[1], tower.m)
            for G in blocks]


@pytest.mark.parametrize("key", RANK_TOWERS)
@given(st.integers(0, 10_000))
def test_block_digits_match_matmul_oracle(key, seed):
    t = make_tower(*key)
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 5))
    blocks = [rng.integers(0, t.order, (k, n)).astype(DTYPE) for n in (int(rng.integers(1, 6)), 0)]
    blocks[0][:, rng.integers(0, blocks[0].shape[1])] = 0  # a zero column
    tables = linalg.digit_tables(t.fqm, blocks)
    for shape in [(int(rng.integers(0, 40)), k), (int(rng.integers(0, 6)), 3, k), (k,)]:
        X = rng.integers(0, t.order, shape).astype(DTYPE)
        for got, want in zip(linalg.block_codes(t.fqm, X, tables), matmul_block_digits(t, X, blocks), strict=True):
            assert got.dtype == DTYPE and np.array_equal(t.fqm.to_digits(got), want)


def test_block_codes_of_the_big_fields_design():
    # F_6561 = F_9^4 at k = 2: 2 coordinates x 2 digit groups = 4 terms, so base 9, and the eight
    # base-3 places of a code reduce in two chunks of four
    D = twisted_design(9, 4, 2, 2)
    t = D.ambient.tower
    b, d, _ = linalg._carry_free(t.p, t.h * t.m, 2 * len(linalg._digit_groups(t.fqm)[0]))
    assert (b, d, t.h * t.m) == (9, 4, 8)
    rng = np.random.default_rng(6561)
    X = np.vstack([D.ambient.normals, rng.integers(0, t.order, (500, 2))]).astype(DTYPE)
    blocks = [U.gen_block() for U in D.members]
    for got, want in zip(linalg.block_codes(t.fqm, X, D.digit_tables), matmul_block_digits(t, X, blocks), strict=True):
        assert np.array_equal(t.fqm.to_digits(got), want)


def test_big_fields_hyperplane_sweep_runs_on_packed_rows(monkeypatch):
    # F_6561 = F_9^4: every section is a 4 x 4 matrix over F_9, ranked as carry-free packed rows
    # with no echelon_batch; a sample of normals matches the looped rank of x G_i
    D = twisted_design(9, 4, 2, 2)
    t = D.ambient.tower
    calls = []
    eliminate = linalg.echelon_batch
    monkeypatch.setattr(linalg, "echelon_batch", lambda *args, **kw: calls.append(args) or eliminate(*args, **kw))
    dims = D.hyperplane_dims()
    assert calls == [] and dims.shape == (2, 6562)
    normals = D.ambient.normals
    for i in np.random.default_rng(6561).choice(len(normals), 60, replace=False):
        for U, dim in zip(D.members, dims[:, i]):
            digits = t.fqm.to_digits(linalg.matmul(t.fqm, normals[i][None], U.gen_block())[0])  # (dim U, m)
            assert dim == U.dim - linalg.rank(t.fq, digits)


@pytest.mark.parametrize("key", [(2, 1, 3), (3, 1, 3), (2, 2, 2)])
def test_section_totals_match_looped_meets(key):
    # r = 1, 2, 3 rows of W^perp in F_{q^m}^4 against members of dimension 2, 5 and 8: rows of r m
    # F_q digits fold or run as packed codes, or go back to digits when they outnumber the rows or
    # their carry-free tables pass LAZY_CAP (F_3^9, with 5^9 sum cells)
    t = make_tower(*key)
    amb = AmbientSpace(t, 4)
    rng = np.random.default_rng(sum(key))
    members = [FqSubspace.from_expanded_rows(amb, rng.integers(0, t.q, (n, amb.n_fq))) for n in (2, 5, 8)]
    D = de.SubspaceDesign(amb, members)
    for r in (1, 2, 3):
        Ws = [FqmSubspace.from_rows(amb, rng.integers(0, t.order, (4 - r, 4))) for _ in range(10)]
        Ws = [W for W in Ws if W.dim == 4 - r]
        X = np.stack([fqm_dual(W).basis for W in Ws])
        assert X.shape == (len(Ws), r, 4)
        want = [sum(meet_join(U, W)[0].dim for U in members) for W in Ws]
        assert de.section_dims(D, X).sum(axis=0).tolist() == want


def test_digit_groups_split_wide_fields():
    # F_6561 = F_9^4: 9^4 > PACKED_CAP, so its digits come in two groups of two; F_27 in one of three
    assert linalg._digit_groups(make_tower(3, 2, 4).fqm)[0].tolist() == [1, 81]
    assert linalg._digit_groups(make_tower(3, 1, 3).fqm)[0].tolist() == [1]


def test_hyperplane_sweep_makes_no_fqm_matmul(monkeypatch):
    # the headline design's sweeps (sections, cutting, class weights) run on cached digit tables
    glued = glued_design(3, 3, 4, 2)
    D = de.SubspaceDesign(glued.ambient, glued.members)
    fields = []
    product = linalg.matmul
    monkeypatch.setattr(linalg, "matmul", lambda F, A, B: fields.append(F) or product(F, A, B))
    assert de.hyperplane_weight_distribution(D) == {6: 19712, 7: 728}
    assert not de.is_cutting(D).cutting
    assert sr.min_distance(sr.code_from_system(D), method="classes") == 5
    tables = D.digit_tables
    assert D.digit_tables is tables  # built once per design object
    assert not any(F is D.ambient.tower.fqm for F in fields)


@pytest.mark.parametrize("key", RANK_TOWERS)
def test_hyperplane_dims_match_the_section_sweep(key):
    # seeded designs with members on both sides of 2m, U = V (a dual with no vector) and the zero
    # member, k = 1..4 while the hyperplanes number at most 10,000: the dual route and the swept rows
    # both equal section_dims over every normal
    t = make_tower(*key)
    rng = np.random.default_rng(sum(key))
    for k in range(1, 5):
        amb = AmbientSpace(t, k)
        if subspace.subspace_count(amb, 1) > 10_000:
            break
        m, mk = t.m, amb.n_fq
        sizes = [n for n in (0, 1, m, 2 * m - 1, 2 * m, 2 * m + 1, mk - 1) if n <= mk]
        members = [FqSubspace.from_expanded_rows(amb, rng.integers(0, t.q, (n, mk))) for n in sizes]
        members += [FqSubspace.from_expanded_rows(amb, np.eye(mk, dtype=DTYPE)[: min(2 * m, mk)]),
                    FqSubspace.from_expanded_rows(amb, np.eye(mk, dtype=DTYPE))]
        D = de.SubspaceDesign(amb, members)
        assert D.dims[-1] == mk and (k == 1 or D.dims[-2] == 2 * m) and min(D.dims) < 2 * m
        want = de.section_dims(de.SubspaceDesign(amb, members), amb.normals[:, None])
        got = D.hyperplane_dims()
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_headline_verbs_read_the_duals_not_the_sweep(monkeypatch, tmp_path, capsys):
    # weights, srg and msrd on the headline design (members of dim 6 = 2m) build neither digit tables
    # nor a block-rank sweep; big_fields' twisted design over F_6561 (members of dim m) still sweeps
    path = tmp_path / "headline.json"
    path.write_text(fmt.dumps(fmt.design_to_json(glued_design(3, 3, 4, 2))))
    twisted = twisted_design(9, 4, 2, 2)
    calls = []
    for name in ("block_ranks", "digit_tables"):
        fn = getattr(linalg, name)
        monkeypatch.setattr(linalg, name, lambda *args, fn=fn, name=name: calls.append(name) or fn(*args))
    for verb in ("weights", "srg", "msrd"):
        assert cli.main([verb, str(path)]) == 0
    assert calls == []
    D = de.SubspaceDesign(twisted.ambient, twisted.members)
    assert D.dims == (4, 4) and de.hyperplane_weight_distribution(D) == {0: 4922, 1: 1640}
    assert calls == ["digit_tables", "block_ranks"]


def test_hyperplane_dims_certificates_survive_python_O():
    # a dual vector dropped or duplicated on its way to the point counts, and one swept rank off by one,
    # must each be refused with asserts stripped
    check = (
        "from subdesigns import design as de, linalg, subspace\n"
        "from subdesigns.errors import CertificateFailed\n"
        "from subdesigns.repro import glued_design, twisted_design\n"
        "designs = [glued_design(3, 3, 4, 2), glued_design(2, 2, 4, 1), twisted_design(9, 2, 2, 2)]\n"
        "points, ranks = subspace.canonical_points, linalg.block_ranks\n"
        "def off_by_one(*args):\n"
        "    r = ranks(*args)\n"
        "    r[0, 5] += 1\n"
        "    return r\n"
        "cases = [(D, 'canonical_points', lambda F, V, cut=cut: cut(points(F, V)))\n"
        "         for D in designs[:2] for cut in (lambda P: P[1:], lambda P: P[[0, *range(len(P))]])]\n"
        "for D, name, fake in cases + [(designs[2], 'block_ranks', off_by_one)]:\n"
        "    owner = subspace if name == 'canonical_points' else linalg\n"
        "    setattr(owner, name, fake)\n"
        "    try:\n"
        "        de.SubspaceDesign(D.ambient, D.members).hyperplane_dims()\n"
        "        print('accepted')\n"
        "    except CertificateFailed as e:\n"
        "        print('refused:', e)\n"
        "    subspace.canonical_points, linalg.block_ranks = points, ranks\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", check], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 5 and all(line.startswith("refused:") for line in lines)
    assert lines[0] == "refused: linear-set rank identity violated"
    assert lines[-1] == "refused: hyperplane section dims fail the count of member vectors on hyperplanes"


def test_span_dim_is_computed_once_per_design(monkeypatch):
    # the profiles, classify, the histogram and the SRG read one F_{q^m}-rank of the members
    glued = glued_design(3, 2, 4, 2)
    D = de.SubspaceDesign(glued.ambient, glued.members)
    shapes = []
    rank = linalg.rank
    monkeypatch.setattr(linalg, "rank", lambda F, M: shapes.append(np.shape(M)) or rank(F, M))
    for s in (1, 3):
        de.design_profile(D, s)
    de.classify(D, max_s=1)
    de.hyperplane_weight_distribution(D)
    ha.srg_from_two_intersection(ha.ext_system(D))
    assert shapes.count((D.total_dim, D.ambient.k)) == 1 and D.span_dim() == 4


def test_hyperplane_normals_are_built_once_per_design(monkeypatch):
    # the histogram, the cutting test and the (k-1)-profile witness read one normal array
    T = twisted_design(3, 3, 3, 2)
    D = de.SubspaceDesign(AmbientSpace(T.ambient.tower, 3), T.members)  # an ambient with no normals yet
    reps, calls = subspace.canonical_projective_reps, []
    monkeypatch.setattr(subspace, "canonical_projective_reps", lambda Q, k: calls.append((Q, k)) or reps(Q, k))
    de.hyperplane_weight_distribution(D)
    de.is_cutting(D)
    prof = de.design_profile(D, 2)
    assert calls == [(27, 3)]
    normals = D.ambient.normals
    assert normals is D.ambient.normals and not normals.flags.writeable
    assert prof.witness == hyperplane_subspace(D.ambient, normals[np.argmax(de.hyperplane_profile_sums(D))])


def test_digit_table_overflow_bound_survives_python_O():
    # digits of 100 and more break the bound k g (p - 1) that sizes the integer sums over F_3;
    # the certificate must refuse the tables with asserts stripped
    check = (
        "import numpy as np\n"
        "from subdesigns import linalg\n"
        "from subdesigns.gf import make_tower\n"
        "t = make_tower(3, 1, 3)\n"
        "t.fqm._dig = t.fqm._dig * 100\n"
        "linalg.digit_tables(t.fqm, [np.ones((4, 2), dtype=np.int32)])\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", check], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert "CertificateFailed: a sum of 4 code table rows must not carry past base 9" in proc.stderr


@pytest.mark.parametrize("build", [
    lambda: glued_design(2, 2, 2, 2),
    lambda: twisted_design(3, 2, 2, 3),
    lambda: pseudoregulus_design(2, 3, 1, 2),
    lambda: distinct_norm_elements(make_tower(2, 2, 2), 4),
])
def test_more_twisting_elements_than_norms_is_bad_parameters(build):
    with pytest.raises(BadParameters, match="t must be at most q - 1"):
        build()


def _looped_twisted_members(amb, alphas, eta, blocks, s_exp):
    """The members of construct_twisted built one scalar at a time: the oracle of its array columns."""
    t, k = amb.tower, amb.k

    def image(x, alpha):
        first = x
        if eta:
            nk = t.nsigma_code(alpha, k, s_exp)
            first = int(t.fqm.add(x, int(t.fqm.mul(eta, int(t.fqm.mul(nk, t.frobenius_code(x, s_exp * k)))))))
        return [first] + [int(t.fqm.mul(t.nsigma_code(alpha, j, s_exp), t.frobenius_code(x, s_exp * j)))
                          for j in range(1, k)]

    return [span_fq(amb, [image(x, a) for x in de._block_field_elements(b)]) for a, b in zip(alphas, blocks)]


@pytest.mark.parametrize("key,k,norms,eta", [((3, 1, 3), 3, [1], 1), ((3, 1, 3), 2, [1], 3), ((2, 2, 3), 3, [1, 2], 0),
                                             ((5, 1, 3), 2, [1, 4], 2)])
def test_twisted_members_match_the_looped_image(key, k, norms, eta):
    # sigma = x -> x^(q^2), eta != 0 where the norm check admits it, and a proper block <1, y>
    t = make_tower(*key)
    amb = AmbientSpace(t, k)
    alphas = [next(c for c in range(1, t.order) if t.norm_code(c) == n) for n in norms]
    blocks = [span_fq(AmbientSpace(t, 1), [[1], [t.q]])] + [de.full_field_block(t)] * (len(alphas) - 1)
    if sum(b.dim for b in blocks) < k:
        blocks = [de.full_field_block(t)] * len(alphas)
    D = de.construct_twisted(amb, alphas, eta, blocks, s_exp=2)
    assert list(D.members) == _looped_twisted_members(amb, alphas, eta, blocks, 2)


def _typed_error_calls():
    from subdesigns import expander as ex
    from subdesigns import strongbridge as sb

    t = make_tower(3, 1, 2)
    amb = AmbientSpace(t, 2)
    D = twisted_design(3, 2, 2, 2)
    C = sr.code_from_system(D)
    S = sb.StrongSubspaceDesign(amb, [FqmSubspace.from_rows(amb, [[1, 0]])])
    return {
        "block of a k = 2 ambient": (lambda: de._block_field_elements(span_fq(amb, [[1, 0]])), DimensionMismatch),
        "one block per alpha": (lambda: de.construct_twisted(amb, [1], 0, []), BadParameters),
        "odd-k pseudoregulus": (lambda: de.construct_pseudoregulus(AmbientSpace(t, 3), 1, [1]), DimensionMismatch),
        "h_values of odd mk": (lambda: de.h_values(3, 3, 3, 1), BadParameters),
        "evasive c <= 0": (lambda: sb.evasive_intersect(S, span_fq(amb, [[1, 0]]), 0, 1), BadParameters),
        "expansion mode": (lambda: ex.expansion_check(ex.build_expander(D), 1, mode="fast"), BadParameters),
        "min_distance method": (lambda: sr.min_distance(C, method="hyperplane"), BadParameters),
        "is_minimal_code method": (lambda: sr.is_minimal_code(C, method="cutting"), BadParameters),
        "isometry scalar count": (lambda: sr.apply_isometry(C, [1], [np.eye(2, dtype=int)] * 2, [0, 1]), BadParameters),
        "isometry matrix count": (lambda: sr.apply_isometry(C, [1, 1], [np.eye(2, dtype=int)], [0, 1]), BadParameters),
        "ambient k = 0": (lambda: AmbientSpace(t, 0), DimensionMismatch),
    }


@pytest.mark.parametrize("name", list(_typed_error_calls()))
def test_library_mistakes_raise_typed_value_errors(name):
    call, error = _typed_error_calls()[name]
    with pytest.raises(error) as exc:
        call()
    assert isinstance(exc.value, ValueError)


def test_cutting_verdicts_read_off_the_dims_match_the_rank_sweep(monkeypatch):
    # sections of total dim < k - 1 cannot span a hyperplane and one of F_q-dim > m(k - 2) fits in no
    # (k - 2)-space, so only the other normals are spanned and ranked, and k = 2 spans none; on a GL
    # image of every max1_corpus design the report is the full rank sweep's
    from subdesigns.repro import max1_corpus

    spans, rows = de.section_spans, []
    monkeypatch.setattr(de, "section_spans", lambda D, X: rows.append(len(X)) or spans(D, X))
    for seed, (name, D) in enumerate(max1_corpus()):
        D = _moved(D, 2700 + seed)
        swept = _fresh(D)
        swept.hyperplane_dims()
        want = _full_sweep_report(swept)
        rows.clear()
        assert de.is_cutting(_fresh(D)) == de.is_cutting(swept) == want, name
        if D.ambient.k == 2:
            assert rows == [], name
