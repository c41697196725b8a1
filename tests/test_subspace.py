import itertools
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from subdesigns import linalg, subspace
from subdesigns.design import SubspaceDesign, design_profile, section_dims, section_spans
from subdesigns.errors import AmbientMismatch, CertificateFailed, DimensionMismatch, EnumerationCapExceeded, ZeroSubspace
from subdesigns.fieldcore import DTYPE
from subdesigns.gf import frobenius, make_tower
from subdesigns.repro import glued_design, sigma_towers
from subdesigns.subspace import (
    AmbientSpace,
    FqmSubspace,
    FqSubspace,
    enumerate_fqm_subspaces,
    enumerate_rref_matrices,
    fqm_dual,
    fqm_span,
    gaussian_binomial,
    hyperplane_subspace,
    linear_set,
    meet_join,
    ordinary_dual,
    point_weights,
    rref_matrix_blocks,
    span_fq,
    subspace_count,
)
from test_linalg import RANK_TOWERS


@pytest.fixture(scope="module")
def amb4():
    return AmbientSpace(make_tower(2, 1, 2), 2)


@pytest.fixture(scope="module")
def amb9():
    return AmbientSpace(make_tower(3, 1, 2), 2)


def subgeometry(amb):
    one, zero = amb.tower.one(), amb.tower.zero()
    return span_fq(amb, [(one, zero), (zero, one)])


def test_span_examples(amb4, amb9):
    assert subgeometry(amb4).dim == 2
    assert span_fq(amb4, []).dim == 0
    i = amb9.tower.gen()
    U1 = span_fq(amb9, [(amb9.tower.one(), amb9.tower.one()), (i, frobenius(i, 1))])
    assert U1.dim == 2  # pseudoregulus member as the rank of a 2x4 F_3 matrix
    with pytest.raises(DimensionMismatch):
        span_fq(amb4, [(amb4.tower.one(),)])
    flat = AmbientSpace(make_tower(2, 1, 1), 2)  # m = 1: both kinds store 1 x 2 arrays
    U, W = FqSubspace.from_expanded_rows(flat, [[1, 0]]), FqmSubspace.from_rows(flat, [[1, 0]])
    assert np.array_equal(U.basis, W.basis) and U != W and W != U


def test_meet_join_examples(amb4):
    U = subgeometry(amb4)
    W = FqmSubspace.from_rows(amb4, [[1, 0]])
    meet, join = meet_join(U, W)
    assert meet.dim == 1 and join.dim == 3
    assert meet_join(U, U) == (U, U)
    zero = span_fq(amb4, [])
    assert meet_join(U, zero)[0].dim == 0
    other = AmbientSpace(amb4.tower, 3)
    with pytest.raises(AmbientMismatch):
        meet_join(U, span_fq(other, []))


def test_span_fq_takes_elements_and_codes_but_not_another_tower(amb4):
    t = amb4.tower
    assert span_fq(amb4, [(t.gen(), t.one())]) == span_fq(amb4, [(t.gen().code, 1)])
    with pytest.raises(AmbientMismatch):
        span_fq(amb4, [(make_tower(2, 1, 3).one(), t.zero())])


def test_fqm_span_examples(amb4):
    assert fqm_span(subgeometry(amb4)).dim == 2
    line = span_fq(amb4, [(amb4.tower.one(), amb4.tower.zero())])
    assert fqm_span(line).dim == 1
    assert fqm_span(span_fq(amb4, [])).dim == 0


def test_enumeration_counts(amb4):
    assert subspace_count(amb4, 1) == 5  # points of PG(1,4)
    pts = list(enumerate_fqm_subspaces(amb4, 1))
    assert len(pts) == len(set(pts)) == 5
    assert len(list(enumerate_fqm_subspaces(amb4, 0))) == 1
    big = AmbientSpace(make_tower(3, 1, 3), 4)
    assert subspace_count(big, 3) == 20440  # hyperplanes of PG(3,27)
    with pytest.raises(EnumerationCapExceeded):
        list(enumerate_fqm_subspaces(big, 3, cap=100))


def _looped_rref_matrices(Q, s, k, start=0, stop=None):
    """The oracle of rref_matrix_blocks and its streams: every s x k RREF matrix over F_Q, one at a
    time, pivot supports in lexicographic order and free entries by itertools.product."""
    stop = gaussian_binomial(k, s, Q) if stop is None else stop
    idx = 0
    for pivots in itertools.combinations(range(k), s):
        free_pos = [(i, c) for i in range(s) for c in range(pivots[i] + 1, k) if c not in pivots]
        for vals in itertools.product(range(Q), repeat=len(free_pos)):
            if idx >= stop:
                return
            if idx >= start:
                M = np.zeros((s, k), dtype=DTYPE)
                M[range(s), pivots] = 1
                for (i, c), v in zip(free_pos, vals):
                    M[i, c] = v
                yield M, list(pivots)
            idx += 1


def _same_matrices(got, want) -> bool:
    got, want = list(got), list(want)
    return len(got) == len(want) and all(
        piv == qiv and X.dtype == Y.dtype and np.array_equal(X, Y) for (X, piv), (Y, qiv) in zip(got, want)
    )


@pytest.mark.parametrize("Q,k,s", [(4, 2, 1), (9, 2, 1), (4, 3, 1), (4, 3, 2), (8, 2, 1), (9, 3, 2), (2, 4, 2), (3, 4, 2)])
def test_enumeration_matches_gaussian_binomial(Q, k, s):
    seen = set()
    for M, piv in enumerate_rref_matrices(Q, s, k):
        seen.add(M.tobytes())
    assert len(seen) == gaussian_binomial(k, s, Q)


@pytest.mark.parametrize("Q,s,k", [(2, 0, 3), (2, 2, 4), (3, 2, 4), (4, 1, 3), (2, 3, 5), (9, 2, 3), (3, 4, 4)])
@pytest.mark.parametrize("chunk", [5, 4096])
def test_rref_blocks_keep_enumeration_order(monkeypatch, Q, s, k, chunk):
    monkeypatch.setattr(subspace, "RREF_CHUNK", chunk)
    blocks = list(rref_matrix_blocks(Q, s, k))
    assert all(0 < M.shape[0] <= chunk for M, _ in blocks)
    assert _same_matrices([(X, piv) for M, piv in blocks for X in M], _looped_rref_matrices(Q, s, k))


@pytest.mark.parametrize("Q,s,k", [(2, 0, 3), (9, 0, 2), (2, 2, 4), (3, 2, 4), (4, 1, 3), (9, 2, 3), (3, 4, 4)])
@pytest.mark.parametrize("chunk", [5, 4096])
def test_rref_stream_and_its_slices_match_the_looped_oracle(monkeypatch, Q, s, k, chunk):
    monkeypatch.setattr(subspace, "RREF_CHUNK", chunk)
    total = gaussian_binomial(k, s, Q)
    slices = [(0, None), (0, 1), (1, None), (3, 12), (4, 5), (5, 10), (7, 7), (9, 2), (0, 0), (total - 1, None),
              (total, None), (2, total + 3), (-3, 4), (0, -1)]
    for start, stop in slices:
        got = enumerate_rref_matrices(Q, s, k, start=start, stop=stop)
        assert _same_matrices(got, _looped_rref_matrices(Q, s, k, start, stop)), (start, stop)
    items = list(enumerate_rref_matrices(Q, s, k))  # each matrix a copy, with a pivot list of its own
    assert all(M.base is None for M, _ in items) and len({id(piv) for _, piv in items}) == len(items)


@pytest.mark.parametrize("stop,built", [(0, 0), (1, 1), (5, 1), (6, 2), (10, 2), (11, 3), (None, 10)])
def test_rref_stream_builds_no_block_past_stop(monkeypatch, stop, built):
    # F_3^(1 x 4) has 27 matrices with pivot 0, then 9, 3 and 1: blocks of 5, 5, 5, 5, 5, 2, 5, 4, 3, 1
    monkeypatch.setattr(subspace, "RREF_CHUNK", 5)
    blocks = subspace.rref_matrix_blocks
    count = []

    def counted(*args):
        for block in blocks(*args):
            count.append(1)
            yield block

    monkeypatch.setattr(subspace, "rref_matrix_blocks", counted)
    list(enumerate_rref_matrices(3, 1, 4, stop=stop))
    assert len(count) == built


@pytest.mark.parametrize("Q,k", [(2, 1), (2, 4), (3, 3), (4, 2), (9, 3), (27, 2), (2, 14)])
def test_projective_reps_are_the_rref_rows(Q, k):
    # (2, 14) has a block of 8192 rows for the pivot in column 0, two RREF_CHUNK blocks
    reps = subspace.canonical_projective_reps(Q, k)
    assert reps.dtype == DTYPE
    assert reps.tolist() == [M[0].tolist() for M, _ in _looped_rref_matrices(Q, 1, k)]
    assert subspace.canonical_projective_reps(Q, 0).shape == (0, 0)


@pytest.mark.parametrize("Q,k", [(2, 1), (2, 4), (3, 3), (4, 2), (9, 3), (27, 4), (6561, 2), (2, 14)])
def test_projective_rep_index_inverts_the_reps(Q, k):
    # the closed-form row of each canonical point is its place among the reps
    reps = subspace.canonical_projective_reps(Q, k)
    assert np.array_equal(subspace.projective_rep_index(reps, Q), np.arange(len(reps)))


@pytest.mark.parametrize("key", [(2, 1, 2), (3, 1, 3), (2, 2, 2), (3, 2, 2)])
def test_canonical_points_undo_every_nonzero_scalar(key):
    # every nonzero multiple of every rep of F_{q^m}^3 goes back to that rep
    F = make_tower(*key).fqm
    reps = subspace.canonical_projective_reps(F.size, 3)
    scaled = F.mul(np.arange(1, F.size)[:, None, None], reps[None]).reshape(-1, 3)
    assert np.array_equal(subspace.canonical_points(F, scaled), np.tile(reps, (F.size - 1, 1)))


def test_fqm_contains_matches_the_dot_product(amb9):
    # v lies in the hyperplane x^perp iff x . v = 0, for every point v and normal x of F_9^2
    F = amb9.tower.fqm
    for x in amb9.normals:
        H = hyperplane_subspace(amb9, x)
        assert H.contains([0, 0])
        for v in amb9.normals:
            assert H.contains(v) == (int(F.add(F.mul(x[0], v[0]), F.mul(x[1], v[1]))) == 0)


def test_enumeration_chunking(amb9):
    full = list(enumerate_fqm_subspaces(amb9, 1))
    split = list(enumerate_fqm_subspaces(amb9, 1, stop=4)) + list(enumerate_fqm_subspaces(amb9, 1, start=4))
    assert full == split


def test_hyperplane_sweep_agrees_with_generic(amb9):
    generic = set(enumerate_fqm_subspaces(amb9, amb9.k - 1))
    via_normals = {hyperplane_subspace(amb9, x) for x in amb9.normals}
    assert generic == via_normals


def test_linear_set_examples(amb4, amb9):
    L = linear_set(subgeometry(amb4))
    assert len(L) == 3 and set(L.values()) == {1}
    line = FqmSubspace.from_rows(amb4, [[1, 0]]).expand_fq()
    L2 = linear_set(line)
    assert len(L2) == 1 and list(L2.values()) == [2]
    i = amb9.tower.gen()
    U1 = span_fq(amb9, [(amb9.tower.one(), amb9.tower.one()), (i, frobenius(i, 1))])
    L3 = linear_set(U1)
    assert len(L3) == 4 and set(L3.values()) == {1}
    with pytest.raises(ZeroSubspace):
        linear_set(span_fq(amb4, []))


def canonical_point(ambient: AmbientSpace, vec) -> tuple:
    """Projective representative with first nonzero coordinate 1."""
    F = ambient.tower.fqm
    v = np.asarray(vec, dtype=DTYPE)
    lead = int(v[np.nonzero(v)[0][0]])
    return tuple(int(c) for c in F.mul(v, int(F.inv(lead))))


def oracle_vectors(U):
    """All q^dim vectors of U (expanded coordinates), coefficient-lexicographic."""
    q, r = U.ambient.tower.q, U.dim
    combos = np.indices((q,) * r).reshape(r, q**r).T.astype(DTYPE)
    return linalg.matmul(U.ambient.tower.fq, combos, U.basis)


def oracle_linear_set(U):
    """The linear set as {point: weight} from all q^dim vectors of U, counted with one np.unique
    over rows, points in the order the vector enumeration first meets them."""
    amb = U.ambient
    q = amb.tower.q
    pts = amb.contract(oracle_vectors(U))
    pts = subspace.canonical_points(amb.tower.fqm, pts[pts.any(axis=1)])
    keys, first, counts = np.unique(pts, axis=0, return_index=True, return_counts=True)
    seen = np.argsort(first)
    w = np.rint(np.log(counts + 1) / np.log(q)).astype(np.int64)
    assert np.array_equal(q**w - 1, counts)
    assert int(((q**w - 1) // (q - 1)).sum()) == (q**U.dim - 1) // (q - 1)
    return dict(zip(map(tuple, keys[seen].tolist()), w[seen].tolist()))


def in_reps_order(points, Q):
    """Whether nonempty points run strictly increasing in canonical_projective_reps order."""
    return bool(np.all(np.diff(subspace.projective_rep_index(np.array(points), Q)) > 0))


def _looped_linear_set(U):
    # one canonical_point per vector, keys in first-seen order
    amb = U.ambient
    q = amb.tower.q
    counts = {}
    for row in amb.contract(oracle_vectors(U)):
        if np.any(row):
            key = canonical_point(amb, row)
            counts[key] = counts.get(key, 0) + 1
    weights = {}
    for key, cnt in counts.items():
        w = 0
        while q**w - 1 < cnt:
            w += 1
        assert q**w - 1 == cnt
        weights[key] = w
    return weights


# the sigma_towers of criterion 4 plus F_6561 = F_9^4, above FULL_TABLE_CAP
@pytest.mark.parametrize("p,h,m", [(t.p, t.h, t.m) for t in sigma_towers()] + [(3, 2, 4)])
@settings(max_examples=8)
@given(st.integers(0, 10_000))
def test_linear_set_matches_looped_canonical_points(p, h, m, seed):
    t = make_tower(p, h, m)
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 4))
    amb = AmbientSpace(t, k)
    n = int(rng.integers(1, min(amb.n_fq, int(np.log(2000) / np.log(t.q))) + 1))
    U = FqSubspace.from_expanded_rows(amb, rng.integers(0, t.q, (n, amb.n_fq)))
    if U.dim == 0:
        return
    L = linear_set(U)
    assert L == _looped_linear_set(U) and in_reps_order(list(L), t.order)


@pytest.mark.parametrize("Q,k", [(2, 1), (2, 4), (3, 3), (4, 2), (9, 3), (27, 4), (6561, 2), (2, 14)])
def test_projective_reps_at_inverts_the_index(Q, k):
    # any rows, in any order, rebuilt alone are the rows of the reps
    reps = subspace.canonical_projective_reps(Q, k)
    rows = np.random.default_rng(Q * k).permutation(len(reps))
    assert np.array_equal(subspace.projective_reps_at(rows, Q, k), reps[rows])


def _subspace_of_dim(rng, amb, d):
    """A random F_q-subspace of dimension exactly d."""
    while True:
        U = FqSubspace.from_expanded_rows(amb, rng.integers(0, amb.tower.q, (d, amb.n_fq)))
        if U.dim == d:
            return U


def _point_weight_members(key, seed):
    """Members of dims 0, 1, m, mk - 1 and mk over a RANK_TOWERS field, with mk as large as
    q^mk <= 5000 allows, and one member sharing a random part of another's basis."""
    t = make_tower(*key)
    k = max([1] + [k for k in (2, 3) if t.q ** (t.m * k) <= 5000])
    amb = AmbientSpace(t, k)
    rng = np.random.default_rng(seed)
    members = [_subspace_of_dim(rng, amb, d) for d in (0, 1, t.m, amb.n_fq - 1, amb.n_fq)]
    U = members[int(rng.integers(1, 4))]
    extra = rng.integers(0, t.q, (int(rng.integers(1, 3)), amb.n_fq))
    members.append(FqSubspace.from_expanded_rows(amb, np.vstack([U.basis[: int(rng.integers(0, U.dim + 1))], extra])))
    return amb, members


@pytest.mark.parametrize("key", RANK_TOWERS)
@settings(max_examples=6)
@given(st.integers(0, 10_000))
def test_point_weights_match_the_vector_oracle(key, seed):
    # one vector per line and a bincount give the weights that all q^dim vectors and np.unique give; the
    # linear sets agree as dicts, and point_dims is their union in canonical_projective_reps order
    amb, members = _point_weight_members(key, seed)
    Q, n_points = amb.tower.order, subspace_count(amb, 1)
    oracles = [oracle_linear_set(U) if U.dim else {} for U in members]
    for U, oracle in zip(members, oracles):
        dense = np.zeros(n_points, dtype=np.int64)
        if oracle:
            dense[subspace.projective_rep_index(np.array(list(oracle)), Q)] = list(oracle.values())
            assert linear_set(U) == oracle
        assert np.array_equal(point_weights(U), dense)
    pts, dims = SubspaceDesign(amb, members).point_dims()
    union = {p for oracle in oracles for p in oracle}
    assert {tuple(p) for p in pts.tolist()} == union and in_reps_order(pts, Q)
    assert dims.tolist() == [[oracle.get(tuple(p), 0) for p in pts.tolist()] for oracle in oracles]


def test_point_dims_are_bounded_by_the_members_lines():
    # k = 3 over F_2048 has 4,196,353 points; three members of dim 11 meet at most 6,141 of them, and
    # point_dims, the s = 1 profile and the linear sets allocate for those alone (one int64 per point of
    # V would be 33.6 MB) while matching the vector oracle
    amb = AmbientSpace(make_tower(2, 1, 11), 3)
    rng = np.random.default_rng(2048)
    members = [_subspace_of_dim(rng, amb, 11) for _ in range(3)]
    oracles = [oracle_linear_set(U) for U in members]
    D = SubspaceDesign(amb, members)
    tracemalloc.start()
    try:
        pts, dims = D.point_dims()
        profile = design_profile(D, 1)
        sets = [linear_set(U) for U in members]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert subspace_count(amb, 1) == 4_196_353 and peak < 4 * 2**20
    assert sets == oracles and in_reps_order(pts, amb.tower.order)
    assert dims.tolist() == [[oracle.get(tuple(p), 0) for p in pts.tolist()] for oracle in oracles]
    assert profile.A_min == dims.sum(axis=0).max()


@pytest.mark.parametrize("cut,message", [
    (lambda P: P[1:], "linear-set rank identity violated"),  # a line lost
    (lambda P: P[[0, *range(len(P))]], "linear-set rank identity violated"),  # a line counted twice
    (lambda P: P[[1, *range(1, len(P))]], "point line count is not of the form"),  # a line moved
])
def test_point_weight_certificates(monkeypatch, cut, message):
    # the lines of the headline design's first dual member (dim 6, 364 lines) are moved off their points
    glued = glued_design(3, 3, 4, 2)
    U = ordinary_dual(glued.members[0])
    points = subspace.canonical_points
    monkeypatch.setattr(subspace, "canonical_points", lambda F, V: cut(points(F, V)))
    for fn in (point_weights, linear_set):
        with pytest.raises(CertificateFailed, match=message):
            fn(U)


def two_pass_right_kernel(F, M):
    """The textbook kernel of the RREF of M, brought to RREF by a second elimination."""
    R, piv = linalg.rref(F, M)
    free = [c for c in range(R.shape[1]) if c not in piv]
    K = np.zeros((len(free), R.shape[1]), dtype=DTYPE)
    K[range(len(free)), free] = 1
    K[:, piv] = F.neg(R[:, free]).T
    return linalg.rref(F, K)[0]


@pytest.mark.parametrize("key", RANK_TOWERS)
@settings(max_examples=8)
@given(st.integers(0, 10_000))
def test_ordinary_dual_is_one_elimination(key, seed):
    # the reversed elimination gives the two-pass canonical kernel of the trace conditions, for members
    # of every dimension from 0 to mk, and the kernel of a random matrix over F_{q^m} alike
    t = make_tower(*key)
    rng = np.random.default_rng(seed)
    amb = AmbientSpace(t, int(rng.integers(1, 4)))
    for d in sorted({0, int(rng.integers(1, amb.n_fq)), amb.n_fq}):
        U = _subspace_of_dim(rng, amb, d)
        dual = ordinary_dual(U)
        oracle = two_pass_right_kernel(t.fq, linalg.matmul(t.fq, U.basis, amb.trace_gram))
        assert np.array_equal(dual.basis, oracle) and dual.pivots == (oracle != 0).argmax(axis=1).tolist()
    M = rng.integers(0, t.order, (int(rng.integers(0, 4)), int(rng.integers(1, 5))))
    assert np.array_equal(linalg.right_kernel(t.fqm, M), two_pass_right_kernel(t.fqm, M))


def test_ordinary_dual_examples(amb4):
    U = subgeometry(amb4)
    assert ordinary_dual(U) == U  # self-dual
    zero = span_fq(amb4, [])
    assert ordinary_dual(zero).dim == 4
    W = FqmSubspace.from_rows(amb4, [[1, 0]])
    lhs = meet_join(ordinary_dual(U), fqm_dual(W))[0].dim - meet_join(U, W)[0].dim
    assert lhs == 4 - 2 - 2 * 1 == 0


@pytest.mark.parametrize("key", [(2, 1, 2), (3, 1, 2), (2, 2, 2), (2, 1, 3)])
def test_duals_of_the_zero_subspace_are_the_whole_space(key):
    amb = AmbientSpace(make_tower(*key), 2)
    assert ordinary_dual(span_fq(amb, [])) == FqSubspace.from_expanded_rows(amb, np.eye(amb.n_fq, dtype=DTYPE))
    assert fqm_dual(FqmSubspace.from_rows(amb, [])) == FqmSubspace.from_rows(amb, np.eye(amb.k, dtype=DTYPE))


def test_dual_involution_exhaustive_f4(amb4):
    count = 0
    for r in range(5):
        for M, piv in enumerate_rref_matrices(2, r, 4):
            U = FqSubspace(amb4, M, piv)
            assert ordinary_dual(ordinary_dual(U)) == U
            count += 1
    assert count == 67


@given(st.integers(0, 10_000))
def test_grassmann_random(seed):
    amb = AmbientSpace(make_tower(3, 1, 2), 2)
    rng = np.random.default_rng(seed)
    U = FqSubspace.from_expanded_rows(amb, rng.integers(0, 3, (int(rng.integers(0, 5)), 4)))
    W = FqSubspace.from_expanded_rows(amb, rng.integers(0, 3, (int(rng.integers(0, 5)), 4)))
    meet, join = meet_join(U, W)
    assert meet.dim + join.dim == U.dim + W.dim


def test_subspace_certificate_survives_python_O():
    # meet_join must refuse a join that lost a row, with asserts stripped
    check = (
        "from subdesigns import linalg\n"
        "from subdesigns.gf import make_tower\n"
        "from subdesigns.subspace import AmbientSpace, meet_join, span_fq\n"
        "total = linalg.sum_rowspaces\n"
        "linalg.sum_rowspaces = lambda F, A, B: total(F, A, B)[:-1]\n"
        "amb = AmbientSpace(make_tower(3, 1, 2), 2)\n"
        "meet_join(span_fq(amb, [(1, 0)]), span_fq(amb, [(0, 1)]))\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", check], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert "CertificateFailed: Grassmann identity violated" in proc.stderr


@given(st.integers(0, 10_000))
def test_span_canonical_under_fq_rescaling(seed):
    amb = AmbientSpace(make_tower(3, 1, 2), 2)
    t = amb.tower
    rng = np.random.default_rng(seed)
    vecs = rng.integers(0, 9, (3, 2))
    U1 = span_fq(amb, vecs.tolist())
    perm = rng.permutation(3)
    scals = rng.integers(1, t.q, 3)
    scaled = [[int(t.fqm.mul(int(s), int(c))) for c in vecs[i]] for i, s in zip(perm, scals)]
    assert span_fq(amb, scaled) == U1


def test_hyperplane_meet_dim_matches_meet(amb9):
    i = amb9.tower.gen()
    U1 = span_fq(amb9, [(amb9.tower.one(), amb9.tower.one()), (i, frobenius(i, 1))])
    D = SubspaceDesign(amb9, [U1])
    normals = amb9.normals
    for x, dim, span in zip(normals, section_dims(D, normals[:, None])[0], section_spans(D, normals)):
        meet = meet_join(U1, hyperplane_subspace(amb9, x))[0]
        rows = span[span.any(axis=1)]
        assert dim == rows.shape[0] == meet.dim
        assert span_fq(amb9, rows) == meet


def _dual_basis(W: FqmSubspace) -> np.ndarray:
    """W^perp in closed form from W's RREF basis: x_f = e_f - sum_i W[i, f] e_{piv_i}, f not a pivot."""
    k = W.ambient.k
    free = [f for f in range(k) if f not in W.pivots]
    X = np.zeros((len(free), k), dtype=DTYPE)
    for row, f in enumerate(free):
        X[row, f] = 1
        X[row, W.pivots] = W.ambient.tower.fqm.neg(W.basis[:, f])
    return X


@pytest.mark.parametrize("p,h,m", [(2, 1, 2), (2, 1, 3), (3, 1, 2), (3, 1, 3), (2, 2, 2)])
@given(st.integers(0, 10_000))
def test_rank_identity_meet_dim_matches_meet(p, h, m, seed):
    # dim U - rk_q(X G_U) over the closed-form dual basis X of W, for W of every dimension,
    # against the meet built by meet_join and against rk A + rk B - rk [A; B]
    amb = AmbientSpace(make_tower(p, h, m), 3)
    t = amb.tower
    rng = np.random.default_rng(seed)
    U = FqSubspace.from_expanded_rows(amb, rng.integers(0, t.q, (int(rng.integers(0, 3 * m)), 3 * m)))
    V = FqmSubspace.from_rows(amb, rng.integers(0, t.order, (int(rng.integers(0, 4)), 3)))
    D = SubspaceDesign(amb, [U, V.expand_fq()])
    for s in range(4):
        W = FqmSubspace.from_rows(amb, rng.integers(0, t.order, (s, 3)))
        X = _dual_basis(W)
        assert FqmSubspace.from_rows(amb, X) == fqm_dual(W)
        got = section_dims(D, X[None])[:, 0].tolist()
        Wq = W.expand_fq().basis
        grassmann = U.dim + len(Wq) - linalg.rank(t.fq, np.vstack([U.basis, Wq]))
        assert got[0] == meet_join(U, W)[0].dim == grassmann
        assert got[1] == meet_join(V, W)[0].dim == m * (V.dim + W.dim - linalg.rank(t.fqm, np.vstack([V.basis, W.basis])))


def test_expand_contract_round_trip(amb9):
    rng = np.random.default_rng(0)
    V = rng.integers(0, 9, (10, 2))
    assert np.array_equal(amb9.contract(amb9.expand(V)), V)


@pytest.mark.parametrize("Q,k", [(2, 3), (9, 2)])
def test_zero_dimensional_rref_matrices(Q, k):
    # s = 0: one (0, k) matrix with no pivots, for the stream (with start/stop) and the blocks alike
    assert [(M.shape, piv) for M, piv in enumerate_rref_matrices(Q, 0, k)] == [((0, k), [])]
    assert [(M.shape, piv) for M, piv in enumerate_rref_matrices(Q, 0, k, start=0, stop=1)] == [((0, k), [])]
    assert list(enumerate_rref_matrices(Q, 0, k, start=1)) == []
    assert list(enumerate_rref_matrices(Q, 0, k, stop=0)) == []
    assert [(M.shape, piv) for M, piv in rref_matrix_blocks(Q, 0, k)] == [((1, 0, k), [])]
    assert _same_matrices(enumerate_rref_matrices(Q, 0, k), _looped_rref_matrices(Q, 0, k))


def test_vectors_of_the_zero_subspace(amb9):
    # the oracle's one zero vector, and no point of weight above 0
    U = FqSubspace.from_expanded_rows(amb9, np.zeros((0, amb9.n_fq), dtype=DTYPE))
    V = oracle_vectors(U)
    assert V.shape == (1, amb9.n_fq) and not V.any()
    assert np.array_equal(point_weights(U), np.zeros(subspace_count(amb9, 1)))
