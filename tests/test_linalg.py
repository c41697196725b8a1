import ast
import importlib
import inspect
import math
import pkgutil
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

import subdesigns
from subdesigns import linalg
from subdesigns.errors import EnumerationCapExceeded
from subdesigns.fieldcore import DTYPE, LAZY_CAP
from subdesigns.gf import make_tower, small_field
from subdesigns.subspace import gaussian_binomial


@pytest.fixture(scope="module")
def fields():
    t = make_tower(3, 1, 2)
    return t.fp, t.fqm  # F_3 and F_9


def test_rref_canonical_shape(fields):
    F3, _ = fields
    R, piv = linalg.rref(F3, np.array([[1, 2, 0, 1], [2, 1, 1, 0], [0, 0, 1, 1]]))
    # third row is a combination of the first two over F_3
    assert piv == [0, 2] and R.shape == (2, 4)
    for i, c in enumerate(piv):
        col = R[:, c]
        assert col[i] == 1 and np.count_nonzero(col) == 1


@given(st.integers(0, 10_000))
def test_kernel_annihilates_and_ranks_add(seed):
    t = make_tower(3, 1, 2)
    rng = np.random.default_rng(seed)
    F = t.fqm if seed % 2 else t.fp
    M = rng.integers(0, F.size, (int(rng.integers(1, 5)), 5))
    K = linalg.right_kernel(F, M)
    assert linalg.rank(F, M) + K.shape[0] == 5
    if K.shape[0]:
        assert not np.any(linalg.matmul(F, M, K.T))


def test_kernel_of_an_invertible_matrix_is_empty(fields):
    for F in fields:
        K = linalg.right_kernel(F, np.array([[1, 1, 0], [0, 1, 2], [2, 0, 1]], dtype=DTYPE))  # det 2
        assert K.shape == (0, 3) and K.dtype == DTYPE


@given(st.integers(0, 10_000))
def test_intersection_grassmann(seed):
    t = make_tower(2, 1, 3)
    F = t.fqm
    rng = np.random.default_rng(seed)
    A = rng.integers(0, 8, (int(rng.integers(1, 4)), 4))
    B = rng.integers(0, 8, (int(rng.integers(1, 4)), 4))
    inter = linalg.intersect_rowspaces(F, A, B)
    union = linalg.sum_rowspaces(F, A, B)
    assert inter.shape[0] + union.shape[0] == linalg.rank(F, A) + linalg.rank(F, B)
    # the meet lies in both: rk [A; inter] = rk A and rk [B; inter] = rk B
    assert linalg.rank(F, np.vstack([A, inter])) == linalg.rank(F, A)
    assert linalg.rank(F, np.vstack([B, inter])) == linalg.rank(F, B)


def test_rref_idempotent(fields):
    _, F9 = fields
    rng = np.random.default_rng(3)
    for _ in range(50):
        M = rng.integers(0, 9, (3, 5))
        R, piv = linalg.rref(F9, M)
        R2, piv2 = linalg.rref(F9, R)
        assert np.array_equal(R, R2) and piv == piv2


# F_q and F_{q^m} of every built-in tower (repro.sigma_towers), plus F_6561 > FULL_TABLE_CAP
RANK_TOWERS = [(2, 1, m) for m in range(2, 7)] + [(3, 1, 2), (3, 1, 3), (3, 1, 4), (2, 2, 2), (2, 2, 3),
                                                    (5, 1, 2), (3, 2, 2), (3, 2, 4)]


@pytest.mark.parametrize("key", RANK_TOWERS)
@pytest.mark.parametrize("level", ["fq", "fqm"])
@given(st.integers(0, 10_000))
def test_rank_batch_matches_looped_rank(key, level, seed):
    F = getattr(make_tower(*key), level)
    rng = np.random.default_rng(seed)
    B, r, c = (int(x) for x in rng.integers(0, 6, 3))
    M = rng.integers(0, F.size, (B, r, c))
    if B and r > 1 and c:
        # rank-deficient stacks: a scaled copy of another row and a zero row
        M[:, 1] = F.mul(M[:, 0], int(rng.integers(0, F.size)))
        M[rng.random(B) < 0.5, -1] = 0
    assert linalg.rank_batch(F, M).tolist() == [linalg.rank(F, X) for X in M]
    # echelon_batch: the pivot columns of rref, zero rows without a pivot, the same row space
    E, lead = linalg.echelon_batch(F, M)
    assert E.shape == M.shape and lead.shape == (B, r)
    for X, EX, lx in zip(M, E, lead):
        R, piv = linalg.rref(F, X)
        assert sorted(lx[lx < c].tolist()) == piv
        assert not EX[lx == c].any()
        assert np.array_equal(linalg.rref(F, EX)[0], R)


def test_rank_batch_empty_stacks(fields):
    _, F9 = fields
    for shape in [(0, 3, 4), (3, 0, 4), (3, 4, 0), (0, 0, 0)]:
        ranks = linalg.rank_batch(F9, np.zeros(shape, dtype=np.int32))
        assert ranks.shape == (shape[0],) and not ranks.any()


@pytest.fixture
def echelon_calls(monkeypatch):
    """The shapes of every stack rank_batch hands to echelon_batch."""
    calls = []
    eliminate = linalg.echelon_batch

    def counted(F, M):
        calls.append(np.shape(M))
        return eliminate(F, M)

    monkeypatch.setattr(linalg, "echelon_batch", counted)
    return calls


@pytest.mark.parametrize("key", RANK_TOWERS)
@pytest.mark.parametrize("level", ["fq", "fqm"])
def test_rank_batch_path_follows_span_table_cap(key, level, echelon_calls, monkeypatch):
    # widths whose span table fits SPAN_TABLE_CAP fold; the next ones, while the carry-free tables
    # fit LAZY_CAP, run as packed rows without building a span table; the first width past both
    # eliminates
    F = getattr(make_tower(*key), level)
    rng = np.random.default_rng(F.size)
    c = 1
    while (table := linalg._span_table(F, c)) is not None:
        T, dims = table
        assert np.bincount(dims).tolist() == [gaussian_binomial(c, d, F.size) for d in range(c + 1)]
        assert T.shape == (len(dims) * F.size**c,)
        M = rng.integers(0, F.size, (7, c + 2, c))
        assert linalg.rank_batch(F, M).tolist() == [linalg.rank(F, X) for X in M]
        assert echelon_calls == []
        c += 1
    built = []
    build = linalg._build_span_table
    monkeypatch.setattr(linalg, "_build_span_table", lambda *args: built.append(args) or build(*args))
    h = round(math.log(F.size, F.p))
    while (packed := linalg._packed_tables(F, c)) is not None:
        powers, sums, free, scale, negfree, inv = packed
        # the scale tables hold q |F|^c cells and the sum table b^(c h) for b = 2p - 1, none past LAZY_CAP
        assert scale.shape == negfree.shape == (F.size ** (c + 1),) and free.shape == (F.size**c,)
        assert sums.shape == ((2 * F.p - 1) ** (c * h),) and max(sums.size, scale.size) <= LAZY_CAP
        assert sums.dtype == np.min_scalar_type(F.size**c - 1) and powers.tolist() == [F.size**j for j in range(c)]
        M = rng.integers(0, F.size, (7, c + 2, c))
        assert linalg.rank_batch(F, M).tolist() == [linalg.rank(F, X) for X in M]
        assert echelon_calls == [] and built == []
        c += 1
    assert max(F.size ** (c + 1), (2 * F.p - 1) ** (c * h)) > LAZY_CAP
    M = rng.integers(0, F.size, (3, c, c + 1))
    assert linalg.rank_batch(F, M).tolist() == [linalg.rank(F, X) for X in M]
    assert echelon_calls == [(3, c + 1, c)] and built == []


# F_2, F_3, F_4, F_5 and F_9, the last two as extensions of their prime field
PACKED_FIELDS = [(2, 1, 2), (3, 1, 2), (2, 2, 2), (5, 1, 2), (3, 2, 2)]


@pytest.mark.parametrize("key", PACKED_FIELDS)
@given(st.integers(0, 10_000))
def test_packed_rank_matches_looped_rank(key, seed):
    # every width with carry-free tables, span-table widths included, up to F_2^12, F_3^8, F_4^6,
    # F_5^6 and F_9^4, with r above and below c
    F = make_tower(*key).fq
    rng = np.random.default_rng(seed)
    widths = [c for c in range(1, 14) if linalg._packed_tables(F, c) is not None]
    assert widths == list(range(1, {2: 12, 3: 8, 4: 6, 5: 6, 9: 4}[F.size] + 1))
    c = int(rng.choice(widths))
    B, r = int(rng.integers(0, 6)), int(rng.integers(1, 8))
    M = rng.integers(0, F.size, (B, r, c))
    if B and r > 2:
        M[:, 1] = M[:, 0]  # a repeated row
        M[rng.random(B) < 0.5, -1] = 0  # and a zero row
    ranks = linalg._packed_rank(linalg._packed_tables(F, c), M @ F.size ** np.arange(c))
    assert ranks.tolist() == [linalg.rank(F, X) for X in M]


def test_rank_batch_paths_on_sweep_shapes(echelon_calls):
    F3 = make_tower(3, 1, 3).fq
    rng = np.random.default_rng(1)
    M = rng.integers(0, 3, (20440, 6, 3))  # the headline design's section ranks
    M[::2, :, 2] = 0
    ranks = linalg.rank_batch(F3, M)
    assert echelon_calls == []
    assert ranks[:300].tolist() == [linalg.rank(F3, X) for X in M[:300]]
    F2, F9, F27 = make_tower(2, 1, 2).fq, make_tower(3, 1, 2).fqm, make_tower(3, 1, 3).fqm
    for F in (F2, F3):  # pairs minimality over F_2 and expander images over F_3: packed rows
        M = rng.integers(0, F.size, (5000, 6, 6))
        M[::3, 4] = M[::3, 1]
        ranks = linalg.rank_batch(F, M)
        assert echelon_calls == []
        assert ranks[:300].tolist() == [linalg.rank(F, X) for X in M[:300]]
    for F, shape in [(F2, (100, 12, 12)), (F9, (100, 4, 4))]:  # carry-free rows up to LAZY_CAP
        M = rng.integers(0, F.size, shape)
        assert linalg.rank_batch(F, M).tolist() == [linalg.rank(F, X) for X in M]
        assert echelon_calls == []
    M = rng.integers(0, 27, (100, 4, 4))  # F_27^4: 5^12 sum cells, past LAZY_CAP
    assert linalg.rank_batch(F27, M).tolist() == [linalg.rank(F27, X) for X in M]
    assert echelon_calls == [(100, 4, 4)]


@pytest.mark.parametrize("key,level,c,path", [
    ((3, 1, 3), "fq", 3, "fold"),  # the headline sections, F_3^3
    ((3, 2, 2), "fq", 4, "packed"),  # big_fields' sections, F_9^4
    ((3, 1, 3), "fqm", 4, None),  # F_27^4, 5^12 sum cells
    ((3, 1, 3), "fq", 9, None),  # F_3^9, 5^9 sum cells
    ((3, 2, 4), "fqm", 2, None),  # F_6561^2, 6561^3 scale cells
    ((3, 1, 3), "fq", 0, "fold"),  # F_3^0
])
@given(st.integers(0, 10_000))
def test_rank_codes_match_looped_rank_on_every_path(key, level, c, path, seed):
    # rank_codes takes any F^c: stacks without rows, wide (r < c) and tall ones, on every path
    F = getattr(make_tower(*key), level)
    assert (linalg._span_table(F, c) is not None, linalg._packed_tables(F, c) is not None) == {
        "fold": (True, True), "packed": (False, True), None: (False, False)}[path]
    rng = np.random.default_rng(seed)
    for r in sorted({0, c // 2, c, c + 2}):
        M = rng.integers(0, F.size, (int(rng.integers(0, 6)), r, c))
        if len(M) and r > 2:
            M[:, 1] = M[:, 0]  # a repeated row
            M[rng.random(len(M)) < 0.5, -1] = 0  # and a zero row
        ranks = linalg.rank_codes(F, M @ F.size ** np.arange(c), c)
        assert ranks.tolist() == [linalg.rank(F, X) for X in M]


@given(st.integers(0, 10_000))
def test_base_ranks_match_looped_rank(seed):
    # F_3-ranks of F_27 code stacks (B, r, n), r = 0 (W = V) and empty stacks included
    t = make_tower(3, 1, 3)
    rng = np.random.default_rng(seed)
    for r in range(4):
        codes = rng.integers(0, t.order, (int(rng.integers(0, 5)), r, int(rng.integers(0, 5)))).astype(DTYPE)
        digits = t.fqm.to_digits(codes).transpose(0, 2, 1, 3).reshape(len(codes), codes.shape[2], 3 * r)
        assert linalg.base_ranks(t.fqm, codes).tolist() == [linalg.rank(t.fq, X) for X in digits]


@pytest.mark.parametrize("key,shape", [((3, 1, 2), (96, 2, 3)), ((3, 1, 2), (40, 3, 2)), ((2, 1, 3), (50, 2, 5)),
                                       ((3, 2, 4), (30, 1, 3)), ((2, 2, 2), (20, 4, 7))])
def test_base_ranks_of_wide_stacks_match_looped_rank(key, shape):
    # r m > n, as in pairs minimality ([x G_i | y G_i] on blocks of length n): digits for rank_batch
    F = make_tower(*key).fqm
    codes = np.random.default_rng(shape[0]).integers(0, F.size, shape).astype(DTYPE)
    codes[0] = 0
    codes[1, 1:] = codes[1, 0]  # rank at most m
    B, r, n = shape
    digits = F.to_digits(codes).transpose(0, 2, 1, 3).reshape(B, n, r * F.degree)
    assert linalg.base_ranks(F, codes).tolist() == [linalg.rank(F.base, X) for X in digits]


def test_row_codes_past_int64_raise_a_typed_error():
    # 2^64 codes of F_2^64; seven rows of F_1024 codes make 70 rows of F_2^70, while three
    # columns of them are a wide stack, ranked as digits with no row code formed
    with pytest.raises(EnumerationCapExceeded):
        linalg.rank_codes(small_field(2), np.ones((1, 70), dtype=np.int64), 64)
    assert linalg.rank_codes(small_field(2), np.full((1, 70), 2**62), 63).tolist() == [1]
    F = make_tower(2, 1, 10).fqm
    with pytest.raises(EnumerationCapExceeded):
        linalg.base_ranks(F, np.ones((1, 7, 70), dtype=DTYPE))
    assert linalg.base_ranks(F, np.array([[[1, 2, 3]] * 7], dtype=DTYPE)).tolist() == [2]



@pytest.mark.parametrize("factor", [0, 4])
def test_prime_matmul_is_exact_on_both_sides_of_the_float_bound(factor):
    # F_1048573, the largest prime field within LAZY_CAP: BLAS in float64 while n (p - 1)^2 < 2^53,
    # inner dimension 8,192 here, and the integer product past it, where a float64 sum already rounds
    p = 1048573
    F = small_field(p)
    bound = 2**53 // (p - 1) ** 2
    n = max(bound, factor * (bound + 1))
    rng = np.random.default_rng(n)
    A, B = rng.integers(p // 2, p, (6, n)), rng.integers(p // 2, p, (n, 6))
    exact = (A.astype(object) @ B.astype(object)) % p
    assert linalg.matmul(F, A.astype(DTYPE), B.astype(DTYPE)).tolist() == exact.tolist()
    rounded = (A.astype(np.float64) @ B.astype(np.float64)).astype(np.int64) % p
    assert (rounded.tolist() != exact.tolist()) == (n > bound)

@pytest.mark.parametrize("name", [mod.name for mod in pkgutil.iter_modules(subdesigns.__path__) if mod.name != "linalg"])
def test_only_linalg_reads_private_linalg_names(name):
    # the row-code format (tables, paths, carry-free sums) stays behind linalg's public products and ranks
    tree = ast.parse(inspect.getsource(importlib.import_module(f"subdesigns.{name}")))
    private = [node.lineno for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
               and node.value.id == "linalg" and node.attr.startswith("_")
               or isinstance(node, ast.ImportFrom) and node.module == "subdesigns.linalg"
               and any(alias.name.startswith("_") for alias in node.names)]
    assert not private


def looped_matmul(F, A, B):
    """The product as one add and mul gather per inner index: the oracle of matmul."""
    out = np.zeros((A.shape[0], B.shape[1]), dtype=DTYPE)
    for i in range(A.shape[1]):
        out = np.asarray(F.add(out, F.mul(A[:, i, None], B[None, i, :])), dtype=DTYPE)
    return out


@pytest.mark.parametrize("p", [2, 3, 5, 7, 4099])
@given(st.integers(0, 10_000))
def test_prime_field_matmul_matches_looped_products(p, seed):
    # F_p and its degree-1 extension, the F_{q^m} of every m = 1 tower: both hold residues mod p
    rng = np.random.default_rng(seed)
    for F in (small_field(p), make_tower(p, 1, 1).fqm):
        for n, r, c in [(0, 3, 2), (2, 0, 3), (2, 3, 0), tuple(int(x) for x in rng.integers(1, 7, 3))]:
            A, B = rng.integers(0, p, (n, r)), rng.integers(0, p, (r, c))
            got = linalg.matmul(F, A, B)
            assert got.dtype == DTYPE and np.array_equal(got, looped_matmul(F, A, B))
        with pytest.raises(ValueError, match="shape mismatch"):
            linalg.matmul(F, np.zeros((2, 3), dtype=DTYPE), np.zeros((2, 3), dtype=DTYPE))


def test_span_table_certificate_survives_python_O():
    # a product with 1 v = 0 and 2 v = -v leaves the packed tables' checks intact, but every
    # span of a vector v is then {0, -v}, so each line of F_3^3 is found twice
    check = (
        "import numpy as np\n"
        "from subdesigns import linalg\n"
        "from subdesigns.fieldcore import SmallField\n"
        "F = SmallField(3, None, None)\n"
        "F.mul = lambda a, b: np.where(np.asarray(a) == 2, F.neg(b), 0) + 0 * np.asarray(b)\n"
        "linalg.rank_batch(F, np.eye(3, dtype=np.int32)[None])\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", check], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert "CertificateFailed: F_3^3 must have 13 subspaces of dimension 1" in proc.stderr


def test_packed_table_certificate_survives_python_O():
    # the same broken addition at width 6, which has no span table: the carry-free sum table
    # adds digitwise mod 3, and F.add no longer does
    check = (
        "import numpy as np\n"
        "from subdesigns import linalg\n"
        "from subdesigns.fieldcore import SmallField\n"
        "F = SmallField(3, None, None)\n"
        "F.add = lambda a, b: np.broadcast_arrays(a, b)[0]\n"
        "linalg.rank_batch(F, np.eye(6, dtype=np.int32)[None])\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", check], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert "CertificateFailed: F_3^6 carry-free sums must match F.add" in proc.stderr


@pytest.mark.parametrize("q", [3, 1031, 4099])
def test_rank_batch_of_stacks_without_rows_or_columns(q):
    # (B, 0, c) and (B, r, 0) fold through the span table of F^0, also over fields too large for
    # packed tables of width 1 (1031) or for full add/mul tables (4099); rank 0 for every matrix
    F = small_field(q)
    for shape in [(5, 0, 3), (5, 3, 0), (2, 0, 0), (0, 0, 4)]:
        ranks = linalg.rank_batch(F, np.zeros(shape, dtype=DTYPE))
        assert ranks.shape == (shape[0],) and not ranks.any()
    # width 1: F_3 folds; F_1031 (no packed tables, so no span table) and F_4099 take echelon_batch
    M = np.random.default_rng(q).integers(0, 2, (6, 3, 1)).astype(DTYPE)
    assert linalg.rank_batch(F, M).tolist() == [linalg.rank(F, X) for X in M]
