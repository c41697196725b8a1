import itertools
import subprocess
import sys
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from subdesigns import design as de
from subdesigns import hamming as ha
from subdesigns import linalg
from subdesigns import subspace as sp
from subdesigns import sumrank as sr
from subdesigns.errors import (
    BadParameters,
    CertificateFailed,
    DegenerateCode,
    DegenerateDual,
    EnumerationCapExceeded,
    InvalidDistance,
    LengthProfileBroken,
    NotInvertible,
    ProfileNotSorted,
    ZeroMember,
)
from subdesigns.fieldcore import DTYPE
from subdesigns.gf import make_tower
from subdesigns.repro import glued_design, pseudoregulus_design, twisted_design
from subdesigns.subspace import DEFAULT_ENUMERATION_CAP, AmbientSpace, gaussian_binomial, span_fq
from test_linalg import RANK_TOWERS


@pytest.fixture(scope="module")
def pseudo9():
    return pseudoregulus_design(3, 2, 1, 2)


@pytest.fixture(scope="module")
def code9(pseudo9):
    return sr.code_from_system(pseudo9)


def codeword_min_distance(C) -> int:
    """Oracle: the least sum-rank weight over all q^(mk) - 1 nonzero codewords, each block's
    F_q-rank that of its digit matrix by the looped linalg.rank."""
    t = C.tower
    return min(sum(linalg.rank(t.fq, t.fqm.to_digits(y)) for y in C.encode(msg))
               for msg in itertools.product(range(t.order), repeat=C.k) if any(msg))


@dataclass(frozen=True)
class SumRankSupport:
    """Oracle: per-block column spaces of the matrix expansion of a codeword, canonical RREF bases."""

    lengths: tuple[int, ...]
    blocks: tuple[bytes, ...]
    dims: tuple[int, ...]

    def basis(self, i: int) -> np.ndarray:
        return np.frombuffer(self.blocks[i], dtype=DTYPE).reshape(self.dims[i], self.lengths[i])

    def contains(self, other: "SumRankSupport", fq) -> bool:
        """Blockwise: does self contain other?  rk [A_i; B_i] = rk A_i in every block, by the looped rank."""
        return all(
            linalg.rank(fq, np.vstack([self.basis(i), other.basis(i)])) == self.dims[i]
            for i in range(len(self.lengths))
        )


def support(C, x) -> SumRankSupport:
    """Oracle: the blockwise column spaces of the expansion of xG, each by the looped rref."""
    bases = []
    for y in C.encode(x):
        digs = C.tower.fqm.to_digits(np.asarray(y, dtype=DTYPE))  # n_i x m
        bases.append(linalg.rref(C.tower.fq, digs.T)[0])
    return SumRankSupport(tuple(C.lengths), tuple(b.tobytes() for b in bases), tuple(len(b) for b in bases))


def test_code_from_system(code9):
    assert code9.lengths == (2, 2) and code9.k == 2 and code9.non_degenerate


def test_round_trip_profile(code9, pseudo9):
    D2 = sr.system_from_code(code9)
    assert sorted(D2.dims) == sorted(pseudo9.dims)
    assert de.design_profile(D2, 1).A_min == de.design_profile(pseudo9, 1).A_min


def test_zero_member_rejected():
    t = make_tower(2, 1, 2)
    amb = AmbientSpace(t, 2)
    D = de.SubspaceDesign(amb, [span_fq(amb, []), span_fq(amb, [(t.one(), t.zero())])])
    with pytest.raises(ZeroMember):
        sr.code_from_system(D)


def test_degenerate_code_rejected():
    t = make_tower(2, 1, 2)
    blocks = [np.array([[1, 1], [0, 0]]), np.array([[0], [1]])]
    C = sr.SumRankCode(t, (2, 1), blocks)
    assert not C.non_degenerate
    with pytest.raises(DegenerateCode):
        sr.system_from_code(C)
    # without a source design the class weights are expansion ranks, which need no system
    assert sr.min_distance(C, method="classes") == codeword_min_distance(C) == 1


def test_weights(code9):
    assert sr.sumrank_weight(code9, [0, 0]) == 0
    assert sr.sumrank_weight(code9, [1, 0]) == 4
    # weight agreement (direct vs geometric) over every codeword class
    t = code9.tower
    from subdesigns.subspace import canonical_projective_reps

    for x in canonical_projective_reps(t.order, code9.k):
        sr.sumrank_weight(code9, x)  # certifies internally


def test_support_blocks(code9):
    s = support(code9, [1, 0])
    assert s.dims == (2, 2)  # both blocks fully supported for x = (1, 0)
    z = support(code9, [0, 0])
    assert z.dims == (0, 0)
    # containment is reflexive and respects the zero support
    assert s.contains(z, code9.tower.fq) and s.contains(s, code9.tower.fq)
    assert not z.contains(s, code9.tower.fq)
    # strict containment over F_9/F_3: supp((0, 1)) = (<(1, 0)>, <(1, 0)>) lies inside
    # supp((1, 0)) = (F_3^2, <(1, 0)>) but not conversely; supp((1, 2)) = (<(0, 1)>, 0)
    # and supp((0, 1)) are incomparable
    t = make_tower(3, 1, 2)
    C = sr.SumRankCode(t, (2, 2), [np.array([[1, t.gen().code], [1, 0]]), np.array([[1, 0], [1, 0]])])
    x, y, w = (support(C, v) for v in ([1, 0], [0, 1], [1, 2]))
    assert (x.dims, y.dims, w.dims) == ((2, 1), (1, 1), (1, 0))
    assert w.basis(0).tolist() == [[0, 1]] and y.basis(0).tolist() == [[1, 0]]
    assert x.contains(y, t.fq) and not y.contains(x, t.fq)
    assert x.contains(w, t.fq) and not w.contains(y, t.fq) and not y.contains(w, t.fq)


def test_support_full_and_zero_blocks():
    # codeword pattern ((1, i), (0, 0)) over n = (2, 2): support (F_3^2, zero)
    t = make_tower(3, 1, 2)
    i = t.gen().code
    C = sr.SumRankCode(t, (2, 2), [np.array([[1, 0], [0, 1]]), np.zeros((2, 2), dtype=int)])
    s = support(C, [1, i])
    assert s.dims == (2, 0)
    assert s.basis(0).tolist() == [[1, 0], [0, 1]]


def test_min_distance_methods_agree(code9):
    # the class scan against every codeword, on a design's code and on seeded codes without a design
    assert sr.min_distance(code9) == codeword_min_distance(code9) == 3
    rng = np.random.default_rng(25)
    for p, h, m, k, lengths in [(2, 1, 2, 2, (2, 1)), (3, 1, 2, 2, (2, 2, 1)), (2, 1, 3, 2, (3, 1)), (2, 2, 2, 2, (2, 2))]:
        t = make_tower(p, h, m)
        G = rng.integers(0, t.order, (k, sum(lengths)))
        while linalg.rank(t.fqm, G) < k:
            G = rng.integers(0, t.order, (k, sum(lengths)))
        C = sr.SumRankCode(t, lengths, np.split(G, np.cumsum(lengths)[:-1], axis=1))
        assert C.design is None and sr.min_distance(C) == codeword_min_distance(C)
    with pytest.raises(BadParameters):
        sr.min_distance(code9, method="codewords")


def test_class_scan_without_a_design_runs_in_chunks(monkeypatch):
    # the 91 classes of a code over F_9 with no design go through linalg.block_ranks, whose block
    # codes come a chunk at a time: a class has r m max(n_i) = 4 cells, so 16 a chunk for RANK_CELLS = 64
    t = make_tower(3, 1, 2)
    G = np.random.default_rng(91).integers(0, t.order, (3, 5))
    C = sr.SumRankCode(t, (2, 2, 1), np.split(G, [2, 4], axis=1))
    d = sr.min_distance(C)
    monkeypatch.setattr(linalg, "RANK_CELLS", 64)
    rows, block_codes = [], linalg.block_codes
    monkeypatch.setattr(linalg, "block_codes", lambda F, X, tables: rows.append(len(X)) or block_codes(F, X, tables))
    assert C.design is None and sr.min_distance(C) == d == codeword_min_distance(C)
    assert sum(rows) == 91 and max(rows) == 16 == linalg.chunks(91, 1 * t.m * 2)[0].stop


def test_min_distance_reuses_the_source_design_sections(monkeypatch):
    # one hyperplane sweep per design: the code of D reads D's cached section array
    D = glued_design(3, 2, 4, 2)
    D.hyperplane_dims()
    calls = []
    rank_codes = linalg.rank_codes
    monkeypatch.setattr(linalg, "rank_codes", lambda F, M, c: calls.append(M.shape) or rank_codes(F, M, c))
    C = sr.code_from_system(D)
    assert C.design is D
    d = sr.min_distance(C)
    assert calls == []
    assert d == C.N - int(de.hyperplane_profile_sums(C.system()).max()) == sr.min_distance(C, method="classes")


def test_geometric_minimality_checks_the_source_design(monkeypatch, pseudo9):
    # verdict and witness of a code_from_system code come from its source design, without system()
    for D in (pseudo9, glued_design(3, 2, 4, 2), de.construct_field_partition(2, 2, 3)):
        C = sr.code_from_system(D)
        bare = sr.SumRankCode(C.tower, C.lengths, C.blocks)
        want = sr.is_minimal_code(bare, method="geometric")
        with monkeypatch.context() as mp:
            mp.setattr(sr, "system_from_code", lambda code: pytest.fail("rebuilt the system of the code"))
            got = sr.is_minimal_code(C, method="geometric")
        assert got[0] == want[0]
        assert (got[1] is None) == (want[1] is None)
        if want[1] is not None:
            assert [w.tolist() for w in got[1]] == [w.tolist() for w in want[1]]


def _unequal_design() -> de.SubspaceDesign:
    """A fresh design over F_9^3 with member dims 2, 4 and 3: code_from_system orders its blocks 1, 2, 0."""
    amb = AmbientSpace(make_tower(3, 1, 2), 3)
    rng = np.random.default_rng(29)
    D = de.SubspaceDesign(amb, [sp.FqSubspace.from_expanded_rows(amb, rng.integers(0, 3, (n, 6))) for n in (2, 4, 3)])
    assert D.dims == (2, 4, 3) and D.span_dim() == 3
    return D


def test_code_from_system_reads_its_design_tables_in_block_order():
    D = _unequal_design()
    C = sr.code_from_system(D)
    assert C.lengths == (4, 3, 2)
    assert all(got is want for got, want in zip(C.digit_tables, [D.digit_tables[i] for i in (1, 2, 0)]))
    own = linalg.digit_tables(C.tower.fqm, C.blocks)  # the tables the code would build for itself
    assert len(C.digit_tables) == len(own) == 3
    assert all(n == m and np.array_equal(a, b) for (a, n), (b, m) in zip(C.digit_tables, own))


def test_one_table_set_per_design_and_its_code(monkeypatch):
    calls, digit_tables = [], linalg.digit_tables
    monkeypatch.setattr(linalg, "digit_tables", lambda F, blocks: calls.append(len(blocks)) or digit_tables(F, blocks))
    D = _unequal_design()
    C = sr.code_from_system(D)
    sr.sumrank_weight(C, [1, 2, 0])  # the code's own weight, then its design's section dims
    sr.is_minimal_code(C, method="pairs")
    de.design_profile(D, 2)
    assert calls == [3]


def test_non_degenerate_is_ranked_once_per_code(monkeypatch):
    C = sr.code_from_system(_unequal_design())
    calls, rank = [], linalg.rank
    monkeypatch.setattr(linalg, "rank", lambda F, M: calls.append(F) or rank(F, M))
    for x in ([1, 0, 0], [0, 1, 2], [3, 4, 5]):
        sr.sumrank_weight(C, x)  # each weight is certified against the geometric one of a nondegenerate code
    assert C.non_degenerate and calls == [C.tower.fq] * 3


def test_repetition_style_k1_code():
    # k = 1 with independent entries per block: d = sum of block lengths
    t = make_tower(2, 1, 2)
    C = sr.SumRankCode(t, (2, 1), [np.array([[1, 2]]), np.array([[1]])])
    assert sr.min_distance(C, method="classes") == 3


def test_singleton_msrd(code9):
    v = sr.singleton_msrd(code9, d=3)
    assert v == {"d": 3, "j": 2, "delta": 0, "bound_log_q": 4, "code_log_q": 4,
                 "is_msrd": True, "optimal_bound": 1, "optimal_ok": True}
    with pytest.raises(InvalidDistance):
        sr.singleton_msrd(code9, d=5)
    with pytest.raises(ProfileNotSorted):
        sr.SumRankCode(code9.tower, (1, 2), [np.array([[1], [0]]), np.array([[1, 0], [0, 1]])])


def test_glued_msrd_equal_blocks():
    D = glued_design(3, 3, 4, 2)
    C = sr.code_from_system(D)
    d = sr.min_distance(C)
    v = sr.singleton_msrd(C, d=d)
    assert d == 5 and v["bound_log_q"] == 12 and v["is_msrd"]


def test_dual_code(code9):
    Cd = sr.dual_code(code9)
    assert Cd.k == code9.N - code9.k == 2
    assert sr.min_distance(Cd) == 3  # tm - d + 2 = 4 - 3 + 2
    assert sr.singleton_msrd(Cd, d=3)["is_msrd"]
    Cdd = sr.dual_code(Cd)
    F = code9.tower.fqm
    assert np.array_equal(linalg.rref(F, Cdd.generator)[0], linalg.rref(F, code9.generator)[0])
    # full-space code has the zero code as dual
    t = make_tower(2, 1, 2)
    full = sr.SumRankCode(t, (2,), [np.eye(2, dtype=int)])
    assert sr.dual_code(full).k == 0


def test_delsarte_dual(pseudo9):
    Dd = sr.delsarte_dual(pseudo9)
    assert sorted(Dd.dims) == [2, 2]
    Ddd = sr.delsarte_dual(Dd)
    assert de.design_profile(Ddd, 1).A_min == de.design_profile(pseudo9, 1).A_min
    # basis-partition design in F_4^2 has a zero dual code -> DegenerateDual
    t = make_tower(2, 1, 2)
    amb = AmbientSpace(t, 2)
    one, zero = t.one(), t.zero()
    BP = de.construct_basis_partition(amb, [(one, zero), (zero, one)], [[1], [2]])
    with pytest.raises(DegenerateDual):
        sr.delsarte_dual(BP)
    # nonzero dual with an F_q-dependent (zero) block is also rejected
    amb3 = AmbientSpace(t, 3)
    e = [(one, zero, zero), (zero, one, zero), (zero, zero, one)]
    members = [span_fq(amb3, [v]) for v in e] + [span_fq(amb3, [(one, one, zero)])]
    with pytest.raises(DegenerateDual):
        sr.delsarte_dual(de.SubspaceDesign(amb3, members))


def test_minimality(pseudo9, code9):
    ok_geo, wit = sr.is_minimal_code(code9, method="geometric")
    ok_pair, wit_pair = sr.is_minimal_code(code9, method="pairs")
    assert not ok_geo and not ok_pair
    assert wit is not None and wit_pair is not None
    baer = de.construct_field_partition(2, 2, 3)
    CB = sr.code_from_system(baer)
    assert sr.is_minimal_code(CB, method="geometric")[0]
    assert sr.is_minimal_code(CB, method="pairs")[0]
    # one-weight codes are minimal
    spec = sr.weight_spectrum(CB)
    assert len([w for w in spec if w]) == 1
    # violating pair rebuilt from the first non-cut hyperplane's sections
    assert [w.tolist() for w in wit] == [[1, 3, 1, 3], [1, 6, 4, 7]]


def test_geometric_witness_is_certified_by_block_ranks(monkeypatch, code9):
    # the witness pair's nested supports are certified by sum_i rk [S_i(x); S_i(y)] = wt(x): a joint
    # rank one too large in every block is refused
    base_ranks = linalg.base_ranks
    monkeypatch.setattr(linalg, "base_ranks", lambda F, codes: base_ranks(F, codes) + (codes.shape[1] == 2))
    with pytest.raises(CertificateFailed, match="nested supports"):
        sr.is_minimal_code(code9, method="geometric")


def test_caps_checked_before_enumerating(monkeypatch, pseudo9, code9):
    def refuse(Q, k):
        raise AssertionError("enumerated before the cap check")

    P = ha.ext_system(pseudo9)
    monkeypatch.setattr(sp, "canonical_projective_reps", refuse)
    monkeypatch.setattr(sr, "canonical_projective_reps", refuse)
    for call in (
        lambda: de.hyperplane_profile_sums(pseudo9, cap=9),
        lambda: de.is_cutting(pseudo9, cap=9),
        lambda: ha.hyperplane_point_counts(P, cap=9),
        lambda: sr.min_distance(code9, cap=9, method="classes"),
        lambda: sr.weight_spectrum(code9, cap=9),
        lambda: sr.is_minimal_code(code9, method="pairs", cap=99),
        lambda: sr.delsarte_dual(pseudo9, cap=9),  # its certificate scans the code's 10 classes
    ):
        with pytest.raises(EnumerationCapExceeded):
            call()


def test_delsarte_dual_refuses_a_profile_count_before_building_the_dual(monkeypatch):
    # the headline code's 20440 classes and its s = 1 profile fit the cap, the 552610 subspaces of
    # the s = 2 profile do not: refused before the dual's system exists
    built = []
    monkeypatch.setattr(sr, "system_from_code", built.append)
    with pytest.raises(EnumerationCapExceeded, match="^552610 subspaces of dim 2 exceed cap 20440$"):
        sr.delsarte_dual(glued_design(3, 3, 4, 2), cap=20440)
    assert built == []


@pytest.mark.parametrize("cap", [1, 10, 20440, DEFAULT_ENUMERATION_CAP, None])
def test_delsarte_dual_certifies_under_every_cap_it_meets(monkeypatch, cap):
    # the headline dual either refuses its cap or runs its certificate: the Singleton verdicts of
    # the code (d = 5) and of its dual (d = 3 = tm - d + 2), both MSRD
    calls, singleton = [], sr.singleton_msrd
    monkeypatch.setattr(sr, "singleton_msrd", lambda C, d: calls.append(d) or singleton(C, d=d))
    D = glued_design(3, 3, 4, 2)
    if cap is not None and cap < 552610:
        with pytest.raises(EnumerationCapExceeded):
            sr.delsarte_dual(D, cap=cap)
        assert calls == []
    else:
        assert sorted(sr.delsarte_dual(D, cap=cap).dims) == [6, 6]
        assert calls == [5, 3]


def _random_code(tower, rng):
    """A nondegenerate code over tower with a nondegenerate nonzero dual, k in 1..4 and 1..4 blocks,
    redrawn until its profiles and the dual's class scan each enumerate at most 20,000 objects."""
    Q, budget = tower.order, 20_000
    while True:
        k = int(rng.integers(1, 5))
        lengths = sorted((int(rng.integers(1, tower.m + 2)) for _ in range(int(rng.integers(1, 5)))), reverse=True)
        N = sum(lengths)
        if N <= k or max(gaussian_binomial(k, s, Q) for s in range(k)) > budget \
                or gaussian_binomial(N - k, 1, Q) > budget:
            continue
        G = rng.integers(0, Q, (k, N)).astype(DTYPE)
        if linalg.rank(tower.fqm, G) < k:
            continue
        C = sr.SumRankCode(tower, lengths, np.split(G, np.cumsum(lengths)[:-1], axis=1))
        if C.non_degenerate and sr.dual_code(C).non_degenerate:
            return C


@pytest.mark.parametrize("key", RANK_TOWERS)
def test_dual_distance_from_profiles_matches_the_dual_class_scan(monkeypatch, key):
    # delsarte_dual reads d(C^perp) off the profiles of the system of C; the oracle scans the classes
    # of the dual code.  Lengths past m with unequal blocks are drawn too: there duality need not keep
    # MSRD codes MSRD, and the certificate must not claim it does.
    tower, rng = make_tower(*key), np.random.default_rng(26)
    calls, singleton = [], sr.singleton_msrd
    monkeypatch.setattr(sr, "singleton_msrd", lambda C, d: calls.append(d) or singleton(C, d=d))
    for _ in range(12):
        C = _random_code(tower, rng)
        calls.clear()
        Dd = sr.delsarte_dual(sr.system_from_code(C))
        assert sorted(Dd.dims) == sorted(C.lengths)
        assert calls == [sr.min_distance(C), sr.min_distance(sr.dual_code(C))]


def test_isometries(code9):
    ident = sr.apply_isometry(code9, [1, 1], [np.eye(2, dtype=int)] * 2, [0, 1])
    assert sr.weight_spectrum(ident) == sr.weight_spectrum(code9)
    swapped = sr.apply_isometry(code9, [1, 1], [np.eye(2, dtype=int)] * 2, [1, 0])
    assert sr.weight_spectrum(swapped) == sr.weight_spectrum(code9)
    assert sr.min_distance(swapped) == sr.min_distance(code9)
    i = code9.tower.gen()
    scaled = sr.apply_isometry(code9, [i, 1], [np.array([[1, 2], [1, 1]]), np.eye(2, dtype=int)], [0, 1])
    assert sr.weight_spectrum(scaled) == sr.weight_spectrum(code9)
    with pytest.raises(NotInvertible):
        sr.apply_isometry(code9, [1, 1], [np.array([[1, 2], [2, 1]]), np.eye(2, dtype=int)], [0, 1])
    with pytest.raises(LengthProfileBroken):
        sr.apply_isometry(code9, [1, 1], [np.eye(2, dtype=int)] * 2, [0, 0])


def test_weight_spectrum_exhaustive_against_codewords(code9):
    # spectrum from class scan matches a literal scan of all 81 codewords
    t = code9.tower
    spec = sr.weight_spectrum(code9)
    direct: dict[int, int] = {}
    for msg in itertools.product(range(t.order), repeat=code9.k):
        w = sr.sumrank_weight(code9, np.array(msg, dtype=DTYPE))
        direct[w] = direct.get(w, 0) + 1
    assert spec == direct


def test_msrd_iff_optimal_inequality():
    # in both closed regimes the Singleton verdict and the hyperplane
    # inequality of the optimal-design theorem must coincide
    from subdesigns.repro import max1_corpus

    seen = 0
    for name, D in max1_corpus():
        if D.ambient.tower.order ** D.ambient.k > 3**8:
            continue
        C = sr.code_from_system(D)
        v = sr.singleton_msrd(C, d=sr.min_distance(C))
        if "optimal_ok" in v:
            assert v["optimal_ok"] == v["is_msrd"], (name, v)
            seen += 1
    assert seen >= 10


def test_weight_agreement_exhaustive_small_codes():
    # direct expansion ranks vs geometric hyperplane sections, every class
    from subdesigns.subspace import canonical_projective_reps

    corpus = [
        sr.code_from_system(twisted_design(2, 3, 2, 1)),
        sr.code_from_system(de.construct_field_partition(2, 2, 3)),
    ]
    for C in corpus:
        for x in canonical_projective_reps(C.tower.order, C.k):
            sr.sumrank_weight(C, x)


def test_scalar_multiples_share_support(code9):
    # exhaustive over all classes and all scalars for the 81-word code
    t = code9.tower
    from subdesigns.subspace import canonical_projective_reps

    for x in canonical_projective_reps(t.order, code9.k):
        base = support(code9, x)
        for c in range(2, t.order):
            scaled = support(code9, np.asarray(t.fqm.mul(c, x), dtype=DTYPE))
            assert scaled == base


def _looped_pairs(C):
    """The pairs verdict by a double loop over support containment, first (a, b) in row-major order."""
    reps = sp.canonical_projective_reps(C.tower.order, C.k)
    sups = [support(C, x) for x in reps]
    for a, sa in enumerate(sups):
        for b, sb in enumerate(sups):
            # containment needs blockwise dims no larger; testing that first keeps the loop short
            if a != b and all(db <= da for da, db in zip(sa.dims, sb.dims)) and sa.contains(sb, C.tower.fq):
                return False, (np.hstack(C.encode(reps[a])), np.hstack(C.encode(reps[b])))
    return True, None


def _assert_same_pairs_verdict(C):
    got, want = sr.is_minimal_code(C, method="pairs"), _looped_pairs(C)
    assert got[0] == want[0]
    assert (got[1] is None) == (want[1] is None)
    if want[1] is not None:
        assert [w.tolist() for w in got[1]] == [w.tolist() for w in want[1]]


@given(st.integers(0, 10_000))
@example(197)  # F_27, k = 3 in three blocks: 757 classes
@example(338)  # F_9, k = 3: the witness row a = 34
def test_pairs_match_looped_support_containment(seed):
    # random codes of the shapes criterion 10 draws
    rng = np.random.default_rng(seed)
    p, h, m = [(2, 1, 2), (2, 1, 3), (3, 1, 2), (3, 1, 3)][int(rng.integers(0, 4))]
    tower = make_tower(p, h, m)
    k = int(rng.integers(1, 4))
    lengths = sorted((int(rng.integers(1, 4)) for _ in range(int(rng.integers(1, 4)))), reverse=True)
    assume(k <= sum(lengths))
    G = rng.integers(0, tower.order, (k, sum(lengths))).astype(DTYPE)
    assume(linalg.rank(tower.fqm, G) == k)
    _assert_same_pairs_verdict(sr.SumRankCode(tower, lengths, np.split(G, np.cumsum(lengths)[:-1], axis=1)))


def test_pairs_match_looped_support_containment_on_corpus():
    from subdesigns.repro import max1_corpus

    for _, D in max1_corpus():
        if D.ambient.tower.order ** D.ambient.k <= 4096:
            _assert_same_pairs_verdict(sr.code_from_system(D))


def test_pairs_witness_survives_slicing_rows_and_candidates(monkeypatch):
    # rows go in slices of n t cells and their candidate pairs are ranked in chunks of 2 m max n_i
    # cells; at 1024 cells both split (glued q2 m3 k4 t1: 1 row a slice, 28 pairs a chunk), and on
    # GL images of the corpus codes the witness is the one of the default chunks and, up to Q^k =
    # 729, the first pair of the double loop
    from subdesigns.repro import max1_corpus
    from test_design import _moved

    designs = [D for _, D in max1_corpus() if D.ambient.tower.order ** D.ambient.k <= 4096]
    for seed in (2801, 2803):
        for D in designs:
            C = sr.code_from_system(_moved(D, seed))
            want = sr.is_minimal_code(C, method="pairs")
            if D.ambient.tower.order ** D.ambient.k <= 729:
                _assert_same_pairs_verdict(C)
            monkeypatch.setattr(linalg, "RANK_CELLS", 1 << 10)
            got = sr.is_minimal_code(C, method="pairs")
            monkeypatch.undo()
            assert got[0] == want[0] and (got[1] is None) == (want[1] is None)
            if want[1] is not None:
                assert [w.tolist() for w in got[1]] == [w.tolist() for w in want[1]]


def test_sumrank_certificate_survives_python_O():
    # a geometric weight off by one must be refused even with asserts stripped
    check = (
        "from subdesigns import sumrank as sr\n"
        "from subdesigns.repro import pseudoregulus_design\n"
        "dims = sr.section_dims\n"
        "sr.section_dims = lambda D, normals: dims(D, normals) + 1\n"
        "sr.sumrank_weight(sr.code_from_system(pseudoregulus_design(3, 2, 1, 2)), [1, 0])\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", check], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert "CertificateFailed: direct and geometric weights disagree" in proc.stderr


def test_delsarte_certificate_survives_python_O():
    # a dual distance one too small (each profile one too large) must be refused with asserts stripped
    check = (
        "import dataclasses\n"
        "from subdesigns import sumrank as sr\n"
        "from subdesigns.repro import pseudoregulus_design\n"
        "profile = sr.design_profile\n"
        "sr.design_profile = lambda D, s, cap: dataclasses.replace(p := profile(D, s, cap), A_min=p.A_min + 1)\n"
        "sr.delsarte_dual(pseudoregulus_design(3, 2, 1, 2))\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", check], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert "CertificateFailed: MSRD optimality must be preserved by duality" in proc.stderr


def test_code_without_blocks_is_bad_parameters(f9):
    with pytest.raises(BadParameters, match="at least one"):
        sr.SumRankCode(f9, [], [])


@pytest.mark.parametrize("scalars,matrices,error", [
    ([1, 1], [-np.eye(2, dtype=int), np.eye(2, dtype=int)], NotInvertible),  # -I: entries outside [0, q)
    ([-1, 1], [np.eye(2, dtype=int)] * 2, BadParameters),  # a code below 0, not the top code of F_9
    ([1000, 1], [np.eye(2, dtype=int)] * 2, BadParameters),  # a code past F_9
    ([1, 1], [[[10**30, 0], [0, 1]], np.eye(2, dtype=int)], NotInvertible),  # past int64, checked before the cast
    ([1, 1], [[[2**32 + 1, 0], [0, 1]], np.eye(2, dtype=int)], NotInvertible),  # past int32, checked before the cast
])
def test_isometry_refuses_entries_outside_the_fields(code9, scalars, matrices, error):
    with pytest.raises(error):
        sr.apply_isometry(code9, scalars, matrices, [0, 1])


@pytest.mark.parametrize("scalars,matrices", [
    ([1.5, 1], [np.eye(2, dtype=int)] * 2),  # a scalar that int() would truncate to 1
    ([1, 1], [np.array([[1.5, 0], [0, 1]]), np.eye(2, dtype=int)]),  # an entry that int() would truncate to 1
    ([1, 1], [np.eye(2), np.eye(2, dtype=int)]),  # float entries, integral or not
])
def test_isometry_refuses_non_integral_codes(code9, scalars, matrices):
    with pytest.raises(BadParameters, match="is not an integer"):
        sr.apply_isometry(code9, scalars, matrices, [0, 1])


def test_isometry_takes_numpy_integer_codes(code9):
    plain = sr.apply_isometry(code9, [4, 1], [[[1, 2], [1, 1]], np.eye(2, dtype=int)], [0, 1])
    typed = sr.apply_isometry(code9, np.array([4, 1], dtype=np.int64),
                              [np.array([[1, 2], [1, 1]], dtype=np.uint8), np.eye(2, dtype=np.int32)], [0, 1])
    assert np.array_equal(plain.generator, typed.generator)
