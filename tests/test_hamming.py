import subprocess
import sys
from itertools import product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from subdesigns import design as de
from subdesigns import hamming as ha
from subdesigns import linalg
from subdesigns.errors import CertificateFailed, EnumerationCapExceeded, NotTwoIntersection, ZeroMember
from subdesigns.fieldcore import DTYPE
from subdesigns.gf import make_tower
from subdesigns.repro import glued_design, pseudoregulus_design
from subdesigns.subspace import AmbientSpace, FqmSubspace, FqSubspace, span_fq


def materialized_enumerator(P) -> dict[int, int]:
    """Oracle: build the generator column-by-column and scan every codeword."""
    amb = P.ambient
    cols = [list(pt) for pt in sorted(P.entries) for _ in range(P.entries[pt])]
    G = np.array(cols, dtype=DTYPE).T  # k x N
    enum: dict[int, int] = {}
    for msg in product(range(amb.tower.order), repeat=amb.k):
        w = int(np.count_nonzero(linalg.vecmat(amb.tower.fqm, np.array(msg, dtype=DTYPE), G)))
        enum[w] = enum.get(w, 0) + 1
    return enum


@pytest.fixture(scope="module")
def subgeometry_design():
    t = make_tower(2, 1, 2)
    amb = AmbientSpace(t, 2)
    one, zero = t.one(), t.zero()
    return de.SubspaceDesign(amb, [span_fq(amb, [(one, zero), (zero, one)])])


def test_ext_system_examples(subgeometry_design):
    P = ha.ext_system(subgeometry_design)
    assert P.length == 3 and set(P.entries.values()) == {1}
    t = subgeometry_design.ambient.tower
    amb = subgeometry_design.ambient
    line = FqmSubspace.from_rows(amb, [[1, 0]]).expand_fq()
    P2 = ha.ext_system(de.SubspaceDesign(amb, [line]))
    assert P2.length == 3 and list(P2.entries.values()) == [3]  # (q^2-1)/(q-1)
    with pytest.raises(ZeroMember):
        ha.ext_system(de.SubspaceDesign(amb, [span_fq(amb, [])]))


def test_ext_length_for_glued_design():
    D = glued_design(3, 3, 4, 2)
    P = ha.ext_system(D)
    assert P.length == 2 * (3**6 - 1) // 2 == 728


def test_weight_enumerator_vs_oracle(subgeometry_design):
    P = ha.ext_system(subgeometry_design)
    enum = ha.weight_enumerator(P)
    assert enum == {0: 1, 2: 9, 3: 6}
    assert materialized_enumerator(P) == enum


def test_one_weight_covering_system():
    baer = de.construct_field_partition(2, 2, 3)
    P = ha.ext_system(baer)
    enum = ha.weight_enumerator(P)
    nonzero = [w for w in enum if w]
    assert len(nonzero) == 1
    assert materialized_enumerator(P) == enum


def test_headline_two_weight_example():
    D = glued_design(3, 3, 4, 2)
    P = ha.ext_system(D)
    enum = ha.weight_enumerator(P)
    assert enum == {0: 1, 675: 18928, 702: 512512}
    params = ha.srg_from_two_intersection(P)
    assert params.as_tuple() == (531441, 18928, 1327, 650)


def test_closed_form_enumerator_max1():
    # counts (q^m-1) h_i at weights N - w_i, per the two-weight closed form
    D = pseudoregulus_design(3, 2, 1, 2)
    P = ha.ext_system(D)
    enum = ha.weight_enumerator(P)
    q, m, k, t = 3, 2, 2, 2
    h0, h1 = de.h_values(q, m, k, t)
    N = t * (q ** (m * k // 2) - 1) // (q - 1)
    w0 = t * (q ** (m * (k - 2) // 2) - 1) // (q - 1)
    w1 = (t - 1) * (q ** (m * (k - 2) // 2) - 1) // (q - 1) + (q ** (m * (k - 2) // 2 + 1) - 1) // (q - 1)
    assert enum == {0: 1, N - w1: (q**m - 1) * h1, N - w0: (q**m - 1) * h0}


def test_closed_form_enumerator_across_corpus():
    # the sweep-side enumerator equals the (q^m - 1) h_i counts at N - w_i
    # for every certified maximum 1-design at desk scale
    from subdesigns.repro import max1_corpus

    for name, D in max1_corpus():
        if D.ambient.tower.order ** D.ambient.k > 3**8:
            continue
        t = D.ambient.tower
        q, m, k, tt = t.q, t.m, D.ambient.k, D.t
        P = ha.ext_system(D)
        enum = ha.weight_enumerator(P)
        h0, h1 = de.h_values(q, m, k, tt)
        e = m * (k - 2) // 2
        N = tt * (q ** (m * k // 2) - 1) // (q - 1)
        w0 = tt * (q**e - 1) // (q - 1)
        w1 = (tt - 1) * (q**e - 1) // (q - 1) + (q ** (e + 1) - 1) // (q - 1)
        expected = {0: 1}
        if h1:
            expected[N - w1] = (q**m - 1) * h1
        if h0:
            expected[N - w0] = expected.get(N - w0, 0) + (q**m - 1) * h0
        assert enum == expected, (name, enum, expected)
        assert sum(P.entries.values()) == N  # runs the Ext-length certificate on the points


def test_degenerate_point_enumerator():
    # single point, k = 1: enumerator 1 + (q^m - 1) z
    t = make_tower(2, 1, 2)
    amb = AmbientSpace(t, 1)
    P = ha.ext_system(de.SubspaceDesign(amb, [span_fq(amb, [(1,)])]))
    assert P.entries == {(1,): 1}
    assert ha.weight_enumerator(P) == {0: 1, 1: 3}


@pytest.mark.parametrize("p,h,m", [(2, 1, 2), (2, 1, 3), (3, 1, 2), (3, 1, 3), (2, 2, 2)])
@given(st.integers(0, 10_000))
def test_point_counts_match_direct_count(p, h, m, seed):
    # oracle: sum of mult * [x . P = 0] over the Ext points, for every normal x
    rng = np.random.default_rng(seed)
    amb = AmbientSpace(make_tower(p, h, m), int(rng.integers(2, 4)))
    q, n = amb.tower.q, amb.n_fq
    t, members = int(rng.integers(1, 4)), []
    while len(members) < t:
        U = FqSubspace.from_expanded_rows(amb, rng.integers(0, q, (int(rng.integers(1, n + 1)), n)))
        if U.dim:
            members.append(U)
    P = ha.ext_system(de.SubspaceDesign(amb, members))
    pts = np.array(list(P.entries))
    mult = np.array(list(P.entries.values()))
    dots = linalg.matmul(amb.tower.fqm, amb.normals, pts.T)
    assert ha.hyperplane_point_counts(P).tolist() == ((dots == 0) * mult).sum(axis=1).tolist()


def test_one_section_sweep_per_design(monkeypatch):
    # the (k-1)-profile, sums, point counts, SRG and cutting totals share one hyperplane array, read off
    # one ordinary dual per member (dim 4 = 2m) with no F_q-rank; the cutting test adds only the
    # F_{q^m}-ranks of its section spans, one chunk of normals here, which rank_batch hands to rank_codes
    # as F_9^4 packed rows
    D = glued_design(3, 2, 4, 2)
    fq = D.ambient.tower.fq
    calls, arrays, duals = [], [], []
    for name in ("rank_codes", "rank_batch"):  # the sweep's F_q-ranks of codes, the cutting test's F_{q^m}-ranks
        rank = getattr(linalg, name)
        monkeypatch.setattr(linalg, name, lambda F, *args, rank=rank: calls.append(F is fq) or rank(F, *args))
    keep, dual = de._keep_hyperplane_dims, de.ordinary_dual
    monkeypatch.setattr(de, "_keep_hyperplane_dims", lambda D, dims: arrays.append(dims.shape) or keep(D, dims))
    monkeypatch.setattr(de, "ordinary_dual", lambda U: duals.append(U) or dual(U))
    prof = de.design_profile(D, D.ambient.k - 1)
    assert calls == [] and arrays == [(D.t, 820)] and duals == list(D.members)
    sums = de.hyperplane_profile_sums(D)
    P = ha.ext_system(D)
    counts = ha.hyperplane_point_counts(P)
    params = ha.srg_from_two_intersection(P)
    cut = de.is_cutting(D)
    assert calls == [False, False] and arrays == [(D.t, 820)] and duals == list(D.members)
    assert prof.A_min == sums.max() and cut.intersection_constant == (len(set(sums.tolist())) == 1)
    assert len(set(counts.tolist())) == 2 and params.v == 9**4


def test_ext_system_reads_points_only_for_entries(monkeypatch):
    # weights and srg read the section array alone; the points cost one met_point_weights of the members, once
    glued = glued_design(3, 3, 4, 2)
    D = de.SubspaceDesign(glued.ambient, glued.members)
    calls = []
    build = de.met_point_weights
    monkeypatch.setattr(de, "met_point_weights", lambda members: calls.append(members) or build(members))
    P = ha.ext_system(D)
    assert ha.weight_enumerator(P) == {0: 1, 675: 18928, 702: 512512}
    assert ha.srg_from_two_intersection(P).as_tuple() == (531441, 18928, 1327, 650)
    assert calls == []
    assert sum(P.entries.values()) == P.length == 728
    assert P.entries is P.entries and ha.ext_system(D).entries == P.entries
    assert calls == [D.members]


def test_ext_length_certificate_checks_point_dims(monkeypatch):
    D = pseudoregulus_design(3, 2, 1, 2)
    pts, dims = D.point_dims()
    monkeypatch.setattr(D, "point_dims", lambda cap: (pts[1:], dims[:, 1:]))  # one point lost
    with pytest.raises(CertificateFailed, match="Ext length"):
        ha.ext_system(D).entries


def test_cached_sections_still_check_the_cap():
    D = glued_design(2, 2, 4, 1)
    P = ha.ext_system(D)
    ha.hyperplane_point_counts(P)  # builds and caches the section array
    for call in (
        lambda: de.hyperplane_profile_sums(D, cap=9),
        lambda: de.design_profile(D, 3, cap=9),
        lambda: de.is_cutting(D, cap=9),
        lambda: ha.hyperplane_point_counts(P, cap=9),
    ):
        with pytest.raises(EnumerationCapExceeded):
            call()


def test_srg_small_graph(subgeometry_design):
    P = ha.ext_system(subgeometry_design)
    params = ha.srg_from_two_intersection(P, verify_graph=True)
    assert params.as_tuple() == (16, 9, 4, 6)
    dot = ha.export_dot(P)
    assert dot.startswith("graph srg {") and dot.count("--") == 16 * 9 // 2


def test_not_two_intersection():
    baer = de.construct_field_partition(2, 2, 3)
    with pytest.raises(NotTwoIntersection, match=r"^hyperplane intersection sizes are \[5\]$"):
        ha.srg_from_two_intersection(ha.ext_system(baer))


def test_srg_needs_a_spanning_point_set():
    # F_4^2 x {0} as an F_2-subspace of F_4^3: two hyperplane sizes, but its five points span only a plane
    t = make_tower(2, 1, 2)
    amb = AmbientSpace(t, 3)
    U = span_fq(amb, [[c, 0, 0] for c in t.y_basis.tolist()] + [[0, c, 0] for c in t.y_basis.tolist()])
    P = ha.ext_system(de.SubspaceDesign(amb, [U]))
    assert np.unique(ha.hyperplane_point_counts(P)).tolist() == [3, 15]
    with pytest.raises(NotTwoIntersection, match=r"^the point set must span the space$"):
        ha.srg_from_two_intersection(P)


def test_verify_srg_catches_a_wrong_lambda_or_mu():
    # 729 vertices: the float32 common-neighbour counts still tell lambda and mu apart exactly
    P = ha.ext_system(pseudoregulus_design(3, 3, 1, 1))
    params = ha.srg_from_two_intersection(P, verify_graph=True)
    assert params.v == 729
    for name, message in (("lam", "lambda mismatch"), ("mu", "mu mismatch")):
        wrong = ha.SrgParams(*params.as_tuple())
        setattr(wrong, name, getattr(wrong, name) + 1)
        with pytest.raises(CertificateFailed, match=message):
            ha.verify_srg(P, wrong)


def test_srg_feasibility_guard():
    with pytest.raises(AssertionError):
        ha.SrgParams(v=10, K=3, lam=0, mu=2)


def test_certificates_survive_python_O():
    # (16, 5, 0, 2) is feasible but wrong for the F_4^2 subgeometry, whose graph is (16, 9, 4, 6)
    check = (
        "from subdesigns import design as de, hamming as ha\n"
        "from subdesigns.gf import make_tower\n"
        "from subdesigns.subspace import AmbientSpace, span_fq\n"
        "amb = AmbientSpace(make_tower(2, 1, 2), 2)\n"
        "D = de.SubspaceDesign(amb, [span_fq(amb, [(1, 0), (0, 1)])])\n"
        "ha.verify_srg(ha.ext_system(D), ha.SrgParams(16, 5, 0, 2))\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", check], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert "CertificateFailed: graph is not K-regular" in proc.stderr
    assert issubclass(CertificateFailed, AssertionError)
