import subprocess
import sys

import numpy as np
import pytest

from subdesigns import design as de
from subdesigns import linalg
from subdesigns import strongbridge as sb
from subdesigns.cli import main as cli_main
from subdesigns.errors import (
    BadParameters,
    DegreeTooLarge,
    DimensionMismatch,
    EnumerationCapExceeded,
    NotAMultiple,
    NotEvasive,
    NotIrreducible,
    PlacesCollide,
    SpanTooSmall,
)
from subdesigns.fieldcore import poly_eval, poly_is_irreducible
from subdesigns.gf import make_tower
from subdesigns.subspace import AmbientSpace, FqmSubspace, FqSubspace, enumerate_fqm_subspaces, span_fq


@pytest.fixture(scope="module")
def strong_f4():
    """Two F_4-lines of F_4^2: a strong (1,1)-design."""
    t = make_tower(2, 1, 2)
    amb = AmbientSpace(t, 2)
    V1 = FqmSubspace.from_rows(amb, [[1, 0]])
    V2 = FqmSubspace.from_rows(amb, [[0, 1]])
    return sb.StrongSubspaceDesign(amb, [V1, V2])


def test_verify_strong_basics(strong_f4):
    assert sb.verify_strong(strong_f4, 1) == 1
    amb = strong_f4.ambient
    full = FqmSubspace.from_rows(amb, np.eye(2, dtype=int))
    assert sb.verify_strong(sb.StrongSubspaceDesign(amb, [full]), 1) == 1
    point = FqmSubspace.from_rows(amb, [[1, 0]])
    assert sb.verify_strong(sb.StrongSubspaceDesign(amb, [point]), 1) == 1


def test_verify_strong_s1_past_the_vector_cap_sweeps_points():
    # the whole of F_4^2: 16 vectors but 5 points, so cap 10 takes the section sweep, with the same witness
    amb = AmbientSpace(make_tower(2, 1, 2), 2)
    S = sb.StrongSubspaceDesign(amb, [FqmSubspace.from_rows(amb, [[1, 0], [0, 1]])])
    assert sb.verify_strong(S, 1, cap=10) == 1
    D = de.SubspaceDesign(amb, [S.members[0].expand_fq()])
    fast, swept = de.design_profile(D, 1), de.design_profile(D, 1, cap=10)
    assert (swept.A_min, swept.witness.basis.tolist()) == (fast.A_min, fast.witness.basis.tolist()) == (2, [[1, 0]])
    with pytest.raises(EnumerationCapExceeded):
        sb.verify_strong(S, 1, cap=4)


@pytest.mark.parametrize("p,h,m,k", [(2, 1, 3, 3), (2, 1, 2, 4)])
def test_verify_strong_matches_looped_meets(p, h, m, k):
    # the maximum over every W of sum_i dim_{q^m}(V_i meet W), with the meets built over F_{q^m}
    t = make_tower(p, h, m)
    amb = AmbientSpace(t, k)
    rng = np.random.default_rng(k)
    S = sb.StrongSubspaceDesign(amb, [FqmSubspace.from_rows(amb, rng.integers(0, t.order, (d, k))) for d in (1, 2, k - 1)])
    for s in range(1, k + 1):
        looped = max(sum(linalg.intersect_rowspaces(t.fqm, V.basis, W.basis).shape[0] for V in S.members)
                     for W in enumerate_fqm_subspaces(amb, s))
        assert sb.verify_strong(S, s) == looped
    with pytest.raises(DimensionMismatch):
        sb.verify_strong(S, 0)


def test_cameron_liebler_point_pencil():
    S, pred = sb.cameron_liebler("point_pencil", 1, 3, 2)
    assert S.t == 7 and pred == {"x": 1, "w": [6, 0], "w_prime": [3, 4], "A": 8}
    assert sb.verify_strong(S, 2) == 8  # exhaustive sweep of all 35 lines


def test_cameron_liebler_other_kinds():
    S, pred = sb.cameron_liebler("in_hyperplane", 1, 3, 2)
    assert S.t == 7 and pred["x"] == 1
    assert sb.verify_strong(S, 2) == pred["A"] == 8
    S, pred = sb.cameron_liebler("mixed", 1, 3, 2)
    assert pred["x"] == 2 and sb.verify_strong(S, 2) == pred["A"]
    S, pred = sb.cameron_liebler("complement", 1, 3, 2, params={"of": "point_pencil"})
    assert pred["x"] == 2**2 + 1 - 1 == 4
    assert sb.verify_strong(S, 2) == pred["A"]
    with pytest.raises(BadParameters):  # "union" was a second name for mixed
        sb.cameron_liebler("union", 1, 3, 2, params={"of": ["point_pencil", "in_hyperplane"]})
    with pytest.raises(BadParameters):
        sb.cameron_liebler("point_pencil", 1, 2, 2)  # k < 2n+1


def _looped_cameron_liebler(kind, n, k, q, of=None):
    """The members as a looped filter of enumerate_fqm_subspaces: the oracle of the masks."""
    amb = AmbientSpace(make_tower(q, 1, 1), k + 1)
    e1, elast = np.eye(k + 1, dtype=int)[[0, -1]]
    preds = {
        "point_pencil": lambda W: W.contains(e1),
        "in_hyperplane": lambda W: not np.any(W.basis[:, -1]),
        "mixed": lambda W: W.contains(elast) or not np.any(W.basis[:, -1]),
    }
    if kind == "complement":
        return [W for W in enumerate_fqm_subspaces(amb, n + 1) if not preds[of](W)]
    return [W for W in enumerate_fqm_subspaces(amb, n + 1) if preds[kind](W)]


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("kind,of", [("point_pencil", None), ("in_hyperplane", None), ("mixed", None),
                                     ("complement", "point_pencil"), ("complement", "in_hyperplane"),
                                     ("complement", "mixed")])
def test_cameron_liebler_masks_match_looped_filter(kind, of, q):
    # member bases and their order are those of the per-subspace predicates
    S, _ = sb.cameron_liebler(kind, 1, 3, q, params=None if of is None else {"of": of})
    want = _looped_cameron_liebler(kind, 1, 3, q, of)
    assert [(V.basis.tolist(), V.pivots) for V in S.members] == [(W.basis.tolist(), W.pivots) for W in want]


@pytest.mark.parametrize("q", [2, 3])
def test_cameron_liebler_union_is_refused(q):
    # the set "union" named is built as mixed; the library and the CLI refuse the second name
    with pytest.raises(BadParameters, match="unknown base kind 'union'"):
        sb.cameron_liebler("union", 1, 3, q, params={"of": ["in_hyperplane", "point_pencil"]})
    with pytest.raises(SystemExit) as exc:
        cli_main(["strong", "cameron-liebler", "--kind", "union", "--n", "1", "--k", "3", "--q", str(q)])
    assert exc.value.code == 2


def test_cameron_liebler_q3():
    S, pred = sb.cameron_liebler("point_pencil", 1, 3, 3)
    assert pred["x"] == 1 and S.t == 13
    assert sb.verify_strong(S, 2) == pred["A"]


def test_evasive_intersect(strong_f4):
    t = strong_f4.ambient.tower
    amb = strong_f4.ambient
    one, zero = t.one(), t.zero()
    E = span_fq(amb, [(one, zero), (zero, one)])  # scattered F_2^2
    out = sb.evasive_intersect(strong_f4, E, 1, 1)
    assert de.design_profile(out, 1).A_min <= 1
    full = FqSubspace.from_expanded_rows(amb, np.eye(4, dtype=int))
    out2 = sb.evasive_intersect(strong_f4, full, t.m, 1)  # identity intersection
    assert out2.dims == (2, 2)
    with pytest.raises(NotEvasive):
        sb.evasive_intersect(strong_f4, E, "1/2", 1)
    # dimension floor: dim U_i >= m k_i - km + dim E
    for U, V in zip(out.members, strong_f4.members):
        assert U.dim >= t.m * V.dim - t.m * amb.k + E.dim


def test_intermediate_field(strong_f4):
    out = sb.intermediate_field_design(strong_f4, 4, 1, A=1)
    assert out.ambient.tower.order == 16 and out.dims == (2, 2)
    # sweep of the 17 points of PG(1,16): a sharp (1, mA) = (1, 2) design
    assert de.design_profile(out, 1).A_min == 2
    # y goes to the least root of its modulus in F_16: the line through (1, y) lands on (1, root)
    amb = strong_f4.ambient
    t = amb.tower
    tilted = sb.intermediate_field_design(sb.StrongSubspaceDesign(amb, [FqmSubspace.from_rows(amb, [[1, t.q]])]), 4, 1)
    big = tilted.ambient.tower
    root = min(x for x in range(big.order) if int(poly_eval(big.fqm, t.fqm_modulus, x)) == 0)
    assert tilted.members[0] == span_fq(tilted.ambient, [[1, root], [root, int(big.fqm.mul(root, root))]])
    boundary = sb.intermediate_field_design(strong_f4, 2, 1, A=1)
    assert boundary.ambient.tower is strong_f4.ambient.tower
    with pytest.raises(NotAMultiple):
        sb.intermediate_field_design(strong_f4, 3, 1)


def test_places_embed():
    t = make_tower(2, 2, 3)  # q = 4, m = 3
    p = [1, 1, 0, 1]  # y^3 + y + 1, irreducible over F_4, moved by tau
    assert poly_is_irreducible(t.fq, p)
    D = sb.places_embed(t, [[[1], [0, 1]]], p, 2, 2)
    assert D.dims == (2,)  # injectivity: dim preserved
    D1 = sb.places_embed(t, [[[1]]], p, 2, 2)
    vec = D1.ambient.contract(D1.members[0].basis)[0]
    assert list(vec) == [1, 1]  # constants map to (1, ..., 1)
    # x goes to the least root of each place: of p, and of tau p, whose roots are those of p divided by zeta
    F = t.fqm
    r1 = min(x for x in range(t.order) if int(poly_eval(F, p, x)) == 0)
    r2 = min(x for x in range(t.order) if int(poly_eval(F, p, int(F.mul(2, x)))) == 0)
    Dx = sb.places_embed(t, [[[0, 1]]], p, 2, 2)
    assert Dx.members[0] == span_fq(Dx.ambient, [[r1, r2]])
    with pytest.raises(PlacesCollide):
        sb.places_embed(t, [[[1]]], [2, 0, 0, 1], 2, 2)  # y^3 + c is tau-invariant
    with pytest.raises(DegreeTooLarge):
        sb.places_embed(t, [[[0] * 6 + [1]]], p, 2, 2)
    with pytest.raises(NotIrreducible):
        sb.places_embed(t, [[[1]]], [0, 0, 0, 1], 2, 2)  # y^3 is reducible
    with pytest.raises(BadParameters):
        sb.places_embed(t, [[[1]]], [1, 1, 0, 0, 1], 2, 2)  # degree != m


def test_places_embed_of_an_empty_member():
    D = sb.places_embed(make_tower(2, 2, 3), [[], [[1]]], [1, 1, 0, 1], 2, 2)
    assert D.dims == (0, 1)


def test_evasive_intersection_with_the_zero_subspace_spans_too_little():
    amb = AmbientSpace(make_tower(3, 1, 2), 2)
    S = sb.StrongSubspaceDesign(amb, [FqmSubspace.from_rows(amb, [[1, 0]])])
    with pytest.raises(SpanTooSmall):
        sb.evasive_intersect(S, span_fq(amb, []), 1, 1)


def test_places_injectivity_larger_space():
    t = make_tower(2, 2, 3)
    p = [1, 1, 0, 1]
    gens = [[1], [0, 1], [0, 0, 1], [0, 0, 0, 1], [0, 0, 0, 0, 1]]  # all of F_4[x]_{<5}
    D = sb.places_embed(t, [gens], p, 2, 2)
    assert D.dims == (5,)


def test_strongbridge_certificate_survives_python_O():
    # a strong-design bound below the truth must be refused even with asserts stripped
    check = (
        "from subdesigns import strongbridge as sb\n"
        "from subdesigns.gf import make_tower\n"
        "from subdesigns.subspace import AmbientSpace, FqmSubspace\n"
        "amb = AmbientSpace(make_tower(2, 1, 2), 2)\n"
        "S = sb.StrongSubspaceDesign(amb, [FqmSubspace.from_rows(amb, [[1, 0]]), FqmSubspace.from_rows(amb, [[0, 1]])])\n"
        "sb.intermediate_field_design(S, 4, 1, A=0)\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", check], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert "CertificateFailed: intermediate-field certificate failed" in proc.stderr
