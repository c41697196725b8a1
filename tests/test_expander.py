import subprocess
import sys

import numpy as np
import pytest

from subdesigns import design as de
from subdesigns import expander as ex
from subdesigns import linalg
from subdesigns.errors import BadDims, BadParameters, NotABasis
from subdesigns.fieldcore import DTYPE
from subdesigns.gf import make_tower
from subdesigns.repro import twisted_design
from subdesigns.subspace import AmbientSpace, span_fq


@pytest.fixture(scope="module")
def family27():
    return ex.build_expander(twisted_design(3, 3, 2, 2))


def test_build_shapes(family27):
    assert family27.ell == 6 and len(family27.maps) == 3
    for M in family27.maps:
        assert M.shape == (6, 6)


def test_build_f4_two_members():
    t = make_tower(2, 1, 2)
    amb = AmbientSpace(t, 2)
    one, zero, w = t.one(), t.zero(), t.gen()
    U1 = span_fq(amb, [(one, zero), (zero, one)])
    U2 = span_fq(amb, [(one, one), (w, zero)])
    fam = ex.build_expander(de.SubspaceDesign(amb, [U1, U2]))
    assert fam.ell == 4 and len(fam.maps) == 2
    with pytest.raises(BadDims):
        ex.build_expander(de.SubspaceDesign(amb, [U1, span_fq(amb, [(one, zero)])]))
    with pytest.raises(NotABasis):
        ex.build_expander(de.SubspaceDesign(amb, [U1, U2]), beta=[t.one(), t.one()])


def test_maps_match_evaluation_semantics(family27):
    # Gamma_j applied to a pure member-i vector is beta_j^(q^i) times it
    D = family27.design
    amb = D.ambient
    t = amb.tower
    rng = np.random.default_rng(2)
    for j, M in enumerate(family27.maps):
        beta = family27.beta[j]
        for i, U in enumerate(D.members):
            coeffs = rng.integers(0, t.q, U.dim).astype(DTYPE)
            vec = linalg.matmul(t.fq, coeffs.reshape(1, -1), U.basis)[0]
            domain = np.zeros(family27.ell, dtype=DTYPE)
            domain[i * U.dim : (i + 1) * U.dim] = coeffs
            img = linalg.vecmat(t.fq, domain, M)
            expected = np.asarray(
                t.fqm.mul(t.frobenius_code(beta, i), amb.contract(vec.reshape(1, -1))[0]),
                dtype=DTYPE,
            )
            assert np.array_equal(amb.contract(img.reshape(1, -1))[0], expected)


def test_linearity_on_random_pairs(family27):
    t = family27.design.ambient.tower
    rng = np.random.default_rng(3)
    for M in family27.maps:
        for _ in range(170):
            u = rng.integers(0, t.q, family27.ell).astype(DTYPE)
            v = rng.integers(0, t.q, family27.ell).astype(DTYPE)
            s = np.asarray(t.fq.add(u, v), dtype=DTYPE)
            lhs = linalg.vecmat(t.fq, s, M)
            rhs = np.asarray(t.fq.add(linalg.vecmat(t.fq, u, M), linalg.vecmat(t.fq, v, M)), dtype=DTYPE)
            assert np.array_equal(lhs, rhs)


def test_exhaustive_dim1(family27):
    report = ex.expansion_check(family27, 1, target=("1/6", 2))
    data = report.per_dim[1]
    assert data["count"] == 364
    assert data["min_ratio"] >= 2
    assert report.verdict


def test_exhaustive_dim2_never_below_bound(family27):
    # (m - t + 1)/A = 2 holds through dimension 2 as well (11011 subspaces)
    report = ex.expansion_check(family27, 2)
    assert report.per_dim[2]["count"] == 11011
    assert report.per_dim[2]["min_ratio"] >= 2


def test_sample_mode_deterministic(family27):
    r1 = ex.expansion_check(family27, 2, mode="sample", samples=25, seed=7)
    r2 = ex.expansion_check(family27, 2, mode="sample", samples=25, seed=7)
    assert r1.per_dim[2]["min_ratio"] == r2.per_dim[2]["min_ratio"]
    assert np.array_equal(r1.per_dim[2]["witness"], r2.per_dim[2]["witness"])


def test_sample_mode_needs_a_sample(family27):
    for samples in (0, -1):
        with pytest.raises(BadParameters):
            ex.expansion_check(family27, 1, mode="sample", samples=samples)


def test_non_design_family_reports_without_claims():
    # a tuple that is NOT a design still produces a report (no contract)
    t = make_tower(2, 1, 2)
    amb = AmbientSpace(t, 2)
    one, zero = t.one(), t.zero()
    U1 = span_fq(amb, [(one, zero), (zero, one)])
    fam = ex.build_expander(de.SubspaceDesign(amb, [U1, U1]))
    report = ex.expansion_check(fam, 1)
    assert report.per_dim[1]["min_ratio"] >= 1


# Sampled minimum ratios and witness rows, recorded with one rref per draw.
SAMPLED = {
    (3, 3, 7, 25): {1: ("3", [[1, 2, 1, 1, 2, 1]]),
                    2: ("2", [[1, 0, 0, 0, 2, 0], [0, 0, 1, 2, 0, 1]]),
                    3: ("2", [[1, 0, 0, 1, 0, 2], [0, 1, 0, 1, 2, 1], [0, 0, 1, 2, 0, 0]])},
    (3, 2, 11, 1): {1: ("2", [[0, 0, 1, 2]]),
                    2: ("2", [[1, 0, 1, 2], [0, 1, 1, 1]]),
                    3: ("4/3", [[1, 0, 0, 1], [0, 1, 0, 2], [0, 0, 1, 2]])},
}


@pytest.mark.parametrize("q,m,seed,samples", list(SAMPLED))
def test_sample_mode_pinned_draws(q, m, seed, samples, monkeypatch):
    # rounds of at most RREF_CHUNK draws, none past the deficit, read the same stream whatever
    # RREF_CHUNK is: the same draws, witnesses and rng state for the next dimension
    fam = ex.build_expander(twisted_design(q, m, 2, 2))
    for chunk in (ex.RREF_CHUNK, 4):
        monkeypatch.setattr(ex, "RREF_CHUNK", chunk)
        report = ex.expansion_check(fam, 3, mode="sample", samples=samples, seed=seed)
        got = {r: (str(data["min_ratio"]), data["witness"].tolist()) for r, data in report.per_dim.items()}
        assert got == SAMPLED[(q, m, seed, samples)]


def test_expander_certificate_survives_python_O():
    # evaluation maps that lose a column must be refused even with asserts stripped
    check = (
        "from subdesigns import expander as ex\n"
        "from subdesigns.repro import twisted_design\n"
        "from subdesigns.subspace import AmbientSpace\n"
        "D = twisted_design(3, 3, 2, 2)\n"
        "expand = AmbientSpace.expand\n"
        "AmbientSpace.expand = lambda self, vecs: expand(self, vecs)[..., :-1]\n"
        "ex.build_expander(D)\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", check], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert "CertificateFailed: every evaluation map must be ell x ell" in proc.stderr
