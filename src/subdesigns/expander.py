"""Dimension expanders built from subspace designs.

With ell = mk, t | ell, t <= m and member dimensions ell/t, the domain
is the tuple space D = U_1 x ... x U_t read as the coefficient list of
f(x) = sum_i f_i x^(q^i); the maps send f to its evaluations f(beta_j)
at an F_q-basis beta of F_{q^m}.  Since beta_j^(q^i) lies in F_{q^m},
each map is realised as an ell x mk matrix over F_q, and expansion
ratios are plain rank computations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from subdesigns import linalg
from subdesigns.design import SubspaceDesign
from subdesigns.errors import BadDims, BadParameters, NotABasis, certify
from subdesigns.fieldcore import DTYPE
from subdesigns.gf import code_of
from subdesigns.subspace import DEFAULT_ENUMERATION_CAP, RREF_CHUNK, check_cap, gaussian_binomial, rref_matrix_blocks


@dataclass
class ExpanderFamily:
    """m evaluation maps on the dim-ell coefficient space of a design."""

    design: SubspaceDesign
    beta: tuple[int, ...]
    maps: list[np.ndarray]  # each ell x mk over F_q

    @property
    def ell(self) -> int:
        amb = self.design.ambient
        return amb.tower.m * amb.k


def build_expander(D: SubspaceDesign, beta=None) -> ExpanderFamily:
    """Assemble the maps f -> f(beta_j); requires member dims ell/t and t <= m."""
    amb = D.ambient
    tw = amb.tower
    ell = tw.m * amb.k
    t = D.t
    if t > tw.m or ell % t or any(U.dim != ell // t for U in D.members):
        raise BadDims(f"need t <= m and all member dims equal to ell/t = {ell}/{t}")
    if beta is None:
        beta = tw.y_basis
    beta = [code_of(b) for b in beta]
    if len(beta) != tw.m or linalg.rank(tw.fq, tw.fqm.to_digits(np.array(beta, dtype=DTYPE))) != tw.m:
        raise NotABasis("beta must be an F_q-basis of F_{q^m}")

    maps = []
    for b in beta:
        rows = []
        for i, U in enumerate(D.members):
            scal = tw.frobenius_code(b, i)  # beta^(q^i)
            vecs = amb.contract(U.basis)  # (ell/t) x k over F_{q^m}
            img = np.asarray(tw.fqm.mul(scal, vecs), dtype=DTYPE)
            rows.append(amb.expand(img))
        maps.append(np.vstack(rows))
    fam = ExpanderFamily(design=D, beta=tuple(beta), maps=maps)
    certify(all(M.shape == (ell, ell) for M in fam.maps), "every evaluation map must be ell x ell")
    return fam


@dataclass
class ExpansionReport:
    per_dim: dict[int, dict] = field(default_factory=dict)
    eta: Fraction | None = None
    zeta: Fraction | None = None
    verdict: bool | None = None


def _full_rank_draws(F, rng: np.random.Generator, samples: int, r: int, ell: int):
    """The first `samples` full-rank draws (r, ell) of rng in stream order, in blocks of at most
    RREF_CHUNK: no round draws past the deficit, so the stream stops at the last one kept."""
    while samples:
        X = rng.integers(0, F.size, (min(samples, RREF_CHUNK), r, ell)).astype(DTYPE)
        X = X[linalg.rank_batch(F, X) == r]
        samples -= len(X)
        if len(X):
            yield X


def expansion_check(
    fam: ExpanderFamily,
    max_dim: int,
    mode: str = "exhaustive",
    samples: int = 200,
    seed: int = 0,
    target: tuple | None = None,
    cap: int | None = DEFAULT_ENUMERATION_CAP,
) -> ExpansionReport:
    """Minimum of dim(sum_j Gamma_j(U)) / dim(U) over subspaces of each dimension.

    "exhaustive" enumerates every subspace of the tested dimension (cap
    checked first); "sample" draws uniform subspaces through rank-r
    rejection sampling with the given seed.  A (eta, zeta) target turns
    into a verdict over the dimensions up to eta * ell.
    """
    if mode == "sample" and samples < 1:
        raise BadParameters("sample mode needs at least one sample")
    tw = fam.design.ambient.tower
    q = tw.q
    ell = fam.ell
    report = ExpansionReport()
    if target is not None:
        report.eta, report.zeta = Fraction(target[0]), Fraction(target[1])
    rng = np.random.default_rng(seed)
    for r in range(1, min(max_dim, ell) + 1):
        count = gaussian_binomial(ell, r, q)
        if mode == "exhaustive":
            check_cap(count, cap, f"subspaces of dim {r}")
            blocks = (X for X, _ in rref_matrix_blocks(q, r, ell))
        elif mode == "sample":
            check_cap(samples, cap, f"sampled subspaces of dim {r}")
            blocks = _full_rank_draws(tw.fq, rng, samples, r, ell)
        else:
            raise BadParameters("mode must be 'exhaustive' or 'sample'")
        best = None
        witness = None
        for X in blocks:
            flat = X.reshape(-1, ell)
            images = np.concatenate([linalg.matmul(tw.fq, flat, M).reshape(X.shape[0], r, -1) for M in fam.maps], axis=1)
            ranks = linalg.rank_batch(tw.fq, images)
            i = int(np.argmin(ranks))  # the first minimum keeps enumeration order
            ratio = Fraction(int(ranks[i]), r)
            if best is None or ratio < best:
                best, witness = ratio, X[i]
        report.per_dim[r] = {
            "min_ratio": best,
            "witness": linalg.rref(tw.fq, witness)[0],  # sampled witnesses are raw draws
            "mode": mode,
            "count": count if mode == "exhaustive" else samples,
        }
    if target is not None:
        ok = True
        for r, data in report.per_dim.items():
            if Fraction(r) <= report.eta * ell and data["min_ratio"] < report.zeta:
                ok = False
        report.verdict = ok
    return report
