"""Associated Hamming codes, two-intersection sets and strongly regular graphs.

The bridge out of the sum-rank world is the Ext system of a design
(``ProjectiveSystem``): the multiset union of the members' linear sets,
point P with multiplicity sum_i (q^w_i - 1)/(q - 1), w_i = dim_q(U_i meet P).
It holds only the design.  Its length has a closed form, its points come
from ``SubspaceDesign.point_dims`` on first read, and a hyperplane x^perp
holds sum_i (q^d_i - 1)/(q - 1) of them, d_i = dim_q(U_i meet x^perp),
read off the design's one cached ``hyperplane_dims`` array, which comes from
the members' ordinary duals where they are large.  So the weight
enumerator of any associated [N, k] Hamming code over F_{q^m} (q^m - 1
codewords per hyperplane plus the zero word) builds no point and no
codeword; the tests scan the code as a small-scale oracle.  No count is
sorted.  Certificates raise ``CertificateFailed`` and survive ``python -O``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from subdesigns.design import SubspaceDesign
from subdesigns.errors import EnumerationCapExceeded, NotTwoIntersection, ZeroMember, certify
from subdesigns.fieldcore import DTYPE
from subdesigns.subspace import DEFAULT_ENUMERATION_CAP, AmbientSpace


@dataclass
class SrgParams:
    v: int
    K: int
    lam: int
    mu: int

    def __post_init__(self) -> None:
        certify(self.K * (self.K - self.lam - 1) == (self.v - self.K - 1) * self.mu,
                "SRG feasibility identity violated")

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.v, self.K, self.lam, self.mu)


@dataclass(eq=False)
class ProjectiveSystem:
    """The Ext system of a design, with the cap that reading its points is held to."""

    design: SubspaceDesign
    cap: int | None

    @property
    def ambient(self) -> AmbientSpace:
        return self.design.ambient

    @property
    def length(self) -> int:
        q = self.ambient.tower.q
        return sum((q**n - 1) // (q - 1) for n in self.design.dims)

    @cached_property
    def entries(self) -> dict[tuple, int]:
        """{canonical point: sum_i (q^w_i - 1)/(q - 1)}, points in point_dims (reps) order."""
        q = self.ambient.tower.q
        pts, dims = self.design.point_dims(self.cap)
        mult = ((q**dims - 1) // (q - 1)).sum(axis=0)
        certify(int(mult.sum()) == self.length, "Ext length must be sum_i (q^n_i - 1)/(q - 1)")
        return dict(zip(map(tuple, pts.tolist()), mult.tolist()))


def ext_system(D: SubspaceDesign, cap: int | None = DEFAULT_ENUMERATION_CAP) -> ProjectiveSystem:
    """Disjoint union of the members' linear sets with rank multiplicities; builds no point."""
    if any(U.dim == 0 for U in D.members):
        raise ZeroMember("all members must be nonzero")
    return ProjectiveSystem(D, cap)


def hyperplane_point_counts(P: ProjectiveSystem, cap: int | None = DEFAULT_ENUMERATION_CAP) -> np.ndarray:
    """Multiplicity-weighted point count on each hyperplane (normal-vector order): the sum
    of (q^d - 1)/(q - 1), from a table over d <= mk, over the members' section dimensions d."""
    q = P.ambient.tower.q
    lines = (q ** np.arange(P.ambient.n_fq + 1, dtype=np.int64) - 1) // (q - 1)
    return lines[P.design.hyperplane_dims(cap)].sum(axis=0)


def weight_enumerator(P: ProjectiveSystem, cap: int | None = DEFAULT_ENUMERATION_CAP) -> dict[int, int]:
    """Exact weight enumerator of any code associated with the system."""
    amb = P.ambient
    Q = amb.tower.order
    counts = hyperplane_point_counts(P, cap=cap)
    N = P.length
    enum: dict[int, int] = {0: 1}
    vals, cnt = np.unique(counts, return_counts=True)
    for on_h, h in zip(vals, cnt):
        w = N - int(on_h)
        enum[w] = enum.get(w, 0) + (Q - 1) * int(h)
    certify(sum(enum.values()) == Q**amb.k, "enumerator must count all codewords")
    certify(max(enum) <= N, "weights cannot exceed the length")
    return enum


def srg_from_two_intersection(
    P: ProjectiveSystem,
    verify_graph: bool = False,
    cap: int | None = DEFAULT_ENUMERATION_CAP,
    verify_cap: int = 4096,
) -> SrgParams:
    """SRG parameters of the coset graph of a two-intersection set.

    verify_graph additionally builds the graph on Q^k vertices and
    checks regularity, lambda and mu exhaustively (within verify_cap).
    """
    Q, k = P.ambient.tower.order, P.ambient.k
    counts = hyperplane_point_counts(P, cap=cap)
    w0, w1 = int(counts.min()), int(counts.max())  # two sizes, and none strictly between
    if w0 == w1 or ((w0 < counts) & (counts < w1)).any():
        sizes = np.unique(counts, return_counts=True)[0].tolist()  # with counts, numpy.ma stays out
        raise NotTwoIntersection(f"hyperplane intersection sizes are {sizes}")
    if P.design.span_dim() != k:
        raise NotTwoIntersection("the point set must span the space")
    N = P.length
    v = Q**k
    K = N * (Q - 1)
    common = Q**2 * (N - w0) * (N - w1)
    lam = K * K + 3 * K - Q * (2 * N - w0 - w1) - K * Q * (2 * N - w0 - w1) + common
    certify(common % v == 0, "mu must be an integer for a two-intersection set")
    mu = common // v
    params = SrgParams(v=v, K=K, lam=lam, mu=mu)
    if verify_graph:
        verify_srg(P, params, cap=verify_cap)
    return params


def graph_adjacency(P: ProjectiveSystem, cap: int = 4096) -> np.ndarray:
    """Dense adjacency of the difference graph on the Q^k ambient vectors."""
    amb = P.ambient
    F = amb.tower.fqm
    Q = amb.tower.order
    k = amb.k
    v = Q**k
    if v > cap:
        raise EnumerationCapExceeded(f"{v} vertices exceed the graph cap {cap}")
    weights = Q ** np.arange(k, dtype=np.int64)
    vecs = np.arange(v)[:, None] // weights % Q  # vertex c is the vector of base-Q digits of c
    A = np.zeros((v, v), dtype=np.uint8)
    for pt in P.entries:
        p = np.array(pt, dtype=DTYPE)
        for scal in range(1, Q):
            step = np.asarray(F.mul(scal, p), dtype=DTYPE)
            nbr = np.asarray(F.add(vecs, step[None, :]), dtype=np.int64) @ weights
            A[np.arange(v), nbr] = 1
    certify(not A.diagonal().any(), "the difference graph must be loopless")
    certify(np.array_equal(A, A.T), "the difference graph must be undirected")
    return A


def verify_srg(P: ProjectiveSystem, params: SrgParams, cap: int = 4096) -> None:
    """Exhaustive strong-regularity check of the difference graph."""
    A = graph_adjacency(P, cap=cap)
    deg = A.sum(axis=1)
    certify(np.all(deg == params.K), "graph is not K-regular")
    F = A.astype(np.float32)
    common = F @ F  # BLAS; exact, as entries and partial sums are integers <= v, and any A in memory has v < 2^24
    adj = A.astype(bool)
    off = ~np.eye(A.shape[0], dtype=bool)
    certify(np.all(common[adj] == params.lam), "lambda mismatch on adjacent pairs")
    certify(np.all(common[(~adj) & off] == params.mu), "mu mismatch on non-adjacent pairs")


def export_dot(P: ProjectiveSystem, cap: int = 256) -> str:
    """Tiny DOT rendering of the difference graph for eyeballing."""
    edges = np.argwhere(np.triu(graph_adjacency(P, cap=cap), 1))  # row-major: i < j
    return "\n".join(["graph srg {", *(f"  v{i} -- v{j};" for i, j in edges), "}"])
