"""F_q- and F_{q^m}-subspaces of the ambient V = F_{q^m}^k, and their linear sets.

Both kinds of subspace share one base, ``RowSpace``: a canonical RREF
basis, parameterised by its field and row width.  F_q-subspaces live in
the expanded space F_q^(mk); the expansion basis of F_{q^m} over F_q is
fixed once and for all as 1, y, ..., y^(m-1) per coordinate block (and
recorded as such in the serialized formats).  F_{q^m}-subspaces are RREF
bases over the top field.  Canonical bases make equality a row-wise
comparison.  One point kernel takes one vector per F_q-line of U to its
point: ``point_weights`` counts them on every point of V, and
``met_point_weights`` (and ``linear_set``, its one-member view) on the
points met alone.  The hyperplane normals of V are read as
``AmbientSpace.normals``, one read-only array per ambient.

``rref_matrix_blocks`` is the one RREF enumerator: pivot supports in
lexicographic order, free entries in row-major code order, as stacked
blocks, one or more per pivot support, which the sweeps hand to the
batched rank kernel (``fqm_subspace_blocks``).  The streams
(``enumerate_rref_matrices``, ``enumerate_fqm_subspaces``) read the same
blocks one matrix at a time, restartable and chunkable by index range.
Counts are checked against Gaussian binomials before any iteration starts.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

from subdesigns import linalg
from subdesigns.errors import (
    AmbientMismatch,
    DimensionMismatch,
    EnumerationCapExceeded,
    ZeroSubspace,
    certify,
)
from subdesigns.fieldcore import DTYPE
from subdesigns.gf import FFElement, FieldTower

# RREF matrices per stacked block in rref_matrix_blocks.
RREF_CHUNK = 4096
# Largest enumeration a library call makes unless given another cap.
DEFAULT_ENUMERATION_CAP = 10**7


def check_cap(count: int, cap: int | None, what: str) -> None:
    """Refuse an enumeration of count objects above cap before any of them is built."""
    if cap is not None and count > cap:
        raise EnumerationCapExceeded(f"{count} {what} exceed cap {cap}")


def gaussian_binomial(a: int, b: int, Q: int) -> int:
    """Number of b-dimensional subspaces of an a-dimensional space over F_Q."""
    if b < 0 or b > a:
        return 0
    num = den = 1
    for i in range(b):
        num *= Q ** (a - i) - 1
        den *= Q ** (i + 1) - 1
    certify(num % den == 0, "Gaussian binomial is not an integer")
    return num // den


class AmbientSpace:
    """V = F_{q^m}^k together with its fixed F_q-expansion to F_q^(mk)."""

    def __init__(self, tower: FieldTower, k: int):
        if k < 1:
            raise DimensionMismatch("k must be >= 1")
        self.tower = tower
        self.k = k
        self.n_fq = tower.m * k

    def __eq__(self, other) -> bool:
        return isinstance(other, AmbientSpace) and other.tower is self.tower and other.k == self.k

    def __hash__(self) -> int:
        return hash((id(self.tower), self.k))

    def __repr__(self) -> str:
        return f"AmbientSpace(F_{self.tower.order}^{self.k})"

    # -- coordinate expansion ---------------------------------------------------

    def expand(self, vecs: np.ndarray) -> np.ndarray:
        """(..., k) F_{q^m} codes -> (..., mk) F_q codes, blockwise little-endian."""
        vecs = np.asarray(vecs, dtype=DTYPE)
        dig = self.tower.fqm.to_digits(vecs)  # (..., k, m)
        return dig.reshape(*vecs.shape[:-1], self.n_fq).astype(DTYPE)

    def contract(self, vecs: np.ndarray) -> np.ndarray:
        """(..., mk) F_q codes -> (..., k) F_{q^m} codes."""
        vecs = np.asarray(vecs, dtype=DTYPE)
        dig = vecs.reshape(*vecs.shape[:-1], self.k, self.tower.m)
        return self.tower.fqm.from_digits(dig).astype(DTYPE)

    @cached_property
    def trace_gram(self) -> np.ndarray:
        """Gram matrix over F_q of (u, v) -> Tr(u . v) in expanded coordinates: the
        traces Tr(y^a y^b) in each of the k diagonal blocks."""
        t = self.tower
        T = t.trace_table[t.fqm.mul(t.y_basis[:, None], t.y_basis[None, :])]
        certify(np.array_equal(t.frob[T], T), "traces must lie in F_q; the tower tables are corrupt")
        return np.kron(np.eye(self.k, dtype=DTYPE), T)

    @cached_property
    def normals(self) -> np.ndarray:
        """Canonical normal vectors of all hyperplanes of V, read-only; built on first use."""
        normals = canonical_projective_reps(self.tower.order, self.k)
        normals.flags.writeable = False
        return normals


class RowSpace:
    """A subspace of V held as the canonical RREF basis of its row space.

    Subclasses name the coefficient field (a FieldTower attribute) and the
    row width (an AmbientSpace attribute).  Canonical bases make equality
    a row-wise comparison; objects of different subclasses never compare
    equal.
    """

    field_name: str
    width_name: str

    def __init__(self, ambient: AmbientSpace, basis: np.ndarray, pivots: list[int]):
        self.ambient = ambient
        self.basis = basis
        self.pivots = pivots

    @classmethod
    def _canonical(cls, ambient: AmbientSpace, rows):
        M = np.asarray(rows, dtype=DTYPE).reshape(-1, getattr(ambient, cls.width_name))
        R, piv = linalg.rref(getattr(ambient.tower, cls.field_name), M)
        return cls(ambient, R, piv)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and other.ambient == self.ambient
            and other.basis.shape == self.basis.shape
            and bool(np.array_equal(other.basis, self.basis))
        )

    def __hash__(self) -> int:
        return hash((self.ambient, self.basis.tobytes()))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(dim={self.dim} of {self.ambient})"


class FqSubspace(RowSpace):
    """An F_q-subspace of V in canonical RREF form over the expanded coordinates."""

    field_name = "fq"
    width_name = "n_fq"

    @classmethod
    def from_expanded_rows(cls, ambient: AmbientSpace, rows) -> "FqSubspace":
        return cls._canonical(ambient, rows)

    def gen_block(self) -> np.ndarray:
        """k x dim matrix over F_{q^m} whose columns are the basis (contracted)."""
        return self.ambient.contract(self.basis).T.copy()


class FqmSubspace(RowSpace):
    """An F_{q^m}-subspace of V in canonical RREF form."""

    field_name = "fqm"
    width_name = "k"

    @classmethod
    def from_rows(cls, ambient: AmbientSpace, rows) -> "FqmSubspace":
        return cls._canonical(ambient, rows)

    def expand_fq(self) -> FqSubspace:
        """The same point set as an F_q-subspace (dimension m * dim), spanned by the y^j w_i, j < m."""
        amb = self.ambient
        scaled = amb.tower.fqm.mul(self.basis[:, None, :], amb.tower.y_basis[:, None])  # (dim, m, k)
        U = FqSubspace.from_expanded_rows(amb, amb.expand(scaled.reshape(-1, amb.k)))
        certify(U.dim == self.ambient.tower.m * self.dim, "F_q-expansion must multiply the dimension by m")
        return U

    def contains(self, vec) -> bool:
        """rk [basis; vec] = dim."""
        return linalg.rank(self.ambient.tower.fqm, np.vstack([self.basis, np.asarray(vec, dtype=DTYPE)])) == self.dim


# --- constructors and lattice operations --------------------------------------


def _coerce_vectors(ambient: AmbientSpace, vectors: Iterable) -> np.ndarray:
    rows = []
    for vec in vectors:
        row = []
        for entry in vec:
            if isinstance(entry, FFElement) and entry.tower is not ambient.tower:
                raise AmbientMismatch("vector entry from another tower")
            row.append(int(entry))
        if len(row) != ambient.k:
            raise DimensionMismatch(f"expected vectors of length {ambient.k}")
        rows.append(row)
    return np.asarray(rows, dtype=DTYPE).reshape(-1, ambient.k)


def span_fq(ambient: AmbientSpace, vectors: Iterable) -> FqSubspace:
    """Canonical F_q-span of vectors of F_{q^m}^k (given as FFElement tuples or codes)."""
    return FqSubspace.from_expanded_rows(ambient, ambient.expand(_coerce_vectors(ambient, vectors)))


def _as_fq(X) -> FqSubspace:
    return X.expand_fq() if isinstance(X, FqmSubspace) else X


def meet_join(U, W) -> tuple[FqSubspace, FqSubspace]:
    """(U & W, U + W) as F_q-subspaces; FqmSubspace arguments are expanded."""
    U = _as_fq(U)
    W = _as_fq(W)
    if U.ambient != W.ambient:
        raise AmbientMismatch("subspaces of different ambients")
    F = U.ambient.tower.fq
    meet = FqSubspace.from_expanded_rows(U.ambient, linalg.intersect_rowspaces(F, U.basis, W.basis))
    join = FqSubspace.from_expanded_rows(U.ambient, linalg.sum_rowspaces(F, U.basis, W.basis))
    certify(meet.dim + join.dim == U.dim + W.dim, "Grassmann identity violated")
    return meet, join


def fqm_span(U: FqSubspace) -> FqmSubspace:
    """Smallest F_{q^m}-subspace containing U."""
    return FqmSubspace.from_rows(U.ambient, U.ambient.contract(U.basis))


def canonical_projective_reps(Q: int, k: int) -> np.ndarray:
    """All (Q^k-1)/(Q-1) canonical point representatives: the 1 x k RREF matrices in order.

    The rows with pivot i form one block of Q^w rows, w = k-1-i, whose free
    entries count up in base Q with the last one fastest, so free column
    i+1+j holds each digit Q^(w-1-j) times in a row, the run repeated Q^j
    times; each column is written whole, with no per-row digit arithmetic.
    """
    reps = np.zeros(((Q**k - 1) // (Q - 1), k), dtype=DTYPE)
    lo = 0
    for i in range(k):
        w = k - 1 - i
        block = reps[lo : lo + Q**w]
        block[:, i] = 1
        for j in range(w):
            digits = np.broadcast_to(np.arange(Q, dtype=DTYPE)[:, None], (Q**j, Q, Q ** (w - 1 - j)))
            block[:, i + 1 + j] = digits.reshape(-1)
        lo += Q**w
    return reps


def projective_rep_index(points: np.ndarray, Q: int) -> np.ndarray:
    """Row of each canonical point (..., k) in canonical_projective_reps(Q, k): the block of
    pivot i follows the (Q^k - Q^(k-i))/(Q-1) rows of the pivots before it, and the entries
    after the pivot, read in base Q, count the rows before the point within its block."""
    k = points.shape[-1]
    piv = (points != 0).argmax(axis=-1)
    value = points.astype(np.int64) @ Q ** np.arange(k - 1, -1, -1, dtype=np.int64)  # pivot digit 1 included
    return value - Q ** (k - 1 - piv) + (Q**k - Q ** (k - piv)) // (Q - 1)


def hyperplane_subspace(ambient: AmbientSpace, normal) -> FqmSubspace:
    ker = linalg.right_kernel(ambient.tower.fqm, np.asarray(normal, dtype=DTYPE).reshape(1, -1))
    return FqmSubspace.from_rows(ambient, ker)


def enumerate_rref_matrices(
    Q: int,
    s: int,
    k: int,
    start: int = 0,
    stop: int | None = None,
) -> Iterator[tuple[np.ndarray, list[int]]]:
    """The matrices of rref_matrix_blocks one at a time, indices [start, stop) of its order,
    each a copy with its own pivot list; no block past stop is built."""
    stop = gaussian_binomial(k, s, Q) if stop is None else stop
    lo = 0
    for M, piv in rref_matrix_blocks(Q, s, k) if stop > 0 else ():
        for X in M[max(start - lo, 0) : stop - lo]:
            yield X.copy(), list(piv)
        lo += len(M)
        if lo >= stop:
            return


def rref_matrix_blocks(Q: int, s: int, k: int) -> Iterator[tuple[np.ndarray, list[int]]]:
    """All s x k RREF matrices over a Q-element field, exactly once each, as stacks (n, s, k).

    Pivot supports run in lexicographic order; within one, the free entries
    (row-major) count up in base Q with the last one fastest, as in
    itertools.product.  Each stack holds at most RREF_CHUNK matrices of one
    pivot support, which is yielded with it.
    """
    for pivots in itertools.combinations(range(k), s):
        free_pos = [(i, c) for i in range(s) for c in range(pivots[i] + 1, k) if c not in pivots]
        rows = [i for i, _ in free_pos]
        cols = [c for _, c in free_pos]
        total = Q ** len(free_pos)
        for lo in range(0, total, RREF_CHUNK):
            codes = np.arange(lo, min(lo + RREF_CHUNK, total), dtype=np.int64)
            M = np.zeros((codes.size, s, k), dtype=DTYPE)
            M[:, list(range(s)), pivots] = 1
            if free_pos:  # the base-Q digits of the codes, the last free entry fastest
                M[:, rows, cols] = np.stack(np.unravel_index(codes, (Q,) * len(free_pos)), axis=1)
            yield M, list(pivots)


def _check_subspace_dim(ambient: AmbientSpace, s: int, cap: int | None) -> None:
    if not 0 <= s <= ambient.k:
        raise DimensionMismatch(f"s must lie in [0, {ambient.k}]")
    check_cap(subspace_count(ambient, s), cap, f"subspaces of dim {s}")


def enumerate_fqm_subspaces(
    ambient: AmbientSpace,
    s: int,
    cap: int | None = DEFAULT_ENUMERATION_CAP,
    start: int = 0,
    stop: int | None = None,
) -> Iterator[FqmSubspace]:
    """All s-dimensional F_{q^m}-subspaces, each exactly once, deterministic order."""
    _check_subspace_dim(ambient, s, cap)
    for M, piv in enumerate_rref_matrices(ambient.tower.order, s, ambient.k, start=start, stop=stop):
        yield FqmSubspace(ambient, M, piv)


def fqm_subspace_blocks(
    ambient: AmbientSpace,
    s: int,
    cap: int | None = DEFAULT_ENUMERATION_CAP,
) -> Iterator[tuple[np.ndarray, list[int]]]:
    """RREF bases of enumerate_fqm_subspaces, in its order, as rref_matrix_blocks stacks."""
    _check_subspace_dim(ambient, s, cap)
    return rref_matrix_blocks(ambient.tower.order, s, ambient.k)


def subspace_count(ambient: AmbientSpace, s: int) -> int:
    return gaussian_binomial(ambient.k, s, ambient.tower.order)


def canonical_points(F, vecs: np.ndarray) -> np.ndarray:
    """Nonzero vectors (B, k) over F, each divided by its first nonzero coordinate: its point's
    canonical representative, as in canonical_projective_reps."""
    lead = vecs[np.arange(vecs.shape[0]), (vecs != 0).argmax(axis=1)]
    return F.mul(vecs, F.inv(lead)[:, None])


def projective_reps_at(rows: np.ndarray, Q: int, k: int) -> np.ndarray:
    """Rows (B,) of canonical_projective_reps(Q, k) built alone, inverting projective_rep_index."""
    starts = (Q**k - Q ** (k - np.arange(k, dtype=np.int64))) // (Q - 1)
    piv = np.searchsorted(starts, rows, side="right") - 1
    value = rows - starts[piv] + Q ** (k - 1 - piv)  # the point read in base Q, pivot digit 1 included
    return (value[:, None] // Q ** np.arange(k - 1, -1, -1, dtype=np.int64) % Q).astype(DTYPE)


def _line_rows(U: FqSubspace) -> np.ndarray:
    """The canonical_projective_reps row of the point of each F_q-line of U: one vector per line,
    its coefficients the rows of canonical_projective_reps(q, dim U) built a chunk at a time by
    projective_reps_at, times the basis, normalised by canonical_points."""
    amb = U.ambient
    q, r = amb.tower.q, U.dim
    lines = np.arange((q**r - 1) // (q - 1))  # U = 0 has no line and no chunk
    rows = [np.zeros(0, dtype=np.int64)]
    for part in linalg.chunks(len(lines), amb.n_fq):
        vecs = amb.contract(linalg.matmul(amb.tower.fq, projective_reps_at(lines[part], q, r), U.basis))
        rows.append(projective_rep_index(canonical_points(amb.tower.fqm, vecs), amb.tower.order))
    return np.concatenate(rows)


def _weights_from_counts(U: FqSubspace, counts: np.ndarray) -> np.ndarray:
    """w with counts = (q^w - 1)/(q - 1), the lines of U on each point; certified after the rank
    identity: the counts add up to the (q^n - 1)/(q - 1) lines of U, n = dim U."""
    q, n = U.ambient.tower.q, U.dim
    certify(int(counts.sum()) == (q**n - 1) // (q - 1), "linear-set rank identity violated")
    lines = (q ** np.arange(min(n, U.ambient.tower.m) + 1) - 1) // (q - 1)  # on a point of weight w
    table = np.full(lines[-1] + 1, -1)
    table[lines] = np.arange(len(lines))
    w = table.take(counts, mode="clip")  # a count past the table reads the top weight
    certify(w.min(initial=0) >= 0 and np.array_equal(lines.take(w), counts),
            "point line count is not of the form (q^w - 1)/(q - 1)")
    return w


def point_weights(U: FqSubspace) -> np.ndarray:
    """dim_q(U meet P) for every point P of V, in canonical_projective_reps order (0 off L_U):
    the lines of U on each point (_line_rows), counted by one bincount."""
    return _weights_from_counts(U, np.bincount(_line_rows(U), minlength=subspace_count(U.ambient, 1)))


def met_point_weights(members) -> tuple[np.ndarray, np.ndarray]:
    """(points, dims): the canonical points that some member meets, shape (#P, k), in
    canonical_projective_reps order, and dim_q(U_i meet P), shape (t, #P).  The points are
    numbered by the rows met alone (one np.unique over the members' lines), so no array is
    longer than the members' lines, however many points V has."""
    amb = members[0].ambient
    rows = [_line_rows(U) for U in members]
    met, at = np.unique(np.concatenate(rows), return_inverse=True)
    at = np.split(at, np.cumsum([len(r) for r in rows])[:-1])
    dims = np.array([_weights_from_counts(U, np.bincount(i, minlength=len(met))) for U, i in zip(members, at)])
    return projective_reps_at(met, amb.tower.order, amb.k), dims


def linear_set(U: FqSubspace, cap: int | None = DEFAULT_ENUMERATION_CAP) -> dict[tuple, int]:
    """The linear set L_U as {canonical point P: weight dim_q(U meet P)}, points in
    canonical_projective_reps order: met_point_weights of U alone, with its certificates."""
    if U.dim == 0:
        raise ZeroSubspace("the zero subspace has no linear set")
    check_cap(U.ambient.tower.q**U.dim, cap, "vectors")
    points, dims = met_point_weights([U])
    return dict(zip(map(tuple, points.tolist()), dims[0].tolist()))


def ordinary_dual(U: FqSubspace) -> FqSubspace:
    """Orthogonal complement under (u, v) -> Tr(u . v); dim U + dim U' = mk."""
    amb = U.ambient
    ker = linalg.right_kernel(amb.tower.fq, linalg.matmul(amb.tower.fq, U.basis, amb.trace_gram))  # canonical
    dual = FqSubspace(amb, ker, (ker != 0).argmax(axis=1).tolist())
    certify(dual.dim + U.dim == amb.n_fq, "dim U + dim U' must equal mk")
    return dual


def fqm_dual(W: FqmSubspace) -> FqmSubspace:
    """Orthogonal complement over F_{q^m} under the standard dot form."""
    return FqmSubspace.from_rows(W.ambient, linalg.right_kernel(W.ambient.tower.fqm, W.basis))

