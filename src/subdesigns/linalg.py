"""Exact linear algebra over a SmallField.

Matrices are 2-D numpy int32 arrays of element codes.  Everything is
reduced row-echelon based: RREF output is canonical (pivots 1, pivot
columns elementary, pivots strictly increasing), so row spaces compare
by array equality.

The sweeps need ranks and echelon rows of many tiny matrices.
``echelon_batch``, the one batched elimination, reduces a whole stack
(B, r, c) column by column with one field gather per step: table-driven
elimination in the spirit of M4RI, vectorised over the batch instead of
over bits.  ``rank_batch`` counts its pivots.  The looped ``rref``
serves single subspaces and is the oracle of both.  Membership and
containment are the rank identity rk [A; B] = rk A; there is no
separate membership test.
"""

from __future__ import annotations

import numpy as np

from subdesigns.fieldcore import DTYPE, SmallField

# Matrix cells per elimination chunk in rank_batch.
RANK_CELLS = 1 << 16


def rref(F: SmallField, M: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Canonical reduced row echelon form; returns (nonzero rows, pivot columns)."""
    M = np.array(M, dtype=DTYPE, copy=True)
    rows, cols = M.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        sub = M[r:, c]
        nz = np.nonzero(sub)[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            M[[r, piv]] = M[[piv, r]]
        if M[r, c] != 1:
            M[r] = F.mul(M[r], int(F.inv(int(M[r, c]))))
        col = M[:, c].copy()
        col[r] = 0
        hit = np.nonzero(col)[0]
        if hit.size:
            M[hit] = F.sub(M[hit], F.mul(col[hit, None], M[r][None, :]))
        pivots.append(c)
        r += 1
    return M[:r], pivots


def rank(F: SmallField, M: np.ndarray) -> int:
    return rref(F, M)[0].shape[0]


def rank_batch(F: SmallField, M: np.ndarray) -> np.ndarray:
    """F-ranks (B,) of a stack M (B, r, c) of matrices: the pivots of echelon_batch.

    The stack is eliminated RANK_CELLS cells at a time, which bounds the
    temporaries whatever its length.
    """
    M = np.asarray(M)
    if M.shape[1] < M.shape[2]:  # rk M = rk M^T; fewer columns, fewer passes
        M = M.transpose(0, 2, 1)
    B, r, c = M.shape
    ranks = np.zeros(B, dtype=np.int64)
    step = max(1, RANK_CELLS // max(1, r * c))
    for lo in range(0, B, step):
        ranks[lo : lo + step] = (echelon_batch(F, M[lo : lo + step])[1] < c).sum(axis=1)
    return ranks


def echelon_batch(F: SmallField, M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Forward elimination of a stack M (B, r, c); returns (E, lead).

    Per column, each matrix takes its first unused row with a nonzero
    entry there as pivot and clears that column from its other unused
    rows; rows keep their places.  lead (B, r) is each row's pivot column,
    c for the rows left without one, which are zero.  The rows with
    lead >= j span the part of the row space that vanishes on columns < j.
    Only F.mul, F.add, F.neg and F.inv are used, so log/exp fields work too.
    """
    M = np.array(M, dtype=DTYPE, order="C")
    B, r, c = M.shape
    lead = np.full((B, r), c, dtype=np.int64)
    free = np.ones((B, r), dtype=bool)
    for col in range(c):
        cand = (M[:, :, col] != 0) & free
        b = np.nonzero(cand.any(axis=1))[0]
        if b.size == 0:
            continue
        piv = cand[b].argmax(axis=1)
        free[b, piv] = False
        lead[b, piv] = col
        row = M[b, piv, col:]
        row = F.mul(row, F.inv(row[:, :1]))
        rest = M[b, :, col:]
        fac = F.neg(np.where(free[b], rest[:, :, 0], 0))  # negate the (B, r) factors, not the products
        M[b, :, col:] = F.add(rest, F.mul(fac[:, :, None], row[:, None, :]))
    return M, lead


def right_kernel(F: SmallField, M: np.ndarray) -> np.ndarray:
    """Canonical basis (as rows) of {x : M x^T = 0}."""
    R, piv = rref(F, M)
    rows, cols = R.shape
    free = [c for c in range(cols) if c not in piv]
    if not free:
        return np.zeros((0, cols), dtype=DTYPE)
    K = np.zeros((len(free), cols), dtype=DTYPE)
    for idx, f in enumerate(free):
        K[idx, f] = 1
        for i, pc in enumerate(piv):
            K[idx, pc] = int(F.neg(int(R[i, f])))
    return rref(F, K)[0]


def left_kernel(F: SmallField, M: np.ndarray) -> np.ndarray:
    return right_kernel(F, M.T)


def matmul(F: SmallField, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    if A.shape[1] != B.shape[0]:
        raise ValueError("shape mismatch")
    out = np.zeros((A.shape[0], B.shape[1]), dtype=DTYPE)
    for i in range(A.shape[1]):
        out = np.asarray(F.add(out, F.mul(A[:, i, None], B[None, i, :])), dtype=DTYPE)
    return out


def vecmat(F: SmallField, v: np.ndarray, A: np.ndarray) -> np.ndarray:
    return matmul(F, np.asarray(v, dtype=DTYPE).reshape(1, -1), A).reshape(-1)


def sum_rowspaces(F: SmallField, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    if A.shape[0] == 0:
        return rref(F, B)[0]
    if B.shape[0] == 0:
        return rref(F, A)[0]
    return rref(F, np.vstack([A, B]))[0]


def intersect_rowspaces(F: SmallField, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Canonical basis of rowspace(A) & rowspace(B); A, B need not be RREF."""
    ra, rb = A.shape[0], B.shape[0]
    if ra == 0 or rb == 0:
        return np.zeros((0, A.shape[1] if A.ndim == 2 and A.shape[1] else B.shape[1]), dtype=DTYPE)
    # pairs (a, b) with a A = b B are the left kernel of [[A], [-B]]
    D = np.vstack([A, np.asarray(F.neg(B), dtype=DTYPE)])
    L = left_kernel(F, D)
    if L.shape[0] == 0:
        return np.zeros((0, A.shape[1]), dtype=DTYPE)
    return rref(F, matmul(F, L[:, :ra], A))[0]


def meet_dim(F: SmallField, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """dim(rowspace(A) & rowspace(B)) = rk A + rk B - rk [A; B] for A, B of full row rank.

    B may be a stack (..., rb, c) sharing one A; the answer has shape B.shape[:-2].
    """
    B = np.asarray(B, dtype=DTYPE)
    Bs = B.reshape(int(np.prod(B.shape[:-2])), *B.shape[-2:])
    stack = np.concatenate([np.broadcast_to(A, (Bs.shape[0], *A.shape)), Bs], axis=1)
    return (A.shape[0] + B.shape[-2] - rank_batch(F, stack)).reshape(B.shape[:-2])


def invert(F: SmallField, M: np.ndarray) -> np.ndarray:
    """Inverse of a square matrix; raises ValueError when singular."""
    n = M.shape[0]
    if M.shape[1] != n:
        raise ValueError("not square")
    aug = np.hstack([np.asarray(M, dtype=DTYPE), np.eye(n, dtype=DTYPE)])
    R, piv = rref(F, aug)
    if piv != list(range(n)):
        raise ValueError("matrix is singular")
    return R[:, n:]
