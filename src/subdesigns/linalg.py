"""Exact linear algebra over a SmallField.

Matrices are 2-D numpy int32 arrays of element codes.  Everything is
reduced row-echelon based: RREF output is canonical (pivots 1, pivot
columns elementary, pivots strictly increasing), so row spaces compare
by array equality.
"""

from __future__ import annotations

import numpy as np

from subdesigns.fieldcore import DTYPE, SmallField


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


def meet_dim(F: SmallField, A: np.ndarray, B: np.ndarray) -> int:
    """dim(rowspace(A) & rowspace(B)) = rk A + rk B - rk [A; B] for A, B of full row rank."""
    return A.shape[0] + B.shape[0] - rank(F, np.vstack([A, B]))


def in_rowspace(F: SmallField, R: np.ndarray, piv: list[int], v: np.ndarray) -> bool:
    """Membership test against an RREF basis with known pivot columns."""
    v = np.array(v, dtype=DTYPE, copy=True)
    for i, pc in enumerate(piv):
        c = int(v[pc])
        if c:
            v = np.asarray(F.sub(v, F.mul(c, R[i])), dtype=DTYPE)
    return not np.any(v)


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
