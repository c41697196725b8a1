"""Exact linear algebra over a SmallField.

Matrices are 2-D numpy int32 arrays of element codes.  Everything is
reduced row-echelon based: RREF output is canonical (pivots 1, pivot
columns elementary, pivots strictly increasing), so row spaces compare
by array equality.  The looped ``rref`` serves single subspaces and is
the oracle of the batched paths.  Membership, containment and
invertibility are rank identities (rk [A; B] = rk A, rk M = n), with no
separate test.

The sweeps need F_q-ranks of many tiny matrices, and this module owns
the format they travel in.  The row code of a row of F^c is its base-|F|
digits read as one number, so an F_{q^m} code is the row code of its
F_q-coordinates.  ``block_codes`` forms the F_{q^m} codes of x G_i with
no F_{q^m} product, from per-block ``digit_tables`` whose rows add as
plain integers: each base-p digit has its own place of a base so large
that no sum carries (``_carry_free``), and one table maps a sum back to
a code.  ``base_ranks`` reads F_q-ranks off such codes; a wide stack
goes to rank_batch as F's digits, in one gather.  ``block_ranks`` is the
one block-rank sweep: the F_q-ranks of X_b G_i for a stack of X_b and
every block, block_codes then base_ranks, which the design's section
dimensions and the code's weights both read.

Two functions choose a rank path.  ``rank_batch`` ranks digit stacks
(B, r, c): with c the narrower side, it hands the rows' codes to
``rank_codes`` where F^c has packed tables (q |F|^c scale cells and
b^(c h) sum cells, |F| = p^h, b = 2p - 1, within ``LAZY_CAP``: F_2 up to
c = 12, F_3 up to 8, F_4 and F_5 up to 6, F_7 up to 5, F_8 and F_9 up
to 4), and otherwise eliminates through ``echelon_batch``, the one
batched elimination: table-driven elimination in the spirit of M4RI
(Albrecht, Bard & Hart, ACM TOMS 37(1), 2010), vectorised over the batch
instead of over bits.  ``rank_codes`` sends a stack without packed
tables back to digits for rank_batch; it folds the others through the
span table of F^c where that fits ``SPAN_TABLE_CAP`` (one gather per
row), else eliminates them as packed rows (``_packed_rank``).
Packed rows, echelon_batch and block_ranks run in ``chunks`` of
``RANK_CELLS`` cells; a stack with no rows or no columns folds through the
span table of F^0 to rank 0.  The packed and span tables are cached per
field and width (fields are interned, so they live as long as the field).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from subdesigns.errors import EnumerationCapExceeded, certify
from subdesigns.fieldcore import DTYPE, LAZY_CAP, SmallField

# Matrix cells per chunk of a batched rank (``chunks``): rank_codes, rank_batch,
# block_ranks and the pairs test of sumrank.is_minimal_code.
RANK_CELLS = 1 << 16
# Largest q^w of a digit group: digit_tables holds q^w rows per coordinate and group.
PACKED_CAP = 1 << 10
# Largest span table, in subspaces x |F|^c x |F|^c cells (the build's temporaries
# stay within it): F_2 up to c = 5, F_3 up to 4, F_4 and F_5 at 3, F_7 to F_19 at 2.
SPAN_TABLE_CAP = 1 << 22


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
    """F-ranks (B,) of a stack M (B, r, c) of matrices: with c the narrower side, rank_codes
    of the rows' codes where F^c has packed tables, else echelon_batch."""
    M = np.asarray(M)
    if M.shape[1] < M.shape[2]:  # rk M = rk M^T; fewer columns, fewer passes
        M = M.transpose(0, 2, 1)
    B, r, c = M.shape
    if _packed_tables(F, c) is None:
        return _by_chunks(lambda part: (echelon_batch(F, part)[1] < c).sum(axis=1), M, c)
    codes = np.zeros((B, r), dtype=np.intp)
    for k in reversed(range(c)):  # the code of each row by Horner's rule, in place
        codes *= F.size
        codes += M[:, :, k]
    return rank_codes(F, codes, c)


def rank_codes(F: SmallField, codes: np.ndarray, c: int) -> np.ndarray:
    """F-ranks (B,) of stacks of row codes (B, r) of F^c: the span fold, else packed rows;
    a stack without packed tables goes to digits for rank_batch."""
    codes = np.asarray(codes, dtype=np.intp)
    B, r = codes.shape
    if F.size**c > 1 << 63:
        raise EnumerationCapExceeded(f"F_{F.size}^{c} has {F.size}**{c} row codes, past int64")
    packed = _packed_tables(F, c)
    if packed is None:
        return rank_batch(F, codes[:, :, None] // F.size ** np.arange(c) % F.size)
    table = _span_table(F, c)
    if table is not None:
        T, dims = table
        s = np.zeros(B, dtype=np.intp)  # T offset of the span so far
        for row in np.ascontiguousarray(codes.T):
            s = T.take(s + row)
        return dims[s // F.size**c]
    return _by_chunks(functools.partial(_packed_rank, packed), codes, c)


def base_ranks(F: SmallField, codes: np.ndarray) -> np.ndarray:
    """F_q-ranks (B,) of the matrices (n, r m) whose row j holds the F_q digits of the
    F = F_{q^m} codes (B, r, n)[b, :, j]: row j is the code sum_l codes[b, l, j] q^{ml}
    of F_q^{rm}, formed by Horner's rule from the last row.  For r = 0 there is no last
    row, and the matrices are stacks of no rows of F_q^0, rank 0.  A wide stack
    (r m > n) goes to rank_batch as the transposes (r m, n), read off F's digit table in
    one gather."""
    B, r, n = codes.shape
    if r * F.degree > n:
        return rank_batch(F.base, F.to_digits(codes).swapaxes(2, 3).reshape(B, r * F.degree, n))
    rows = codes[:, -1:]
    for l in range(r - 2, -1, -1):  # in intp, as |F|^r may pass the int32 of codes
        rows = np.multiply(rows, F.size, dtype=np.intp) + codes[:, l : l + 1]
    # the middle axis has length 1 or 0, so both index orders agree, and order "A" keeps the
    # column-major layout of block_codes with no copy
    return rank_codes(F.base, rows.reshape(B, rows.shape[1] * n, order="A"), r * F.degree)


def chunks(B: int, cells: int) -> list[slice]:
    """Slices of a stack of B items of `cells` matrix cells each, RANK_CELLS cells (and at
    least one item) a slice, so that a batched rank's temporaries stay small and reused."""
    step = max(1, RANK_CELLS // max(1, cells))
    return [slice(lo, lo + step) for lo in range(0, B, step)]


def _by_chunks(rank, stack: np.ndarray, c: int) -> np.ndarray:
    """rank of a stack (B, r, ...) of width c, a chunk at a time; no rows, rank 0."""
    B, r = stack.shape[:2]
    ranks = np.zeros(B, dtype=np.int64)
    for part in chunks(B if r else 0, r * c):
        ranks[part] = rank(stack[part])
    return ranks


def _packed_rank(tables: tuple[np.ndarray, ...], codes: np.ndarray) -> np.ndarray:
    """Ranks of a stack of row codes (B, r) over F^c, eliminated as codes.

    Columns go from the top digit down.  Per column j, each matrix takes
    its first row with a nonzero digit j as pivot, scales it to digit 1 and
    subtracts digit-j multiples of it from every row, the pivot row
    included, which becomes zero.  So every row is zero above column j, its
    digit j is its code // |F|^j, no row needs marking as used, and the
    rank is the number of pivot columns.  A row and a multiple add as
    carry-free integers, which the sum table maps back to a code.
    """
    powers, sums, free, scale, negfree, inv = tables
    Qc = len(free)
    at = np.arange(len(codes))
    ranks = np.zeros(len(codes), dtype=np.int64)
    for power in powers[::-1]:
        d = codes // power  # intp: the sums' narrow codes are promoted by the intp power
        piv = (d != 0).argmax(axis=1)
        pd = d[at, piv]
        ranks += pd != 0
        prow = scale[inv[pd] * Qc + codes[at, piv]]  # 0 where the column has no pivot
        codes = sums.take(free.take(codes) + negfree.take(d * Qc + prow[:, None]))
    return ranks


@functools.cache
def _carry_free(p: int, places: int, terms: int) -> tuple[int, int, np.ndarray]:
    """(b, d, R) for adding `terms` numbers of `places` base-p digits as integers.

    Each digit gets its own place of base b = terms (p - 1) + 1, so a sum
    of `terms` numbers never carries; the places come in chunks of d, the
    fewest chunks with b^d <= LAZY_CAP, evened out.  R[s] is the base-p
    number of a chunk sum s, each place taken mod p, in the narrowest
    unsigned dtype that holds it.  Built once per (p, places, terms).
    """
    b = terms * (p - 1) + 1
    chunks = max(1, -(-places // max((d for d in range(1, places + 1) if b**d <= LAZY_CAP), default=1)))
    d = -(-places // chunks)
    R = np.zeros(1, dtype=np.min_scalar_type(p**d - 1))
    for i in range(d):  # place i above the places below it, so the peak is one table
        R = ((np.arange(b) % p * p**i).astype(R.dtype)[:, None] + R).reshape(-1)
    R.flags.writeable = False  # one array for every caller
    return b, d, R


@functools.cache
def _packed_tables(F: SmallField, c: int) -> tuple[np.ndarray, ...] | None:
    """(powers, sums, free, scale, negfree, inv) on the codes of F^c (as in the
    span table), or None if they exceed LAZY_CAP: the q |F|^c cells of scale
    or the b^(c h) of sums, for |F| = p^h and b = 2p - 1; built once per
    field and width.

    powers[j] = |F|^j.  free[v] is v carry-free (_carry_free: each base-p
    digit in its own place of base b), so sums[free[u] + free[v]] = u + v;
    scale[a |F|^c + v] = a v, negfree[a |F|^c + v] = free[-a v], and
    inv[a] = a^-1 with inv[0] = 0.
    """
    places = c * round(math.log(F.size, F.p))
    fits = F.size ** (c + 1) <= LAZY_CAP and (2 * F.p - 1) ** places <= LAZY_CAP
    return _build_packed_tables(F, c, places) if fits else None


def _build_packed_tables(F: SmallField, c: int, places: int) -> tuple[np.ndarray, ...]:
    q, p = F.size, F.p
    Qc = q**c
    b, _, sums = _carry_free(p, places, 2)
    a, codes = np.arange(q), np.arange(Qc)
    powers = q ** np.arange(c)
    free = (codes[:, None] // p ** np.arange(places) % p) @ b ** np.arange(places)
    scale = np.asarray(F.mul(a[:, None, None], (codes[:, None] // powers % q)[None]), dtype=np.intp) @ powers
    negfree = free[scale[F.neg(a)]]
    inv = np.concatenate([[0], F.inv(a[1:])]).astype(np.intp)
    u = codes[:q]  # the digits of F, as the codes of F^c below |F| (only 0 for c = 0)
    certify(np.array_equal(sums[free[u, None] + free[u]], F.add(u[:, None], u))
            and np.array_equal(sums[free], codes) and not sums[free + negfree[1]].any(),
            f"F_{q}^{c} carry-free sums must match F.add and give u + 0 = u and u + (-1 u) = 0")
    return powers, sums, free, scale.reshape(-1), negfree.reshape(-1), inv


@functools.cache
def _span_table(F: SmallField, c: int) -> tuple[np.ndarray, np.ndarray] | None:
    """(T, dims) over the subspaces of F^c, or None if F^c has no packed tables
    or T would exceed SPAN_TABLE_CAP.

    A vector's code is its base-|F| digits read as one number.  Subspaces
    are numbered by dimension, each level in the order of its membership
    bits; level d+1 is every span of a level-d subspace with a vector
    outside it, and its size is certified against the Gaussian binomial.
    T is flat: T[s * |F|^c + v] = span(s, v) * |F|^c, so a fold adds the
    next code to the last lookup.  dims[s] is dim s.  Built once per field
    and width from the carry-free sums u + v and multiples a v of the packed
    tables.
    """
    from subdesigns.subspace import gaussian_binomial  # subspace imports linalg

    q = F.size
    counts = [gaussian_binomial(c, d, q) for d in range(c + 1)]
    too_big = _packed_tables(F, c) is None or sum(counts) * q ** (2 * c) > SPAN_TABLE_CAP
    return None if too_big else _build_span_table(F, c, counts)


def _build_span_table(F: SmallField, c: int, counts: list[int]) -> tuple[np.ndarray, np.ndarray]:
    q = F.size
    Qc = q**c
    _, sums, free, scale, _, _ = _packed_tables(F, c)
    lines = free[scale.reshape(q, Qc).T]  # a v in row v, carry-free
    T = np.empty((sum(counts), Qc), dtype=DTYPE)
    S = np.zeros((1, 1), dtype=DTYPE)  # level 0: the zero subspace, as its element codes
    inside = np.arange(Qc)[None] == 0  # (subspaces, Qc) membership of the current level
    lo = 0
    for d in range(c):
        n = len(S)
        T[lo : lo + n] = np.arange(lo, lo + n)[:, None]
        s, v = np.nonzero(~inside)
        span = sums[free[S[s]][:, :, None] + lines[v][:, None, :]].reshape(len(s), -1)
        inside = np.zeros((len(s), Qc), dtype=bool)
        inside[np.arange(len(s))[:, None], span] = True
        # one row per distinct span, keyed by its packed membership bits
        _, first, inv = np.unique(np.packbits(inside, axis=1), axis=0, return_index=True, return_inverse=True)
        certify(len(first) == counts[d + 1], f"F_{q}^{c} must have {counts[d + 1]} subspaces of dimension {d + 1}")
        S, inside = span[first], inside[first]
        T[lo + s, v] = lo + n + inv.reshape(-1)
        lo += n
    T[lo:] = lo  # F^c itself
    return (T * Qc).reshape(-1), np.repeat(np.arange(c + 1), counts)


def echelon_batch(F: SmallField, M: np.ndarray, stop: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Forward elimination of a stack M (B, r, c) on its first ``stop``
    columns (all by default); returns (E, lead).

    Per column, each matrix takes its first unused row with a nonzero
    entry there as pivot and clears that column from its other unused
    rows; rows keep their places.  lead (B, r) is each row's pivot column,
    c for the rows left without one, which are zero on the eliminated
    columns (zero everywhere after a full elimination).  The rows with
    lead >= j span the part of the row space that vanishes on columns < j.
    Only F.mul, F.add, F.neg and F.inv are used, so log/exp fields work too.
    """
    M = np.array(M, dtype=DTYPE, order="C")
    B, r, c = M.shape
    lead = np.full((B, r), c, dtype=np.int64)
    free = np.ones((B, r), dtype=bool)
    for col in range(c if stop is None else stop):
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
    """Canonical basis (as rows) of {x : M x^T = 0}, from one elimination of M with its columns
    reversed: there the kernel row of a free column f is e_f less pivot columns left of f, so
    reversed back, in rows and columns, each leads with a 1 where the others vanish (RREF)."""
    R, piv = rref(F, np.asarray(M)[:, ::-1])
    free = [c for c in range(R.shape[1]) if c not in piv]
    K = np.zeros((len(free), R.shape[1]), dtype=DTYPE)
    K[range(len(free)), free] = 1
    K[:, piv] = F.neg(R[:, free]).T
    return np.ascontiguousarray(K[::-1, ::-1])


def matmul(F: SmallField, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    if A.shape[1] != B.shape[0]:
        raise ValueError("shape mismatch")
    if F.size == F.p:  # codes are residues mod p: one product, reduced once, by BLAS where exact
        dtype = np.float64 if A.shape[1] * (F.p - 1) ** 2 < 2**53 else np.int64
        return ((np.asarray(A, dtype=dtype) @ np.asarray(B, dtype=dtype)).astype(np.int64) % F.p).astype(DTYPE)
    out = np.zeros((A.shape[0], B.shape[1]), dtype=DTYPE)
    for i in range(A.shape[1]):
        out = np.asarray(F.add(out, F.mul(A[:, i, None], B[None, i, :])), dtype=DTYPE)
    return out


def vecmat(F: SmallField, v: np.ndarray, A: np.ndarray) -> np.ndarray:
    return matmul(F, np.asarray(v, dtype=DTYPE).reshape(1, -1), A).reshape(-1)


def _digit_groups(F: SmallField) -> tuple[np.ndarray, int]:
    """(q^a for the lowest digit a of each group, q^w): the m base-q digits of a code of
    F = F_{q^m} split into the fewest groups of w consecutive digits with q^w <= PACKED_CAP
    (w = 1 when q alone is larger), evened out so that w is as small as that count allows."""
    q, m = F.base.size, F.degree
    groups = -(-m // max((w for w in range(1, m + 1) if q**w <= PACKED_CAP), default=1))
    w = -(-m // groups)
    return (q ** (w * np.arange(groups))).astype(DTYPE), q**w


def digit_tables(F: SmallField, blocks) -> list[tuple[np.ndarray, int]]:
    """The code tables block_codes sums, one (words, n_i) per block G_i (k, n_i) over F = F_{q^m}.

    Row c of term l g + j holds the codes of (c q^a_j) G_i[l, :], q^a_j the weight of digit
    group j, so x_l G_i[l, :] sums the rows picked by the group codes of x_l (codes past q^m
    wrap; they are never picked).  Each code is stored carry-free, one lane per chunk in the
    narrowest unsigned dtype that holds a chunk sum of the k g terms, and a row's lanes are
    packed into uint64 words, shape (k g, q^w, words), which add whole as no lane carries.
    """
    shifts, span = _digit_groups(F)
    codes = np.arange(span)[None] * shifts[:, None] % F.size  # (g, q^w)
    places = np.arange(F.degree * F.base.degree)
    tables = []
    for G in blocks:
        terms = G.shape[0] * len(shifts)
        b, d, _ = _carry_free(F.p, len(places), terms)
        digits = F.to_digits(F.mul(codes[None, :, :, None], G[:, None, None, :]))  # (k, g, q^w, n_i, m)
        if F.base.base is not None:  # each F_q digit is itself h base-p digits
            digits = F.base.to_digits(digits)
        digits = digits.reshape(terms, span, G.shape[1], len(places))
        certify(terms * int(digits.max(initial=0)) < b, f"a sum of {terms} code table rows must not carry past base {b}")
        weights = np.zeros((len(places), -(-len(places) // d)), dtype=np.int64)  # place i: b^(i mod d) in chunk i // d
        weights[places, places // d] = b ** (places % d)
        lanes = (digits @ weights).reshape(terms, span, -1).astype(np.min_scalar_type(b**d - 1))
        words = np.zeros((terms, span, -(-lanes.shape[2] * lanes.itemsize // 8)), dtype=np.uint64)
        words.view(lanes.dtype)[:, :, : lanes.shape[2]] = lanes
        tables.append((words, G.shape[1]))
    return tables


def block_codes(F: SmallField, X: np.ndarray, tables) -> list[np.ndarray]:
    """Codes (..., n_i) of x G_i over F = F_{q^m} for every row x of X (..., k), one array per
    block, from the block's digit_tables: one gather per coordinate and digit group, added
    as integers, then one gather through the carry-free reduction table."""
    shifts, span = _digit_groups(F)
    rows = X.reshape(-1, X.shape[-1])
    if len(shifts) > 1:  # else one group: the group code is the code itself
        rows = (rows[:, :, None] // shifts % span).reshape(len(rows), len(shifts) * rows.shape[1])
    codes = np.ascontiguousarray(rows.T, dtype=np.intp)
    places = F.degree * F.base.degree
    b, d, reduce_sums = _carry_free(F.p, places, len(codes))
    lane, chunks = np.min_scalar_type(b**d - 1), -(-places // d)
    out = []
    for words, n in tables:
        acc = words[0].take(codes[0], axis=0)
        for term, code in zip(words[1:], codes[1:]):
            acc += term.take(code, axis=0)
        # reduced transposed, so that the codes of each column come out as one contiguous row
        sums = reduce_sums.take(acc.view(lane).T[: n * chunks]).reshape(n, chunks, len(acc)).astype(DTYPE)
        y = sums[:, 0]
        for i in range(1, chunks):
            y = y + sums[:, i] * F.p ** (d * i)
        out.append(y.T.reshape(*X.shape[:-1], n))
    return out


def block_ranks(F: SmallField, X: np.ndarray, tables) -> np.ndarray:
    """F_q-ranks (t, B) of X_b G_i over F = F_{q^m} for a stack X (B, r, k) and the
    digit_tables of blocks G_i: block_codes, then base_ranks, in chunks sized by the
    widest block, so that the temporaries of a long sweep stay small and are reused."""
    B, r = X.shape[:2]
    ranks = np.empty((len(tables), B), dtype=np.int64)
    for part in chunks(B, r * F.degree * max(n for _, n in tables)):
        for i, codes in enumerate(block_codes(F, X[part], tables)):
            ranks[i, part] = base_ranks(F, codes)
    return ranks


def sum_rowspaces(F: SmallField, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    return rref(F, np.vstack([A, B]))[0]


def intersect_rowspaces(F: SmallField, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Canonical basis of rowspace(A) & rowspace(B); A, B need not be RREF."""
    # pairs (a, b) with a A = b B are the left kernel of [[A], [-B]]
    D = np.vstack([A, np.asarray(F.neg(B), dtype=DTYPE)])
    L = right_kernel(F, D.T)
    return rref(F, matmul(F, L[:, : A.shape[0]], A))[0]

