"""Table-driven arithmetic for small finite fields.

Elements of a field with Q elements are stored as integer codes in
``[0, Q)``.  For a prime field the code is the residue itself; for an
extension of degree n over a base field with B elements the code is the
little-endian base-B digit string of the coordinate vector in the power
basis 1, g, ..., g^(n-1) of the extension generator g.

Multiplication and inversion go through discrete-log tables (a primitive
element is located once per field), addition through digit decomposition;
fields of at most ``FULL_TABLE_CAP`` elements additionally carry full
Q x Q add/mul tables so that scalar work is a single numpy gather.  All
operations accept plain ints or numpy integer arrays of codes.

Nothing here knows about towers or subspaces; see ``gf`` for the
two-level tower used by the rest of the library.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from subdesigns.errors import DivisionByZero, NotIrreducible

# Full Q x Q tables are built below this size; larger fields use log/exp
# plus digitwise addition.  Fields beyond LAZY_CAP refuse arithmetic.
FULL_TABLE_CAP = 2048
LAZY_CAP = 1 << 20

DTYPE = np.int32


def _trial_factorize(n: int) -> list[int]:
    """Distinct prime factors of n by trial division (desk scale)."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


class SmallField:
    """A finite field with at most LAZY_CAP elements, codes 0..size-1."""

    def __init__(self, p: int, base: "SmallField | None", modulus: Sequence[int] | None):
        self.p = p
        self.base = base
        if base is None:
            self.degree = 1
            self.size = p
            self.modulus = None
        else:
            if modulus is None or len(modulus) < 2 or modulus[-1] != 1:
                raise ValueError("modulus must be monic of degree >= 1")
            self.modulus = tuple(int(c) for c in modulus)
            self.degree = len(self.modulus) - 1
            self.size = base.size ** self.degree
        if self.size > LAZY_CAP:
            raise ValueError(f"field with {self.size} elements exceeds the supported size")
        self._build_tables()

    # -- table construction ------------------------------------------------

    def _build_tables(self) -> None:
        Q = self.size
        if self.base is None:
            self._dig = np.arange(Q, dtype=DTYPE).reshape(Q, 1)
            self._pow = np.array([1], dtype=DTYPE)
            self._neg = (-np.arange(Q)) % self.p
            self._neg = self._neg.astype(DTYPE)
        else:
            B = self.base.size
            codes = np.arange(Q, dtype=np.int64)
            dig = np.empty((Q, self.degree), dtype=DTYPE)
            for i in range(self.degree):
                dig[:, i] = codes % B
                codes //= B
            self._dig = dig
            self._pow = np.array([B**i for i in range(self.degree)], dtype=np.int64)
            self._neg = self._encode_digits(self.base.neg(dig))

        self._exp, self._log = self._build_log_tables()
        inv = np.zeros(Q, dtype=DTYPE)
        nz = np.arange(1, Q)
        inv[nz] = self._exp[(Q - 1) - self._log[nz]]
        self._inv = inv

        if Q <= FULL_TABLE_CAP:
            a = np.arange(Q, dtype=DTYPE)
            if self.base is None:
                self._add_table = ((a[:, None] + a[None, :]) % self.p).astype(DTYPE)
            else:
                ds = self.base.add(self._dig[:, None, :], self._dig[None, :, :])
                self._add_table = self._encode_digits(ds)
            ls = self._log[:, None] + self._log[None, :]
            mt = self._exp[ls]
            mt[0, :] = 0
            mt[:, 0] = 0
            self._mul_table = mt.astype(DTYPE)
        else:
            self._add_table = None
            self._mul_table = None

    def _encode_digits(self, digits: np.ndarray) -> np.ndarray:
        return (digits.astype(np.int64) @ self._pow).astype(DTYPE)

    def _scalar_mul_poly(self, a: int, b: int) -> int:
        # polynomial multiplication of codes mod the modulus; bootstrap only
        if self.base is None:
            return (a * b) % self.p
        F = self.base
        da = [int(x) for x in self._dig[a]]
        db = [int(x) for x in self._dig[b]]
        n = self.degree
        prod = [0] * (2 * n - 1)
        for i, ca in enumerate(da):
            if ca == 0:
                continue
            for j, cb in enumerate(db):
                if cb:
                    prod[i + j] = int(F.add(prod[i + j], int(F.mul(ca, cb))))
        # reduce: g^n = -(modulus without leading term)
        for i in range(2 * n - 2, n - 1, -1):
            c = prod[i]
            if c == 0:
                continue
            prod[i] = 0
            for j in range(n):
                mj = self.modulus[j]
                if mj:
                    prod[i - n + j] = int(F.sub(prod[i - n + j], int(F.mul(c, mj))))
        code = 0
        mult = 1
        for c in prod[:n]:
            code += c * mult
            mult *= self.base.size
        return code

    def _scalar_pow_poly(self, a: int, e: int) -> int:
        r = self.one_code()
        while e:
            if e & 1:
                r = self._scalar_mul_poly(r, a)
            a = self._scalar_mul_poly(a, a)
            e >>= 1
        return r

    def _build_log_tables(self) -> tuple[np.ndarray, np.ndarray]:
        Q = self.size
        order = Q - 1
        primes = _trial_factorize(order) if order > 1 else []
        gen = 1
        for cand in range(2, Q):
            if all(self._scalar_pow_poly(cand, order // r) != self.one_code() for r in primes):
                gen = cand
                break
        exp = np.zeros(2 * max(order, 1), dtype=DTYPE)
        log = np.zeros(Q, dtype=np.int64)
        v = self.one_code()
        for i in range(order):
            exp[i] = v
            log[v] = i
            v = self._scalar_mul_poly(v, gen)
        exp[order : 2 * order] = exp[:order]
        self.generator_code = gen
        return exp, log

    # -- element helpers -----------------------------------------------------

    def one_code(self) -> int:
        return 1

    def elements(self) -> range:
        return range(self.size)

    def to_digits(self, a) -> np.ndarray:
        """Coordinates over the base field (little-endian); identity for primes."""
        return self._dig[a]

    def from_digits(self, digits) -> np.ndarray:
        return self._encode_digits(np.asarray(digits))

    # -- arithmetic (ints or arrays of codes) ---------------------------------

    def add(self, a, b):
        if self._add_table is not None:
            return self._add_table[a, b]
        if self.base is None:
            return (np.asarray(a, dtype=np.int64) + np.asarray(b, dtype=np.int64)) % self.p
        return self._encode_digits(self.base.add(self._dig[a], self._dig[b]))

    def neg(self, a):
        return self._neg[a]

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if self._mul_table is not None:
            return self._mul_table[a, b]
        a = np.asarray(a)
        b = np.asarray(b)
        out = self._exp[self._log[a] + self._log[b]]
        return np.where((a == 0) | (b == 0), 0, out)

    def inv(self, a):
        if np.any(np.asarray(a) == 0):
            raise DivisionByZero("inverse of zero")
        return self._inv[a]

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, e: int):
        if e < 0:
            return self.pow(self.inv(a), -e)
        a = np.asarray(a)
        if e == 0:
            return np.ones_like(a)
        order = self.size - 1
        out = self._exp[(self._log[a] * (e % order)) % order] if order > 1 else np.ones_like(a)
        return np.where(a == 0, 0, out)


# --- polynomial helpers over a SmallField (lists of codes, low degree) -----


def poly_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def poly_divmod(F: SmallField, a: Sequence[int], b: Sequence[int]) -> tuple[list[int], list[int]]:
    a = list(a)
    poly_trim(a)
    b = list(b)
    poly_trim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    db, lead = len(b) - 1, b[-1]
    ilead = int(F.inv(lead))
    q = [0] * max(len(a) - db, 0)
    while len(a) - 1 >= db and a:
        c = int(F.mul(a[-1], ilead))
        s = len(a) - 1 - db
        q[s] = c
        for j, cb in enumerate(b):
            if cb:
                a[s + j] = int(F.sub(a[s + j], int(F.mul(c, cb))))
        poly_trim(a)
    return poly_trim(q), a


def poly_mod(F: SmallField, a: Sequence[int], b: Sequence[int]) -> list[int]:
    return poly_divmod(F, a, b)[1]


def poly_eval(F: SmallField, a: Sequence[int], x: int) -> int:
    acc = 0
    for c in reversed(list(a)):
        acc = int(F.add(int(F.mul(acc, x)), c))
    return acc


def poly_monic(F: SmallField, a: Sequence[int]) -> list[int]:
    a = poly_trim(list(a))
    if not a:
        return a
    inv = int(F.inv(a[-1]))
    return [int(F.mul(c, inv)) for c in a]


def _monic_polys(F: SmallField, degree: int) -> Iterable[list[int]]:
    # little-endian lexicographic order of the coefficient vector
    Q = F.size
    for code in range(Q**degree):
        coeffs = []
        c = code
        for _ in range(degree):
            coeffs.append(c % Q)
            c //= Q
        coeffs.append(1)
        yield coeffs


def poly_is_irreducible(F: SmallField, a: Sequence[int]) -> bool:
    """Brute force: no monic divisor of degree 1..deg/2."""
    a = poly_trim(list(a))
    d = len(a) - 1
    if d <= 0:
        return False
    if d == 1:
        return True
    for e in range(1, d // 2 + 1):
        for cand in _monic_polys(F, e):
            if not poly_mod(F, a, cand):
                return False
    return True


def find_irreducible(F: SmallField, degree: int) -> list[int]:
    """Lexicographically smallest monic irreducible of the given degree."""
    for cand in _monic_polys(F, degree):
        if poly_is_irreducible(F, cand):
            return cand
    raise NotIrreducible(f"no irreducible polynomial of degree {degree} found")
