"""Table-driven arithmetic for small finite fields.

Elements of a field with Q elements are stored as integer codes in
``[0, Q)``.  For a prime field the code is the residue itself; for an
extension of degree n over a base field with B elements the code is the
little-endian base-B digit string of the coordinate vector in the power
basis 1, y, ..., y^(n-1) of the extension generator y.

Multiplication and inversion go through discrete-log tables (a^-1 is
g^((Q-1) - log a)).  The log/exp tables are built on whole code arrays,
adding digit by digit: a gather table for c -> y*c (a digit shift and one
fold of the modulus) gives, by Horner's rule, the table c -> g*c of each
candidate g, and pointer doubling walks 1, g, g^2, ... through it.  The
primitive element is the smallest code whose walk returns to 1 after
exactly Q - 1 steps, which also certifies exp as a bijection onto the
nonzero codes.  All operations accept plain ints or numpy integer
arrays of codes.

Every field also has a Zech table Z(n) = log(1 + g^n), built from the
digit sum and certified when first read (``SmallField.zech``), so that
a + b = g^(log a + Z(log b - log a)) for nonzero a, b: three lookups,
with no digit expansion.  Extension fields add this way (prime fields
add residues), and ``skewpoly`` adds its coefficients this way on plain
ints.  Products go through a second log/exp pair whose log of 0 points
past every sum of two logs, into a run of zeros of exp, so a product is
two gathers and a sum with no zero mask.  Fields of at most
``FULL_TABLE_CAP`` elements additionally carry full Q x Q add/mul tables,
so that scalar work is a single numpy gather: built right after the
log/exp tables from those sums and products, a slice of rows of about
``TABLE_CHUNK`` cells at a time, so an extension field's Zech table is
built and certified at construction.

Nothing here knows about towers or subspaces; see ``gf`` for the
two-level tower used by the rest of the library.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from subdesigns.errors import DivisionByZero, NotIrreducible, certify

# Full Q x Q tables are built below this size; larger fields use log/exp
# and Zech tables.  Fields beyond LAZY_CAP refuse arithmetic.
FULL_TABLE_CAP = 2048
LAZY_CAP = 1 << 20
# Codes per slice when a table is built over every code, and cells per slice of
# rows of the add/mul tables; bounds the temporaries of the table builds.
TABLE_CHUNK = 1 << 15

DTYPE = np.int32


def _walk(step: np.ndarray, order: int) -> np.ndarray | None:
    """1, g, g^2, ..., g^(order-1) through g's step table c -> g*c, by pointer
    doubling; None if the walk returns to 1 before ``order`` steps."""
    exp = np.ones(1, dtype=DTYPE)
    jump = step  # c -> g^len(exp) * c
    while len(exp) < order:
        nxt = jump[exp[: order - len(exp)]]
        if (nxt == 1).any():
            return None
        exp = np.concatenate([exp, nxt])
        if len(exp) < order:
            jump = jump[jump]
    return exp if step[exp[-1]] == 1 else None


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
        B = self.p if self.base is None else self.base.size
        self._pow = B ** np.arange(self.degree, dtype=DTYPE)
        self._dig = np.arange(Q, dtype=DTYPE)[:, None] // self._pow % B
        self._neg = self._encode_digits(-self._dig % B if self.base is None else self.base.neg(self._dig))

        self._add_table = self._mul_table = None
        self._exp, self._log = self._build_log_tables()
        if Q <= FULL_TABLE_CAP:  # rows of add and mul before the tables exist, about TABLE_CHUNK cells a slice
            a, step = np.arange(Q), max(1, TABLE_CHUNK // Q)
            self._add_table, self._mul_table = (
                np.concatenate([op(a[lo : lo + step, None], a) for lo in range(0, Q, step)]).astype(DTYPE)
                for op in (self.add, self.mul))

    def _encode_digits(self, digits: np.ndarray) -> np.ndarray:
        return (digits.astype(np.int64) @ self._pow).astype(DTYPE)

    def _over_codes(self, f) -> np.ndarray:
        """f on every code, TABLE_CHUNK codes at a time, joined into one array."""
        Q = self.size
        return np.concatenate([np.asarray(f(np.arange(lo, min(lo + TABLE_CHUNK, Q))), dtype=DTYPE)
                               for lo in range(0, Q, TABLE_CHUNK)])

    def _scale(self, d: int, c: np.ndarray) -> np.ndarray:
        """d*c for a base-field code d (a residue in a prime field)."""
        if self.base is None:
            return (d * c) % self.p
        return self._encode_digits(self.base.mul(d, self._dig[c]))

    def _times_y(self) -> np.ndarray:
        """Gather table c -> y*c: the digits shift up one place and the top one
        folds back through y^n = -(modulus without its leading term)."""
        B, n = self.base.size, self.degree
        low = self.base.neg(np.array(self.modulus[:-1]))
        fold = self._encode_digits(self.base.mul(np.arange(B)[:, None], low[None, :]))
        return self._over_codes(lambda c: self._digit_sum((c % B ** (n - 1)) * B, fold[self._dig[c, -1]]))

    def _step_table(self, g: int, times_y: np.ndarray | None) -> np.ndarray:
        """Gather table c -> g*c: g's digit polynomial at times_y by Horner's rule."""
        digits = poly_trim([int(d) for d in self._dig[g]])

        def step(c):
            acc = self._scale(digits[-1], c)
            for d in reversed(digits[:-1]):
                acc = times_y[acc]
                if d:
                    acc = self._digit_sum(acc, self._scale(d, c))
            return acc

        return self._over_codes(step)

    def _build_log_tables(self) -> tuple[np.ndarray, np.ndarray]:
        # the generator is the smallest code whose walk visits every nonzero code; in a proper
        # extension the codes below |base| are the base field, whose orders divide |base| - 1 < Q - 1
        Q = self.size
        order = Q - 1
        times_y = None if self.base is None else self._times_y()
        for gen in range(self.base.size if self.degree > 1 else min(2, order), Q):
            exp = _walk(self._step_table(gen, times_y), order)
            if exp is not None:
                break
        certify(exp is not None, f"no primitive element of F_{Q}: the modulus is not irreducible")
        log = np.zeros(Q, dtype=np.int64)
        log[exp] = np.arange(order)
        self.generator_code = gen
        return np.concatenate([exp, exp]), log

    @cached_property
    def zech(self) -> np.ndarray:
        """Z(n) = log(1 + g^n) for 0 <= n < Q - 1 as int32, -1 at the one n
        with 1 + g^n = 0; built on first use, TABLE_CHUNK exponents at a time."""
        n = self.size - 1

        def log_one_plus(e):
            s = self._digit_sum(1, self._exp[e])
            return np.where(s == 0, -1, self._log[s])

        def breaks_symmetry(e):
            # Z(-n) = log(g^-n (g^n + 1)) = Z(n) - n wherever both sides are defined
            zn, zm = z[e], z[-e % n]
            return (zn >= 0) & (zm >= 0) & ((zm - zn + e) % n != 0)

        # exp is stored twice over, so the last exponent, Q - 1, repeats exponent 0
        z = self._over_codes(log_one_plus)
        certify(np.count_nonzero(z[:n] < 0) == 1 and not self._over_codes(breaks_symmetry).any(),
                f"Zech table of F_{self.size} is inconsistent: the field addition is corrupt")
        return z[:n]

    # -- element helpers -----------------------------------------------------

    def to_digits(self, a) -> np.ndarray:
        """Coordinates over the base field (little-endian); identity for primes."""
        return self._dig[a]

    def from_digits(self, digits) -> np.ndarray:
        return self._encode_digits(np.asarray(digits))

    # -- arithmetic (ints or arrays of codes) ---------------------------------

    def _digit_sum(self, a, b):
        """a + b coordinate by coordinate, the sum the log and Zech tables are built on."""
        if self.base is None:
            return (np.asarray(a, dtype=np.int64) + np.asarray(b, dtype=np.int64)) % self.p
        return self._encode_digits(self.base.add(self._dig[a], self._dig[b]))

    def add(self, a, b):
        if self._add_table is not None:
            return self._add_table[a, b]
        if self.base is None:
            return self._digit_sum(a, b)
        # g^la + g^lb = g^(la + Z(lb - la)), 0 where Z = -1; a negative lb - la indexes Z
        # from the end, which is Z((lb - la) mod (Q - 1)); a zero operand passes the other through
        a, b = np.asarray(a), np.asarray(b)
        la = self._log[a]
        z = self.zech[self._log[b] - la]
        out = np.asarray(self._exp[la + z])
        np.copyto(out, 0, where=z < 0)
        np.copyto(out, b, where=a == 0)
        np.copyto(out, a, where=b == 0)
        return out[()]

    def neg(self, a):
        return self._neg[a]

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    @cached_property
    def _product_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """(log, exp) for products with no zero mask: log 0 is 2(Q-1), past every sum of
        two logs of nonzero codes, and exp reads 0 from there on."""
        n = self.size - 1
        log = self._log.astype(DTYPE)
        log[0] = 2 * n
        return log, np.concatenate([self._exp, np.zeros(2 * n + 1, dtype=DTYPE)])

    def mul(self, a, b):
        if self._mul_table is not None:
            return self._mul_table[a, b]
        log, exp = self._product_tables
        return exp[log[a] + log[b]]

    def inv(self, a):
        if not np.asarray(a).all():
            raise DivisionByZero("inverse of zero")
        return self._exp[(self.size - 1) - self._log[a]]

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


def poly_mod(F: SmallField, a: Sequence[int], b: Sequence[int]) -> list[int]:
    a = poly_trim(list(a))
    b = poly_trim(list(b))
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    db, lead = len(b) - 1, b[-1]
    ilead = int(F.inv(lead))
    while len(a) - 1 >= db and a:
        c = int(F.mul(a[-1], ilead))
        s = len(a) - 1 - db
        for j, cb in enumerate(b):
            if cb:
                a[s + j] = int(F.sub(a[s + j], int(F.mul(c, cb))))
        poly_trim(a)
    return a


def poly_eval(F: SmallField, a, x):
    """a(x) by Horner's rule at one code or an array of codes x; the
    coefficients may themselves be code arrays that broadcast against x."""
    acc = np.zeros_like(np.asarray(x))
    for c in reversed(list(a)):
        acc = F.add(F.mul(acc, x), c)
    return acc


def smallest_root(F: SmallField, a: Sequence[int]) -> int | None:
    """The least code x with a(x) = 0, or None if a has no root in F."""
    roots = np.flatnonzero(poly_eval(F, a, np.arange(F.size)) == 0)
    return int(roots[0]) if roots.size else None


def poly_monic(F: SmallField, a: Sequence[int]) -> list[int]:
    a = poly_trim(list(a))
    if not a:
        return a
    inv = int(F.inv(a[-1]))
    return [int(F.mul(c, inv)) for c in a]


def _monic_polys(F: SmallField, degree: int) -> Iterable[list[int]]:
    # little-endian lexicographic order of the coefficient vector: the constant term runs fastest
    return ([*reversed(low), 1] for low in itertools.product(range(F.size), repeat=degree))


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
