"""The two-level field tower F_p < F_q = F_p[x]/(f) < F_{q^m} = F_q[y]/(g).

Elements live in F_{q^m} and are encoded as integer codes (little-endian
base-q digit strings of the coordinates in the basis 1, y, ..., y^(m-1);
each F_q digit is itself a base-p digit string over the basis 1, x, ...,
x^(h-1)).  F_q sits inside F_{q^m} as the codes below q.  Both levels of
digits go through the fields' one codec, ``SmallField.to_digits``/``from_digits``.

Default moduli are the lexicographically smallest monic irreducibles
(little-endian coefficient lists), found by a deterministic search when a
tower is first built; h = 1 uses the formal modulus x.  Design files
record the moduli they were built with.  The small fields are the usual
ones:

    F_4  = F_2[y]/(y^2+y+1)      w := y,  w^2 = w+1
    F_9  = F_3[y]/(y^2+1)        i := y,  i^2 = -1

Towers are cached by their defining data, so equal parameters give the
*same* object and element equality can require tower identity.  Fields
are interned the same way (``small_field``): towers over the same F_q
share its SmallField, and so every table cached on it.  ``check_field_size``
is the one size rule, checked on the exponent before any power is formed.
"""

from __future__ import annotations

import math
import operator
from functools import cached_property, reduce
from typing import Sequence

import numpy as np

from subdesigns.errors import (
    BadParameters,
    NotInBaseField,
    NotIrreducible,
    NotPrime,
    TowerMismatch,
    certify,
)
from subdesigns.fieldcore import DTYPE, LAZY_CAP, SmallField, find_irreducible, poly_is_irreducible

_TOWER_CACHE: dict[tuple, "FieldTower"] = {}
_FIELD_CACHE: dict[tuple, SmallField] = {}


def small_field(p: int, base: SmallField | None = None, modulus: Sequence[int] | None = None) -> SmallField:
    """The one SmallField of this process with the given defining data.

    Bases are interned too, so the base object itself is part of the key.
    """
    key = (p, base, None if modulus is None else tuple(int(c) for c in modulus))
    field = _FIELD_CACHE.get(key)
    if field is None:
        field = _FIELD_CACHE[key] = SmallField(p, base, modulus)
    return field


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def _modulus(F: SmallField, degree: int, given, name: str) -> tuple:
    """Modulus of a degree-`degree` extension of F: the given one once it is
    checked to be monic irreducible, else the lexicographically smallest."""
    if given is None:
        return tuple(find_irreducible(F, degree))
    modulus = tuple(int(c) for c in given)
    if len(modulus) != degree + 1 or modulus[-1] != 1:
        raise ValueError(f"{name} must be monic of degree {degree}")
    if any(not 0 <= c < F.size for c in modulus):
        raise ValueError(f"{name} coefficients must be codes of F_{F.size}")
    if not poly_is_irreducible(F, list(modulus)):
        raise NotIrreducible(f"{name} {list(modulus)} is reducible over F_{F.size}")
    return modulus


def prime_power(q: int) -> tuple[int, int]:
    """(p, h) with q = p^h; BadParameters unless q is a prime power of at most LAZY_CAP."""
    if q > LAZY_CAP:  # before the trial division, which would run q steps on a huge prime
        raise BadParameters(f"F_q exceeds the supported field size {LAZY_CAP}")
    for p in range(2, q + 1):
        if q % p == 0:
            h = 0
            while q % p == 0:
                q //= p
                h += 1
            if q != 1:
                raise BadParameters("q must be a prime power")
            return p, h
    raise BadParameters("q must be >= 2")


def check_field_size(base: int, exp: int) -> None:
    """BadParameters past LAZY_CAP elements; the exponent goes first, as base^exp >= 2^exp."""
    if exp >= LAZY_CAP.bit_length() or base**exp > LAZY_CAP:
        raise BadParameters(f"F_({base}^{exp}) exceeds the supported field size {LAZY_CAP}")


class FieldTower:
    """Immutable tower F_p < F_q < F_{q^m}; construct via :func:`make_tower`."""

    def __init__(self, p: int, h: int, m: int, fq_modulus=None, fqm_modulus=None):
        self.p = p
        self.h = h
        self.m = m
        self.q = p**h
        self.order = self.q**m

        self.fp = small_field(p)
        self.fq_modulus = _modulus(self.fp, h, fq_modulus, "fq_modulus")
        self.fq = self.fp if h == 1 else small_field(p, self.fp, self.fq_modulus)
        self.fqm_modulus = _modulus(self.fq, m, fqm_modulus, "fqm_modulus")
        self.fqm = small_field(p, self.fq, self.fqm_modulus)
        # codes of the F_q-basis 1, y, ..., y^(m-1): y^j is the single digit 1 at place j
        self.y_basis = self.q ** np.arange(m, dtype=DTYPE)

        # a -> a^q on F_{q^m}, the Galois generator sigma with s = 1
        codes = np.arange(self.order)
        self.frob = np.asarray(self.fqm.pow(codes, self.q))
        self._norm_arr = None

    # -- representation -------------------------------------------------------

    def __repr__(self) -> str:
        return f"FieldTower(p={self.p}, h={self.h}, m={self.m})"

    @property
    def key(self) -> tuple:
        return (self.p, self.h, self.m, self.fq_modulus, self.fqm_modulus)

    # -- element constructors --------------------------------------------------

    def element(self, spec) -> "FFElement":
        """Build an element from a code, nested coefficient lists, or a string."""
        if isinstance(spec, FFElement):
            if spec.tower is not self:
                raise TowerMismatch("element from another tower")
            return spec
        if isinstance(spec, (int, np.integer)):
            code = int(spec)
            if not 0 <= code < self.order:
                raise BadParameters(f"element code {code} out of range")
            return FFElement(self, code)
        if isinstance(spec, str):
            return FFElement(self, self._parse(spec))
        # nested coefficients: m lists of h residues mod p
        return FFElement(self, self.code_from_coeffs(spec))

    def zero(self) -> "FFElement":
        return FFElement(self, 0)

    def one(self) -> "FFElement":
        return FFElement(self, 1)

    def gen(self) -> "FFElement":
        """The residue of y, generating F_{q^m} over F_q (only useful if m > 1)."""
        return FFElement(self, self.q if self.m > 1 else 0)

    def elements(self):
        return (FFElement(self, c) for c in range(self.order))

    def code_from_coeffs(self, coeffs: Sequence[Sequence[int]]) -> int:
        """The code of m coefficients of h base-p digits each; ValueError on any malformed digit."""
        if len(coeffs) != self.m:
            raise ValueError(f"expected {self.m} F_q coefficients")
        if any(len(fq_digits) != self.h for fq_digits in coeffs):
            raise ValueError(f"expected {self.h} base-p digits per coefficient")
        digits = [[int(d) for d in fq_digits] for fq_digits in coeffs]
        if not all(0 <= d < self.p for fq_digits in digits for d in fq_digits):
            raise ValueError("digit out of range")
        return int(self.fqm.from_digits(self.fq.from_digits(digits)))

    def coeffs_from_code(self, code: int) -> tuple:
        return tuple(map(tuple, self.fq.to_digits(self.fqm.to_digits(code)).tolist()))

    # -- string parsing: sums of terms over the generators y (and x) ----------

    def _parse(self, text: str) -> int:
        s = text.replace(" ", "").replace("i", "y").replace("w", "y")
        s = s.replace("-", "+-")
        if s.startswith("+"):
            s = s[1:]
        if not s:
            raise ValueError(f"cannot parse element {text!r}")
        total = 0
        for term in s.split("+"):
            if not term:
                raise ValueError(f"cannot parse element {text!r}")
            total = int(self.fqm.add(total, self._parse_term(term)))
        return total

    def _parse_term(self, term: str) -> int:
        neg = term.startswith("-")
        if neg:
            term = term[1:]
        acc = 1
        for factor in term.split("*"):
            if not factor:
                raise ValueError("empty factor")
            if factor[0] in "xy":
                e = 1
                if len(factor) > 1:
                    if factor[1] != "^":
                        raise ValueError(f"cannot parse factor {factor!r}")
                    e = int(factor[2:])
                base = self.q if factor[0] == "y" else (self.p if self.h > 1 else 0)
                val = int(self.fqm.pow(base, e))
            else:
                n = int(factor) % self.p
                val = n  # prime-subfield integer
            acc = int(self.fqm.mul(acc, val))
        return int(self.fqm.mul(acc, self.p - 1)) if neg else acc

    # -- Galois structure -------------------------------------------------------

    def frobenius_code(self, code: int, j: int = 1) -> int:
        return int(self.frob_powers[j % self.m, code])

    @cached_property
    def frob_powers(self) -> np.ndarray:
        """(m, q^m) gather table, row j mapping a -> a^(q^j); built on first use."""
        T = np.empty((self.m, self.order), dtype=DTYPE)
        T[0] = np.arange(self.order)
        for j in range(1, self.m):
            T[j] = self.frob[T[j - 1]]
        return T

    @property
    def norm_table(self) -> np.ndarray:
        """a -> a^(1 + q + ... + q^(m-1)) = a^((q^m - 1)/(q - 1)) on every code; built on first use."""
        if self._norm_arr is None:
            self._norm_arr = np.asarray(self.fqm.pow(np.arange(self.order), (self.order - 1) // (self.q - 1)))
        return self._norm_arr

    @cached_property
    def trace_table(self) -> np.ndarray:
        """a -> a + a^q + ... + a^(q^(m-1)) on every code; built on first use."""
        return np.asarray(reduce(self.fqm.add, self.frob_powers))

    def norm_code(self, code: int) -> int:
        return int(self.norm_table[code])

    def trace_code(self, code: int) -> int:
        return int(self.trace_table[code])

    def in_fq_code(self, code: int) -> bool:
        # a in F_q iff sigma(a) = a
        return int(self.frob[code]) == code

    def fq_code(self, code: int) -> int:
        if not self.in_fq_code(code):
            raise NotInBaseField(f"code {code} is not in F_q")
        return code % self.q

    def nsigma_code(self, alpha: int, i: int, s_exp: int = 1) -> int:
        """N_sigma^i(alpha) = prod_{j<i} sigma^j(alpha), sigma = x -> x^(q^s): one power of alpha."""
        return int(self.fqm.pow(alpha, sum(self.q ** (s_exp % self.m * j) for j in range(i))))


class FFElement:
    """An element of F_{q^m}; immutable, arithmetic via operators."""

    __slots__ = ("tower", "code")

    def __init__(self, tower: FieldTower, code: int):
        object.__setattr__(self, "tower", tower)
        object.__setattr__(self, "code", int(code))

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("FFElement is immutable")

    @property
    def coeffs(self) -> tuple:
        """Nested polynomial-basis coordinates: m tuples of h residues mod p."""
        return self.tower.coeffs_from_code(self.code)

    def __index__(self) -> int:
        """The element's code, so ``int(x)`` and numpy accept elements and codes alike."""
        return self.code

    def is_zero(self) -> bool:
        return self.code == 0

    def _check(self, other: "FFElement") -> "FFElement":
        if not isinstance(other, FFElement):
            other = self.tower.element(other)
        if other.tower is not self.tower:
            raise TowerMismatch("elements from different towers")
        return other

    def __eq__(self, other) -> bool:
        return isinstance(other, FFElement) and other.tower is self.tower and other.code == self.code

    def __hash__(self) -> int:
        return hash((id(self.tower), self.code))

    def __add__(self, other):
        other = self._check(other)
        return FFElement(self.tower, int(self.tower.fqm.add(self.code, other.code)))

    def __sub__(self, other):
        other = self._check(other)
        return FFElement(self.tower, int(self.tower.fqm.sub(self.code, other.code)))

    def __neg__(self):
        return FFElement(self.tower, int(self.tower.fqm.neg(self.code)))

    def __mul__(self, other):
        other = self._check(other)
        return FFElement(self.tower, int(self.tower.fqm.mul(self.code, other.code)))

    def __truediv__(self, other):
        other = self._check(other)
        return FFElement(self.tower, int(self.tower.fqm.div(self.code, other.code)))

    def __pow__(self, e: int):
        return FFElement(self.tower, int(self.tower.fqm.pow(self.code, e)))

    def inverse(self) -> "FFElement":
        return FFElement(self.tower, int(self.tower.fqm.inv(self.code)))

    def __repr__(self) -> str:
        t = self.tower
        if self.code == 0:
            return "0"
        parts = []
        for j, (c, fq_digits) in enumerate(zip(t.fqm.to_digits(self.code).tolist(), self.coeffs)):
            if c == 0:
                continue
            if t.h == 1:
                coeff = str(c)
            else:
                inner = [f"{d}" if i == 0 else (f"x^{i}" if d == 1 else f"{d}*x^{i}") for i, d in enumerate(fq_digits) if d]
                inner = [s.replace("x^1", "x") for s in inner]
                coeff = inner[0] if len(inner) == 1 else "(" + "+".join(inner) + ")"
            if j == 0:
                parts.append(coeff)
            else:
                ypow = "y" if j == 1 else f"y^{j}"
                parts.append(ypow if coeff == "1" else f"{coeff}*{ypow}")
        return "+".join(parts)


# --- public module operations ------------------------------------------------


def make_tower(p: int, h: int, m: int, fq_modulus=None, fqm_modulus=None) -> FieldTower:
    """Build (or fetch from cache) the tower F_p < F_(p^h) < F_(p^(h*m)).

    Moduli are little-endian monic coefficient lists; omitted ones are the
    lexicographically smallest monic irreducibles.  Towers are cached both
    under the request and under their full defining data, so a repeated
    request builds no field.
    """
    if h < 1 or m < 1:
        raise BadParameters("h and m must be positive")
    check_field_size(p, h * m)
    if not _is_prime(p):
        raise NotPrime(f"{p} is not prime")
    request = (p, h, m) + tuple(None if mod is None else tuple(int(c) for c in mod) for mod in (fq_modulus, fqm_modulus))
    tower = _TOWER_CACHE.get(request)
    if tower is None:
        tower = FieldTower(p, h, m, fq_modulus, fqm_modulus)
        tower = _TOWER_CACHE.setdefault(tower.key, tower)
        _TOWER_CACHE[request] = tower
    return tower


def code_of(x) -> int:
    """x as a code: an int, a numpy integer or an FFElement; BadParameters for anything
    else, such as a float, which is refused rather than truncated."""
    try:
        return operator.index(x)
    except TypeError:
        raise BadParameters(f"element code {x!r} is not an integer") from None


def tower_for(q: int, m: int) -> FieldTower:
    """The default tower F_p < F_q < F_{q^m}; BadParameters unless q is a prime power."""
    return make_tower(*prime_power(q), m)


def frobenius(a: FFElement, j: int) -> FFElement:
    """a^(q^j); j is reduced mod m."""
    return FFElement(a.tower, a.tower.frobenius_code(a.code, j))


def norm_trace(a: FFElement) -> tuple[FFElement, FFElement]:
    """(N_{q^m/q}(a), Tr_{q^m/q}(a)); both provably land in F_q."""
    t = a.tower
    n = t.norm_code(a.code)
    tr = t.trace_code(a.code)
    certify(t.in_fq_code(n) and t.in_fq_code(tr), "norm/trace left the base field; modulus data corrupt")
    return FFElement(t, n), FFElement(t, tr)
