"""The sigma-polynomial algebra on F_{q^m}.

A sigma-polynomial f_0 x + f_1 x^sigma + ... + f_d x^(sigma^d), with
sigma: x -> x^(q^s) a generator of Gal(F_{q^m}/F_q) (so gcd(s, m) = 1),
is both an F_q-linear map on F_{q^m} and an element of the right-
Euclidean composition algebra.  Division, gcrd and lclm follow the
textbook Euclidean scheme with composition as multiplication, in one
loop with cofactors.  A lambda-value, deg gcrd(F, G) for G =
x^(sigma^m) - lambda x, needs no lclm: a o F + b o G = r with r right-
dividing F and G certifies r (Ore, Annals of Math. 34, 1933).  A kernel
dimension is m minus the F_q-rank of the codes F(y^j), by elimination on
leading base-q digits, and is checked against the degree bound.

The algebra runs on lists of shifted discrete logs (index = sigma-degree,
no trailing zeros): 0 is the zero scalar and 1 + log a a nonzero a, so 0
and 1 mean what they mean as codes; ``SigmaPoly.coeffs`` holds the codes.
One cached ``_Algebra`` per (tower, s) reads the field's exp, log and Zech
tables through zero-copy memoryviews: a product adds logs, a sum is
a (1 + b/a) through Z(log b - log a) (``SmallField.zech``), and sigma^i
multiplies a log by q^(si) mod q^m - 1, with no per-tower table.  Each
certificate accumulates into one list in place (``_Algebra.combine``):
division's recomposition q o g + r, Euclid's cofactor updates a - q o b and
the Bezout sum a o f + b o g, with degree additivity checked on the top
coefficient of every product.  Every composition, division, gcrd/lclm
and lambda-value is certified on the spot (``errors.certify``, which
``python -O`` keeps).
"""

from __future__ import annotations

import functools
from math import gcd
from typing import Sequence

import numpy as np

from subdesigns.errors import (
    BadParameters,
    BothZero,
    DivisionByZeroPoly,
    NotInBaseField,
    ParameterMismatch,
    ZeroPoly,
    ZeroTwist,
    certify,
)
from subdesigns.fieldcore import DTYPE, poly_trim
from subdesigns.gf import FFElement, FieldTower, code_of


class _Algebra:
    """Sigma-polynomial arithmetic of one (tower, s) on lists of shifted logs: 0 is the zero
    scalar and 1 + log a a nonzero a, so [] is 0 and [1] the identity, as in codes."""

    def __init__(self, tower: FieldTower, s: int):
        K = tower.fqm
        self.n = n = K.size - 1  # order of the multiplicative group
        self.exp = memoryview(K._exp)  # stored twice over: any exponent below 2n reads directly
        self.log = memoryview(K._log)
        self.zech = memoryview(K.zech)
        self.minus = self.log[K._neg[1]] + 1  # -1
        self.m = tower.m
        self.frob = [pow(tower.q, s * i, n) for i in range(self.m)]  # log sigma^i(a) = q^(si) log a mod n

    # -- coefficients --------------------------------------------------------------

    def logs(self, codes: Sequence[int]) -> list[int]:
        return [self.log[c] + 1 if c else 0 for c in codes]

    def codes(self, logs: Sequence[int]) -> list[int]:
        return [self.exp[v - 1] if v else 0 for v in logs]

    def _axpy(self, out: list[int], off: int, c: int, i: int, g: Sequence[int]) -> None:
        """out[off + j] += c * sigma^i(g_j) for every j, in place; c != 0."""
        n, zech, e = self.n, self.zech, self.frob[i % self.m]
        for j, b in enumerate(g, off):
            if b:
                t = c + (b - 1) * e  # the term, a shifted log not yet reduced mod n
                a = out[j]
                if a:  # a + t = a (1 + t / a), one Zech lookup; Z = -1 where the sum is 0
                    z = zech[(t - a) % n]
                    out[j] = (a + z - 1) % n + 1 if z >= 0 else 0
                else:
                    out[j] = (t - 1) % n + 1

    # -- polynomials ---------------------------------------------------------------

    def combine(self, *terms: tuple[int, Sequence[int], Sequence[int]]) -> list[int]:
        """Sum of c (f o g) over the terms (c, f, g), c a nonzero scalar, accumulated in one list in
        place.  Degrees add (certified): each product's top coefficient must change the entry it lands on."""
        n, zech, frob, m = self.n, self.zech, self.frob, self.m
        out = []
        for c, f, g in terms:
            if f and g:
                top = len(f) + len(g) - 2
                if len(out) <= top:
                    out += [0] * (top + 1 - len(out))
                before = out[top]
                for i, a in enumerate(f):
                    if a:  # out[i + j] += c a sigma^i(g_j): _axpy inlined, one call per product, not per term
                        ca, e = c + a - 1, frob[i % m]
                        for j, b in enumerate(g, i):
                            if b:
                                t = ca + (b - 1) * e
                                a = out[j]
                                if a:
                                    z = zech[(t - a) % n]
                                    out[j] = (a + z - 1) % n + 1 if z >= 0 else 0
                                else:
                                    out[j] = (t - 1) % n + 1
                certify(out[top] != before, "composition dropped the leading term")
        return poly_trim(out)

    def add(self, a: Sequence[int], b: Sequence[int], c: int = 1) -> list[int]:
        """a + c * b for a nonzero scalar c."""
        return self.combine((1, [1], a), (c, [1], b))

    def monic(self, a: Sequence[int]) -> list[int]:
        n, top = self.n, a[-1] if a else 0
        return [(x - top) % n + 1 if x else 0 for x in a]

    def compose(self, f: Sequence[int], g: Sequence[int]) -> list[int]:
        """f o g for nonzero f, g."""
        return self.combine((1, f, g))

    def mul(self, f: Sequence[int], g: Sequence[int]) -> list[int]:
        """f o g; degrees add for nonzero inputs (certified)."""
        if not (f and g):
            return []
        out = self.compose(f, g)
        certify(len(out) == len(f) + len(g) - 1 and out[-1] != 0, "composition dropped the leading term")
        return out

    def divmod(self, f: Sequence[int], g: Sequence[int]) -> tuple[list[int], list[int]]:
        """q, r with f = q o g + r and deg r < deg g, for nonzero g; both certified, q o g + r in one list."""
        n, m, frob, dg, top, low = self.n, self.m, self.frob, len(g) - 1, g[-1] - 1, g[:-1]
        r = list(f)
        q = [0] * (len(f) - dg)
        for shift in range(len(q) - 1, -1, -1):
            lead = r[shift + dg]
            if lead:  # q_shift = lead / sigma^shift(g_top) clears the lead; r -= q_shift x^shift o (g - g_top)
                c = q[shift] = (lead - 1 - top * frob[shift % m]) % n + 1
                r[shift + dg] = 0
                self._axpy(r, shift, (c + self.minus - 2) % n + 1, shift, low)
        r = poly_trim(r)  # q ends in lead(f) / sigma^(deg q)(g_top), nonzero
        certify(len(r) < len(g) and self.combine((1, q, g), (1, [1], r)) == list(f),
                "divmod remainder or recomposition failed")
        return q, r

    def apply(self, f: Sequence[int], xs: Sequence[int]) -> list[int]:
        """f(x) = sum_i f_i sigma^i(x) for each code x of xs, as codes."""
        acc, xs = [0] * len(xs), self.logs(xs)
        for i, a in enumerate(f):
            if a:
                self._axpy(acc, 0, a, i, xs)
        return self.codes(acc)

    def euclid(self, f: Sequence[int], g: Sequence[int]) -> tuple[list[int], ...]:
        """r, a, b, a', b' with a o f + b o g = r, a gcrd, and a' o f + b' o g = 0 (the last cofactors);
        each cofactor update a - q o b runs in one list."""
        r0, a0, b0 = f, [1], []
        r1, a1, b1 = g, [], [1]
        while r1:
            q, r = self.divmod(r0, r1)
            a, b = self.combine((self.minus, q, a1), (1, [1], a0)), self.combine((self.minus, q, b1), (1, [1], b0))
            r0, a0, b0, r1, a1, b1 = r1, a1, b1, r, a, b
        return list(r0), a0, b0, a1, b1


@functools.cache
def _algebra_of(tower: FieldTower, s: int) -> _Algebra:
    return _Algebra(tower, s)


class SigmaPoly:
    """Immutable sigma-polynomial; coeffs are F_{q^m} codes, trailing nonzero."""

    __slots__ = ("tower", "s", "coeffs")

    def __init__(self, tower: FieldTower, coeffs: Sequence[int], s: int = 1):
        if gcd(s, tower.m) != 1:
            raise ParameterMismatch(f"sigma exponent {s} not coprime to m={tower.m}")
        cs = poly_trim([code_of(c) for c in coeffs])
        if not all(0 <= c < tower.order for c in cs):
            raise BadParameters(f"sigma-polynomial coefficients must be codes in [0, {tower.order})")
        object.__setattr__(self, "tower", tower)
        object.__setattr__(self, "s", s % tower.m if tower.m > 1 else 0)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("SigmaPoly is immutable")

    # -- constructors -----------------------------------------------------------

    @classmethod
    def identity(cls, tower: FieldTower, s: int = 1) -> "SigmaPoly":
        return cls(tower, [1], s)

    @classmethod
    def zero(cls, tower: FieldTower, s: int = 1) -> "SigmaPoly":
        return cls(tower, [], s)

    # -- basic structure ---------------------------------------------------------

    @property
    def deg(self) -> int:
        """sigma-degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SigmaPoly)
            and other.tower is self.tower
            and other.s == self.s
            and other.coeffs == self.coeffs
        )

    def __hash__(self) -> int:
        return hash((id(self.tower), self.s, self.coeffs))

    def __repr__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            var = "x" if i == 0 else (f"x^s" if i == 1 else f"x^s{i}")
            cf = repr(FFElement(self.tower, c))
            parts.append(var if cf == "1" else f"({cf}){var}")
        return " + ".join(parts)

    def _check(self, other: "SigmaPoly") -> None:
        if other.tower is not self.tower or other.s != self.s:
            raise ParameterMismatch("sigma-polynomials from different algebras")

    def _algebra(self) -> _Algebra:
        """The one algebra of (tower, s), built on first use; towers are interned, so it lives
        as long as its tower."""
        return _algebra_of(self.tower, self.s)

    def _logs(self) -> list[int]:
        return self._algebra().logs(self.coeffs)

    def _new(self, logs: Sequence[int]) -> "SigmaPoly":
        return SigmaPoly(self.tower, self._algebra().codes(logs), self.s)

    # -- additive structure --------------------------------------------------------

    def __add__(self, other: "SigmaPoly") -> "SigmaPoly":
        self._check(other)
        return self._new(self._algebra().add(self._logs(), other._logs()))

    def __neg__(self) -> "SigmaPoly":
        return SigmaPoly.zero(self.tower, self.s) - self

    def __sub__(self, other: "SigmaPoly") -> "SigmaPoly":
        self._check(other)
        return self._new(self._algebra().add(self._logs(), other._logs(), self._algebra().minus))

    def monic(self) -> "SigmaPoly":
        return self._new(self._algebra().monic(self._logs()))

    # -- the induced F_q-linear map -------------------------------------------------

    def evaluate(self, x):
        """F(x) for a code or an array of codes of F_{q^m} (same shape): sum_i f_i sigma^i(x)."""
        x = np.asarray(x)
        flat = [code_of(c) for c in x.reshape(-1).tolist()]
        if not all(0 <= c < self.tower.order for c in flat):
            raise BadParameters(f"evaluation points must be codes in [0, {self.tower.order})")
        return np.array(self._algebra().apply(self._logs(), flat), dtype=DTYPE).reshape(x.shape)

    def matrix(self) -> np.ndarray:
        """m x m matrix over F_q of the induced map on the basis 1, y, ..., y^(m-1)."""
        t = self.tower
        return t.fqm.to_digits(self.evaluate(t.y_basis)).T


# --- algebra operations -----------------------------------------------------------


def skew_mul(F: SigmaPoly, G: SigmaPoly) -> SigmaPoly:
    """Composition F o G; degrees add for nonzero inputs."""
    F._check(G)
    return F._new(F._algebra().mul(F._logs(), G._logs()))


def right_divmod(F: SigmaPoly, G: SigmaPoly) -> tuple[SigmaPoly, SigmaPoly]:
    """Q, R with F = Q o G + R and deg R < deg G; recomposition is re-checked."""
    F._check(G)
    if G.is_zero():
        raise DivisionByZeroPoly("right division by the zero polynomial")
    Q, R = F._algebra().divmod(F._logs(), G._logs())
    return F._new(Q), F._new(R)


def gcrd_lclm(F: SigmaPoly, G: SigmaPoly) -> tuple[SigmaPoly, SigmaPoly]:
    """Monic greatest common right divisor and least common left multiple."""
    F._check(G)
    if F.is_zero() and G.is_zero():
        raise BothZero("gcrd of two zero polynomials")
    A = F._algebra()
    f, g = F._logs(), G._logs()
    r, _, _, a1, b1 = A.euclid(f, g)
    gcrd = A.monic(r)
    if not (f and g):
        return F._new(gcrd), F._new(A.monic(f or g))
    lclm = A.monic(A.mul(a1, f))
    certify(lclm == A.monic(A.mul(b1, g)), "lclm cofactors disagree")
    certify(len(lclm) == len(f) + len(g) - len(gcrd), "degree identity for gcrd/lclm failed")
    certify(not (A.divmod(f, gcrd)[1] or A.divmod(g, gcrd)[1]), "gcrd does not right-divide both")
    certify(not (A.divmod(lclm, f)[1] or A.divmod(lclm, g)[1]), "lclm is not a left multiple of both")
    return F._new(gcrd), F._new(lclm)


def kernel_dim(F: SigmaPoly) -> int:
    """dim_q ker of the induced map; always at most the sigma-degree (checked)."""
    if F.is_zero():
        raise ZeroPoly("kernel of the zero polynomial is everything")
    t, A = F.tower, F._algebra()
    log, exp, zech, n, q = A.log, A.exp, A.zech, A.n, t.q
    pivots = {}  # base-q place j -> log of a code of the span below q^(j+1) whose digit at j is 1
    for w in A.apply(F._logs(), t.y_basis.tolist()):
        for j in reversed(range(t.m)):
            e = w // q**j  # the digit at j: every place above j is already 0
            if e and j in pivots:  # w - e * pivot = w (1 + (-e) pivot / w), one Zech lookup
                z = zech[(log[e] + A.minus - 1 + pivots[j] - log[w]) % n]
                w = exp[log[w] + z] if z >= 0 else 0
            elif e:
                pivots[j] = (log[w] - log[e]) % n
                break
    d = t.m - len(pivots)
    certify(d <= F.deg, "degree bound on the kernel dimension violated")
    return d


def twist(F: SigmaPoly, alpha: FFElement | int) -> SigmaPoly:
    """Coefficient twist f_i -> f_i * prod_{j<i} sigma^j(alpha)."""
    code = code_of(alpha)
    if not 0 <= code < F.tower.order:
        raise BadParameters(f"twist by a code outside [0, {F.tower.order})")
    if code == 0:
        raise ZeroTwist("twist by zero")
    A = F._algebra()
    log, exp, n, la, norm, out = A.log, A.exp, A.n, A.log[code], 0, []  # norm = log prod_{j<i} sigma^j(alpha)
    for i, c in enumerate(F.coeffs):
        out.append(exp[log[c] + norm] if c else 0)
        norm = (norm + la * A.frob[i % A.m]) % n
    return SigmaPoly(F.tower, out, F.s)


def lambda_value(F: SigmaPoly, lam: FFElement | int, check: bool = True) -> int:
    """deg gcrd(F, x^(sigma^m) - lam x); the kernel dimension of any norm-lam twist."""
    code = code_of(lam)
    t = F.tower
    if not 0 < code < t.order or not t.in_fq_code(code):
        raise NotInBaseField("lambda must lie in F_q^*")
    if F.is_zero():
        raise ZeroPoly("lambda-value of the zero polynomial")
    A, f = F._algebra(), F._logs()
    g = [(A.log[code] + A.minus - 1) % A.n + 1] + [0] * (t.m - 1) + [1]  # -lam x + x^(sigma^m)
    r, a, b, _, _ = A.euclid(f, g)
    certify(A.combine((1, a, f), (1, b, g)) == r, "Bezout identity for the gcrd failed")
    certify(not (A.divmod(f, r)[1] or A.divmod(g, r)[1]), "gcrd does not right-divide both")
    d = len(r) - 1
    if check:
        alpha = int(np.nonzero(np.asarray(t.norm_table) == code)[0][0])
        certify(kernel_dim(twist(F, alpha)) == d, "lambda-value / twist-kernel mismatch")
    return d
