"""The sigma-polynomial algebra on F_{q^m}.

A sigma-polynomial f_0 x + f_1 x^sigma + ... + f_d x^(sigma^d), with
sigma: x -> x^(q^s) a generator of Gal(F_{q^m}/F_q) (so gcd(s, m) = 1),
is both an F_q-linear map on F_{q^m} and an element of the right-
Euclidean composition algebra.  Division, gcrd and lclm follow the
textbook Euclidean scheme with composition as multiplication; kernel
dimensions come from the matrix of the induced map on the expansion
basis and are checked against the degree bound on every call.

The algebra runs on coefficient arrays: DTYPE codes of F_{q^m}, index =
sigma-degree, no trailing zeros (``SigmaPoly.coeffs`` is the same data as
a tuple of ints).  sigma^j of a whole array is one gather through the
tower's Frobenius power table ``FieldTower.frob_powers``, so composing
with a term a x^(sigma^i) is one vector mul and one vector add, and a
division step clears the leading coefficient of the remainder the same
way.  Every composition, division and gcrd/lclm is certified on the spot
(``errors.certify``, which ``python -O`` keeps).
"""

from __future__ import annotations

from math import gcd
from typing import Sequence

import numpy as np

from subdesigns import linalg
from subdesigns.errors import (
    BothZero,
    DivisionByZeroPoly,
    NotInBaseField,
    ParameterMismatch,
    ZeroPoly,
    ZeroTwist,
    certify,
)
from subdesigns.fieldcore import DTYPE
from subdesigns.gf import FFElement, FieldTower


def _trim(a: np.ndarray) -> np.ndarray:
    n = a.size
    while n and not a[n - 1]:
        n -= 1
    return a[:n]


class _Algebra:
    """Coefficient-array arithmetic of the sigma-polynomials of one (tower, s)."""

    def __init__(self, tower: FieldTower, s: int):
        self.K = tower.fqm
        self.T = tower.frob_powers
        self.s = s
        self.m = tower.m

    def sigma(self, a, i: int):
        """sigma^i of the codes a: one gather."""
        return self.T[self.s * i % self.m][a]

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if a.size < b.size:
            a, b = b, a
        out = a.copy()
        out[: b.size] = self.K.add(out[: b.size], b)
        return _trim(out)

    def sub(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.add(a, self.K.neg(b))

    def monic(self, a: np.ndarray) -> np.ndarray:
        return self.K.mul(a, self.K.inv(a[-1])) if a.size else a

    def compose(self, f: np.ndarray, g: np.ndarray) -> np.ndarray:
        """f o g for nonzero f, g; the top entry is kept even if it is zero."""
        out = np.zeros(f.size + g.size - 1, dtype=DTYPE)
        for i, a in enumerate(f.tolist()):
            if a:
                seg = out[i : i + g.size]
                seg[:] = self.K.add(seg, self.K.mul(a, self.sigma(g, i)))
        return out

    def mul(self, f: np.ndarray, g: np.ndarray) -> np.ndarray:
        """f o g; degrees add for nonzero inputs (certified)."""
        if not (f.size and g.size):
            return f[:0]
        out = self.compose(f, g)
        certify(out[-1] != 0, "composition dropped the leading term")
        return out

    def divmod(self, f: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """q, r with f = q o g + r and deg r < deg g, for nonzero g; recomposition certified."""
        dg = g.size - 1
        inv_lead = self.K.inv(g[-1])  # sigma^i(g_top)^-1 = sigma^i(g_top^-1)
        r = f.copy()
        q = np.zeros(max(f.size - dg, 0), dtype=DTYPE)
        for shift in range(q.size - 1, -1, -1):
            lead = r[shift + dg]
            if lead == 0:
                continue
            c = q[shift] = self.K.mul(lead, self.sigma(inv_lead, shift))
            seg = r[shift : shift + dg + 1]
            seg[:] = self.K.sub(seg, self.K.mul(c, self.sigma(g, shift)))
        q, r = _trim(q), _trim(r)
        certify(np.array_equal(self.add(self.mul(q, g), r), f), "divmod recomposition failed")
        return q, r


class SigmaPoly:
    """Immutable sigma-polynomial; coeffs are F_{q^m} codes, trailing nonzero."""

    __slots__ = ("tower", "s", "coeffs")

    def __init__(self, tower: FieldTower, coeffs: Sequence[int], s: int = 1):
        if gcd(s, tower.m) != 1:
            raise ParameterMismatch(f"sigma exponent {s} not coprime to m={tower.m}")
        cs = [int(c) for c in (coeffs.tolist() if isinstance(coeffs, np.ndarray) else coeffs)]
        while cs and cs[-1] == 0:
            cs.pop()
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

    @property
    def array(self) -> np.ndarray:
        """The coefficients as a DTYPE array (a fresh copy)."""
        return np.array(self.coeffs, dtype=DTYPE)

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
        return _Algebra(self.tower, self.s)

    def _new(self, arr: np.ndarray) -> "SigmaPoly":
        return SigmaPoly(self.tower, arr, self.s)

    # -- additive structure --------------------------------------------------------

    def __add__(self, other: "SigmaPoly") -> "SigmaPoly":
        self._check(other)
        return self._new(self._algebra().add(self.array, other.array))

    def __neg__(self) -> "SigmaPoly":
        return self._new(self.tower.fqm.neg(self.array))

    def __sub__(self, other: "SigmaPoly") -> "SigmaPoly":
        self._check(other)
        return self._new(self._algebra().sub(self.array, other.array))

    def monic(self) -> "SigmaPoly":
        return self._new(self._algebra().monic(self.array))

    # -- the induced F_q-linear map -------------------------------------------------

    def evaluate(self, x):
        """F(x) for a code or an array of codes of F_{q^m} (same shape)."""
        A = self._algebra()
        x = np.asarray(x, dtype=DTYPE)
        acc = np.zeros_like(x)
        for i, a in enumerate(self.coeffs):
            if a:
                acc = A.K.add(acc, A.K.mul(a, A.sigma(x, i)))
        return acc

    def matrix(self) -> np.ndarray:
        """m x m matrix over F_q of the induced map on the basis 1, y, ..., y^(m-1)."""
        t = self.tower
        return t.fqm.to_digits(self.evaluate(t.y_basis)).T


# --- algebra operations -----------------------------------------------------------


def skew_mul(F: SigmaPoly, G: SigmaPoly) -> SigmaPoly:
    """Composition F o G; degrees add for nonzero inputs."""
    F._check(G)
    return F._new(F._algebra().mul(F.array, G.array))


def right_divmod(F: SigmaPoly, G: SigmaPoly) -> tuple[SigmaPoly, SigmaPoly]:
    """Q, R with F = Q o G + R and deg R < deg G; recomposition is re-checked."""
    F._check(G)
    if G.is_zero():
        raise DivisionByZeroPoly("right division by the zero polynomial")
    Q, R = F._algebra().divmod(F.array, G.array)
    return F._new(Q), F._new(R)


def gcrd_lclm(F: SigmaPoly, G: SigmaPoly) -> tuple[SigmaPoly, SigmaPoly]:
    """Monic greatest common right divisor and least common left multiple."""
    F._check(G)
    if F.is_zero() and G.is_zero():
        raise BothZero("gcrd of two zero polynomials")
    A = F._algebra()
    f, g = F.array, G.array
    zero, one = np.zeros(0, dtype=DTYPE), np.ones(1, dtype=DTYPE)
    # remainders with cofactors: r_i = a_i o f + b_i o g
    r0, a0, b0 = f, one, zero
    r1, a1, b1 = g, zero, one
    while r1.size:
        q, r = A.divmod(r0, r1)
        r0, a0, b0, r1, a1, b1 = r1, a1, b1, r, A.sub(a0, A.mul(q, a1)), A.sub(b0, A.mul(q, b1))
    gcrd = A.monic(r0)
    if not (f.size and g.size):
        return F._new(gcrd), F._new(A.monic(f if f.size else g))
    lclm = A.monic(A.mul(a1, f))
    certify(np.array_equal(lclm, A.monic(A.mul(b1, g))), "lclm cofactors disagree")
    certify(lclm.size == f.size + g.size - gcrd.size, "degree identity for gcrd/lclm failed")
    certify(not (A.divmod(f, gcrd)[1].size or A.divmod(g, gcrd)[1].size), "gcrd does not right-divide both")
    certify(not (A.divmod(lclm, f)[1].size or A.divmod(lclm, g)[1].size), "lclm is not a left multiple of both")
    return F._new(gcrd), F._new(lclm)


def kernel_dim(F: SigmaPoly) -> int:
    """dim_q ker of the induced map; always at most the sigma-degree (checked)."""
    if F.is_zero():
        raise ZeroPoly("kernel of the zero polynomial is everything")
    t = F.tower
    d = t.m - linalg.rank(t.fq, F.matrix())
    certify(d <= F.deg, "degree bound on the kernel dimension violated")
    return d


def twist(F: SigmaPoly, alpha: FFElement | int) -> SigmaPoly:
    """Coefficient twist f_i -> f_i * prod_{j<i} sigma^j(alpha)."""
    code = alpha.code if isinstance(alpha, FFElement) else int(alpha)
    if code == 0:
        raise ZeroTwist("twist by zero")
    t = F.tower
    K = t.fqm
    conj = t.frob_powers[F.s * np.arange(F.deg) % t.m, code]  # sigma^j(alpha), j < deg
    norms = np.ones(F.deg + 1, dtype=DTYPE)
    for j, c in enumerate(conj):
        norms[j + 1] = K.mul(norms[j], c)
    return F._new(K.mul(F.array, norms))


def lambda_value(F: SigmaPoly, lam: FFElement | int, check: bool = True) -> int:
    """deg gcrd(F, x^(sigma^m) - lam x); the kernel dimension of any norm-lam twist."""
    code = lam.code if isinstance(lam, FFElement) else int(lam)
    t = F.tower
    if code == 0 or not t.in_fq_code(code):
        raise NotInBaseField("lambda must lie in F_q^*")
    if F.is_zero():
        raise ZeroPoly("lambda-value of the zero polynomial")
    K = t.fqm
    G = SigmaPoly(t, [int(K.neg(code))] + [0] * (t.m - 1) + [1], F.s)
    d = gcrd_lclm(F, G)[0].deg
    if check:
        alpha = int(np.nonzero(np.asarray(t.norm_table) == code)[0][0])
        certify(kernel_dim(twist(F, alpha)) == d, "lambda-value / twist-kernel mismatch")
    return d
