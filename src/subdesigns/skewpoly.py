"""The sigma-polynomial algebra on F_{q^m}.

A sigma-polynomial f_0 x + f_1 x^sigma + ... + f_d x^(sigma^d), with
sigma: x -> x^(q^s) a generator of Gal(F_{q^m}/F_q) (so gcd(s, m) = 1),
is both an F_q-linear map on F_{q^m} and an element of the right-
Euclidean composition algebra.  Division, gcrd and lclm follow the
textbook Euclidean scheme with composition as multiplication; kernel
dimensions come from the matrix of the induced map on the expansion
basis and are checked against the degree bound on every call.
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
)
from subdesigns.fieldcore import DTYPE
from subdesigns.gf import FFElement, FieldTower


class SigmaPoly:
    """Immutable sigma-polynomial; coeffs are F_{q^m} codes, trailing nonzero."""

    __slots__ = ("tower", "s", "coeffs")

    def __init__(self, tower: FieldTower, coeffs: Sequence[int], s: int = 1):
        if gcd(s, tower.m) != 1:
            raise ParameterMismatch(f"sigma exponent {s} not coprime to m={tower.m}")
        cs = [int(c) for c in coeffs]
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

    @classmethod
    def monomial(cls, tower: FieldTower, coeff: int, i: int, s: int = 1) -> "SigmaPoly":
        return cls(tower, [0] * i + [int(coeff)], s)

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

    # -- additive structure --------------------------------------------------------

    def __add__(self, other: "SigmaPoly") -> "SigmaPoly":
        self._check(other)
        F = self.tower.fqm
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0] * (n - len(self.coeffs))
        b = list(other.coeffs) + [0] * (n - len(other.coeffs))
        return SigmaPoly(self.tower, [int(F.add(x, y)) for x, y in zip(a, b)], self.s)

    def __neg__(self) -> "SigmaPoly":
        F = self.tower.fqm
        return SigmaPoly(self.tower, [int(F.neg(c)) for c in self.coeffs], self.s)

    def __sub__(self, other: "SigmaPoly") -> "SigmaPoly":
        return self + (-other)

    def scale(self, c: int) -> "SigmaPoly":
        F = self.tower.fqm
        return SigmaPoly(self.tower, [int(F.mul(c, x)) for x in self.coeffs], self.s)

    def monic(self) -> "SigmaPoly":
        if self.is_zero():
            return self
        F = self.tower.fqm
        return self.scale(int(F.inv(self.coeffs[-1])))

    # -- the induced F_q-linear map -------------------------------------------------

    def sigma_pow(self, code: int, i: int) -> int:
        return self.tower.frobenius_code(code, self.s * i)

    def evaluate(self, code: int) -> int:
        F = self.tower.fqm
        acc = 0
        for i, c in enumerate(self.coeffs):
            if c:
                acc = int(F.add(acc, int(F.mul(c, self.sigma_pow(code, i)))))
        return acc

    def matrix(self) -> np.ndarray:
        """m x m matrix over F_q of the induced map on the basis 1, y, ..., y^(m-1)."""
        t = self.tower
        gen = t.q if t.m > 1 else 0
        cols = []
        for a in range(t.m):
            ya = int(t.fqm.pow(gen, a)) if t.m > 1 else 1
            cols.append(t.fqm.to_digits(self.evaluate(ya)))
        return np.array(cols, dtype=DTYPE).T


# --- algebra operations -----------------------------------------------------------


def skew_mul(F: SigmaPoly, G: SigmaPoly) -> SigmaPoly:
    """Composition F o G; degrees add for nonzero inputs."""
    F._check(G)
    if F.is_zero() or G.is_zero():
        return SigmaPoly.zero(F.tower, F.s)
    t = F.tower
    K = t.fqm
    out = [0] * (F.deg + G.deg + 1)
    for i, a in enumerate(F.coeffs):
        if a == 0:
            continue
        for j, b in enumerate(G.coeffs):
            if b == 0:
                continue
            out[i + j] = int(K.add(out[i + j], int(K.mul(a, F.sigma_pow(b, i)))))
    R = SigmaPoly(t, out, F.s)
    assert R.deg == F.deg + G.deg, "composition dropped the leading term"
    return R


def right_divmod(F: SigmaPoly, G: SigmaPoly) -> tuple[SigmaPoly, SigmaPoly]:
    """Q, R with F = Q o G + R and deg R < deg G; recomposition is re-checked."""
    F._check(G)
    if G.is_zero():
        raise DivisionByZeroPoly("right division by the zero polynomial")
    t = F.tower
    K = t.fqm
    R = F
    Q = SigmaPoly.zero(t, F.s)
    ge = G.coeffs[-1]
    while not R.is_zero() and R.deg >= G.deg:
        shift = R.deg - G.deg
        c = int(K.div(R.coeffs[-1], F.sigma_pow(ge, shift)))
        mono = SigmaPoly.monomial(t, c, shift, F.s)
        Q = Q + mono
        R = R - skew_mul(mono, G)
    assert (skew_mul(Q, G) + R) == F, "divmod recomposition failed"
    return Q, R


def gcrd_lclm(F: SigmaPoly, G: SigmaPoly) -> tuple[SigmaPoly, SigmaPoly]:
    """Monic greatest common right divisor and least common left multiple."""
    F._check(G)
    if F.is_zero() and G.is_zero():
        raise BothZero("gcrd of two zero polynomials")
    t = F.tower
    zero = SigmaPoly.zero(t, F.s)
    ident = SigmaPoly.identity(t, F.s)
    # remainders with cofactors: R_i = A_i o F + B_i o G
    r0, a0, b0 = F, ident, zero
    r1, a1, b1 = G, zero, ident
    while not r1.is_zero():
        Q, R = right_divmod(r0, r1)
        r0, a0, b0, r1, a1, b1 = r1, a1, b1, R, a0 - skew_mul(Q, a1), b0 - skew_mul(Q, b1)
    gcrd = r0.monic()
    if F.is_zero() or G.is_zero():
        lclm = (G if F.is_zero() else F).monic()
        return gcrd, lclm
    lclm = skew_mul(a1, F).monic()
    assert lclm == skew_mul(b1, G).monic()
    assert lclm.deg == F.deg + G.deg - gcrd.deg, "degree identity for gcrd/lclm failed"
    assert right_divmod(F, gcrd)[1].is_zero() and right_divmod(G, gcrd)[1].is_zero()
    assert right_divmod(lclm, F)[1].is_zero() and right_divmod(lclm, G)[1].is_zero()
    return gcrd, lclm


def kernel_dim(F: SigmaPoly) -> int:
    """dim_q ker of the induced map; always at most the sigma-degree (checked)."""
    if F.is_zero():
        raise ZeroPoly("kernel of the zero polynomial is everything")
    t = F.tower
    d = t.m - linalg.rank(t.fq, F.matrix())
    assert d <= F.deg, "degree bound on the kernel dimension violated"
    return d


def twist(F: SigmaPoly, alpha: FFElement | int) -> SigmaPoly:
    """Coefficient twist f_i -> f_i * prod_{j<i} sigma^j(alpha)."""
    code = alpha.code if isinstance(alpha, FFElement) else int(alpha)
    if code == 0:
        raise ZeroTwist("twist by zero")
    t = F.tower
    K = t.fqm
    out = [int(K.mul(c, t.nsigma_code(code, i, F.s))) for i, c in enumerate(F.coeffs)]
    return SigmaPoly(t, out, F.s)


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
        assert kernel_dim(twist(F, alpha)) == d, "lambda-value / twist-kernel mismatch"
    return d
