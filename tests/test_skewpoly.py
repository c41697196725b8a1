import ast
import importlib
import inspect
import pkgutil
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import subdesigns
from subdesigns import linalg, skewpoly
from subdesigns.errors import (
    BadParameters,
    BothZero,
    DivisionByZeroPoly,
    NotInBaseField,
    ParameterMismatch,
    ZeroPoly,
    ZeroTwist,
)
from subdesigns.fieldcore import DTYPE, FULL_TABLE_CAP, poly_trim
from subdesigns.gf import make_tower
from subdesigns.repro import sigma_towers
from subdesigns.skewpoly import SigmaPoly, gcrd_lclm, kernel_dim, lambda_value, right_divmod, skew_mul, twist

# the sigma_towers of criterion 4 plus F_6561 = F_9^4 and F_4096 = F_4^6, whose arithmetic runs on
# log/exp tables; their Zech tables have the -1 slot at n = (Q - 1)/2 and at n = 0
ORACLE_TOWERS = [(t.p, t.h, t.m) for t in sigma_towers()] + [(3, 2, 4), (2, 2, 6)]


@pytest.fixture(scope="module")
def t9():
    return make_tower(3, 1, 2)


def P(tower, *codes, s=1):
    return SigmaPoly(tower, codes, s)


def test_composition_rule(t9):
    neg1 = 2
    A = P(t9, 1, 1)        # x^s + x
    B = P(t9, neg1, 1)     # x^s - x
    assert skew_mul(A, B).coeffs == (2, 0, 1)  # x^{s^2} - x
    X = SigmaPoly.identity(t9)
    assert skew_mul(A, X) == A and skew_mul(X, A) == A
    a, b = P(t9, 5), P(t9, 7)
    assert skew_mul(a, b).coeffs == (int(t9.fqm.mul(5, 7)),)


def test_composition_left_distributive(t9):
    rng = np.random.default_rng(4)
    for _ in range(50):
        F, G, H = (SigmaPoly(t9, rng.integers(0, 9, 3).tolist()) for _ in range(3))
        assert skew_mul(F, G + H) == skew_mul(F, G) + skew_mul(F, H)


def test_right_divmod(t9):
    C = P(t9, 2, 0, 1)   # x^{s^2} - x
    B = P(t9, 2, 1)      # x^s - x
    Q, R = right_divmod(C, B)
    assert Q.coeffs == (1, 1) and R.is_zero()
    Q, R = right_divmod(B, B)
    assert Q == SigmaPoly.identity(t9) and R.is_zero()
    low, high = P(t9, 1), P(t9, 0, 0, 1)
    Q, R = right_divmod(low, high)
    assert Q.is_zero() and R == low
    with pytest.raises(DivisionByZeroPoly):
        right_divmod(B, SigmaPoly.zero(t9))


@given(st.integers(0, 10_000))
def test_divmod_recomposition_random(seed):
    t = make_tower(2, 1, 3)
    rng = np.random.default_rng(seed)
    F = SigmaPoly(t, rng.integers(0, 8, int(rng.integers(1, 5))).tolist())
    G = SigmaPoly(t, rng.integers(0, 8, int(rng.integers(1, 4))).tolist())
    if G.is_zero():
        return
    Q, R = right_divmod(F, G)  # recomposition certified inside
    assert R.is_zero() or R.deg < G.deg


def test_gcrd_lclm_examples(t9):
    C = P(t9, 2, 0, 1)
    B = P(t9, 2, 1)
    g, l = gcrd_lclm(C, B)
    assert g == B.monic()
    assert l.deg == C.deg + B.deg - g.deg == 2
    F = P(t9, 4, 7, 1)
    g, _ = gcrd_lclm(F, SigmaPoly.identity(t9))
    assert g == SigmaPoly.identity(t9)
    g, _ = gcrd_lclm(F, F)
    assert g == F.monic()
    with pytest.raises(BothZero):
        gcrd_lclm(SigmaPoly.zero(t9), SigmaPoly.zero(t9))


def test_kernel_dims(t9):
    assert kernel_dim(P(t9, 2, 1)) == 1          # x^s - x fixes F_q
    assert kernel_dim(P(t9, 1, 1)) == 1          # trace polynomial, m = 2
    g = next(c for c in range(9) if t9.norm_code(c) == 2)
    assert kernel_dim(P(t9, int(t9.fqm.neg(g)), 1)) == 0
    with pytest.raises(ZeroPoly):
        kernel_dim(SigmaPoly.zero(t9))


def test_twist_examples(t9):
    i1 = t9.element("i+1")
    F = P(t9, 2, 1)
    assert twist(F, i1).coeffs == (2, i1.code)
    assert twist(F, t9.one()) == F
    assert twist(P(t9, 0, 1), t9.gen()).coeffs == (0, t9.gen().code)
    with pytest.raises(ZeroTwist):
        twist(F, t9.zero())


def test_lambda_values(t9):
    F = P(t9, 2, 1)  # x^s - x
    assert lambda_value(F, 1) == 1
    assert lambda_value(F, 2) == 0
    assert lambda_value(P(t9, 2, 0, 1), 1) == 2  # x^{s^m} - x has d_1 = m
    with pytest.raises(NotInBaseField):
        lambda_value(F, t9.gen())
    with pytest.raises(NotInBaseField):
        lambda_value(F, 0)


def test_sigma_exponent_validation(t9):
    with pytest.raises(ParameterMismatch):
        SigmaPoly(t9, [1, 1], s=2)  # gcd(2, 2) != 1
    t27 = make_tower(3, 1, 3)
    F = SigmaPoly(t27, [1, 0, 1], s=2)
    G = SigmaPoly(t27, [2, 1], s=1)
    with pytest.raises(ParameterMismatch):
        skew_mul(F, G)


def test_nonstandard_sigma_exponent_theorem():
    # sigma = x -> x^{q^2} on F_{3^3}: the twist/lambda correspondence persists
    t = make_tower(3, 1, 3)
    rng = np.random.default_rng(9)
    table = np.asarray(t.norm_table)
    for _ in range(40):
        coeffs = rng.integers(0, 27, 3).tolist() + [int(rng.integers(1, 27))]
        F = SigmaPoly(t, coeffs, s=2)
        total = 0
        for lam in (1, 2):
            alpha = int(np.nonzero(table == lam)[0][0])
            kd = kernel_dim(twist(F, alpha))
            assert kd == lambda_value(F, lam, check=False)
            total += kd
        assert total <= F.deg


def test_gow_bound_random(t9):
    rng = np.random.default_rng(5)
    for _ in range(200):
        coeffs = rng.integers(0, 9, int(rng.integers(1, 4))).tolist() + [int(rng.integers(1, 9))]
        F = SigmaPoly(t9, coeffs)
        assert kernel_dim(F) <= F.deg  # also certified inside kernel_dim


def test_oracle_towers_reach_log_tables():
    # one field of each characteristic parity above the cap
    assert {p % 2 for p, h, m in ORACLE_TOWERS if make_tower(p, h, m).order > FULL_TABLE_CAP} == {0, 1}


def _random_poly(tower, rng, s, max_deg):
    d = int(rng.integers(0, max_deg + 1))
    coeffs = rng.integers(0, tower.order, d).tolist() + [int(rng.integers(1, tower.order))]
    return SigmaPoly(tower, coeffs, s)


def _sigma_exponent(tower, rng):
    return int(rng.choice([s for s in range(1, tower.m) if np.gcd(s, tower.m) == 1]))


@pytest.mark.parametrize("p,h,m", ORACLE_TOWERS)
@settings(max_examples=20)
@given(st.integers(0, 10_000))
def test_composition_is_the_product_of_matrices(p, h, m, seed):
    # the matrices of the induced F_q-linear maps compose independently of skew_mul
    t = make_tower(p, h, m)
    rng = np.random.default_rng(seed)
    s = _sigma_exponent(t, rng)
    F, G = _random_poly(t, rng, s, 4), _random_poly(t, rng, s, 4)
    FG = skew_mul(F, G)
    assert FG.deg == F.deg + G.deg
    assert np.array_equal(FG.matrix(), linalg.matmul(t.fq, F.matrix(), G.matrix()))
    x = rng.integers(0, t.order, 5)
    assert np.array_equal(FG.evaluate(x), F.evaluate(G.evaluate(x)))


@pytest.mark.parametrize("p,h,m", ORACLE_TOWERS)
@settings(max_examples=20)
@given(st.integers(0, 10_000))
def test_right_divmod_degree_and_recomposition(p, h, m, seed):
    t = make_tower(p, h, m)
    rng = np.random.default_rng(seed)
    s = _sigma_exponent(t, rng)
    F, G = _random_poly(t, rng, s, 6), _random_poly(t, rng, s, 3)
    Q, R = right_divmod(F, G)
    assert R.deg < G.deg
    assert skew_mul(Q, G) + R == F


def _array_trim(a):
    n = a.size
    while n and not a[n - 1]:
        n -= 1
    return a[:n]


class _ArrayAlgebra:
    """The numpy coefficient-array algebra that skewpoly._Algebra replaced, kept as the slow oracle:
    one SmallField call on a whole coefficient array per step."""

    def __init__(self, tower, s):
        self.K, self.T, self.s, self.m = tower.fqm, tower.frob_powers, s, tower.m

    def sigma(self, a, i):
        return self.T[self.s * i % self.m][a]

    def add(self, a, b):
        if a.size < b.size:
            a, b = b, a
        out = a.copy()
        out[: b.size] = self.K.add(out[: b.size], b)
        return _array_trim(out)

    def sub(self, a, b):
        return self.add(a, self.K.neg(b))

    def monic(self, a):
        return self.K.mul(a, self.K.inv(a[-1])) if a.size else a

    def mul(self, f, g):
        if not (f.size and g.size):
            return f[:0]
        out = np.zeros(f.size + g.size - 1, dtype=DTYPE)
        for i, a in enumerate(f.tolist()):
            if a:
                seg = out[i : i + g.size]
                seg[:] = self.K.add(seg, self.K.mul(a, self.sigma(g, i)))
        return out

    def divmod(self, f, g):
        dg = g.size - 1
        inv_lead = self.K.inv(g[-1])
        r = f.copy()
        q = np.zeros(max(f.size - dg, 0), dtype=DTYPE)
        for shift in range(q.size - 1, -1, -1):
            lead = r[shift + dg]
            if lead:
                c = q[shift] = self.K.mul(lead, self.sigma(inv_lead, shift))
                seg = r[shift : shift + dg + 1]
                seg[:] = self.K.sub(seg, self.K.mul(c, self.sigma(g, shift)))
        return _array_trim(q), _array_trim(r)

    def gcrd_lclm(self, f, g):
        zero, one = np.zeros(0, dtype=DTYPE), np.ones(1, dtype=DTYPE)
        r0, a0, b0 = f, one, zero
        r1, a1, b1 = g, zero, one
        while r1.size:
            q, r = self.divmod(r0, r1)
            r0, a0, b0, r1, a1, b1 = r1, a1, b1, r, self.sub(a0, self.mul(q, a1)), self.sub(b0, self.mul(q, b1))
        if not (f.size and g.size):
            return self.monic(r0), self.monic(f if f.size else g)
        return self.monic(r0), self.monic(self.mul(a1, f))

    def lambda_value(self, f, lam):
        g = np.array([self.K.neg(lam)] + [0] * (self.m - 1) + [1], dtype=DTYPE)
        return self.gcrd_lclm(f, g)[0].size - 1

    def kernel_dim(self, f, tower):
        # m minus the F_q-rank of the digits of F(y^j), each image one array sum of f_i sigma^i(y^j)
        image = np.zeros(self.m, dtype=DTYPE)
        for i, a in enumerate(f.tolist()):
            image = self.K.add(image, self.K.mul(a, self.sigma(tower.y_basis, i)))
        return self.m - linalg.rank(tower.fq, self.K.to_digits(image))


def _codes(*arrays):
    return [tuple(a.tolist()) for a in arrays]


@pytest.mark.parametrize("p,h,m", ORACLE_TOWERS)
@settings(max_examples=20)
@given(st.integers(0, 10_000))
def test_int_algebra_matches_array_oracle(p, h, m, seed):
    t = make_tower(p, h, m)
    rng = np.random.default_rng(seed)
    s = _sigma_exponent(t, rng)
    F, G = _random_poly(t, rng, s, 5), _random_poly(t, rng, s, 3)
    if seed % 3 == 0:  # a common right factor, so that the gcrd is not 1
        F, G = skew_mul(F, G), skew_mul(_random_poly(t, rng, s, 2), G)
    A = _ArrayAlgebra(t, F.s)
    f, g = (np.array(X.coeffs, dtype=DTYPE) for X in (F, G))
    assert skew_mul(F, G).coeffs == tuple(A.mul(f, g).tolist())
    assert [X.coeffs for X in right_divmod(F, G)] == _codes(*A.divmod(f, g))
    assert [X.coeffs for X in gcrd_lclm(F, G)] == _codes(*A.gcrd_lclm(f, g))
    assert [X.coeffs for X in gcrd_lclm(F, SigmaPoly.zero(t, s))] == _codes(*A.gcrd_lclm(f, f[:0]))


@pytest.mark.parametrize("p,h,m", ORACLE_TOWERS)
def test_kernel_dim_and_lambda_value_match_the_oracles(p, h, m):
    # kernel_dim against m - rank of the looped rref on F.matrix(); lambda_value against the full gcrd_lclm
    t = make_tower(p, h, m)
    rng = np.random.default_rng(1000 * p + 10 * h + m)
    zero_map = [int(t.fqm.neg(1))] + [0] * (m - 1) + [1]  # x^(sigma^m) - x vanishes on F_{q^m}
    seen = set()
    for _ in range(12):
        s = _sigma_exponent(t, rng)
        F = _random_poly(t, rng, s, 2 * m)
        alpha = int(rng.integers(1, t.order))
        for G in (F, twist(F, alpha), skew_mul(F, SigmaPoly(t, zero_map, s))):
            kd = kernel_dim(G)
            assert kd == m - linalg.rank(t.fq, G.matrix())
            seen.add(kd)
        for lam in range(1, t.q):
            G = SigmaPoly(t, [int(t.fqm.neg(lam))] + [0] * (m - 1) + [1], s)
            assert lambda_value(F, lam) == gcrd_lclm(F, G)[0].deg
    assert {0, m} <= seen


@pytest.mark.parametrize("p,h,m", ORACLE_TOWERS)
def test_lambda_value_and_kernel_dim_match_the_array_oracle(p, h, m):
    # half of the polynomials get a right factor x^sigma - (sigma(v)/v) x, which kills v, so that kernels
    # and lambda-values are often nonzero; sigma = x -> x^(q^s) for s = 1 and s = m - 1
    t = make_tower(p, h, m)
    rng = np.random.default_rng(10 * p + 100 * h + m)
    seen = set()
    for s in sorted({1, m - 1}):
        A = _ArrayAlgebra(t, s)
        for i in range(6):
            F = _random_poly(t, rng, s, m + 1)
            if i % 2:
                v = int(rng.integers(1, t.order))
                F = skew_mul(F, SigmaPoly(t, [int(t.fqm.neg(t.fqm.div(t.frobenius_code(v, s), v))), 1], s))
            f = np.array(F.coeffs, dtype=DTYPE)
            kd = kernel_dim(F)
            seen.add(kd)
            assert kd == A.kernel_dim(f, t)
            assert [lambda_value(F, lam) for lam in range(1, t.q)] == [A.lambda_value(f, lam) for lam in range(1, t.q)]
    assert {0, 1} <= seen


def test_lambda_value_certificates_survive_python_O():
    # a wrong Bezout cofactor, and a "gcrd" that satisfies Bezout but does not divide f, are both refused
    faults = {
        "Bezout identity for the gcrd failed":
            "    r, a, b, a1, b1 = euclid(self, f, g)\n    return r, self.add(a, [1]), b, a1, b1\n",
        "gcrd does not right-divide both": "    return list(g), [], [1], [], []\n",
    }
    for message, body in faults.items():
        check = (
            "from subdesigns import skewpoly as sk\n"
            "from subdesigns.gf import make_tower\n"
            "euclid = sk._Algebra.euclid\n"
            f"def faulty(self, f, g):\n{body}"
            "sk._Algebra.euclid = faulty\n"
            "t = make_tower(3, 1, 2)\n"
            "sk.lambda_value(sk.SigmaPoly(t, [1, 1]), 1)\n"
        )
        proc = subprocess.run([sys.executable, "-O", "-c", check], capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1
        assert f"CertificateFailed: {message}" in proc.stderr


@pytest.mark.parametrize("p,h,m", ORACLE_TOWERS)
def test_zech_arithmetic_matches_the_field(p, h, m):
    t = make_tower(p, h, m)
    K, A = t.fqm, skewpoly._Algebra(t, 1)
    n = K.size - 1
    # the one -1 slot of Z: 1 + g^n = 0 at n = 0 in characteristic 2, at n = (Q - 1)/2 otherwise
    assert K.zech.dtype == np.int32 and np.flatnonzero(K.zech < 0).tolist() == [0 if p == 2 else n // 2]
    rng = np.random.default_rng(100 * p + 10 * h + m)
    xs, ys = rng.integers(0, K.size, (2, 200)).tolist()
    pairs = list(zip(xs, ys)) + [(x, int(K.neg(x))) for x in xs[:20]] + [(0, 0), (0, 1), (1, 0), (1, int(K.neg(1)))]
    for x, y in pairs:  # constants as shifted-log polynomials
        a, b = A.logs(poly_trim([x])), A.logs(poly_trim([y]))
        assert A.codes(A.add(a, b)) == poly_trim([int(K.add(x, y))])
        assert A.codes(A.add(a, b, A.minus)) == poly_trim([int(K.sub(x, y))])
        assert A.codes(A.mul(a, b)) == poly_trim([int(K.mul(x, y))])
    nonzero = [x for x in xs if x]
    assert [A.codes(A.divmod([1], A.logs([x]))[0]) for x in nonzero] == [[c] for c in K.inv(np.array(nonzero)).tolist()]
    assert A.logs([0, 1, K.generator_code]) == [0, 1, 2] and A.codes([0, 1, 2]) == [0, 1, K.generator_code]


@pytest.mark.parametrize("x", [1.5, 2.0, np.float64(1.5), np.array([1, 0.5]), np.array([[2.0]])])
def test_non_integral_evaluation_points_are_refused(t9, x):
    # a float is refused, never truncated: F(1.5) would read F(1) = 0 over F_9
    with pytest.raises(BadParameters, match="is not an integer"):
        SigmaPoly(t9, [2, 1]).evaluate(x)


def test_integer_evaluation_points_keep_their_shape_and_values(t9):
    F = SigmaPoly(t9, [2, 1])
    want = [int(F.evaluate(c)) for c in range(t9.order)]
    for dtype in (np.uint8, np.int32, np.int64):
        got = F.evaluate(np.arange(t9.order, dtype=dtype).reshape(3, 3))
        assert got.shape == (3, 3) and got.reshape(-1).tolist() == want
    assert F.evaluate(np.int64(4)).shape == () and int(F.evaluate(np.int64(4))) == want[4]


@pytest.mark.parametrize("code", [-1, -9, 9, 100, 2**40])
def test_codes_outside_the_field_are_refused(t9, code):
    with pytest.raises(BadParameters):
        SigmaPoly(t9, [code, 1])
    F = P(t9, 2, 1)
    with pytest.raises(BadParameters):
        F.evaluate(code)
    with pytest.raises(BadParameters):  # checked before the int32 cast, which would wrap 2**40 to 0
        F.evaluate(np.array([1, code]))
    with pytest.raises(NotInBaseField):
        lambda_value(F, code)
    with pytest.raises(BadParameters):
        twist(F, code)


@pytest.mark.parametrize("name", [mod.name for mod in pkgutil.iter_modules(subdesigns.__path__)])
def test_module_has_no_assert(name):
    # certificates go through errors.certify, which python -O keeps
    tree = ast.parse(inspect.getsource(importlib.import_module(f"subdesigns.{name}")))
    assert not [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]


def test_skewpoly_certificate_survives_python_O():
    # a composition that drops its leading term must be refused even with asserts stripped
    check = (
        "from subdesigns import skewpoly as sk\n"
        "from subdesigns.gf import make_tower\n"
        "compose = sk._Algebra.compose\n"
        "def dropped(self, f, g):\n"
        "    out = compose(self, f, g)\n"
        "    out[-1] = 0\n"
        "    return out\n"
        "sk._Algebra.compose = dropped\n"
        "t = make_tower(3, 1, 2)\n"
        "sk.skew_mul(sk.SigmaPoly(t, [1, 1]), sk.SigmaPoly(t, [2, 1]))\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", check], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert "CertificateFailed: composition dropped the leading term" in proc.stderr


_FUSED_FAULTS = {
    # the recomposition q o g + r of a division with a nonzero remainder loses its last term, r
    "divmod remainder or recomposition failed": (
        "sk._Algebra.combine = lambda self, *terms: combine(self, *terms[:-1])\n"
        "sk.right_divmod(sk.SigmaPoly(t, [1, 1, 1]), sk.SigmaPoly(t, [1, 1]))\n"),
    # in lambda_value only the cofactor updates a - q o b scale a product by -1; their q loses its top coefficient
    "composition dropped the leading term": (
        "sk._Algebra.combine = lambda self, *terms: combine(\n"
        "    self, *[(c, [*f[:-1], 0] if f and c == self.minus else f, g) for c, f, g in terms])\n"
        "sk.lambda_value(sk.SigmaPoly(t, [1, 1]), 1)\n"),
    # once euclid has returned, every sum loses its last term: the Bezout sum a o f + b o g is next, and
    # for lambda = 2 both of its cofactors are nonzero
    "Bezout identity for the gcrd failed": (
        "euclid = sk._Algebra.euclid\n"
        "def faulty(self, f, g):\n"
        "    out = euclid(self, f, g)\n"
        "    sk._Algebra.combine = lambda self, *terms: combine(self, *terms[:-1])\n"
        "    return out\n"
        "sk._Algebra.euclid = faulty\n"
        "sk.lambda_value(sk.SigmaPoly(t, [1, 1]), 2)\n"),
}


@pytest.mark.parametrize("message", list(_FUSED_FAULTS))
def test_fused_accumulators_survive_python_O(t9, message):
    # each certificate that accumulates into one list in place refuses a faulty accumulator with asserts
    # stripped; the division below has a nonzero remainder, so dropping it changes the recomposition
    assert right_divmod(P(t9, 1, 1, 1), P(t9, 1, 1))[1].deg >= 0
    check = (
        "from subdesigns import skewpoly as sk\n"
        "from subdesigns.gf import make_tower\n"
        "t = make_tower(3, 1, 2)\n"
        "combine = sk._Algebra.combine\n" + _FUSED_FAULTS[message]
    )
    proc = subprocess.run([sys.executable, "-O", "-c", check], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert f"CertificateFailed: {message}" in proc.stderr


def test_zech_certificate_survives_python_O():
    # a digit sum that ignores its second term gives Z = 0 everywhere: no -1 slot, and Z(-n) != Z(n) - n;
    # F_9 builds its Zech table for its add table at construction, so the child drops it and builds again
    check = (
        "import numpy as np\n"
        "from subdesigns.gf import make_tower\n"
        "K = make_tower(3, 1, 2).fqm\n"
        "del K.zech\n"
        "K._digit_sum = lambda a, b: np.broadcast_arrays(a, b)[0]\n"
        "K.zech\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", check], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert "CertificateFailed: Zech table of F_9 is inconsistent" in proc.stderr


@pytest.mark.parametrize("p,h,m", [key for key in ORACLE_TOWERS if make_tower(*key).order > FULL_TABLE_CAP])
@pytest.mark.parametrize("shape", [(), (7,), (3, 4)])
def test_evaluate_matches_the_looped_sum(p, h, m, shape):
    # F(x) = sum_i f_i sigma^i(x), one element at a time, for sigma = x -> x^(q^s) with s != 1
    t = make_tower(p, h, m)
    rng = np.random.default_rng(p * 100 + m)
    s = next(s for s in range(2, m) if np.gcd(s, m) == 1)
    F = SigmaPoly(t, rng.integers(0, t.order, 4).tolist() + [int(rng.integers(1, t.order))], s)
    x = rng.integers(0, t.order, shape)
    want = np.zeros(shape, dtype=np.int64)
    for idx in np.ndindex(*shape):
        for i, f in enumerate(F.coeffs):
            want[idx] = int(t.fqm.add(int(want[idx]), int(t.fqm.mul(f, t.frobenius_code(int(x[idx]), s * i)))))
    got = F.evaluate(x)
    assert got.shape == shape and np.array_equal(got, want)


def test_one_algebra_per_tower_and_s(monkeypatch):
    # every operation of one (tower, s) reads one _Algebra, built on first use and cached
    t = make_tower(3, 1, 4)
    F, G = SigmaPoly(t, [1, 2, 1]), SigmaPoly(t, [5, 1], s=3)
    assert F._algebra() is SigmaPoly(t, [7])._algebra() is (F + F)._algebra()
    assert G._algebra() is G._algebra() is not F._algebra()
    built = []
    init = skewpoly._Algebra.__init__
    monkeypatch.setattr(skewpoly._Algebra, "__init__", lambda self, *args: built.append(args) or init(self, *args))
    assert lambda_value(F, 1) == kernel_dim(twist(F, 1)) and gcrd_lclm(F, F + F)[0] == F.monic()
    assert built == []
