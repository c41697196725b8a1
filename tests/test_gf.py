import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, strategies as st

from subdesigns.errors import BadParameters, DivisionByZero, NotInBaseField, NotIrreducible, NotPrime, TowerMismatch
from subdesigns.fieldcore import FULL_TABLE_CAP, find_irreducible, poly_eval, poly_mod, smallest_root
from subdesigns import fieldcore, gf, linalg
from subdesigns import design as de
from subdesigns import expander as ex
from subdesigns import sumrank as sr
from subdesigns.design import construct_field_partition
from subdesigns.formats import tower_from_json, tower_to_json
from subdesigns.gf import FFElement, frobenius, make_tower, norm_trace
from subdesigns.repro import distinct_norm_elements, pseudoregulus_design, twisted_design
from subdesigns.skewpoly import SigmaPoly, lambda_value, twist
from subdesigns.subspace import AmbientSpace
from test_linalg import RANK_TOWERS

# towers swept exhaustively where the contracts ask for it (q^m <= 3^6)
SWEEP = [(2, 1, 2), (2, 1, 3), (2, 1, 4), (2, 1, 5), (2, 1, 6),
         (3, 1, 2), (3, 1, 3), (3, 1, 4), (3, 1, 5), (3, 1, 6),
         (2, 2, 2), (2, 2, 3), (2, 2, 4), (5, 1, 2), (5, 1, 3), (5, 1, 4),
         (3, 2, 2), (3, 2, 3), (5, 2, 2)]

# (fq, fqm) generator codes as recorded before the array bootstrap: exp/log
# tables, and with them the field-partition member order, follow them
GENERATORS = {(2, 1, 2): (1, 2), (2, 1, 3): (1, 2), (3, 1, 2): (2, 4), (3, 1, 3): (2, 3), (2, 2, 2): (2, 4),
              (5, 1, 2): (2, 6), (3, 2, 2): (4, 10), (2, 2, 3): (2, 5), (3, 1, 4): (2, 3), (5, 1, 3): (2, 9),
              (7, 1, 2): (3, 9), (3, 2, 4): (4, 10), (2, 2, 6): (2, 4), (5, 1, 6): (2, 5)}


def test_make_tower_examples(f4, f8, f9, f27):
    # smallest extension and the standard F_9 modulus
    assert f4.order == 4 and f4.fqm_modulus == (1, 1, 1)
    assert f9.order == 9 and f9.fqm_modulus == (1, 0, 1)
    # default moduli are recorded in design files, so they must not move
    assert f4.key == (2, 1, 2, (0, 1), (1, 1, 1))
    assert f8.key == (2, 1, 3, (0, 1), (1, 1, 0, 1))
    assert f9.key == (3, 1, 2, (0, 1), (1, 0, 1))
    assert f27.key == (3, 1, 3, (0, 1), (1, 2, 0, 1))
    assert make_tower(2, 2, 2).key == (2, 2, 2, (1, 1, 1), (2, 1, 1))  # F_16 over F_4
    w = f4.gen()
    assert w * w == f4.element("w+1")
    i = f9.gen()
    assert i * i == -f9.one()


def test_make_tower_rejects_reducible_modulus():
    with pytest.raises(NotIrreducible):
        make_tower(2, 1, 2, fqm_modulus=(1, 0, 1))  # x^2+1 = (x+1)^2 over F_2


def test_make_tower_rejects_composite_characteristic():
    with pytest.raises(NotPrime):
        make_tower(4, 1, 2)


def test_make_tower_refuses_huge_or_non_positive_sizes():
    # sizes are compared on the exponent, so no power of a huge degree or base is formed: each refusal
    # is immediate, with a short message
    start = time.perf_counter()
    for call in (lambda: make_tower(3, 1, 2**31), lambda: make_tower(10**30 + 57, 1, 1),
                 lambda: gf.tower_for(2**61 - 1, 1), lambda: construct_field_partition(3, 2**31, 1)):
        with pytest.raises(BadParameters, match="exceeds the supported field size") as exc:
            call()
        assert len(str(exc.value)) < 80
    assert time.perf_counter() - start < 1
    assert str(pytest.raises(BadParameters, make_tower, 3, 1, 2**31).value) == \
        "F_(3^2147483648) exceeds the supported field size 1048576"
    for h, m in [(1, 0), (0, 2), (1, -3)]:
        with pytest.raises(BadParameters, match="h and m must be positive"):
            make_tower(2, h, m)


@pytest.mark.parametrize("call,message", [
    (lambda: make_tower(2, 4, 6), "F_(2^24)"),
    (lambda: make_tower(1031, 1, 2), "F_(1031^2)"),
    (lambda: construct_field_partition(4, 3, 5), "F_(4^15)"),  # h m k = 30 past the bit length, q^(mk) formed
    (lambda: construct_field_partition(2, 1, 21), "F_(2^21)"),
])
def test_one_field_size_rule_for_towers_and_field_partitions(call, message):
    with pytest.raises(BadParameters) as exc:
        call()
    assert str(exc.value) == f"{message} exceeds the supported field size 1048576"
    gf.check_field_size(2, 20)  # 2^20 elements is the largest supported field


def test_towers_are_cached(f9, monkeypatch):
    assert make_tower(3, 1, 2) is f9
    # a repeated request, as on every design-file load, builds no field
    monkeypatch.setattr(gf, "SmallField", None)
    assert make_tower(3, 1, 2, fq_modulus=[0, 1], fqm_modulus=(1, 0, 1)) is f9
    assert tower_from_json(tower_to_json(f9)) is f9


def test_towers_share_their_fields(monkeypatch):
    a, b = make_tower(3, 1, 2), make_tower(3, 1, 3)
    assert a is not b and a.fq is b.fq is a.fp
    # every table cached on F_3 is built once for both towers
    assert linalg._span_table(a.fq, 2) is linalg._span_table(b.fq, 2)
    assert linalg._packed_tables(a.fq, 6) is linalg._packed_tables(b.fq, 6)
    with pytest.raises(TowerMismatch):
        a.one() + b.one()
    # the field partition's F_{q^(mk)} is interned too: a second construction builds no field
    construct_field_partition(2, 3, 2)
    monkeypatch.setattr(gf, "SmallField", None)
    construct_field_partition(2, 3, 2)


def test_field_arith_examples(f4, f9):
    w = f4.gen()
    assert w * w == f4.element("w+1")
    assert w**3 == f4.one()
    i1 = f9.element("i+1")
    assert i1 * i1 == f9.element("2*i")
    with pytest.raises(DivisionByZero):
        f4.one() / f4.zero()
    with pytest.raises(TowerMismatch):
        f4.one() + f9.one()


def test_frobenius_examples(f4, f9):
    w, i = f4.gen(), f9.gen()
    assert frobenius(w, 1) == w * w == f4.element("w+1")
    assert frobenius(i, 1) == -i  # i^3
    for a in f9.elements():
        assert frobenius(a, 0) == a
        assert frobenius(a, f9.m) == a


def test_norm_trace_examples(f4, f9):
    n, tr = norm_trace(f4.gen())
    assert n == f4.one() and tr == f4.one()
    n, _ = norm_trace(f9.element("i+1"))
    assert n.code == 2
    n, tr = norm_trace(f9.zero())
    assert n == f9.zero() and tr == f9.zero()


def test_norm_by_repeated_multiplication_oracle(f9):
    # oracle: multiply the conjugates one by one
    for a in f9.elements():
        acc = f9.one()
        for j in range(f9.m):
            acc = acc * frobenius(a, j)
        assert norm_trace(a)[0] == acc


@pytest.mark.parametrize("p,h,m", SWEEP)
def test_frobenius_order_and_fixed_field(p, h, m):
    t = make_tower(p, h, m)
    codes = np.arange(t.order)
    x = codes.copy()
    for _ in range(m):
        x = t.frob[x]
    assert np.array_equal(x, codes)  # sigma^m = id on every element
    fixed = int((t.frob[codes] == codes).sum())
    assert fixed == t.q  # sigma fixes exactly F_q


@pytest.mark.parametrize("p,h,m", SWEEP)
def test_frobenius_power_table(p, h, m):
    t = make_tower(p, h, m)
    codes = np.arange(t.order)
    T = t.frob_powers
    assert T.shape == (m, t.order) and T is t.frob_powers  # built once
    for j in range(m):
        assert np.array_equal(T[j], t.fqm.pow(codes, t.q**j))


@pytest.mark.parametrize("p,h,m", SWEEP)
def test_norm_trace_nsigma_against_conjugate_loops(p, h, m):
    # norm_table, trace_table and nsigma_code are one power or one sum; the oracles multiply or
    # add the conjugates one at a time
    t = make_tower(p, h, m)
    codes = np.arange(t.order)
    nrm, tr, x = codes, codes, codes
    for _ in range(m - 1):
        x = t.frob[x]
        nrm, tr = t.fqm.mul(nrm, x), t.fqm.add(tr, x)
    assert np.array_equal(t.norm_table, nrm) and np.array_equal(t.trace_table, tr)
    rng = np.random.default_rng(p * h * m)
    for s in [s for s in range(1, 2 * m + 1) if np.gcd(s, m) == 1]:
        for a in rng.integers(0, t.order, 10).tolist() + [0, 1]:
            acc = 1
            for i in range(m + 2):
                assert t.nsigma_code(a, i, s) == acc
                acc = int(t.fqm.mul(acc, t.frobenius_code(a, s * i)))


# every tower the tests and repro build, 1031 as a table-sized prime and its degree-1 extension
TABLE_TOWERS = [(2, 1, 1), (2, 1, 2), (2, 1, 3), (2, 1, 4), (2, 1, 5), (2, 1, 6), (2, 1, 10), (2, 2, 2), (2, 2, 3),
                (2, 2, 4), (2, 2, 6), (3, 1, 1), (3, 1, 2), (3, 1, 3), (3, 1, 4), (3, 1, 5), (3, 1, 6), (3, 2, 2),
                (3, 2, 3), (3, 2, 4), (3, 2, 5), (5, 1, 1), (5, 1, 2), (5, 1, 3), (5, 1, 4), (5, 1, 6), (5, 2, 2),
                (7, 1, 1), (7, 1, 2), (1031, 1, 1)]


def broadcast_tables(F):
    """Oracle: F's Q x Q add table as digit sums through the base field (residues in a prime
    field) and its mul table as g^(log a + log b) with zero rows and columns, by broadcast over
    slices of 64 rows."""
    a = np.arange(F.size)
    add, mul = [], []
    for rows in np.array_split(a, -(-F.size // 64)):
        if F.base is None:
            add.append((rows[:, None] + a) % F.p)
        else:
            add.append(F.from_digits(F.base.add(F.to_digits(rows)[:, None, :], F.to_digits(a)[None, :, :])))
        mt = F._exp[F._log[rows, None] + F._log[None, :]]
        mt[rows == 0, :] = 0
        mt[:, 0] = 0
        mul.append(mt)
    return np.concatenate(add).astype(np.int32), np.concatenate(mul).astype(np.int32)


def test_field_tables_match_the_digit_broadcast():
    # the add and mul tables built in row slices through add and mul are the broadcast ones, on every
    # table field built so far in this process, including the field partitions' F_{q^(mk)}
    for key in TABLE_TOWERS:
        make_tower(*key)
    for q, m, k in [(2, 2, 3), (3, 2, 3), (2, 3, 2)]:
        construct_field_partition(q, m, k)
    fields = [F for F in gf._FIELD_CACHE.values() if F.size <= FULL_TABLE_CAP]
    assert {F.size for F in fields} >= {2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 49, 64, 81, 243, 729, 1024, 1031}
    for F in fields:
        add, mul = broadcast_tables(F)
        assert F._add_table.dtype == F._mul_table.dtype == np.int32
        assert F._add_table.tobytes() == add.tobytes() and F._mul_table.tobytes() == mul.tobytes()


def test_largest_table_fields_build_under_500_mib():
    # F_2048 = F_2^11, over F_2 and as a degree-1 extension of itself, builds its tables in row
    # slices; a (2048, 2048, 11) digit broadcast alone would need 352 MiB of the 500 MiB
    check = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (500 << 20, 500 << 20))\n"
        "from subdesigns.gf import make_tower\n"
        "print([make_tower(*key).fqm._add_table.shape for key in [(2, 1, 11), (2, 11, 1)]])\n"
    )
    proc = subprocess.run([sys.executable, "-c", check], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[(2048, 2048), (2048, 2048)]\n"


def test_digit_encoding_above_the_table_cap():
    # F_6561 codes are place values, and its sums are the sums of its F_9 digits, for any shape
    F = make_tower(3, 2, 4).fqm
    assert F._add_table is None
    codes = np.arange(F.size)
    assert np.array_equal(F.from_digits(F.to_digits(codes)), codes)
    rng = np.random.default_rng(8)
    for shape in [(), (7,), (3, 5)]:
        a, b = rng.integers(0, F.size, shape), rng.integers(0, F.size, shape)
        got = F.add(a, b)
        assert np.shape(got) == shape
        digits = F.base.add(F.to_digits(a), F.to_digits(b)).astype(np.int64)
        assert np.array_equal(got, sum(digits[..., i] * F.base.size**i for i in range(F.degree)))
        assert int(F.add(int(a.flat[0]), int(b.flat[0]))) == int(np.asarray(got).flat[0])


@pytest.mark.parametrize("key", [(2, 2, 6), (3, 2, 4), (5, 1, 6), (3, 2, 5)])
def test_zech_addition_matches_the_digit_sum(key):
    # F_4096, F_6561, F_15625 and F_59049 add through their Zech tables: scalars, broadcast arrays,
    # zero operands and a + (-a) = 0 against the sum of base-field digits, with int32 results
    F = make_tower(*key).fqm
    assert F._add_table is None and F.base is not None

    def digit_sum(a, b):
        return F.from_digits(F.base.add(F.to_digits(a), F.to_digits(b)))

    rng = np.random.default_rng(F.size)
    a, b = rng.integers(0, F.size, (6, 1)), rng.integers(0, F.size, 5)
    a[0], b[0] = 0, 0
    got = F.add(a, b)
    assert got.shape == (6, 5) and got.dtype == np.int32 and np.array_equal(got, digit_sum(a, b))
    assert not F.add(a, F.neg(a)).any() and np.array_equal(F.add(a, 0), a) and np.array_equal(F.add(0, b), b)
    for x, y in [(0, 0), (0, 7), (7, 0), (7, int(F.neg(7))), (5, 9), (F.size - 1, F.size - 1)]:
        s = F.add(x, y)
        assert np.ndim(s) == 0 and s.dtype == np.int32 and int(s) == int(digit_sum(x, y))
    codes = np.arange(F.size)
    assert np.array_equal(F.add(codes, codes[::-1]), digit_sum(codes, codes[::-1]))


@pytest.mark.parametrize("key", [(2, 2, 6), (3, 2, 4), (5, 1, 6), (3, 2, 5)])
def test_log_products_match_the_masked_product(key):
    # above the table cap a zero operand's log points into exp's zero run: products of
    # scalars, broadcast arrays and zeros against g^(log a + log b), 0 where a or b is 0
    F = make_tower(*key).fqm
    assert F._mul_table is None

    def masked(a, b):
        a, b = np.asarray(a), np.asarray(b)
        return np.where((a == 0) | (b == 0), 0, F._exp[(F._log[a] + F._log[b]) % (F.size - 1)])

    rng = np.random.default_rng(F.size)
    a, b = rng.integers(0, F.size, (6, 1)), rng.integers(0, F.size, 5)
    a[0], b[0] = 0, 0
    got = F.mul(a, b)
    assert got.shape == (6, 5) and got.dtype == np.int32 and np.array_equal(got, masked(a, b))
    for x, y in [(0, 0), (0, 7), (7, 0), (1, 9), (F.size - 1, F.size - 1)]:
        s = F.mul(x, y)
        assert np.ndim(s) == 0 and s.dtype == np.int32 and int(s) == int(masked(x, y))
    codes = np.arange(1, F.size)
    assert (F.mul(codes, F.inv(codes)) == 1).all() and not F.mul(np.arange(F.size), 0).any()


@pytest.mark.parametrize("p,h,m", [(2, 1, 2), (3, 1, 2), (2, 2, 2), (3, 1, 3), (5, 1, 2)])
def test_norm_multiplicative_trace_additive(p, h, m):
    t = make_tower(p, h, m)
    rng = np.random.default_rng(11)
    for _ in range(200):
        a, b = (int(x) for x in rng.integers(0, t.order, 2))
        ab = int(t.fqm.mul(a, b))
        assert t.norm_code(ab) == int(t.fqm.mul(t.norm_code(a), t.norm_code(b)))
        apb = int(t.fqm.add(a, b))
        assert t.trace_code(apb) == int(t.fqm.add(t.trace_code(a), t.trace_code(b)))


@given(st.integers(0, 8), st.integers(0, 8))
def test_ffelement_ring_axioms_f9(a_code, b_code):
    t = make_tower(3, 1, 2)
    a, b = FFElement(t, a_code), FFElement(t, b_code)
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * a == a * a + b * a
    if b.code:
        assert (a / b) * b == a


def test_coeffs_round_trip(f9):
    for a in f9.elements():
        assert f9.element(a.coeffs) == a


@pytest.mark.parametrize("p,h,m", [(2, 2, 2), (3, 1, 2), (2, 1, 3)])
def test_coeffs_codec_round_trips_every_code(p, h, m):
    t = make_tower(p, h, m)
    for code in range(t.order):
        coeffs = t.coeffs_from_code(code)
        assert [len(c) for c in coeffs] == [h] * m and all(type(d) is int for c in coeffs for d in c)
        # little-endian base-q coefficients, each a little-endian string of base-p digits
        assert sum(d * p**i * t.q**j for j, c in enumerate(coeffs) for i, d in enumerate(c)) == code
        assert t.code_from_coeffs(coeffs) == code


def test_subfield_membership(f9):
    in_fq = [a.code for a in f9.elements() if f9.in_fq_code(a.code)]
    assert in_fq == [0, 1, 2]
    with pytest.raises(NotInBaseField):
        f9.fq_code(f9.gen().code)


def test_string_parsing(f9, f4):
    assert f9.element("i+1").code == f9.element("1+y").code
    assert f9.element("-1").code == 2
    assert f9.element("2*i+2") == f9.element("2*y") + f9.element(2)
    assert f4.element("w^2") == f4.gen() * f4.gen()


@pytest.mark.parametrize("p,h,m", RANK_TOWERS + [(5, 1, 1)])
def test_y_basis_codes(p, h, m):
    t = make_tower(p, h, m)
    want = [int(t.fqm.pow(t.q, j)) for j in range(m)] if m > 1 else [1]
    assert t.y_basis.tolist() == want


@pytest.mark.parametrize("key", list(GENERATORS))
def test_generator_codes_and_exp_bijection(key):
    t = make_tower(*key)
    assert (t.fq.generator_code, t.fqm.generator_code) == GENERATORS[key]
    for F in (t.fp, t.fq, t.fqm):
        order = F.size - 1
        assert np.array_equal(np.sort(F._exp[:order]), np.arange(1, F.size))
        assert np.array_equal(F._exp[order:], F._exp[:order])
        assert np.array_equal(F._log[F._exp[:order]], np.arange(order))


@pytest.mark.parametrize("key,steps", [((3, 2, 4), [9, 10]), ((5, 2, 4), [25, 26]), ((3, 2, 2), [9, 10]),
                                       ((2, 1, 3), [2]), ((5, 1, 1), [2])])
def test_primitive_search_builds_no_step_table_for_the_base_field(monkeypatch, key, steps):
    # in a proper extension the codes below |base| are the base field, whose orders divide |base| - 1:
    # the search starts past them (a degree-1 extension at 2, as a prime field) and finds the same code
    t = make_tower(*key)
    tried, build = [], fieldcore.SmallField._step_table
    monkeypatch.setattr(fieldcore.SmallField, "_step_table", lambda F, g, ty: tried.append(g) or build(F, g, ty))
    F = fieldcore.SmallField(t.p, t.fq, t.fqm_modulus)  # a fresh field, past the interning of small_field
    assert tried == steps and F.generator_code == t.fqm.generator_code == steps[-1]
    assert np.array_equal(F._exp, t.fqm._exp)


def _schoolbook(F, a: int, b: int) -> int:
    """a*b: residues multiply mod p; extension codes multiply as digit
    polynomials, reduced mod F's modulus."""
    if F.base is None:
        return a * b % F.p
    B = F.base
    prod = [0] * (2 * F.degree - 1)
    for i, x in enumerate(F.to_digits(a).tolist()):
        for j, y in enumerate(F.to_digits(b).tolist()):
            prod[i + j] = int(B.add(prod[i + j], _schoolbook(B, x, y)))
    r = poly_mod(B, prod, F.modulus)
    return int(F.from_digits(r + [0] * (F.degree - len(r))))


@pytest.mark.parametrize("p,h,m", SWEEP + [(3, 2, 4)])
def test_mul_matches_schoolbook_product(p, h, m):
    t = make_tower(p, h, m)
    rng = np.random.default_rng(100 * p + 10 * h + m)
    for F in {id(F): F for F in (t.fp, t.fq, t.fqm)}.values():
        pairs = rng.integers(0, F.size, (40, 2)).tolist()
        got = F.mul(*np.array(pairs).T)
        assert got.tolist() == [_schoolbook(F, a, b) for a, b in pairs]


@pytest.mark.parametrize("p,h,m", [(2, 2, 2), (3, 1, 3), (3, 2, 4)])
def test_poly_eval_on_arrays_matches_scalar_loop(p, h, m):
    F = make_tower(p, h, m).fqm
    rng = np.random.default_rng(p + h + m)
    a = rng.integers(0, F.size, 5).tolist()
    xs = rng.integers(0, F.size, 30)
    want = []
    for x in xs.tolist():
        acc = 0
        for c in reversed(a):
            acc = int(F.add(int(F.mul(acc, x)), c))
        want.append(acc)
    assert poly_eval(F, a, xs).tolist() == want
    assert [int(poly_eval(F, a, x)) for x in xs.tolist()] == want


@pytest.mark.parametrize("p,h,m", [(2, 1, 2), (3, 1, 2), (2, 2, 3), (5, 1, 2)])
def test_smallest_root(p, h, m):
    F = make_tower(p, h, m).fqm
    rng = np.random.default_rng(p * h * m)
    for _ in range(10):
        r, s = (int(x) for x in rng.integers(0, F.size, 2))
        quad = [int(F.mul(r, s)), int(F.neg(F.add(r, s))), 1]  # (x - r)(x - s)
        assert smallest_root(F, quad) == min(r, s)
        cubic = rng.integers(0, F.size, 3).tolist() + [1]
        roots = [x for x in range(F.size) if int(poly_eval(F, cubic, x)) == 0]
        assert smallest_root(F, cubic) == (roots[0] if roots else None)
    for degree in (2, 3):
        assert smallest_root(F, find_irreducible(F, degree)) is None


@pytest.mark.parametrize("key", [(2, 1, 2), (3, 2, 4), (2, 2, 6)])
def test_inverse_of_zero_inside_an_array(key):
    # table fields, and F_6561 and F_4096 above FULL_TABLE_CAP, where the inverse is exp[(Q-1) - log a]:
    # a zero anywhere is refused, scalars keep their shape
    F = make_tower(*key).fqm
    with pytest.raises(DivisionByZero):
        F.inv(0)
    with pytest.raises(DivisionByZero):
        F.inv(np.array([1, 0, 2]))
    with pytest.raises(DivisionByZero):
        F.inv(np.array([[1, 2], [3, 0]]))
    a = np.arange(1, F.size)
    inv = F.inv(a)
    assert inv.shape == a.shape and set(F.mul(a, inv).tolist()) == {1}
    assert np.ndim(F.inv(2)) == 0 and int(F.mul(2, F.inv(2))) == 1
    assert F.inv(np.zeros(0, dtype=np.int64)).shape == (0,)


# Each builds one result from field elements passed through `given`: as FFElements or as plain codes.
T9 = make_tower(3, 1, 2)
NORMS_1_2 = distinct_norm_elements(T9, 2)
TAKES_ELEMENTS = {
    "construct_twisted": lambda given: [U.basis.tolist() for U in de.construct_twisted(
        AmbientSpace(T9, 2), given(NORMS_1_2), given([0])[0], [de.full_field_block(T9)] * 2).members],
    "construct_pseudoregulus": lambda given: [U.basis.tolist() for U in de.construct_pseudoregulus(
        AmbientSpace(T9, 2), 1, given(NORMS_1_2)).members],
    "construct_basis_partition": lambda given: [U.basis.tolist() for U in de.construct_basis_partition(
        AmbientSpace(T9, 2), [given([1, 0]), given([T9.q, 1])], [[1], [2]]).members],
    "build_expander": lambda given: [M.tolist() for M in ex.build_expander(
        twisted_design(3, 2, 2, 2), beta=given([1, T9.q + 1])).maps],
    "twist": lambda given: twist(SigmaPoly(T9, [2, 1]), given([T9.q + 1])[0]).coeffs,
    "lambda_value": lambda given: lambda_value(SigmaPoly(T9, [2, 0, 1]), given([1])[0]),
    "evaluate": lambda given: SigmaPoly(T9, [2, 1]).evaluate(given([T9.q + 1, 0, 8])).tolist(),
    "apply_isometry": lambda given: sr.apply_isometry(
        sr.code_from_system(pseudoregulus_design(3, 2, 1, 2)), given([T9.q, 1]),
        [[given([1, 2]), given([1, 1])], np.eye(2, dtype=int)], [0, 1]
    ).generator.tolist(),
}


@pytest.mark.parametrize("name", sorted(TAKES_ELEMENTS))
def test_elements_and_codes_are_interchangeable(name):
    # int(x) of an FFElement is its code, so no function forks on the element type
    build = TAKES_ELEMENTS[name]
    assert build(lambda codes: [T9.element(c) for c in codes]) == build(list)


# construct_twisted (alphas, eta) and construct_pseudoregulus (mus) read each element through the tower
ELEMENT_ARGUMENTS = {
    "alphas": lambda x: de.construct_twisted(AmbientSpace(T9, 2), [1, x], 0, [de.full_field_block(T9)] * 2),
    "eta": lambda x: de.construct_twisted(AmbientSpace(T9, 2), NORMS_1_2, x, [de.full_field_block(T9)] * 2),
    "mus": lambda x: de.construct_pseudoregulus(AmbientSpace(T9, 2), 1, [x]),
}


@pytest.mark.parametrize("argument", sorted(ELEMENT_ARGUMENTS))
def test_element_code_past_the_field_is_bad_parameters(argument):
    with pytest.raises(BadParameters, match="element code 100 out of range"):
        ELEMENT_ARGUMENTS[argument](100)


@pytest.mark.parametrize("argument", sorted(ELEMENT_ARGUMENTS))
def test_negative_element_code_is_bad_parameters(argument):
    # not the code 8 that a table index of -1 reads over F_9
    with pytest.raises(BadParameters, match="element code -1 out of range"):
        ELEMENT_ARGUMENTS[argument](-1)


@pytest.mark.parametrize("argument", sorted(ELEMENT_ARGUMENTS))
def test_element_of_another_tower_is_tower_mismatch(argument):
    with pytest.raises(TowerMismatch):
        ELEMENT_ARGUMENTS[argument](make_tower(2, 1, 2).one())
