import math

import pytest
from hypothesis import given, strategies as st

from quatsvd.qmat import _HAMILTON
from quatsvd.quat import I, J, K, ONE, Quaternion, hamilton

EPS = 2.0 ** -52


def quats(mag=1e3):
    comp = st.floats(min_value=-mag, max_value=mag)
    return st.builds(Quaternion, comp, comp, comp, comp)


def assert_components(q, w, x, y, z, tol=0.0):
    assert abs(q.w - w) <= tol
    assert abs(q.x - x) <= tol
    assert abs(q.y - y) <= tol
    assert abs(q.z - z) <= tol


@pytest.mark.parametrize("p, q, expected", [
    (I, J, K),
    (J, I, -K),
    (J, K, I),
    (K, J, -I),
    (K, I, J),
    (I, K, -J),
])
def test_unit_products(p, q, expected):
    assert p * q == expected


# e_k e_p of the units 1, i, j, k as (sign, index of the unit): the textbook
# table, typed independently of the product in quat.py.
UNIT_TABLE = [[(1, 0), (1, 1), (1, 2), (1, 3)],
              [(1, 1), (-1, 0), (1, 3), (-1, 2)],
              [(1, 2), (-1, 3), (-1, 0), (1, 1)],
              [(1, 3), (1, 2), (-1, 1), (-1, 0)]]
UNITS = (ONE, I, J, K)


def components(q):
    return (q.w, q.x, q.y, q.z)


def table_product(p, q):
    """p * q expanded bilinearly over UNIT_TABLE."""
    out = [0.0] * 4
    for k in range(4):
        for l in range(4):
            sign, index = UNIT_TABLE[k][l]
            out[index] += sign * p[k] * q[l]
    return out


def test_hamilton_on_the_unit_pairs():
    for k, e in enumerate(UNITS):
        for l, f in enumerate(UNITS):
            sign, index = UNIT_TABLE[k][l]
            expect = tuple(float(sign * (m == index)) for m in range(4))
            assert hamilton(components(e), components(f)) == expect
            assert components(e * f) == expect
    # The structure constants qmat reads off the products of the units.
    assert _HAMILTON.tolist() == [[float(sign * (m == index)) for m in range(4)]
                                  for row in UNIT_TABLE for sign, index in row]


@given(quats(), quats())
def test_hamilton_is_the_quaternion_product(p, q):
    got = hamilton(components(p), components(q))
    assert got == components(p * q)
    assert isinstance(got, tuple) and len(got) == 4
    expect = table_product(components(p), components(q))
    bound = 4 * EPS * (abs(p) * abs(q))
    assert all(abs(a - b) <= bound for a, b in zip(got, expect))


def test_product_expansion():
    # (1+i)(1+j) = 1 + i + j + k
    assert Quaternion(1, 1) * Quaternion(1, 0, 1) == Quaternion(1, 1, 1, 1)


def test_squares_of_units():
    minus_one = Quaternion(-1)
    assert I * I == minus_one
    assert J * J == minus_one
    assert K * K == minus_one


@pytest.mark.parametrize("q, expected", [
    (ONE, ONE),
    (I, -I),
    (Quaternion(2, 3, -1, 1), Quaternion(2, -3, 1, -1)),
])
def test_conjugate(q, expected):
    assert q.conjugate() == expected


@given(quats())
def test_conjugate_involution(q):
    assert q.conjugate().conjugate() == q


@pytest.mark.parametrize("q, expected", [
    (Quaternion(1, 1, 1, 1), 2.0),
    (Quaternion(0), 0.0),
    (Quaternion(0, 3, 0, 4), 5.0),
])
def test_modulus(q, expected):
    assert abs(q) == expected


def test_modulus_overflow_safe():
    big = Quaternion(1e200, 1e200, 0, 0)
    assert math.isfinite(abs(big))
    assert abs(big) == pytest.approx(math.sqrt(2) * 1e200, rel=1e-15)


def test_modulus_zero_iff_zero():
    assert abs(Quaternion(0, 0, 0, 0)) == 0.0
    assert abs(Quaternion(0, 5e-324, 0, 0)) > 0.0


@given(quats(), quats())
def test_conjugate_reverses_products(p, q):
    lhs = (p * q).conjugate()
    rhs = q.conjugate() * p.conjugate()
    bound = 4 * EPS * (abs(p) * abs(q))
    assert_components(lhs, rhs.w, rhs.x, rhs.y, rhs.z, tol=bound)


@given(quats(), quats())
def test_modulus_multiplicative(p, q):
    if not 1e-3 <= abs(p) <= 1e3 or not 1e-3 <= abs(q) <= 1e3:
        return
    assert abs(p * q) == pytest.approx(abs(p) * abs(q), rel=1e-14)


@given(quats())
def test_q_times_conjugate_is_modulus_squared(q):
    prod = q * q.conjugate()
    m2 = q.w * q.w + q.x * q.x + q.y * q.y + q.z * q.z
    assert prod.w == pytest.approx(m2, rel=1e-14, abs=0.0)
    vec = math.hypot(prod.x, prod.y, prod.z)
    assert vec <= 1e-15 * m2


def test_scalar_multiplication_both_sides():
    q = Quaternion(1, -2, 3, -4)
    assert 2.0 * q == q * 2.0 == Quaternion(2, -4, 6, -8)
    with pytest.raises(TypeError):
        q * "a"


def test_str_round_trips():
    q = Quaternion(1 / 3, -0.0, 1e-300, 12345.6789)
    parts = [float(tok) for tok in str(q).split(" ")]
    assert parts == [q.w, q.x, q.y, q.z]
    assert len(str(q).split(" ")) == 4
