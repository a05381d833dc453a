import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hopfcon import (OCT_UNITS, QUAT_UNITS, Octonion, Quaternion, oct_conj,
                     oct_inverse, oct_mul, quat_conj, quat_mul, quat_star)
from hopfcon.hypercomplex import OCTONION_TABLE, QUATERNION_TABLE, products

from reference_tables import (OCTONION_TABLE_TEXT, QUATERNION_TABLE_TEXT,
                              parse_table)

QUAT_CELLS = parse_table(QUATERNION_TABLE_TEXT)
OCT_CELLS = parse_table(OCTONION_TABLE_TEXT)

# dyadic rationals: float products are exact, so algebraic identities hold exactly
dyadic = st.integers(min_value=-16, max_value=16).map(lambda n: n / 8.0)
quaternions = st.builds(Quaternion, dyadic, dyadic, dyadic, dyadic)
octonions = st.builds(Octonion, *([dyadic] * 8))


def q_close(a: Quaternion, b: Quaternion, tol=1e-12) -> bool:
    return all(abs(x - y) <= tol for x, y in zip(a.coefficients(), b.coefficients()))


def o_close(a: Octonion, b: Octonion, tol=1e-12) -> bool:
    return all(abs(x - y) <= tol for x, y in zip(a.coefficients(), b.coefficients()))


@pytest.mark.parametrize("i", range(4))
@pytest.mark.parametrize("j", range(4))
def test_quaternion_table_cells(i, j):
    k, sign = QUAT_CELLS[i][j]
    expected = np.zeros(4)
    expected[k] = sign
    product = quat_mul(QUAT_UNITS[i], QUAT_UNITS[j])
    assert product.coefficients() == tuple(expected)
    assert tuple(products(np.eye(4), np.eye(4))[:, i, j]) == tuple(expected)


@pytest.mark.parametrize("i", range(8))
@pytest.mark.parametrize("j", range(8))
def test_octonion_table_cells(i, j):
    k, sign = OCT_CELLS[i][j]
    expected = np.zeros(8)
    expected[k] = sign
    product = oct_mul(OCT_UNITS[i], OCT_UNITS[j])
    assert product.coefficients() == tuple(expected)
    assert tuple(products(np.eye(8), np.eye(8))[:, i, j]) == tuple(expected)


def test_generated_tables_match_transcription():
    for i in range(4):
        for j in range(4):
            k, sign = QUAT_CELLS[i][j]
            assert QUATERNION_TABLE[i, j, k] == sign
            assert np.count_nonzero(QUATERNION_TABLE[i, j]) == 1
    for i in range(8):
        for j in range(8):
            k, sign = OCT_CELLS[i][j]
            assert OCTONION_TABLE[i, j, k] == sign
            assert np.count_nonzero(OCTONION_TABLE[i, j]) == 1


def test_anticommutation_of_distinct_imaginary_units():
    for units, mul in ((QUAT_UNITS, quat_mul), (OCT_UNITS, oct_mul)):
        for i in range(1, len(units)):
            for j in range(1, len(units)):
                if i == j:
                    continue
                forward = mul(units[i], units[j])
                backward = mul(units[j], units[i])
                assert forward.coefficients() == (-backward).coefficients()


def test_quat_mul_examples():
    e1, e2, e3 = QUAT_UNITS[1], QUAT_UNITS[2], QUAT_UNITS[3]
    assert quat_mul(e1, e2) == e3
    # (1 + e2) * e1 = e1 - e3 because e2*e1 = -e3
    assert quat_mul(Quaternion(1, 0, 1, 0), e1) == Quaternion(0, 1, 0, -1)


@given(quaternions)
def test_quat_mul_identity(q):
    assert quat_mul(q, QUAT_UNITS[0]) == q
    assert quat_mul(QUAT_UNITS[0], q) == q


@given(quaternions, quaternions, quaternions)
def test_quaternion_associativity_exact(a, b, c):
    assert quat_mul(quat_mul(a, b), c) == quat_mul(a, quat_mul(b, c))


def test_quat_conj_examples():
    assert quat_conj(Quaternion(1, 2, 3, 4)) == Quaternion(1, -2, -3, -4)
    s = 1 / math.sqrt(2)
    assert quat_conj(Quaternion(0, 0, s, 0)) == Quaternion(0, 0, -s, 0)


@given(quaternions)
def test_quat_conj_times_self_is_norm(q):
    product = quat_mul(q, quat_conj(q))
    assert product == Quaternion(q.norm_squared(), 0, 0, 0)


@given(quaternions, quaternions)
def test_quat_conj_antiautomorphism(a, b):
    assert quat_conj(quat_mul(a, b)) == quat_mul(quat_conj(b), quat_conj(a))


def test_quat_star_negates_only_e2_slot():
    q = Quaternion.from_complex_pair(0.5 + 0.25j, -0.75 + 1j)
    z1, z2 = quat_star(q).complex_pair()
    assert z1 == 0.5 + 0.25j
    assert z2 == 0.75 - 1j


@given(quaternions)
def test_quat_star_involution(q):
    assert quat_star(quat_star(q)) == q
    purely_complex = Quaternion(q.x0, q.x1, 0, 0)
    assert quat_star(purely_complex) == purely_complex


@given(quaternions)
def test_complex_pair_round_trip(q):
    assert Quaternion.from_complex_pair(*q.complex_pair()) == q


@given(octonions)
def test_complex_quadruple_round_trip(o):
    assert Octonion.from_complex_quadruple(*o.complex_quadruple()) == o


def test_oct_mul_examples():
    e = OCT_UNITS
    assert oct_mul(e[3], e[5]) == -e[6]
    # alternativity fails for full associativity on this witness, exactly
    left = oct_mul(oct_mul(e[1], e[2]), e[4])
    right = oct_mul(e[1], oct_mul(e[2], e[4]))
    assert left == e[7]
    assert right == -e[7]


def test_oct_norm_composition_example():
    a = Octonion(1, 1, 0, 0, 0, 0, 0, 0)
    b = Octonion(0, 0, 1, 0, 1, 0, 0, 0)
    assert abs(oct_mul(a, b).norm() - 2.0) < 1e-12


def test_oct_conj_and_inverse_examples():
    assert oct_conj(OCT_UNITS[4]) == -OCT_UNITS[4]
    inv = oct_inverse(2.0 * OCT_UNITS[1])
    assert o_close(inv, -0.5 * OCT_UNITS[1], tol=0)
    with pytest.raises(ZeroDivisionError):
        oct_inverse(Octonion())


@given(octonions)
def test_oct_conj_times_self_is_norm(o):
    product = oct_mul(o, oct_conj(o))
    assert o_close(product, Octonion(o.norm_squared()), tol=1e-12)


@given(octonions)
def test_oct_inverse_property(o):
    if o.norm_squared() < 1e-6:
        return
    assert o_close(oct_mul(o, oct_inverse(o)), OCT_UNITS[0], tol=1e-12)


@given(octonions, octonions)
def test_octonion_alternativity(a, b):
    assert o_close(oct_mul(oct_mul(a, a), b), oct_mul(a, oct_mul(a, b)), tol=1e-12)
    assert o_close(oct_mul(oct_mul(b, a), a), oct_mul(b, oct_mul(a, a)), tol=1e-12)


def test_norm_composition_random_pairs():
    rng = np.random.default_rng(42)
    for _ in range(300):
        q1, q2 = Quaternion(*rng.standard_normal(4)), Quaternion(*rng.standard_normal(4))
        assert abs(quat_mul(q1, q2).norm() - q1.norm() * q2.norm()) < 1e-12
        o1, o2 = Octonion(*rng.standard_normal(8)), Octonion(*rng.standard_normal(8))
        assert abs(oct_mul(o1, o2).norm() - o1.norm() * o2.norm()) < 1e-12


@given(quaternions, quaternions)
def test_quaternions_embed_in_octonions(a, b):
    qprod = quat_mul(a, b)
    oprod = oct_mul(Octonion.from_quaternion(a), Octonion.from_quaternion(b))
    assert oprod == Octonion.from_quaternion(qprod)


def test_quaternion_inverse_and_scalar_ops():
    q = Quaternion(1, 2, -1, 0.5)
    assert q_close(quat_mul(q, q.inverse()), QUAT_UNITS[0])
    assert 2 * q == Quaternion(2, 4, -2, 1)
    assert q - q == Quaternion()
    with pytest.raises(ZeroDivisionError):
        Quaternion().inverse()


def test_norm_zero_iff_zero():
    assert Quaternion().norm_squared() == 0
    assert Octonion().norm_squared() == 0
    assert Quaternion(1e-8, 0, 0, 0).norm_squared() > 0
    assert Octonion(*([1e-8] * 8)).norm_squared() > 0
