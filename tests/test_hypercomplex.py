import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hopfcon import Octonion, ParameterError, Quaternion, project
from hopfcon.hypercomplex import OCTONION_TABLE, QUATERNION_TABLE, _products

from reference_tables import (OCTONION_TABLE_TEXT, QUATERNION_TABLE_TEXT,
                              parse_table)

QUAT_CELLS = parse_table(QUATERNION_TABLE_TEXT)
OCT_CELLS = parse_table(OCTONION_TABLE_TEXT)

# dyadic rationals: float products are exact, so algebraic identities hold exactly
dyadic = st.integers(min_value=-16, max_value=16).map(lambda n: n / 8.0)
quaternions = st.builds(Quaternion, dyadic, dyadic, dyadic, dyadic)
octonions = st.builds(Octonion, *([dyadic] * 8))
QUAT_BASIS = tuple(Quaternion(*row) for row in np.eye(4))
OCT_BASIS = tuple(Octonion(*row) for row in np.eye(8))


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
    product = QUAT_BASIS[i] * QUAT_BASIS[j]
    assert product.coefficients() == tuple(expected)


@pytest.mark.parametrize("i", range(8))
@pytest.mark.parametrize("j", range(8))
def test_octonion_table_cells(i, j):
    k, sign = OCT_CELLS[i][j]
    expected = np.zeros(8)
    expected[k] = sign
    product = OCT_BASIS[i] * OCT_BASIS[j]
    assert product.coefficients() == tuple(expected)


@pytest.mark.parametrize("algebra", [Quaternion, Octonion])
def test_products_row_i_column_j_is_the_product_of_a_i_and_b_j(algebra):
    # the routes' kernel against the element product, on dyadic coefficients, so both are exact
    d = len(algebra().coefficients())
    rng = np.random.default_rng(d)
    a, b = (rng.integers(-16, 17, size=(n, d)) / 8.0 for n in (3, 5))
    out = _products(a, b)
    assert out.shape == (3, 5, d)
    for i in range(3):
        for j in range(5):
            assert tuple(out[i, j]) == (algebra(*a[i]) * algebra(*b[j])).coefficients()


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
    for units in (QUAT_BASIS, OCT_BASIS):
        for i in range(1, len(units)):
            for j in range(1, len(units)):
                if i == j:
                    continue
                forward = units[i] * units[j]
                backward = units[j] * units[i]
                assert forward.coefficients() == tuple(-x for x in backward.coefficients())


def test_quat_mul_examples():
    e1, e2, e3 = QUAT_BASIS[1], QUAT_BASIS[2], QUAT_BASIS[3]
    assert e1 * e2 == e3
    # (1 + e2) * e1 = e1 - e3 because e2*e1 = -e3
    assert Quaternion(1, 0, 1, 0) * e1 == Quaternion(0, 1, 0, -1)


@given(quaternions)
def test_quat_mul_identity(q):
    assert q * QUAT_BASIS[0] == q
    assert QUAT_BASIS[0] * q == q


@given(quaternions, quaternions, quaternions)
def test_quaternion_associativity_exact(a, b, c):
    assert (a * b) * c == a * (b * c)


def test_quat_conj_examples():
    assert Quaternion(1, 2, 3, 4).conjugate() == Quaternion(1, -2, -3, -4)
    s = 1 / math.sqrt(2)
    assert Quaternion(0, 0, s, 0).conjugate() == Quaternion(0, 0, -s, 0)


@given(quaternions)
def test_quat_conj_times_self_is_norm(q):
    product = q * q.conjugate()
    assert product == Quaternion(sum(x * x for x in q.coefficients()), 0, 0, 0)


@given(quaternions, quaternions)
def test_quat_conj_antiautomorphism(a, b):
    assert (a * b).conjugate() == b.conjugate() * a.conjugate()


@given(quaternions)
def test_complex_pair_round_trip(q):
    z1, z2 = complex(q.x0, q.x1), complex(q.x2, q.x3)
    assert Quaternion(z1.real, z1.imag, z2.real, z2.imag) == q


def test_oct_mul_examples():
    e = OCT_BASIS
    assert e[3] * e[5] == Octonion(*-np.eye(8)[6])
    # alternativity fails for full associativity on this witness, exactly
    left = (e[1] * e[2]) * e[4]
    right = e[1] * (e[2] * e[4])
    assert left == e[7]
    assert right == Octonion(*-np.eye(8)[7])


def test_oct_norm_composition_example():
    a = Octonion(1, 1, 0, 0, 0, 0, 0, 0)
    b = Octonion(0, 0, 1, 0, 1, 0, 0, 0)
    assert abs((a * b).norm() - 2.0) < 1e-12


def test_oct_conj_and_inverse_examples():
    assert OCT_BASIS[4].conjugate() == Octonion(*-np.eye(8)[4])
    inv = Octonion(0, 2.0).inverse()
    assert o_close(inv, Octonion(0, -0.5), tol=0)
    with pytest.raises(ZeroDivisionError):
        Octonion().inverse()


@given(octonions)
def test_oct_conj_times_self_is_norm(o):
    product = o * o.conjugate()
    assert o_close(product, Octonion(sum(x * x for x in o.coefficients())), tol=1e-12)


@given(octonions)
def test_oct_inverse_property(o):
    if sum(x * x for x in o.coefficients()) < 1e-6:
        return
    assert o_close(o * o.inverse(), OCT_BASIS[0], tol=1e-12)


@given(octonions, octonions)
def test_octonion_alternativity(a, b):
    assert o_close((a * a) * b, a * (a * b), tol=1e-12)
    assert o_close((b * a) * a, b * (a * a), tol=1e-12)


def test_norm_composition_random_pairs():
    rng = np.random.default_rng(42)
    for _ in range(300):
        q1, q2 = Quaternion(*rng.standard_normal(4)), Quaternion(*rng.standard_normal(4))
        assert abs((q1 * q2).norm() - q1.norm() * q2.norm()) < 1e-12
        o1, o2 = Octonion(*rng.standard_normal(8)), Octonion(*rng.standard_normal(8))
        assert abs((o1 * o2).norm() - o1.norm() * o2.norm()) < 1e-12


@given(quaternions, quaternions)
def test_quaternions_embed_in_octonions(a, b):
    qprod = a * b
    oprod = Octonion(*a.coefficients()) * Octonion(*b.coefficients())
    assert oprod == Octonion(*qprod.coefficients())


def test_quaternion_inverse():
    q = Quaternion(1, 2, -1, 0.5)
    assert q_close(q * q.inverse(), QUAT_BASIS[0])
    with pytest.raises(ZeroDivisionError):
        Quaternion().inverse()


def test_norm_and_inverse_hold_outside_the_range_of_a_square():
    assert Quaternion(1e200).norm() == 1e200
    assert Quaternion(1e-170).norm() == 1e-170
    assert Quaternion(1e200).inverse() == Quaternion(1e-200)
    assert Quaternion(1e-200).inverse() == Quaternion(1e200)
    assert Octonion(1.5e308, 1.5e308).norm() == math.inf  # past the float range, as math.hypot
    with pytest.raises(ParameterError):  # 1 / 5e-324 is past the float range
        Quaternion(5e-324).inverse()


def test_norm_and_inverse_keep_their_bits_on_ordinary_elements():
    q = Quaternion(1, 2, -1, 0.5)
    assert q.norm() == 2.5
    assert q.inverse().coefficients() == (0.16, -0.32, 0.16, -0.08)
    o = Octonion(0.3, -1.7, 2.5, 0.0, -0.0, 1e-3, 4.0, -2.25)
    assert o.norm() == 5.503862371099045
    assert o.inverse().coefficients() == (
        0.009903441118975287, 0.05611949967419329, -0.08252867599146071, -0.0, 0.0,
        -3.301147039658429e-05, -0.13204588158633715, 0.07427580839231465)


@pytest.mark.parametrize("overflow", [
    lambda: Quaternion(1e200) * Quaternion(1e200),
    lambda: Octonion(1e200, 1e200) * Octonion(1e200, 1e200),
    lambda: project(Quaternion(1e200), Quaternion(1e200)),
], ids=["quaternion", "octonion", "project"])
def test_an_overflowing_product_is_a_parameter_error_not_a_warning(overflow):
    with pytest.raises(ParameterError, match="float range"):
        overflow()


def test_norm_zero_iff_zero():
    assert Quaternion().norm() == 0
    assert Octonion().norm() == 0
    assert Quaternion(1e-8, 0, 0, 0).norm() > 0
    assert Octonion(*([1e-8] * 8)).norm() > 0


def test_coefficients_are_stored_as_floats():
    # any real other than a finite float is read as a float by the number rule
    q = Quaternion(1, Fraction(1, 2), np.int64(-3), np.float32(0.25))
    assert q.coefficients() == (1.0, 0.5, -3.0, 0.25)
    assert all(type(x) is float for x in (*q.coefficients(), *(q * q).coefficients()))
