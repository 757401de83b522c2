"""Ring arithmetic and serialization round trips."""
from fractions import Fraction

import pytest

from binmc.errors import RingError
from binmc.rings import GF, QQ, ZZ, polynomial_ring, ring_from_descriptor


def test_integer_symmetric_division():
    for a in range(-20, 21):
        for b in list(range(-7, 0)) + list(range(1, 8)):
            q, r = ZZ.euclid_div(a, b)
            assert a == q * b + r
            assert 2 * abs(r) <= abs(b)


def test_integer_units():
    assert ZZ.is_unit(-1) and ZZ.is_unit(1) and not ZZ.is_unit(2)
    assert ZZ.unit_inverse(-1) == -1
    with pytest.raises(RingError):
        ZZ.unit_inverse(0)


def test_canonical_factors():
    assert ZZ.canonical_factor(-6) == (-1, 6)
    assert QQ.canonical_factor(Fraction(-3, 2)) == (Fraction(-3, 2), Fraction(1))
    assert GF(7).canonical_factor(5) == (5, 1)


def test_prime_field_arithmetic():
    F = GF(7)
    assert F.add(5, 4) == 2
    assert F.mul(3, 5) == 1
    assert F.unit_inverse(3) == 5
    q, r = F.euclid_div(1, 3)
    assert (q, r) == (5, 0)


def test_prime_field_requires_prime():
    with pytest.raises(RingError):
        GF(6)


def test_prime_modulus_is_bounded():
    # trial division would not finish on 2**89 - 1; the bound refuses it at once
    assert GF(2 ** 31 - 1).mul(2 ** 30, 2) == 1
    for p in (2 ** 31, 2 ** 89 - 1, 10 ** 5000):
        with pytest.raises(RingError, match="2\\*\\*31"):
            GF(p)
    with pytest.raises(RingError, match="2\\*\\*31"):
        ring_from_descriptor({"kind": "prime-field", "p": "618970019642690137449562111"})


def test_polynomial_arithmetic():
    R = polynomial_ring(QQ)
    x = (Fraction(0), Fraction(1))
    x2 = R.mul(x, x)
    assert x2 == (Fraction(0), Fraction(0), Fraction(1))
    q, r = R.euclid_div(R.add(x2, R.one), x)
    assert q == x and r == R.one
    assert R.size(r) < R.size(x)


def test_polynomial_units_and_monic():
    R = polynomial_ring(GF(5))
    assert R.is_unit((3,)) and not R.is_unit((0, 1))
    u, c = R.canonical_factor((0, 3))
    assert u == (3,) and c == (0, 1)
    assert R.mul(u, c) == (0, 3)


def test_polynomials_need_field_coefficients():
    with pytest.raises(RingError):
        polynomial_ring(ZZ)


def test_element_docs_round_trip():
    cases = [
        (ZZ, -12),
        (QQ, Fraction(-3, 4)),
        (GF(11), 7),
        (polynomial_ring(QQ), (Fraction(1), Fraction(0), Fraction(-2))),
    ]
    for ring, x in cases:
        assert ring.element_from_doc(ring.element_to_doc(x)) == x


def test_ring_descriptor_round_trip():
    for ring in [ZZ, QQ, GF(13), polynomial_ring(GF(3)), polynomial_ring(QQ)]:
        assert ring_from_descriptor(ring.descriptor()) == ring


def test_bad_descriptors_rejected():
    for doc in [{}, {"kind": "weird"}, {"kind": "prime-field", "p": "6"},
                {"kind": "polynomials-over"}, "integers"]:
        with pytest.raises(RingError):
            ring_from_descriptor(doc)


def test_non_canonical_literals_rejected():
    bad = ["1_000", " 7 ", "+7", "007", "-0", "7\n", "٧", "", "-"]
    for ring in (ZZ, GF(11)):
        for doc in bad:
            with pytest.raises(RingError):
                ring.element_from_doc(doc)
        assert ring.element_from_doc("0") == 0
    for doc in bad:
        for literal in (doc, f"{doc}/3", f"3/{doc}"):
            with pytest.raises(RingError):
                QQ.element_from_doc(literal)
    assert QQ.element_from_doc("-10/3") == Fraction(-10, 3)
    assert QQ.element_from_doc("10") == Fraction(10)
    for doc in ("11", "12", "-1", "-11"):  # integers, but not reduced modulo 11
        with pytest.raises(RingError):
            GF(11).element_from_doc(doc)
    assert GF(11).element_from_doc("10") == 10
    with pytest.raises(RingError):
        polynomial_ring(GF(5)).element_from_doc(["1", "+2"])
    with pytest.raises(RingError):
        polynomial_ring(GF(5)).element_from_doc(["1", "5"])
    with pytest.raises(RingError):
        ring_from_descriptor({"kind": "prime-field", "p": "007"})


def test_polynomial_integer_coefficients_are_reduced():
    R = polynomial_ring(GF(5))
    assert R.poly([7]) == R.poly([2]) == (2,)
    assert R.poly([5]) == ()
    assert R.poly([1, 10]) == (1,)
    assert R.poly(["3", 8, 4]) == (3, 3, 4)
