import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from synorres.algebra import (DomainError, Monomial, PrimeField,
                              RationalField, ValidationError, _is_prime,
                              field_from_flag, parse_monomial)

fields = st.sampled_from([RationalField(), PrimeField(2), PrimeField(7),
                          PrimeField(101)])


def elements(field):
    return st.integers(-40, 40).map(lambda n: field.of(n))


@given(fields, st.data())
def test_field_axioms(field, data):
    a = data.draw(elements(field))
    b = data.draw(elements(field))
    c = data.draw(elements(field))
    r = field.of  # the canonical element: mod p over GF(p)
    assert r((a + b) + c) == r(a + (b + c))
    assert r(a + b) == r(b + a)
    assert r(a * (b + c)) == r(a * b + a * c)
    assert r(a + field.zero) == a
    assert r(a * field.one) == a
    assert r(a - a) == field.zero
    if b != field.zero:
        assert r(a * field.inverse(b) * b) == a


def test_prime_field_inverse_table():
    F = PrimeField(13)
    for v in range(1, 13):
        x = F.of(v)
        assert x * F.inverse(x) % F.modulus == F.one


@pytest.mark.parametrize("field", [RationalField(), PrimeField(2),
                                   PrimeField(32003)])
def test_inverse_of_zero_raises(field):
    with pytest.raises(ZeroDivisionError):
        field.inverse(field.zero)


def test_prime_field_requires_prime():
    with pytest.raises(DomainError):
        PrimeField(9)
    with pytest.raises(DomainError):
        PrimeField(1)


def test_prime_test_is_exact_and_fast_below_2_64():
    start = time.monotonic()
    assert PrimeField(2 ** 61 - 1).p == 2 ** 61 - 1
    assert PrimeField(2 ** 64 - 59).p == 2 ** 64 - 59
    assert time.monotonic() - start < 0.5
    with pytest.raises(DomainError):
        PrimeField((2 ** 31 - 1) ** 2)
    with pytest.raises(DomainError):
        PrimeField(3215031751)  # strong pseudoprime to bases 2, 3, 5, 7
    small = [p for p in range(200) if all(p % d for d in range(2, p))][2:]
    assert [p for p in range(200) if _is_prime(p)] == small


def test_prime_field_rejects_moduli_from_2_64():
    with pytest.raises(DomainError):
        PrimeField(2 ** 64 + 13)
    with pytest.raises(DomainError):
        field_from_flag(str(2 ** 89 - 1))


def test_rational_parse():
    F = RationalField()
    assert F.parse("3/4") == F.of(Fraction(3, 4))
    assert F.parse("-2") == F.of(-2)


def test_field_from_flag():
    assert isinstance(field_from_flag("q"), RationalField)
    assert field_from_flag("5").p == 5
    with pytest.raises(DomainError):
        field_from_flag("six")


exps = st.tuples(*[st.integers(0, 5)] * 3)


@given(exps, exps)
def test_lcm_divides(e1, e2):
    a, b = Monomial(e1), Monomial(e2)
    m = a.lcm(b)
    assert a.divides(m) and b.divides(m)
    assert m.lcm(a) == m
    # lcm is the least upper bound
    for i in range(3):
        assert m.exps[i] == max(e1[i], e2[i])


@given(exps, exps)
def test_quotient_mul(e1, e2):
    a, b = Monomial(e1), Monomial(e2)
    m = a.lcm(b)
    assert tuple(q + e for q, e in zip(m.quotient(a).exps, e1)) == m.exps
    if not a.divides(b):
        with pytest.raises(DomainError):
            b.quotient(a)


def test_monomial_keeps_a_tuple_of_ints_and_converts_the_rest():
    exps = (2, 0, 1)
    assert Monomial(exps).exps is exps
    for given_exps in ([2, 0, 1], (True, 0, 1), (2.0, 0, 1), range(3)):
        m = Monomial(given_exps)
        assert m.exps == tuple(int(e) for e in given_exps)
        assert all(type(e) is int for e in m.exps)
    with pytest.raises(DomainError, match="negative exponent"):
        Monomial((1, -1))


def test_monomial_format_parse_roundtrip():
    variables = ("x", "y", "z")
    m = Monomial((2, 0, 1))
    assert m.format(variables) == "x^2*z"
    assert parse_monomial("x^2*z", variables) == m
    assert parse_monomial("1", variables) == Monomial.one(3)
    assert Monomial.one(3).format(variables) == "1"


def test_parse_monomial_rejects_unknowns():
    with pytest.raises(ValidationError):
        parse_monomial("x*w", ("x", "y"))
    with pytest.raises(ValidationError):
        parse_monomial("x^0", ("x", "y"))


def test_lex_order_sorts_exponents():
    ms = [Monomial((1, 1)), Monomial((0, 2)), Monomial((2, 0))]
    assert sorted(ms) == [Monomial((0, 2)), Monomial((1, 1)), Monomial((2, 0))]
