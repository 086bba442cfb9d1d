from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from baryalg.scalar import (
    DYADIC,
    MAX_EXPONENT,
    PRIME_LIMIT,
    RingSpec,
    ScalarError,
    format_rational,
    integer_points,
    parse_rational,
    prime_valuation,
    ring_contains,
    s_free_part,
    smallest_inverted_prime,
    _is_prime,
)


def trial_factorization(n: int) -> dict[int, int]:
    # independent oracle: plain trial division
    n = abs(n)
    factors: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def test_ring_spec_validation():
    assert RingSpec([5, 2, 2, 3]).inverted_primes == (2, 3, 5)
    with pytest.raises(ScalarError):
        RingSpec([])
    with pytest.raises(ScalarError):
        RingSpec([4])
    with pytest.raises(ScalarError):
        RingSpec([1])
    with pytest.raises(ScalarError):
        RingSpec(["x"])
    with pytest.raises(ScalarError):
        RingSpec([2.5])


def test_ring_spec_json_roundtrip():
    ring = RingSpec([2, 5])
    assert ring.to_json() == '{"inverted_primes": [2, 5]}'
    assert RingSpec.from_json(ring.to_json()) == ring
    with pytest.raises(ScalarError):
        RingSpec.from_json("[2]")


def test_ring_contains_examples():
    assert ring_contains(Fraction(1, 2), DYADIC)
    # oracle: 1/3 has denominator 3 whose only prime factor is 3, not inverted
    assert trial_factorization(3) == {3: 1}
    assert not ring_contains(Fraction(1, 3), DYADIC)
    assert ring_contains(Fraction(7), DYADIC)  # integers always belong


def test_smallest_inverted_prime():
    assert smallest_inverted_prime(DYADIC) == 2
    assert smallest_inverted_prime(RingSpec([3, 5])) == 3
    assert smallest_inverted_prime(RingSpec([7, 2, 5])) == 2


def test_prime_valuation_examples():
    assert prime_valuation(Fraction(8), 2) == 3
    assert prime_valuation(Fraction(3, 4), 2) == -2
    # oracle: 9 factors as 3^2
    assert trial_factorization(9) == {3: 2}
    assert prime_valuation(Fraction(5, 9), 3) == -2
    with pytest.raises(ScalarError):
        prime_valuation(Fraction(0), 2)


def test_rational_string_roundtrip():
    for text in ["3/4", "-1/2", "7", "0", "-6"]:
        assert format_rational(parse_rational(text)) == text
    assert format_rational(parse_rational("2/4")) == "1/2"
    with pytest.raises(ScalarError):
        parse_rational("1/0")
    with pytest.raises(ScalarError):
        parse_rational("0.5x")
    # a JSON number reaches the parser as its text, never as a float
    for value in (0.5, 1, True, None, [1], Fraction(1, 2)):
        with pytest.raises(ScalarError):
            parse_rational(value)


def test_scalar_size_limits():
    assert parse_rational(f"1e{MAX_EXPONENT}") == 10**MAX_EXPONENT
    assert parse_rational(f"-2.5E-{MAX_EXPONENT}") == Fraction(-25, 10 ** (MAX_EXPONENT + 1))
    for text in (f"1e{MAX_EXPONENT + 1}", "1e-99999999", "1e1_0000_0000", "1e" + "9" * 5000):
        with pytest.raises(ScalarError):
            parse_rational(text)
    with pytest.raises(ScalarError):
        format_rational(Fraction(10**5000))
    with pytest.raises(ScalarError):
        RingSpec([PRIME_LIMIT])
    with pytest.raises(ScalarError):
        RingSpec.from_json('{"inverted_primes": [%s]}' % ("7" * 5000))


def test_primality_is_exact_on_strong_pseudoprimes():
    assert RingSpec([10**16 + 61, 2**61 - 1]).inverted_primes == (10**16 + 61, 2**61 - 1)
    # a Carmichael number, and the least strong pseudoprimes to bases 2-7,
    # 2-23 and 2-37; the last is why base 41 is among the witnesses
    for n in (561, 3215031751, 3825123056546413051, 318665857834031151167461):
        with pytest.raises(ScalarError):
            RingSpec([n])
    primes = [n for n in range(2, 3000) if trial_factorization(n) == {n: 1}]
    assert [n for n in range(3000) if _is_prime(n)] == primes


def test_integer_points():
    F = Fraction
    assert integer_points([()]) == (1, [()])
    assert integer_points([(F(3, 4),)]) == (4, [(3,)])
    assert integer_points([(F(1, 2), F(-2, 3)), (F(-5), F(1, 6))]) == (
        6,
        [(3, -4), (-30, 1)],
    )
    points = [(F(-7, 10), F(0), F(3, 4)), (F(1, 15), F(-2), F(5, 6))]
    scale, scaled = integer_points(points)
    assert scale == 60
    assert all(type(x) is int for p in scaled for x in p)
    assert [tuple(F(x, scale) for x in p) for p in scaled] == points


def test_reduced_form_canonicity():
    assert Fraction(2, 4) == Fraction(1, 2)
    assert (Fraction(2, 4).numerator, Fraction(2, 4).denominator) == (1, 2)
    assert (Fraction(-3, -6).numerator, Fraction(-3, -6).denominator) == (1, 2)


def test_s_free_part():
    ring = RingSpec([2, 5])
    assert s_free_part(40, ring) == 1
    assert s_free_part(-12, ring) == 3
    assert s_free_part(0, ring) == 0


rationals = st.fractions(
    min_value=-(10**6), max_value=10**6, max_denominator=10**6
)


@given(rationals)
def test_ring_contains_matches_scaling_oracle(q):
    # q is in Z[S^-1] iff q * (prod S)^k is an integer for some small k
    ring = RingSpec([2, 3])
    scaled_hits = any(
        (q * (6**k)).denominator == 1 for k in range(0, 25)
    )
    assert ring_contains(q, ring) == scaled_hits


@given(rationals, rationals)
def test_ring_closed_under_arithmetic(a, b):
    ring = RingSpec([2, 7])
    if ring_contains(a, ring) and ring_contains(b, ring):
        assert ring_contains(a + b, ring)
        assert ring_contains(a - b, ring)
        assert ring_contains(a * b, ring)


@given(st.integers(min_value=-(10**9), max_value=10**9).filter(lambda n: n != 0))
def test_prime_valuation_reconstructs(n):
    q = Fraction(n, 360)
    for p in (2, 3, 5):
        v = prime_valuation(q, p)
        reduced = q / Fraction(p) ** v
        assert prime_valuation(reduced, p) == 0
