"""Exact rational scalars and coefficient-ring descriptors.

The scalar domain is the field of rationals; coefficient rings are
localizations Z[S^-1] of the integers at a finite nonempty set S of primes
(the dyadic rationals are S = {2}).  Everything is exact: no floats, ever.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

Rational = Fraction


class ScalarError(ValueError):
    """Invalid scalar or ring construction / argument."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class RingSpec:
    """The subring Z[S^-1] of Q, given by the finite set S of inverted primes.

    S must be nonempty, so the ring always properly contains Z and the
    open unit interval of the ring is nonempty.
    """

    inverted_primes: tuple[int, ...]

    def __init__(self, inverted_primes: Iterable[int]):
        inverted_primes = list(inverted_primes)
        for p in inverted_primes:
            if not isinstance(p, int):
                raise ScalarError(f"inverted prime {p!r} is not an integer")
        primes = tuple(sorted(set(inverted_primes)))
        if not primes:
            raise ScalarError("at least one inverted prime is required")
        for p in primes:
            if not _is_prime(p):
                raise ScalarError(f"{p} is not prime")
        object.__setattr__(self, "inverted_primes", primes)

    def to_json(self) -> str:
        return json.dumps({"inverted_primes": list(self.inverted_primes)})

    @classmethod
    def from_json(cls, text: str) -> "RingSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScalarError(f"invalid ring JSON: {exc}") from exc
        if not isinstance(data, dict) or not isinstance(data.get("inverted_primes"), list):
            raise ScalarError('ring JSON must look like {"inverted_primes": [2]}')
        return cls(data["inverted_primes"])


#: The dyadic rationals Z[1/2], the most common coefficient ring.
DYADIC = RingSpec((2,))


def parse_rational(text: str) -> Rational:
    """Parse "num/den" or "num" into an exact rational."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ScalarError(f"invalid rational {text!r}") from exc


def format_rational(q: Rational) -> str:
    """Render as "num/den", or "num" when the denominator is 1."""
    return str(Fraction(q))


def ring_contains(q: Rational, ring: RingSpec) -> bool:
    """True iff q lies in Z[S^-1], i.e. its reduced denominator is S-smooth."""
    den = Fraction(q).denominator
    for p in ring.inverted_primes:
        while den % p == 0:
            den //= p
    return den == 1


def interval_member(q: Rational, ring: RingSpec, open_interval: bool) -> bool:
    """Membership in the unit interval of the ring, open or closed."""
    q = Fraction(q)
    if not ring_contains(q, ring):
        return False
    if open_interval:
        return 0 < q < 1
    return 0 <= q <= 1


def integer_row(vector: Sequence[Rational]) -> tuple[int, tuple[int, ...]]:
    """(d, d * vector) with d the least common denominator of the entries."""
    d = lcm(*(x.denominator for x in vector))
    return d, tuple([x.numerator * (d // x.denominator) for x in vector])


def smallest_inverted_prime(ring: RingSpec) -> int:
    return ring.inverted_primes[0]


def prime_valuation(q: Rational, p: int) -> int:
    """Exponent of p in q, i.e. the v with q = p^v * (a/b), p dividing neither a nor b."""
    q = Fraction(q)
    if q == 0:
        raise ScalarError("valuation of zero is undefined")
    if not _is_prime(p):
        raise ScalarError(f"{p} is not prime")
    v = 0
    num = abs(q.numerator)
    while num % p == 0:
        num //= p
        v += 1
    den = q.denominator
    while den % p == 0:
        den //= p
        v -= 1
    return v


def s_free_part(n: int, ring: RingSpec) -> int:
    """The positive part of n left after dividing out every inverted prime."""
    if n == 0:
        return 0
    n = abs(n)
    for p in ring.inverted_primes:
        while n % p == 0:
            n //= p
    return n
