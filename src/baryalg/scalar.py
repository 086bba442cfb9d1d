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


#: Primality is decided exactly below this bound, about 3.3 * 10^24: it is
#: the least composite that passes Miller-Rabin to every base in
#: _WITNESSES (Sorenson & Webster 2015).  Larger numbers are refused.
PRIME_LIMIT = 3_317_044_064_679_887_385_961_981
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for every n below PRIME_LIMIT."""
    if n >= PRIME_LIMIT:
        raise ScalarError(f"primality is decided only below {PRIME_LIMIT}")
    if n < 2:
        return False
    for p in _WITNESSES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
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
        # ValueError covers JSONDecodeError and the interpreter's limit on
        # the digits of an integer
        except ValueError as exc:
            raise ScalarError(f"invalid ring JSON: {exc}") from exc
        if not isinstance(data, dict) or not isinstance(data.get("inverted_primes"), list):
            raise ScalarError('ring JSON must look like {"inverted_primes": [2]}')
        return cls(data["inverted_primes"])


#: The dyadic rationals Z[1/2], the most common coefficient ring.
DYADIC = RingSpec((2,))


#: Largest exponent magnitude parse_rational accepts in a decimal such as
#: "1.5e-3".  It equals the interpreter's default limit on the digits of an
#: integer read from text, so exponents and digit strings are bounded alike;
#: Fraction would otherwise build a power of ten with that many digits.
MAX_EXPONENT = 4300


def parse_rational(text: str) -> Rational:
    """Parse "num/den", "num" or a decimal into an exact rational.

    A decimal exponent above MAX_EXPONENT in magnitude is refused, and so
    is an argument that is not a string.
    """
    if not isinstance(text, str):
        raise ScalarError(f"rational {text!r} is not a string")
    try:
        _, e, exponent = text.lower().partition("e")
        if e and abs(int(exponent)) > MAX_EXPONENT:
            raise ScalarError(f"exponent in {text!r} exceeds {MAX_EXPONENT}")
        return Fraction(text.strip())
    except ScalarError:
        raise
    except (ValueError, ZeroDivisionError) as exc:
        raise ScalarError(f"invalid rational {text!r}") from exc


def format_rational(q: Rational) -> str:
    """Render as "num/den", or "num" when the denominator is 1.

    A numerator or denominator longer than the interpreter's limit on the
    digits of an integer written as text is refused.
    """
    try:
        return str(Fraction(q))
    except ValueError as exc:
        raise ScalarError(f"rational too large to print: {exc}") from exc


def ring_contains(q: Rational, ring: RingSpec) -> bool:
    """True iff q lies in Z[S^-1], i.e. its reduced denominator is S-smooth."""
    return s_free_part(Fraction(q).denominator, ring) == 1


def integer_row(vector: Sequence[Rational]) -> tuple[int, tuple[int, ...]]:
    """(d, d * vector) with d the least common denominator of the entries."""
    d = lcm(*(x.denominator for x in vector))
    return d, tuple([x.numerator * (d // x.denominator) for x in vector])


def integer_points(points: Sequence[Sequence[Rational]]) -> tuple[int, list[tuple[int, ...]]]:
    """(d, each point times d as an int tuple), d the lcm of all coordinates' denominators."""
    d = lcm(*(x.denominator for p in points for x in p))
    return d, [tuple([x.numerator * (d // x.denominator) for x in p]) for p in points]


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
