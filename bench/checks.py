"""Independent checks of baryalg's answers, in plain exact arithmetic.

Each check re-derives the claim an answer makes from the inputs, without
going through the code path that produced it: witnesses are recombined,
ring membership of coefficients is read off denominators, affine
independence and volumes come from a local elimination.  A check returns
None when the answer holds and a short reason when it does not.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Optional, Sequence

Point = tuple[Fraction, ...]


def in_ring(q: Fraction, primes: Sequence[int]) -> bool:
    """True iff the reduced denominator of q has no prime outside `primes`."""
    den = q.denominator
    for p in primes:
        while den % p == 0:
            den //= p
    return den == 1


def combination_error(
    support: Sequence[tuple[int, Fraction]],
    points: Sequence[Point],
    target: Point,
    ring_primes: Optional[Sequence[int]] = None,
) -> Optional[str]:
    """Coefficients must be >= 0, sum to 1, recombine to the target and,
    over a ring, have only inverted primes in their denominators."""
    indices = [i for i, _ in support]
    if len(set(indices)) != len(indices) or any(not 0 <= i < len(points) for i in indices):
        return "witness indices are repeated or out of range"
    coeffs = [Fraction(c) for _, c in support]
    if any(c < 0 for c in coeffs):
        return "witness has a negative coefficient"
    if sum(coeffs) != 1:
        return "witness coefficients do not sum to 1"
    recombined = tuple(
        sum((c * points[i][j] for i, c in zip(indices, coeffs)), Fraction(0))
        for j in range(len(target))
    )
    if recombined != tuple(target):
        return "witness does not recombine to the query point"
    if ring_primes is not None and not all(in_ring(c, ring_primes) for c in coeffs):
        return "witness coefficient outside the ring"
    return None


def rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank by fraction-exact Gaussian elimination."""
    m = [list(r) for r in rows]
    r = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(r + 1, len(m)):
            if m[i][col] != 0:
                f = m[i][col] / m[r][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def determinant(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    m = [list(r) for r in rows]
    det = Fraction(1)
    for col in range(len(m)):
        pivot = next((i for i in range(col, len(m)) if m[i][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        for i in range(col + 1, len(m)):
            if m[i][col] != 0:
                f = m[i][col] / m[col][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[col])]
    return det


def affinely_independent(points: Sequence[Point]) -> bool:
    base = points[0]
    diffs = [[a - b for a, b in zip(p, base)] for p in points[1:]]
    return not diffs or rank(diffs) == len(diffs)


def volume_invariant(points: Sequence[Point]) -> tuple[Fraction, ...]:
    """Sorted volumes of all full-dimensional simplices on the points,
    divided by their sum.  Invertible affine maps scale every volume by the
    same factor, so affinely equivalent vertex sets have equal invariants."""
    dim = len(points[0])
    volumes = []
    for simplex in itertools.combinations(points, dim + 1):
        base = simplex[0]
        volumes.append(abs(determinant([[a - b for a, b in zip(p, base)] for p in simplex[1:]])))
    total = sum(volumes)
    return tuple(sorted(v / total for v in volumes))


def apply_map(matrix, translation, point: Point) -> Point:
    return tuple(
        sum((a * x for a, x in zip(row, point)), Fraction(0)) + t
        for row, t in zip(matrix, translation)
    )


def maps_onto(matrix, translation, left: Sequence[Point], right: Sequence[Point]) -> Optional[str]:
    """An invertible affine witness must biject the left vertex set onto the right."""
    if determinant(matrix) == 0:
        return "witness map is singular"
    image = {apply_map(matrix, translation, p) for p in left}
    if len(image) != len(set(left)) or image != set(right):
        return "witness does not map the vertex set onto the other vertex set"
    return None


def formula_witness_error(phi, points: Sequence[Point], target: Point, witness, ring_primes) -> Optional[str]:
    """A satisfying assignment must meet every binding and every relation
    u_a u_b (p) = u_c, i.e. (1-p) u_a + p u_b = u_c, and put y on the target."""
    for rel in phi.relations:
        if not (0 < rel.param < 1 and in_ring(rel.param, ring_primes)):
            return "relation parameter outside the ring's open unit interval"
    if witness is None:
        return "true target reported unsatisfiable"
    for var, j in phi.input_bindings:
        if tuple(witness[var]) != tuple(points[j]):
            return "witness breaks an input binding"
    for rel in phi.relations:
        left, right, result = witness[rel.left], witness[rel.right], witness[rel.result]
        if any((1 - rel.param) * a + rel.param * b != c for a, b, c in zip(left, right, result)):
            return "witness breaks a chain relation"
    if tuple(witness[phi.output_var]) != tuple(target):
        return "witness output differs from the target"
    return None
