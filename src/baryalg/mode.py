"""Barycentric operations, binary terms, and executable groupoid laws.

Points are tuples of exact rationals.  The binary operation with parameter p
sends (x, y) to (1-p)x + py; terms are binary trees of such operations over
variable leaves.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence, Union

from .scalar import format_rational, integer_points, integer_row, parse_rational

Point = tuple[Fraction, ...]


class ModeError(ValueError):
    pass


def as_point(coords: Sequence) -> Point:
    """coords as a tuple of Fractions; entries that already are Fractions are kept."""
    return tuple([c if type(c) is Fraction else Fraction(c) for c in coords])


def bary_op(x: Sequence, y: Sequence, p) -> Point:
    """(1-p)x + py, computed exactly componentwise."""
    x, y, p = as_point(x), as_point(y), Fraction(p)
    if len(x) != len(y):
        raise ModeError(f"dimension mismatch: {len(x)} vs {len(y)}")
    q = 1 - p
    return tuple(q * a + p * b for a, b in zip(x, y))


@dataclass(frozen=True)
class Leaf:
    index: int


@dataclass(frozen=True)
class Node:
    left: "Term"
    right: "Term"
    param: Fraction


Term = Union[Leaf, Node]


def eval_term(term: Term, assignment: Mapping[int, Sequence]) -> Point:
    """Bottom-up exact evaluation of a term under a variable assignment."""
    if isinstance(term, Leaf):
        if term.index not in assignment:
            raise ModeError(f"unbound variable x{term.index}")
        return as_point(assignment[term.index])
    return bary_op(
        eval_term(term.left, assignment), eval_term(term.right, assignment), term.param
    )


def term_coefficients(term: Term, arity: int) -> list[Fraction]:
    """Coefficients (xi_0..xi_k) of the affine combination the term computes."""
    if isinstance(term, Leaf):
        if not 0 <= term.index < arity:
            raise ModeError(f"variable x{term.index} outside arity {arity}")
        coeffs = [Fraction(0)] * arity
        coeffs[term.index] = Fraction(1)
        return coeffs
    left = term_coefficients(term.left, arity)
    right = term_coefficients(term.right, arity)
    p = Fraction(term.param)
    return [(1 - p) * a + p * b for a, b in zip(left, right)]


def format_term(term: Term) -> str:
    if isinstance(term, Leaf):
        return f"x{term.index}"
    return "(op {} {} {})".format(
        format_term(term.left), format_term(term.right), format_rational(term.param)
    )


_TOKEN = re.compile(r"\(|\)|[^()\s]+")


def parse_term(text: str) -> Term:
    """Parse the S-expression form: leaf `x<i>`, node `(op <l> <r> <p>)`."""
    tokens = _TOKEN.findall(text)
    pos = 0

    def read() -> Term:
        nonlocal pos
        if pos >= len(tokens):
            raise ModeError("unexpected end of term")
        tok = tokens[pos]
        pos += 1
        if tok == "(":
            if pos >= len(tokens) or tokens[pos] != "op":
                raise ModeError("expected 'op' after '('")
            pos += 1
            left = read()
            right = read()
            if pos >= len(tokens):
                raise ModeError("missing parameter")
            try:
                param = parse_rational(tokens[pos])
            except ValueError as exc:
                raise ModeError(f"bad parameter {tokens[pos]!r}") from exc
            pos += 1
            if pos >= len(tokens) or tokens[pos] != ")":
                raise ModeError("missing ')'")
            pos += 1
            return Node(left, right, param)
        if tok.startswith("x") and tok[1:].isdigit():
            return Leaf(int(tok[1:]))
        raise ModeError(f"unexpected token {tok!r}")

    term = read()
    if pos != len(tokens):
        raise ModeError("trailing tokens after term")
    return term


# ---------------------------------------------------------------------------
# Groupoid laws
# ---------------------------------------------------------------------------


@dataclass
class LawReport:
    """Exact law-check outcome: instance counts, violations, skipped probes."""

    checked: dict[str, int]
    violations: list[tuple[str, tuple]]
    cancellation_not_applicable: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations


def _scaled_op(u: Sequence[int], v: Sequence[int], a: int, e: int) -> tuple[int, ...]:
    """(e - a)u + av: the operation with parameter a/e on integer points, times e."""
    b = e - a
    return tuple([b * s + a * t for s, t in zip(u, v)])


#: The free sample: the affine basis 0, e_1, e_2, e_3 of Q^3, one point per
#: variable of the entropic law, checked at the parameters 0 and 1.  One
#: check_laws call on them proves the laws for all points and parameters:
#: - at affinely independent points, two affine combinations are equal only
#:   when their coefficients (term_coefficients) are equal, so a law holds on
#:   this sample exactly when it holds as an identity of coefficients;
#: - every coefficient of either side of each law has degree at most 1 in p
#:   and in q, like (1-p)(1-q) for x in the entropic law, so agreement on
#:   {0, 1}^2 is agreement for all p and q;
#: - for p != 0, x y p = x z p implies y = z, because y's coefficient in
#:   x y p is p.
FREE_SAMPLE = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))
CORNER_PARAMETERS = (0, 1)


def check_laws(sample: Sequence[Sequence], parameters: Sequence) -> LawReport:
    """Verify the groupoid laws exactly on all combinations of the sample.

    Laws checked: idempotence x x p = x; twisted commutativity
    x y p = y x (1-p); the entropic law
    (x y p)(z t p) q = (x z q)(y t q) p; and cancellativity
    x y p = x z p implies y = z for p != 0.

    The laws are checked in integers over one common denominator.  With D
    the lcm of the sample's coordinate denominators and E that of the
    parameters', a point is X/D and a parameter is a/E, for an integer
    tuple X and an integer a.  The table entry
    P_a[i][j] = _scaled_op(X_i, X_j, a, E) = (E-a)X_i + aX_j is x_i x_j p
    over D*E, and an outer operation on two entries is over D*E^2.  Both
    sides of each law are at the same scale, so every law is an equality
    of integer tuples.

    Every int tuple computed is interned to a small id, and each distinct
    operation (weight, u, v) on ids is computed once through _scaled_op,
    table entries and outer operations alike; the laws are then id
    comparisons over all the instances, counted and reported in the same
    order as a plain loop would.  On FREE_SAMPLE at CORNER_PARAMETERS the
    4^4 * 2^2 entropic instances make 32 distinct operations.  Violation
    witnesses are the sample's points and parameters as Fractions.
    """
    points = [as_point(s) for s in sample]
    if not points:
        raise ModeError("empty sample")
    params = [Fraction(p) for p in parameters]
    report = LawReport(
        checked={"idempotence": 0, "commutativity": 0, "entropic": 0, "cancellativity": 0},
        violations=[],
    )
    if not params:
        return report
    dim = len(points[0])
    for y in points:
        if len(y) != dim:
            raise ModeError(f"dimension mismatch: {dim} vs {len(y)}")
    n = len(points)
    _, scaled = integer_points(points)
    e, weights = integer_row(params)
    values: list[tuple[int, ...]] = []
    ids: dict[tuple[int, ...], int] = {}
    memo: dict[tuple[int, int, int], int] = {}
    crossed: dict[tuple[int, int], dict[int, dict[int, int]]] = {}

    def intern(value: tuple[int, ...]) -> int:
        i = ids.setdefault(value, len(values))
        if i == len(values):
            values.append(value)
        return i

    def op(w: int, u: int, v: int) -> int:
        i = memo.get((w, u, v))
        if i is None:
            i = memo[w, u, v] = intern(_scaled_op(values[u], values[v], w, e))
        return i

    def cross(w: int, t: int) -> dict[int, dict[int, int]]:
        # the operation w on every pair of distinct entries of tables[t]
        if (w, t) not in crossed:
            entries = list(dict.fromkeys(u for row in tables[t] for u in row))
            crossed[w, t] = {u: {v: op(w, u, v) for v in entries} for u in entries}
        return crossed[w, t]

    x = [intern(s) for s in scaled]
    fixed = [intern(tuple([e * c for c in s])) for s in scaled]
    tables = {}
    for a in weights:
        for w in (a, e - a):
            if w not in tables:
                tables[w] = [[op(w, u, v) for v in x] for u in x]
    idx = range(n)
    violations = report.violations
    for p, a in zip(params, weights):
        table, twisted = tables[a], tables[e - a]
        report.checked["idempotence"] += n
        for i in idx:
            if table[i][i] != fixed[i]:
                violations.append(("idempotence", (points[i], p)))
        report.checked["commutativity"] += n * n
        for i in idx:
            for j in idx:
                if table[i][j] != twisted[j][i]:
                    violations.append(("commutativity", (points[i], points[j], p)))
        if a == 0:
            report.cancellation_not_applicable += n**3
        else:
            report.checked["cancellativity"] += n**3
            for i in idx:
                row = table[i]
                for j in idx:
                    for k in idx:
                        if row[j] == row[k] and x[j] != x[k]:
                            violations.append(
                                ("cancellativity", (points[i], points[j], points[k], p))
                            )
        for q, b in zip(params, weights):
            other = tables[b]
            outer, inner = cross(b, a), cross(a, b)
            report.checked["entropic"] += n**4
            for i in idx:
                for j in idx:
                    left = outer[table[i][j]]
                    for k in idx:
                        right = inner[other[i][k]]
                        lhs = [left[v] for v in table[k]]
                        rhs = [right[v] for v in other[j]]
                        if lhs == rhs:
                            continue
                        for l in idx:
                            if lhs[l] != rhs[l]:
                                witness = (points[i], points[j], points[k], points[l], p, q)
                                violations.append(("entropic", witness))
    return report
