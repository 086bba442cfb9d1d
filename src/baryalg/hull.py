"""Convex hull membership over Q and over subrings, and segment machinery.

A point d belongs to the ring-coefficient hull of X when some coefficient
vector xi with entries in the ring's closed unit interval satisfies
sum(xi) = 1 and sum(xi_i * x_i) = d.  That system is built once, in ints,
in the standard form the simplex reads (see _membership_system): each
coordinate row scaled once to ints, the row of ones, and the sign bounds
xi_j >= 0.  Over Q this is one exact feasibility test.  Over a
localization Z[S^-1] the rational coefficient polytope is intersected with
the ring lattice.  Its affine hull is the equality rows plus the sign
bounds tight at a relative interior point, and one Smith normal form
U A V = D of those int rows answers the rest: the rank, the unique point
when the rank is full, whether the hull carries a ring point, that ring
point, and the kernel directions (the last columns of V) along which a
witness is reached by walking from the ring point toward the interior
point with steps scaled by inverse prime powers.  That walk is in Python
ints: the ring point is an int vector over one common denominator D, each
round rounds the steps to den = p^k by floor(a den + 1/2), ties rounded
up, and checks the int vector xi * D * den for nonnegativity; only the
accepted round's coefficients become Fractions.

Whether a ring hull is closed under every rational operation is decided in
closed form by one q-adic valuation, for q the smallest prime the ring does
not invert (see q_convexity_probe).

A V-polytope eliminates its distinct generators once, into the projection
G onto the row space of their centred matrix (see _projection).  Its rank
is the affine dimension.  Row i of G is an affine functional evaluated at
the generators, so a generator at which its row, or its row minus the row
of the generator farthest from it, is strictly largest is separated from
the others' hull and is a vertex with no LP; only the rest take one
Q-membership LP each.  The G of the vertices prunes the affine equivalence
search.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Optional, Sequence

from . import linalg
from .mode import Point, as_point, bary_op
from .scalar import (
    RingSpec,
    integer_points,
    integer_row,
    prime_valuation,
    ring_contains,
    s_free_part,
    smallest_inverted_prime,
)


class HullError(ValueError):
    pass


@dataclass(frozen=True)
class BaryCombination:
    """A convex combination: (generator index, positive coefficient) pairs."""

    support: tuple[tuple[int, Fraction], ...]

    def coefficient_vector(self, size: int) -> list[Fraction]:
        xi = [Fraction(0)] * size
        for idx, c in self.support:
            xi[idx] = c
        return xi

    def evaluate(self, points: Sequence[Sequence]) -> Point:
        points = [as_point(p) for p in points]
        dim = len(points[0])
        acc = [Fraction(0)] * dim
        for idx, c in self.support:
            for j in range(dim):
                acc[j] += c * points[idx][j]
        return tuple(acc)


def _check_points(points: Sequence[Sequence]) -> list[Point]:
    pts = [as_point(p) for p in points]
    if not pts:
        raise HullError("empty generating set")
    if any(len(p) != len(pts[0]) for p in pts):
        raise HullError("inconsistent point dimensions")
    return pts


def _membership_system(d: Point, pts: list[Point]) -> linalg._StandardForm:
    """The coefficient system of d over pts as the simplex reads it, in ints.

    Constraint j < n is coordinate j, sum_i xi_i p_i[j] == d[j], scaled once
    by integer_row; constraint n is sum(xi) == 1; constraint n + 1 + j is
    the sign bound xi_j >= 0, that is -xi_j <= 0.
    """
    m, n = len(pts), len(d)
    rows = []
    for coord in range(n):
        scale, (*a, b) = integer_row([p[coord] for p in pts] + [d[coord]])
        rows.append((coord, scale, a, b, False))
    rows.append((n, 1, [1] * m, 1, False))
    bounds = {j: (n + 1 + j, -1) for j in range(m)}
    return linalg._StandardForm(m, n + 1 + m, rows, bounds)


def _combination(xi: Sequence[Fraction]) -> BaryCombination:
    return BaryCombination(tuple((i, c) for i, c in enumerate(xi) if c != 0))


@dataclass(frozen=True)
class MembershipReport:
    """Full verdict for a hull membership query, with reasons for the CLI."""

    member: bool
    combination: Optional[BaryCombination]
    reason: str
    certificate: Optional[tuple[Fraction, ...]] = None
    rational_point: Optional[tuple[Fraction, ...]] = None


def membership_report_Q(d: Sequence, points: Sequence[Sequence]) -> MembershipReport:
    pts = _check_points(points)
    d = as_point(d)
    if len(d) != len(pts[0]):
        raise HullError("query point dimension mismatch")
    result = linalg.lp_feasible(_membership_system(d, pts))
    if not result.feasible:
        return MembershipReport(False, None, "rational-hull-infeasible", result.certificate)
    return MembershipReport(True, _combination(result.witness), "rational-combination")


def hull_member_Q(d: Sequence, points: Sequence[Sequence]) -> Optional[BaryCombination]:
    """A rational convex combination of the points equal to d, if one exists."""
    return membership_report_Q(d, points).combination


def _nearest_numerator(n: int, d: int, den: int) -> int:
    """floor(a * den + 1/2) for a = n/d, d > 0, ties rounded up: the
    numerator over den of the nearest multiple of 1/den to a.  It is
    (2 n den + d) // (2 d), in ints, so n/d need not be in lowest terms."""
    return (2 * n * den + d) // (2 * d)


def membership_report_T(
    d: Sequence, points: Sequence[Sequence], ring: RingSpec
) -> MembershipReport:
    pts = _check_points(points)
    d = as_point(d)
    if len(d) != len(pts[0]):
        raise HullError("query point dimension mismatch")
    m = len(pts)
    system = _membership_system(d, pts)
    # The affine hull of the coefficient polytope: the equality rows plus the
    # sign bounds xi_j >= 0 that are tight on every feasible point, which are
    # the ones tight at a relative interior point.  An infeasible system
    # raises with its Farkas certificate.
    try:
        interior = linalg.relative_interior_point(system)
    except linalg.InfeasibleSystemError as infeasible:
        return MembershipReport(False, None, "rational-hull-infeasible", infeasible.certificate)
    interior = [(x.numerator, x.denominator) for x in interior]  # int pairs n / d, d > 0
    # One Smith normal form U A V = D of the hull rows A xi = b, in ints,
    # gives the rest: the equality rows a | b as the system keeps them, and
    # -e_j | 0 for each tight xi_j.  With c = U b, xi = V y solves them when
    # y_i = c_i / d_i for the first r, nonzero, d_i (r is the rank) and
    # c_i = 0 for the zero d_i; the other y_i are free.
    scaled = [a + [b] for _, _, a, b, _ in system.rows]
    scaled += [[-int(i == j) for i in range(m + 1)] for j, (x, _) in enumerate(interior) if x == 0]
    u, dmat, v = linalg.smith_normal_form([row[:-1] for row in scaled])
    c_vec = [sum(x * row[-1] for x, row in zip(u_row, scaled)) for u_row in u]
    y = []  # (j, c_j, d_j): y_j = c_j / d_j, and y_j = 0 off these
    for i, c in enumerate(c_vec):
        di = dmat[i][i] if i < m else 0
        if di != 0:
            y.append((i, c, di))
        elif c != 0:
            raise HullError("the affine hull of a feasible coefficient polytope is empty")
    # The point V y is ring_num / ring_den over the common denominator
    # ring_den = lcm(d_j), with ring_num_i = sum_j V_ij c_j (ring_den / d_j).
    # In lowest terms ring_num_i / ring_den has the denominator
    # ring_den / gcd(ring_num_i, ring_den).
    ring_den = math.lcm(*(di for _, _, di in y))
    ring_num = [sum(v[i][j] * c * (ring_den // dj) for j, c, dj in y) for i in range(m)]
    if len(y) == m:
        xi = [Fraction(x, ring_den) for x in ring_num]
        if all(ring_contains(c, ring) for c in xi):
            return MembershipReport(True, _combination(xi), "unique-ring-combination")
        return MembershipReport(
            False, None, "unique-rational-point-not-in-ring", rational_point=tuple(xi)
        )

    # Does the affine hull carry any ring point at all?  Over Z[S^-1] each
    # nonzero invariant factor must divide its c_i up to inverted primes;
    # then V y is a ring point.
    if any(c % s_free_part(di, ring) != 0 for _, c, di in y):
        return MembershipReport(False, None, "no-ring-point-on-affine-hull")
    if any(s_free_part(ring_den // math.gcd(r, ring_den), ring) != 1 for r in ring_num):
        raise HullError("Smith normal form produced a point outside the ring")

    # Ring points are dense on the affine hull, and the polytope has interior
    # there, so a witness exists: walk from the known ring point toward a
    # relative interior point along integer kernel directions, rounding the
    # steps to denominators den = p^k until all inequalities hold.  The last
    # m - r columns of V span the kernel; row-reduced with their coordinates
    # reversed, they are the identity on the kernel's lexicographically last
    # independent coordinates, which by matroid duality are A's free
    # (non-pivot) columns.  Each primitive direction is positive at its free
    # column, where no other direction is nonzero: the step is read there.
    kernel = [list(column[::-1]) for column in list(zip(*v))[len(y):]]
    free_columns = [m - 1 - c for c in reversed(linalg._gauss_jordan(kernel))]
    int_kernel = []
    for row in reversed(kernel):
        g = math.gcd(*row)
        int_kernel.append([x // g for x in reversed(row)])
    # alpha_k = (interior_f - ring_num_f / ring_den) / direction_k[f], as
    # the int pair (numerator, positive denominator)
    alpha = []
    for f, direction in zip(free_columns, int_kernel):
        n, d = interior[f]
        alpha.append((n * ring_den - ring_num[f] * d, d * ring_den * direction[f]))
    # Rounding to denominator den moves xi_i off interior_i = n/d by at most
    # sum_j |direction_j[i]| / (2 den), and a coordinate with interior_i = 0
    # is 0 along every direction, so the walk succeeds once den >= every
    # bound sum_j |direction_j[i]| d / (2 n), held as the int pair (s, t).
    bounds = [
        (sum(abs(direction[i]) for direction in int_kernel) * d, 2 * n)
        for i, (n, d) in enumerate(interior)
        if n > 0
    ]
    # The walk is in ints over the denominator ring_den * den, den = p^k.
    # Step k is s_k / den with s_k = floor(alpha_k den + 1/2), ties rounded
    # up (see _nearest_numerator).  Then
    # xi * ring_den * den = ring_num * den + ring_den * sum_k s_k direction_k
    # is checked for nonnegativity, and only the accepted round builds
    # Fractions.
    columns = list(zip(*int_kernel))
    p = smallest_inverted_prime(ring)
    den = 1
    while True:
        steps = [_nearest_numerator(n, d, den) for n, d in alpha]
        scaled_xi = [
            r * den + ring_den * sum(s * c for s, c in zip(steps, column))
            for r, column in zip(ring_num, columns)
        ]
        if all(x >= 0 for x in scaled_xi):
            xi = [Fraction(x, ring_den * den) for x in scaled_xi]
            if not all(ring_contains(c, ring) for c in xi):
                raise HullError("ring witness has a coefficient outside the ring")
            return MembershipReport(True, _combination(xi), "ring-combination")
        if all(den * t >= s for s, t in bounds):
            raise HullError("ring witness search passed its rounding bound")
        den *= p


def hull_member_T(
    d: Sequence, points: Sequence[Sequence], ring: RingSpec
) -> Optional[BaryCombination]:
    """A combination with all coefficients in the ring's unit interval, if any."""
    return membership_report_T(d, points, ring).combination


def caratheodory(d: Sequence, points: Sequence[Sequence]) -> tuple[list[int], list[Fraction]]:
    """Affinely independent positive recombination of a hull member.

    The rational witness is a basic solution of the membership system (see
    linalg.lp_feasible), so the columns (p_i, 1) of its support are linearly
    independent: the support points are affinely independent, at most
    dim+1 of them, and are returned as they are.
    """
    pts = _check_points(points)
    d_pt = as_point(d)
    if d_pt in pts:
        return [pts.index(d_pt)], [Fraction(1)]
    combo = hull_member_Q(d, pts)
    if combo is None:
        raise HullError("point is not a member of the rational hull")
    return [i for i, _ in combo.support], [c for _, c in combo.support]


# ---------------------------------------------------------------------------
# V-polytopes
# ---------------------------------------------------------------------------


def _projection(points: Sequence[Point]) -> tuple[list[list[int]], int, int]:
    """(N, den, rank): the m x m projection G = N / den onto the row space
    of the centred point matrix D (n x m, one column per point), and the
    rank of D, which is the affine dimension of the points.

    With B a row basis of D, G = B^T (B B^T)^-1 B; it is rational and does
    not depend on the choice of B.  Row i of G holds the values at the
    points of one affine functional: G_ij = f_i(p_j).  An invertible affine
    map sends D to A D, which has the same row space, so a point bijection
    induced by such a map carries G_ij to G_{s(i) s(j)} (after Bremner,
    Dutour Sikirić, Pasechnik, Rehn and Schürmann, "Computing symmetry
    groups of polyhedra", 2014).

    The elimination is in ints: with L the lcm of all denominators, the
    columns m L p - L sum(p) make m L D, which has D's row space and so the
    same G.  It is one Gauss-Jordan elimination of [D D^T | D].  D^T x = 0
    exactly when D D^T x = 0, so a row whose left block reduces to zero has
    a zero right block too, the rows of D at the pivot columns form a row
    basis B, and pivot row k's right block is p_k times row k of
    (B B^T)^-1 B, p_k being its pivot entry.  den > 0, and no Fraction is
    built.
    """
    m, n = len(points), len(points[0])
    _, scaled = integer_points(points)
    centred = []
    for coordinate in zip(*scaled):
        total = sum(coordinate)
        centred.append([m * x - total for x in coordinate])
    aug = [[sum(map(mul, di, dj)) for dj in centred] + di for di in centred]
    pivots = linalg._gauss_jordan(aug)
    den = math.lcm(*(row[col] for row, col in zip(aug, pivots)))
    solved = [[x * (den // row[col]) for x in row[n:]] for row, col in zip(aug, pivots)]
    # G_ij pairs column i of B with column j of the solved block
    basis = [centred[col] for col in pivots]
    b_columns = [[row[i] for row in basis] for i in range(m)]
    s_columns = [[row[j] for row in solved] for j in range(m)]
    numerators = [[sum(map(mul, b, s)) for s in s_columns] for b in b_columns]
    return numerators, den, len(pivots)


def _separated(numerators: list[list[int]], i: int) -> bool:
    """Whether f_i or f_i - f_k, for g_k farthest from g_i in G's metric,
    is strictly largest at g_i among the generators (G = numerators / den).

    Both are affine functionals, so one that is strictly largest at g_i
    stays below its value there on the other generators' hull, and g_i is a
    vertex; this holds for any k.  The farthest g_k maximizes
    G_ii - 2 G_ik + G_kk, the squared length of G (e_i - e_k), which is
    positive for distinct generators.  Both tests are O(m) in ints.
    """
    row = numerators[i]
    if all(x < row[i] for j, x in enumerate(row) if j != i):
        return True
    k = max((j for j in range(len(row)) if j != i), key=lambda j: numerators[j][j] - 2 * row[j])
    other = numerators[k]
    top = row[i] - other[i]
    return all(x - y < top for j, (x, y) in enumerate(zip(row, other)) if j != i)


@dataclass(frozen=True)
class VPolytope:
    """A bounded rational polytope given by finitely many generating points.

    The distinct generators are eliminated once (see _projection); the
    affine dimension, most vertex tests and the vertices' G read that one
    elimination, cached per instance.
    """

    generators: tuple[Point, ...]

    def __init__(self, generators: Sequence[Sequence]):
        object.__setattr__(self, "generators", tuple(_check_points(generators)))

    @property
    def dimension(self) -> int:
        return len(self.generators[0])

    @cached_property
    def _distinct(self) -> tuple[list[Point], tuple[list[list[int]], int, int]]:
        """The distinct generators in input order, and their _projection."""
        unique = list(dict.fromkeys(self.generators))
        return unique, _projection(unique)

    @cached_property
    def _extreme(self) -> tuple[Point, ...]:
        # the body of the vertices property; gram reads it directly, so a
        # read of gram is not a read of vertices
        unique, (numerators, _, _) = self._distinct
        return tuple(
            g
            for i, g in enumerate(unique)
            if _separated(numerators, i) or hull_member_Q(g, unique[:i] + unique[i + 1 :]) is None
        )

    @property
    def vertices(self) -> tuple[Point, ...]:
        """Extreme points: generators not in the rational hull of the others,
        in input order, duplicates dropped.

        Two certificates from G prove a generator g_i a vertex without an
        LP.  Row i of G is the affine functional f_i with f_i(g_j) = G_ij.
        If the row is strictly largest at its diagonal (G_ii > G_ij for
        every j != i), f_i is below G_ii at every other generator, hence on
        their hull, so g_i is not in it.  Otherwise f_i - f_k is tried, for
        g_k the generator farthest from g_i in G's metric (the k maximizing
        G_ii - 2 G_ik + G_kk): it separates g_i alike when
        G_ii - G_ki > G_ij - G_kj for every j != i (see _separated).  Only
        the generators neither certifies are tested by hull_member_Q
        against the rest.
        """
        return self._extreme

    @property
    def affine_dimension(self) -> int:
        """The rank of the centred distinct generators (see _projection)."""
        _, (_, _, rank) = self._distinct
        return rank

    @cached_property
    def _gram(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """(N, den): the vertices' G = N / den in lowest common terms, so two
        G are equal exactly when their dens are equal and their N are."""
        unique, projection = self._distinct
        vertices = self._extreme
        if len(vertices) < len(unique):
            projection = _projection(vertices)
        numerators, den, _ = projection
        g = math.gcd(den, *itertools.chain.from_iterable(numerators))
        return tuple(tuple(x // g for x in row) for row in numerators), den // g

    @property
    def gram(self) -> list[list[Fraction]]:
        """The projection G of the vertices, in vertex order (see _projection).

        When every distinct generator is a vertex, this is the G the vertex
        tests read; otherwise the vertices are eliminated once more.  It is
        cached as int numerators over one denominator in lowest common
        terms, the form the affine equivalence search compares.
        """
        numerators, den = self._gram
        return [[Fraction(x, den) for x in row] for row in numerators]


# ---------------------------------------------------------------------------
# T-segments and the bounded closure engine
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TSegment:
    """The slice of the ring line through anchors a, b between two parameters."""

    anchor_a: Point
    anchor_b: Point
    start: Fraction
    end: Fraction

    def __init__(self, anchor_a: Sequence, anchor_b: Sequence, start, end):
        a, b = as_point(anchor_a), as_point(anchor_b)
        if len(a) != len(b):
            raise HullError("segment anchors must have the same dimension")
        if a == b:
            raise HullError("segment anchors must differ")
        object.__setattr__(self, "anchor_a", a)
        object.__setattr__(self, "anchor_b", b)
        object.__setattr__(self, "start", Fraction(start))
        object.__setattr__(self, "end", Fraction(end))


def _depth_denominator(ring: RingSpec, depth: int) -> int:
    """(prod S)^depth: the parameter denominator of a depth-bounded slice."""
    if depth < 0:
        raise HullError("depth must be nonnegative")
    return math.prod(ring.inverted_primes) ** depth


def _slice(seg: TSegment, ring: RingSpec, depth: int) -> tuple[int, range]:
    """(den, ks): the depth-bounded slice of seg is its points at k/den, k in ks."""
    den = _depth_denominator(ring, depth)
    if not (ring_contains(seg.start, ring) and ring_contains(seg.end, ring)):
        raise HullError("segment endpoint parameters must lie in the ring")
    lo, hi = min(seg.start, seg.end), max(seg.start, seg.end)
    return den, range(math.ceil(lo * den), math.floor(hi * den) + 1)


def _progression(start: Sequence[int], step: Sequence[int], count: int):
    """The int tuples start + k*step for k = 0, ..., count - 1, in that order."""
    return zip(
        *[
            range(a, a + count * s, s) if s else itertools.repeat(a, count)
            for a, s in zip(start, step)
        ]
    )


def t_segment_points(seg: TSegment, ring: RingSpec, depth: int) -> list[Point]:
    """All segment points whose parameter denominator divides (prod S)^depth.

    The slice is one int progression, as in segment_closure_bounded: over
    s, the lcm of the anchors' denominators, the anchors are int tuples A
    and B, and the point at parameter k/den is (den*A + k*(B - A))/(s*den),
    listed in increasing k.
    """
    den, ks = _slice(seg, ring, depth)
    s, (a, b) = integer_points([seg.anchor_a, seg.anchor_b])
    step = [y - x for x, y in zip(a, b)]
    start = [den * x + ks.start * dx for x, dx in zip(a, step)]
    scale = s * den
    return [
        tuple([Fraction(x, scale) for x in point])
        for point in _progression(start, step, len(ks))
    ]


def _ring_lines(ring: RingSpec, line_bound: int):
    """The indices m <= line_bound, free of inverted primes, one at a time."""
    return (m for m in range(1, line_bound + 1) if s_free_part(m, ring) == m)


def ring_lines_through(
    c: Sequence, d: Sequence, ring: RingSpec, line_bound: int
) -> list[TSegment]:
    """Ring segments with endpoints c and d, one per ring line through both.

    Ring lines through distinct c, d correspond (up to reparametrization by
    ring units) to positive integers m free of inverted primes: anchor the
    line at c with direction (d - c)/m, so c sits at parameter 0 and d at m.
    Only m <= line_bound are explored.
    """
    c, d = as_point(c), as_point(d)
    if len(c) != len(d):
        raise HullError("need two points of the same dimension")
    if c == d:
        raise HullError("need two distinct points")
    return [
        TSegment(c, tuple(a + (b - a) / m for a, b in zip(c, d)), Fraction(0), Fraction(m))
        for m in _ring_lines(ring, line_bound)
    ]


#: Most points segment_closure_bounded generates, counted over all pairs,
#: lines and rounds with repeats.  Criterion 10's largest closure, depth 2
#: and 3 rounds from {0, 3} over the dyadics, generates 189 342, 1729 of
#: them distinct, and takes about 0.05 s on one core of a 2-vCPU machine.
MAX_CLOSURE_POINTS = 500_000


def segment_closure_bounded(
    points: Sequence[Sequence],
    ring: RingSpec,
    depth: int,
    rounds: int,
    line_bound: int = 3,
) -> set[Point]:
    """A bounded under-approximation of the least segment-convex superset.

    Each round adds, for every pair of current points, the depth-bounded
    slices of the ring segments joining them on every ring line explored up
    to line_bound.  Monotone in depth, rounds, and line_bound; the result
    always stays inside the real convex hull of the input.  A closure that
    would generate more than MAX_CLOSURE_POINTS points is refused with
    HullError before the round that crosses the limit builds any point:
    each round's slices are counted by arithmetic first.

    The current set is kept as int tuples over one common scale.  With
    den = (prod S)^depth and M the lcm of the explored line indices m, each
    round multiplies the scale by den*M, so the slice joining c and d on
    line m is the int progression c*den*M + k*(d - c)*(M/m), k = 0..m*den,
    and repeats are dropped as int tuples.  Fractions are built only for
    the returned set.
    """
    current = set(_check_points(points))
    too_many = f"the closure would generate more than {MAX_CLOSURE_POINTS} points"
    if rounds <= 0 or len(current) < 2 or line_bound <= 0:
        return current
    # every explored slice spans a parameter interval of length at least 1,
    # so it has more than 2**depth points: a deeper slice is refused before
    # (prod S)**depth is computed
    if depth >= MAX_CLOSURE_POINTS.bit_length():
        raise HullError(too_many)
    den = _depth_denominator(ring, depth)
    # the lines are the same for every pair; each adds m*den + 1 points
    lines, per_pair = [], 0
    for m in _ring_lines(ring, line_bound):
        per_pair += m * den + 1
        if per_pair > MAX_CLOSURE_POINTS:
            raise HullError(too_many)
        lines.append(m)
    big = math.lcm(*lines)
    scale, scaled = integer_points(list(current))
    current = set(scaled)
    generated = 0
    for _ in range(rounds):
        generated += len(current) * (len(current) - 1) // 2 * per_pair
        if generated > MAX_CLOSURE_POINTS:
            raise HullError(too_many)
        scale *= den * big
        previous = [tuple([den * big * x for x in p]) for p in current]
        current = set(previous)
        for c, d in itertools.combinations(previous, 2):
            for m in lines:
                step = [(y - x) // (den * m) for x, y in zip(c, d)]
                current.update(_progression(c, step, m * den + 1))
    return {tuple([Fraction(x, scale) for x in p]) for p in current}


# ---------------------------------------------------------------------------
# Rational convexity of a ring hull
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConvexityReport:
    """Whether the ring hull of X is closed under every rational operation;
    if not, the operation x0 x1 (t) that leaves it (see q_convexity_probe)."""

    q_convex: bool
    witness: Optional[tuple[Point, Point, Fraction]] = None
    prime: Optional[int] = None
    coordinate: Optional[int] = None
    valuation_bound: Optional[int] = None


def _valuation_bound(pts: list[Point], coordinate: int, q: int) -> int:
    return min(prime_valuation(p[coordinate], q) for p in pts if p[coordinate] != 0)


def q_convexity_probe(generators: Sequence[Sequence], ring: RingSpec) -> ConvexityReport:
    """Decide whether the ring hull of X is closed under all rational
    barycentric operations: it is exactly when X has one distinct point.

    One point is its own hull, and every operation fixes it.  Otherwise let
    x0, x1 be the first two distinct generators, q the smallest prime that
    the ring does not invert, c the first coordinate where x0 and x1
    differ, v the least q-adic valuation of a nonzero c-entry of X, and
    k = v_q(x1_c - x0_c) - v + 1.  Ring coefficients have valuation >= 0,
    so every c-entry of the ring hull is 0 or has valuation >= v.  The
    difference x1_c - x0_c has valuation >= v, so k >= 1 and t = 1/q^k
    lies in (0, 1).  The witness w = x0 x1 (t) lies on [x0, x1], and
    w_c = x0_c + (x1_c - x0_c)/q^k: the second term has valuation v - 1
    and x0_c is 0 or of valuation >= v, so w_c has valuation v - 1 and w
    is not in the ring hull.  No LP and no sampling is involved.
    """
    pts = _check_points(generators)
    x0 = pts[0]
    x1 = next((p for p in pts if p != x0), None)
    if x1 is None:
        return ConvexityReport(True)
    # The least n >= 2 with 1/n outside the ring is a prime: a prime factor
    # of n outside S would be a smaller such n.
    q = next(n for n in itertools.count(2) if not ring_contains(Fraction(1, n), ring))
    c = next(i for i, (a, b) in enumerate(zip(x0, x1)) if a != b)
    v = _valuation_bound(pts, c, q)
    k = prime_valuation(x1[c] - x0[c], q) - v + 1
    return ConvexityReport(False, (x0, x1, Fraction(1, q**k)), q, c, v)


def check_convexity_report(
    generators: Sequence[Sequence], ring: RingSpec, report: ConvexityReport
) -> bool:
    """Re-validate a ConvexityReport from the generators and the ring alone.

    A negative verdict holds when x0, x1 are generators, t is in (0, 1),
    q is a prime the ring does not invert, valuation_bound is the least
    q-adic valuation of a nonzero coordinate-th entry of X, and the
    witness's coordinate-th entry is nonzero with a smaller valuation (see
    q_convexity_probe for why that puts it outside the ring hull).
    """
    pts = _check_points(generators)
    if report.q_convex:
        return len(set(pts)) == 1
    x0, x1, t = report.witness
    q, c = report.prime, report.coordinate
    if x0 not in pts or x1 not in pts or not 0 < t < 1 or not 0 <= c < len(x0):
        return False
    try:
        bound = _valuation_bound(pts, c, q)
        return (
            not ring_contains(Fraction(1, q), ring)
            and bound == report.valuation_bound
            and prime_valuation(bary_op(x0, x1, t)[c], q) < bound
        )
    except ValueError:  # q is not prime, or every c-entry of X or of w is 0
        return False
