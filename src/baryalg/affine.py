"""Affine independence, invertible affine maps, and polytope equivalence.

Two bounded rational V-polytopes are affinely equivalent exactly when some
invertible map x -> Ax + b carries one onto the other; because such maps
preserve convex combinations in both directions, this is decided on vertex
sets: fix an affinely independent tuple of vertices on the left, enumerate
independent ordered tuples on the right, and accept the induced map iff it
bijects the vertex sets.  The search is pruned by an exact invariant (after
Bremner, Dutour Sikirić, Pasechnik, Rehn and Schürmann, "Computing symmetry
groups of polyhedra", 2014): the projection G onto the row space of the
centred vertex matrix (VPolytope.gram), which every invertible affine map
preserves up to the vertex bijection it induces.  The search runs in ints
from G to the witness: G is compared as int numerators over one
denominator in lowest terms, and a tuple is tested on the left vertices'
coordinates over the anchor.  One int elimination per decision gives those
coordinates and the inverse of the anchor's basis, extended to the whole
space, so the witness for the accepted tuple is summed in ints, one
Fraction per entry.  Every affine basis and map here comes from that one
elimination routine (_eliminate) and that one map builder (_witness).
The same witness, restricted to the polytope, is an isomorphism of the
associated barycentric algebras for any coefficient ring: an affine map
commutes with every barycentric operation by construction (see
iso_decide).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import NamedTuple, Optional, Sequence

from . import linalg
from .hull import VPolytope
from .mode import Point, as_point, bary_op
from .scalar import RingSpec, integer_points


class AffineError(ValueError):
    pass


@dataclass(frozen=True)
class AffineMap:
    """An invertible affine transformation x -> Ax + b of rational space."""

    matrix: tuple[tuple[Fraction, ...], ...]
    translation: tuple[Fraction, ...]

    def __init__(self, matrix: Sequence[Sequence], translation: Sequence):
        m = tuple(as_point(row) for row in matrix)
        t = as_point(translation)
        n = len(t)
        if len(m) != n or any(len(row) != n for row in m):
            raise AffineError("matrix must be square and match the translation")
        if linalg.rank(m) != n:
            raise AffineError("matrix must be invertible")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "translation", t)

    @property
    def dimension(self) -> int:
        return len(self.translation)

    def apply(self, point: Sequence) -> Point:
        x = as_point(point)
        if len(x) != self.dimension:
            raise AffineError(
                f"point of dimension {len(x)} for a map of dimension {self.dimension}"
            )
        return tuple(
            sum((row[j] * x[j] for j in range(len(x))), Fraction(0)) + t
            for row, t in zip(self.matrix, self.translation)
        )

    def inverse(self) -> "AffineMap":
        """The map sending the images of the affine basis 0, e_1, ..., e_n
        back to that basis."""
        n = self.dimension
        # i = -1 gives the origin
        basis = [tuple(int(i == j) for j in range(n)) for i in range(-1, n)]
        return map_from_correspondence([self.apply(x) for x in basis], basis)


def _points(points: Sequence[Sequence]) -> list[Point]:
    pts = [as_point(q) for q in points]
    if not pts:
        raise AffineError("empty point list")
    if any(len(q) != len(pts[0]) for q in pts):
        raise AffineError("inconsistent point dimensions")
    return pts


def _difference_columns(pts: list[Point], tail: int = 0) -> list[list]:
    """The matrix whose columns are the differences from the first point,
    followed by the first tail standard basis vectors."""
    base = pts[0]
    return [
        [q[r] - base[r] for q in pts[1:]] + [int(r == j) for j in range(tail)]
        for r in range(len(base))
    ]


def affine_independent(points: Sequence[Sequence]) -> bool:
    """True iff the difference vectors from the first point are independent."""
    pts = _points(points)
    return linalg.rank(_difference_columns(pts)) == len(pts) - 1


class _Elimination(NamedTuple):
    """The points times their least common denominator scale, and the int
    rows and pivots of one Gauss-Jordan elimination of [scale (v_j - v_0) | I_n].

    The pivots among the differences give the greedy independent subset
    (independent, as point indices), and those in the identity block the
    axes a greedy pass in axis order adds to make it an affine basis.
    """

    scale: int
    points: list[tuple[int, ...]]
    rows: list[list[int]]
    pivots: list[int]
    independent: list[int]
    axes: list[int]


def _eliminate(points: Sequence[Sequence]) -> _Elimination:
    """The one elimination every affine basis and map is read from."""
    scale, scaled = integer_points(points)
    m, n = len(scaled), len(scaled[0])
    rows = _difference_columns(scaled, n)
    pivots = linalg._gauss_jordan(rows)
    k = sum(col < m - 1 for col in pivots)
    independent, axes = [0] + [j + 1 for j in pivots[:k]], [col - m + 1 for col in pivots[k:]]
    return _Elimination(scale, scaled, rows, pivots, independent, axes)


def max_independent_subset(points: Sequence[Sequence]) -> list[int]:
    """Greedy maximal affinely independent sub-list, in input order.

    A point joins exactly when its difference from the first point is not
    in the span of the earlier differences, which makes its column a pivot.
    All maximal independent subsets of a set share one size (one more than
    the affine dimension), so the greedy result has canonical length.
    """
    return _eliminate(_points(points)).independent


def extend_to_basis(points: Sequence[Sequence], dimension: int) -> list[Point]:
    """Extend an independent list to an affine basis of the ambient space,
    using offsets of the first point by standard basis vectors.

    The axes are those a greedy pass in axis order would add (see
    _Elimination); the points are independent iff every difference column
    is a pivot.
    """
    pts = _points(points)
    if any(len(q) != dimension for q in pts):
        raise AffineError("points do not live in the requested dimension")
    eliminated = _eliminate(pts)
    if len(eliminated.independent) < len(pts):
        raise AffineError("input points are affinely dependent")
    return pts + [
        tuple(c + (1 if j == axis else 0) for j, c in enumerate(pts[0]))
        for axis in eliminated.axes
    ]


def map_from_correspondence(
    src: Sequence[Sequence], dst: Sequence[Sequence]
) -> Optional[AffineMap]:
    """The unique affine map sending src_i to dst_i.

    src must be an affinely independent basis of n+1 points, and dst n+1
    points of the same dimension; the map is invertible iff dst is also
    independent, and None reports the non-invertible case.
    """
    s, d = _points(src), _points(dst)
    n = len(s[0])
    if len(d[0]) != n:
        raise AffineError("source and target points live in different dimensions")
    if len(s) != n + 1 or len(d) != n + 1:
        raise AffineError(f"need exactly {n + 1} source and target points")
    source = _eliminate(s)
    if len(source.independent) <= n:
        raise AffineError("source points are affinely dependent")
    try:
        return _witness(source, *integer_points(d))
    except AffineError:  # A is singular exactly when dst is dependent
        return None


@dataclass(frozen=True)
class EquivalenceVerdict:
    equivalent: bool
    witness: Optional[AffineMap]
    reason: str


def _anchor_images(anchor_idx, lg, rg, l_rows, r_rows, chosen: list[int]):
    """Right index tuples extending `chosen` whose G block matches the anchor's.

    Depth-first in increasing index order: lexicographic over tuples.  A
    module-level generator rather than a closure, so that a search leaves no
    reference cycle behind.
    """
    if len(chosen) == len(anchor_idx):
        yield chosen
        return
    a = anchor_idx[len(chosen)]
    for j in range(len(r_rows)):
        if j not in chosen and r_rows[j] == l_rows[a] and all(
            rg[j][c] == lg[a][b] for b, c in zip(anchor_idx, chosen)
        ):
            yield from _anchor_images(anchor_idx, lg, rg, l_rows, r_rows, chosen + [j])


def _witness(left: _Elimination, scale: int, candidate: list[tuple[int, ...]]) -> AffineMap:
    """The affine map sending left's independent points and axes to the
    candidate, as many points times scale, and its own axes.

    Every point of left lies in its independent points' affine hull, so
    the identity block of left's pivot rows is E = diag(p) P^-1, P the
    scaled differences and the axes.  With Q the candidate's as columns,
    A = Q S diag(p)^-1 E, S = diag(L / R, ..., 1, ...) taking the scales
    off the difference columns, and b = b_0 - A a_0, summed in ints with
    one Fraction per entry.  The candidate's axes take an elimination only
    when it spans less than the space.
    """
    a0, b0 = left.points[0], candidate[0]
    n, d = len(a0), len(candidate) - 1
    axes = _eliminate(candidate).axes if d < n else []
    rows, l_scale = left.rows, left.scale
    den = math.lcm(*(row[col] for row, col in zip(rows, left.pivots)))
    # row k of S diag(p)^-1 E, times scale den
    inverse = [
        [x * (den // row[col]) * (l_scale if k < d else scale) for x in row[len(row) - n :]]
        for k, (row, col) in enumerate(zip(rows, left.pivots))
    ]
    q = [
        [b[r] - b0[r] for b in candidate[1:]] + [int(r == axis) for axis in axes]
        for r in range(n)
    ]
    # A times scale den
    numerators = [[sum(map(mul, row, column)) for column in zip(*inverse)] for row in q]
    return AffineMap(
        [[Fraction(x, scale * den) for x in row] for row in numerators],
        [
            Fraction(y * den * l_scale - sum(map(mul, row, a0)), scale * den * l_scale)
            for y, row in zip(b0, numerators)
        ],
    )


def affine_equivalence(left: VPolytope, right: VPolytope) -> EquivalenceVerdict:
    """Decide whether an invertible affine map carries left onto right.

    Equal affine dimension, equal vertex counts and equal invariants G
    (`VPolytope.gram`) up to a vertex bijection are necessary.  G is
    compared in ints: in lowest common terms its dens must be equal and the
    multisets of its sorted int rows too.  A witness is then searched by
    anchoring one independent vertex tuple on the left and enumerating
    ordered tuples on the right, in lexicographic order so the first
    witness is reproducible.  Only tuples whose sorted G rows and mutual G
    entries match the anchor's are tried; the others cannot be the image of
    the anchor under any affine map, so the first witness is the one an
    exhaustive enumeration finds.  A tuple is tried in ints on the anchor
    coordinates of the left vertices (solved once per decision): it passes
    when the same combinations of its vertices give the right vertex set.
    Every left vertex lies in the anchor's affine hull, so extending the
    anchor to a basis of the space cannot change these images.  The
    witness is built for the accepted tuple alone, from the elimination
    that gave the coordinates (see _witness).
    """
    if left.dimension != right.dimension:
        raise AffineError("polytopes live in different ambient dimensions")
    if left.affine_dimension != right.affine_dimension:
        return EquivalenceVerdict(False, None, "dimension-mismatch")
    lv, rv = list(left.vertices), list(right.vertices)
    if len(lv) != len(rv):
        return EquivalenceVerdict(False, None, "vertex-count-mismatch")
    (lg, l_den), (rg, r_den) = left._gram, right._gram
    l_rows = [sorted(row) for row in lg]
    r_rows = [sorted(row) for row in rg]
    if l_den != r_den or sorted(l_rows) != sorted(r_rows):
        return EquivalenceVerdict(False, None, "exhausted-correspondences")
    eliminated = _eliminate(lv)
    rows = eliminated.rows
    anchor = eliminated.pivots[: len(eliminated.independent) - 1]
    den = math.lcm(*(row[col] for row, col in zip(rows, anchor)))
    # the non-pivot column of vertex v holds its coordinates c over the
    # anchor, v = a_0 + sum_k c_k (a_k - a_0), row k over its pivot entry
    coordinates = [
        tuple([row[j] * (den // row[col]) for row, col in zip(rows, anchor)])
        for j in range(len(lv) - 1)
        if j not in anchor
    ]
    r_scale, scaled = integer_points(rv)
    target = {tuple([den * x for x in v]) for v in scaled}

    for perm in _anchor_images(eliminated.independent, lg, rg, l_rows, r_rows, []):
        # The candidate has the anchor's G block, so it is independent like
        # the anchor, and the images below are distinct: all of them in
        # target makes a bijection of the vertex sets.
        b0, *others = [scaled[i] for i in perm]
        # coordinate r of an image is den b0_r + sum_k c_k (b_k - b0)_r
        rows = [(den * x, [b[r] - x for b in others]) for r, x in enumerate(b0)]
        images = (tuple([x + sum(map(mul, cs, d)) for x, d in rows]) for cs in coordinates)
        if all(image in target for image in images):
            witness = _witness(eliminated, r_scale, [b0, *others])
            return EquivalenceVerdict(True, witness, "witness-found")
    return EquivalenceVerdict(False, None, "exhausted-correspondences")


@dataclass(frozen=True)
class IsoVerdict:
    """Isomorphism verdict for the barycentric algebras on two polytopes."""

    isomorphic: bool
    witness: Optional[AffineMap]
    reason: str
    rationale: str

    #: Always True, and not a field: the witness commutes with every
    #: operation by construction (see iso_decide).  Kept for old callers.
    homomorphism_exact = True


def iso_decide(
    left: VPolytope,
    right: VPolytope,
    ring: RingSpec,
    samples: int = 25,
    seed: int = 0,
) -> IsoVerdict:
    """Decide isomorphism of the two ring-coefficient barycentric algebras.

    By the paper's theorem, for convex subsets of Q^n and any coefficient
    ring other than Z (a RingSpec always inverts a prime), the barycentric
    algebras are isomorphic exactly when an affine automorphism of Q^n maps
    one set onto the other; over Q this needs neither boundedness nor equal
    dimension.  So the verdict, reason and witness are those of
    affine_equivalence.  The witness restricted to the left polytope is the
    isomorphism: x -> Ax + b commutes with x y p = (1-p)x + py because the
    weights 1-p and p sum to 1, so nothing is left to check.  samples and
    seed are accepted for old callers and unused.
    """
    verdict = affine_equivalence(left, right)
    if verdict.equivalent:
        rationale = (
            "the affine witness restricted to the polytope is an isomorphism of "
            "the barycentric algebras; operations commute with it exactly"
        )
    else:
        rationale = (
            "no invertible affine map carries one polytope onto the other, "
            "so the barycentric algebras cannot be isomorphic"
        )
    return IsoVerdict(verdict.equivalent, verdict.witness, verdict.reason, rationale)


HEXAGON = (
    (Fraction(1), Fraction(0)),
    (Fraction(1), Fraction(1)),
    (Fraction(0), Fraction(1)),
    (Fraction(-1), Fraction(0)),
    (Fraction(-1), Fraction(-1)),
    (Fraction(0), Fraction(-1)),
)


def hexagon_relation_check() -> bool:
    """Centrally symmetric rational hexagon: opposite-vertex midpoints agree
    while every vertex stays outside the hull of the other five.

    Witnesses that hull-independence of a generating set does not make the
    generated algebra free: the relation a0 a3 h = a1 a4 h is forced.
    """
    hexagon = [as_point(v) for v in HEXAGON]
    half = Fraction(1, 2)
    m1 = bary_op(hexagon[0], hexagon[3], half)
    m2 = bary_op(hexagon[1], hexagon[4], half)
    return m1 == m2 and VPolytope(hexagon).vertices == tuple(hexagon)
