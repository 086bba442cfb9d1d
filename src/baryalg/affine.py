"""Affine independence, invertible affine maps, and polytope equivalence.

Two bounded rational V-polytopes are affinely equivalent exactly when some
invertible map x -> Ax + b carries one onto the other; because such maps
preserve convex combinations in both directions, this is decided on vertex
sets: fix an affinely independent tuple of vertices on the left, enumerate
independent ordered tuples on the right, and accept the induced map iff it
bijects the vertex sets.  The same witness, restricted to the polytope, is
an isomorphism of the associated barycentric algebras for any coefficient
ring, which the decision procedure additionally spot-checks.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import linalg
from .hull import VPolytope, hull_member_Q
from .mode import Point, as_point, bary_op
from .scalar import RingSpec, smallest_inverted_prime


class AffineError(ValueError):
    pass


@dataclass(frozen=True)
class AffineMap:
    """An invertible affine transformation x -> Ax + b of rational space."""

    matrix: tuple[tuple[Fraction, ...], ...]
    translation: tuple[Fraction, ...]

    def __init__(self, matrix: Sequence[Sequence], translation: Sequence):
        m = tuple(tuple(Fraction(x) for x in row) for row in matrix)
        t = tuple(Fraction(x) for x in translation)
        n = len(t)
        if len(m) != n or any(len(row) != n for row in m):
            raise AffineError("matrix must be square and match the translation")
        if linalg.determinant([list(row) for row in m]) == 0:
            raise AffineError("matrix must be invertible")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "translation", t)

    @property
    def dimension(self) -> int:
        return len(self.translation)

    def apply(self, point: Sequence) -> Point:
        x = as_point(point)
        return tuple(
            sum((row[j] * x[j] for j in range(len(x))), Fraction(0)) + t
            for row, t in zip(self.matrix, self.translation)
        )

    def inverse(self) -> "AffineMap":
        n = self.dimension
        aug = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(self.matrix)]
        red, _, r = linalg.rref(aug)
        if r != n:
            raise AffineError("the linear part is singular; the map has no inverse")
        inv = [row[n:] for row in red]
        shift = [-sum(inv[i][j] * self.translation[j] for j in range(n)) for i in range(n)]
        return AffineMap(inv, shift)


def _difference_matrix(points: list[Point]) -> list[list[Fraction]]:
    base = points[0]
    return [[c - b for c, b in zip(q, base)] for q in points[1:]]


def affine_independent(points: Sequence[Sequence]) -> bool:
    """True iff the difference vectors from the first point are independent."""
    pts = [as_point(q) for q in points]
    if not pts:
        raise AffineError("empty point list")
    diffs = _difference_matrix(pts)
    return linalg.rank(diffs) == len(diffs)


def max_independent_subset(points: Sequence[Sequence]) -> list[int]:
    """Greedy maximal affinely independent sub-list, in input order.

    All maximal independent subsets of a set share one size (one more than
    the affine dimension), so the greedy result has canonical length.
    """
    pts = [as_point(q) for q in points]
    if not pts:
        raise AffineError("empty point list")
    chosen = [0]
    for i in range(1, len(pts)):
        candidate = [pts[j] for j in chosen] + [pts[i]]
        if affine_independent(candidate):
            chosen.append(i)
    return chosen


def extend_to_basis(points: Sequence[Sequence], dimension: int) -> list[Point]:
    """Extend an independent list to an affine basis of the ambient space,
    using offsets of the first point by standard basis vectors."""
    pts = [as_point(q) for q in points]
    if not affine_independent(pts):
        raise AffineError("input points are affinely dependent")
    if any(len(q) != dimension for q in pts):
        raise AffineError("points do not live in the requested dimension")
    base = pts[0]
    out = list(pts)
    for axis in range(dimension):
        if len(out) == dimension + 1:
            break
        candidate = tuple(
            c + (1 if j == axis else 0) for j, c in enumerate(base)
        )
        if affine_independent(out + [candidate]):
            out.append(candidate)
    if len(out) != dimension + 1:
        raise AffineError(f"no affine basis of dimension {dimension} extends the points")
    return out


def map_from_correspondence(
    src: Sequence[Sequence], dst: Sequence[Sequence]
) -> Optional[AffineMap]:
    """The unique affine map sending src_i to dst_i.

    src must be an affinely independent basis of n+1 points; the map is
    invertible iff dst is also independent, and None reports the
    non-invertible case.
    """
    s = [as_point(q) for q in src]
    d = [as_point(q) for q in dst]
    n = len(s[0])
    if len(s) != n + 1 or len(d) != n + 1:
        raise AffineError(f"need exactly {n + 1} source and target points")
    if not affine_independent(s):
        raise AffineError("source points are affinely dependent")
    if not affine_independent(d):
        return None
    # A maps difference vectors of src to those of dst: row-reducing the
    # stacked difference rows [S^T | D^T] leaves A^T in the right block.
    aug = [
        [s[i + 1][r] - s[0][r] for r in range(n)]
        + [d[i + 1][r] - d[0][r] for r in range(n)]
        for i in range(n)
    ]
    red, _, rk = linalg.rref(aug)
    if rk != n:
        raise AffineError("source difference vectors are dependent")
    a = [[red[c][n + r] for c in range(n)] for r in range(n)]
    b = [d[0][r] - sum(a[r][j] * s[0][j] for j in range(n)) for r in range(n)]
    return AffineMap(a, b)


@dataclass(frozen=True)
class EquivalenceVerdict:
    equivalent: bool
    witness: Optional[AffineMap]
    reason: str


def _barycentric_signature(tuple_pts: list[Point], vertices: Sequence[Point]):
    """Per-coordinate counts of vertex barycentric signs against a tuple.

    Affine maps preserve barycentric coordinates, so matching signatures is
    necessary for a tuple to correspond under any witness.
    """
    k = len(tuple_pts) - 1
    dim = len(tuple_pts[0])
    rows = [[tuple_pts[j][coord] for j in range(k + 1)] for coord in range(dim)]
    rows.append([Fraction(1)] * (k + 1))
    signature = []
    for vert in vertices:
        solved = linalg.solve_affine(rows, list(vert) + [Fraction(1)])
        if solved is None:
            return None  # vertex outside the span; cannot happen for spanning tuples
        coords = solved[0]
        signature.append(tuple((c > 0) - (c < 0) for c in coords))
    counts = []
    for j in range(k + 1):
        neg = sum(1 for s in signature if s[j] < 0)
        zero = sum(1 for s in signature if s[j] == 0)
        pos = sum(1 for s in signature if s[j] > 0)
        counts.append((neg, zero, pos))
    return tuple(counts)


def affine_equivalence(left: VPolytope, right: VPolytope) -> EquivalenceVerdict:
    """Decide whether an invertible affine map carries left onto right.

    Equal affine dimension and equal vertex counts are necessary; a witness
    is then searched by anchoring one independent vertex tuple on the left
    and enumerating ordered independent tuples on the right, in lexicographic
    order so the first witness is reproducible.
    """
    if left.dimension != right.dimension:
        raise AffineError("polytopes live in different ambient dimensions")
    n = left.dimension
    if left.affine_dimension != right.affine_dimension:
        return EquivalenceVerdict(False, None, "dimension-mismatch")
    lv, rv = list(left.vertices), list(right.vertices)
    if len(lv) != len(rv):
        return EquivalenceVerdict(False, None, "vertex-count-mismatch")
    anchor_idx = max_independent_subset(lv)
    anchor = [lv[i] for i in anchor_idx]
    k = len(anchor) - 1
    anchor_sig = _barycentric_signature(anchor, lv)
    src_basis = extend_to_basis(anchor, n)
    for perm in itertools.permutations(range(len(rv)), k + 1):
        candidate = [rv[i] for i in perm]
        if not affine_independent(candidate):
            continue
        if _barycentric_signature(candidate, rv) != anchor_sig:
            continue
        dst_basis = extend_to_basis(candidate, n)
        witness = map_from_correspondence(src_basis, dst_basis)
        if witness is None:
            continue
        image = {witness.apply(vert) for vert in lv}
        if image == set(rv):
            return EquivalenceVerdict(True, witness, "witness-found")
    return EquivalenceVerdict(False, None, "exhausted-correspondences")


@dataclass(frozen=True)
class IsoVerdict:
    """Isomorphism verdict for the barycentric algebras on two polytopes."""

    isomorphic: bool
    witness: Optional[AffineMap]
    reason: str
    rationale: str
    homomorphism_samples: int
    homomorphism_exact: bool


def _random_hull_point(rng: random.Random, polytope: VPolytope) -> Point:
    gens = polytope.generators
    weights = [Fraction(rng.randint(0, 8)) for _ in gens]
    total = sum(weights)
    if total == 0:
        return gens[0]
    weights = [w / total for w in weights]
    dim = polytope.dimension
    return tuple(
        sum((w * g[i] for w, g in zip(weights, gens)), Fraction(0)) for i in range(dim)
    )


def iso_decide(
    left: VPolytope,
    right: VPolytope,
    ring: RingSpec,
    samples: int = 25,
    seed: int = 0,
) -> IsoVerdict:
    """Decide isomorphism of the two ring-coefficient barycentric algebras.

    Over the rationals this coincides with affine equivalence of the
    polytopes, and the witness map restricted to the left polytope is the
    isomorphism.  The witness is additionally spot-checked to commute with
    the barycentric operations exactly on random samples.
    """
    verdict = affine_equivalence(left, right)
    if not verdict.equivalent:
        return IsoVerdict(
            False,
            None,
            verdict.reason,
            "no invertible affine map carries one polytope onto the other, "
            "so the barycentric algebras cannot be isomorphic",
            0,
            True,
        )
    rng = random.Random(seed)
    psi = verdict.witness
    p = smallest_inverted_prime(ring)
    exact = True
    for _ in range(samples):
        x = _random_hull_point(rng, left)
        y = _random_hull_point(rng, left)
        exp = rng.randint(1, 3)
        num = rng.randint(1, p**exp - 1)
        param = Fraction(num, p**exp)
        if psi.apply(bary_op(x, y, param)) != bary_op(psi.apply(x), psi.apply(y), param):
            exact = False
            break
    return IsoVerdict(
        True,
        psi,
        verdict.reason,
        "the affine witness restricted to the polytope is an isomorphism of "
        "the barycentric algebras; operations commute with it exactly",
        samples,
        exact,
    )


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
    if m1 != m2:
        return False
    for i, vert in enumerate(hexagon):
        others = hexagon[:i] + hexagon[i + 1 :]
        if hull_member_Q(vert, others) is not None:
            return False
    return True
