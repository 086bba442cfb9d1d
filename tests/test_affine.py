import gc
import itertools
import math
import random
from fractions import Fraction

import pytest

from baryalg import affine as affine_module
from baryalg import hull, linalg
from baryalg.affine import (
    AffineError,
    AffineMap,
    affine_equivalence,
    affine_independent,
    extend_to_basis,
    hexagon_relation_check,
    iso_decide,
    map_from_correspondence,
    max_independent_subset,
)
from baryalg.hull import VPolytope
from baryalg.mode import bary_op
from baryalg.scalar import DYADIC

F = Fraction


def _pts(*coords):
    return [tuple(F(c) for c in pt) for pt in coords]


HEXAGON = _pts((1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1))


def test_affine_independent_examples():
    assert affine_independent(_pts((0, 0), (1, 0), (0, 1)))
    assert not affine_independent(_pts((0,), (1,), (2,)))
    assert not affine_independent(HEXAGON)  # at most 3 of the 6 can be
    assert affine_independent(_pts((4, 5)))
    with pytest.raises(AffineError):
        affine_independent([])
    for helper in (affine_independent, max_independent_subset):
        with pytest.raises(AffineError):
            helper(_pts((0, 0), (1,), (0, 1)))


def test_independence_matches_span_condition():
    # equivalent reading: no point lies in the affine span of the others
    rng = random.Random(2)
    for _ in range(40):
        pts = [
            (F(rng.randint(-3, 3)), F(rng.randint(-3, 3))) for _ in range(3)
        ]
        def in_span(i):
            others = pts[:i] + pts[i + 1 :]
            sub = max_independent_subset(others)
            anchored = [others[j] for j in sub]
            return not affine_independent(anchored + [pts[i]])
        direct = affine_independent(pts)
        assert direct == (not any(in_span(i) for i in range(3)))


def test_max_independent_subset_examples():
    square = _pts((0, 0), (1, 0), (1, 1), (0, 1))
    chosen = max_independent_subset(square)
    assert len(chosen) == 3
    assert affine_independent([square[i] for i in chosen])
    assert max_independent_subset(_pts((0,), (1,), (2,), (3,))) == [0, 1]
    assert max_independent_subset(_pts((5, 5))) == [0]


def test_max_independent_subset_size_is_permutation_invariant():
    rng = random.Random(19)
    for _ in range(30):
        pts = [
            (F(rng.randint(-4, 4)), F(rng.randint(-4, 4)), F(rng.randint(-2, 2)))
            for _ in range(rng.randint(1, 7))
        ]
        size = len(max_independent_subset(pts))
        for _ in range(10):
            shuffled = pts[:]
            rng.shuffle(shuffled)
            assert len(max_independent_subset(shuffled)) == size


def test_extend_to_basis_examples():
    assert extend_to_basis(_pts((0, 0)), 2) == _pts((0, 0), (1, 0), (0, 1))
    basis = _pts((0, 0), (1, 0), (0, 1))
    assert extend_to_basis(basis, 2) == basis
    assert extend_to_basis(_pts((0,), (1,)), 1) == _pts((0,), (1,))
    diagonal = _pts((0, 0), (1, 1))
    extended = extend_to_basis(diagonal, 2)
    assert len(extended) == 3 and affine_independent(extended)
    with pytest.raises(AffineError):
        extend_to_basis(_pts((0,), (1,), (2,)), 1)


def _greedy_subset(pts):
    chosen = [0]
    for i in range(1, len(pts)):
        if affine_independent([pts[j] for j in chosen] + [pts[i]]):
            chosen.append(i)
    return chosen


def _greedy_basis(pts, n):
    out = list(pts)
    for axis in range(n):
        candidate = tuple(c + (1 if j == axis else 0) for j, c in enumerate(pts[0]))
        if len(out) <= n and affine_independent(out + [candidate]):
            out.append(candidate)
    return out


def test_helpers_make_the_greedy_choice():
    # points on a random flat of each dimension 0..n, with repeats
    rng = random.Random(59)
    for case in range(400):
        n = rng.randint(1, 4)
        flat_dim = case % (n + 1)
        directions = [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(flat_dim)]
        origin = [F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)]
        pts = [
            tuple(o + sum((w * d[r] for w, d in zip(weights, directions)), F(0))
                  for r, o in enumerate(origin))
            for weights in ([F(rng.randint(-2, 2)) for _ in directions]
                            for _ in range(rng.randint(1, 6)))
        ]
        pts += [rng.choice(pts) for _ in range(rng.randint(0, 2))]
        rng.shuffle(pts)
        chosen = max_independent_subset(pts)
        assert chosen == _greedy_subset(pts)
        anchor = [pts[i] for i in chosen]
        assert extend_to_basis(anchor, n) == _greedy_basis(anchor, n)
        if len(chosen) < len(pts):
            with pytest.raises(AffineError):
                extend_to_basis(pts, n)


def test_affine_map_validation_and_inverse():
    psi = AffineMap([[2, 1], [0, 1]], [3, -1])
    assert psi.apply((1, 1)) == (6, 0)
    inv = psi.inverse()
    for pt in _pts((0, 0), (2, 5), (-3, 7)):
        assert inv.apply(psi.apply(pt)) == pt
        assert psi.apply(inv.apply(pt)) == pt
    with pytest.raises(AffineError):
        AffineMap([[1, 2], [2, 4]], [0, 0])

    def compose(f, g):  # f after g
        n = f.dimension
        a = [[sum(f.matrix[i][k] * g.matrix[k][j] for k in range(n)) for j in range(n)]
             for i in range(n)]
        return AffineMap(a, f.apply(g.translation))

    rng = random.Random(23)
    dimensions = set()
    for _ in range(60):
        n = rng.randint(1, 4)
        try:
            psi = AffineMap(
                [[F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)],
                [F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n)],
            )
        except AffineError:  # a singular draw
            continue
        dimensions.add(n)
        identity = AffineMap([[int(i == j) for j in range(n)] for i in range(n)], [0] * n)
        inv = psi.inverse()
        assert compose(inv, psi) == identity
        assert compose(psi, inv) == identity
        assert inv.inverse() == psi
    assert dimensions == {1, 2, 3, 4}


def test_affine_map_apply_checks_the_dimension():
    psi = AffineMap([[2, 1], [0, 1]], [3, -1])
    for point in [(1,), (1, 2, 3), ()]:
        with pytest.raises(AffineError):
            psi.apply(point)


def test_map_from_correspondence_examples():
    basis = _pts((0, 0), (1, 0), (0, 1))
    ident = map_from_correspondence(basis, basis)
    assert ident.matrix == ((1, 0), (0, 1))
    assert ident.translation == (0, 0)
    psi = map_from_correspondence(basis, _pts((0, 0), (2, 0), (1, 1)))
    assert psi.matrix == ((2, 1), (0, 1))
    assert psi.translation == (0, 0)
    assert map_from_correspondence(basis, _pts((0, 0), (1, 1), (2, 2))) is None
    with pytest.raises(AffineError):
        map_from_correspondence(_pts((0, 0), (1, 1), (2, 2)), basis)


def test_map_from_correspondence_checks_the_dimension():
    for src, dst in (
        (_pts((0,), (1,)), _pts((0, 5), (1, 7))),
        (TRIANGLE, _pts((0,), (1,), (2,))),
    ):
        with pytest.raises(AffineError, match="different dimensions"):
            map_from_correspondence(src, dst)


def _reference_map_from_correspondence(src, dst):
    """The affine map sending src_i to dst_i, by a Fraction rref: the
    reference for the library's int construction.

    src and dst are n+1 points of Q^n.  A maps the differences of src to
    those of dst, so row-reducing the stacked difference rows [S^T | D^T]
    leaves A^T in the right block when the left block reduces to the
    identity.  None when dst is dependent.
    """
    s = [tuple(F(x) for x in p) for p in src]
    d = [tuple(F(x) for x in p) for p in dst]
    n = len(s[0])
    aug = [
        [s[i + 1][r] - s[0][r] for r in range(n)]
        + [d[i + 1][r] - d[0][r] for r in range(n)]
        for i in range(n)
    ]
    red, pivots, _ = linalg.rref(aug)
    if pivots[:n] != list(range(n)):
        raise AffineError("source points are affinely dependent")
    a = [[red[c][n + r] for c in range(n)] for r in range(n)]
    b = [d[0][r] - sum(a[r][j] * s[0][j] for j in range(n)) for r in range(n)]
    try:
        return AffineMap(a, b)
    except AffineError:
        return None


def _random_flat_points(rng, n, count):
    """count rational points of Q^n; about a third lie on a random
    lower-dimensional flat, and some repeat a point."""
    def rational():
        return F(rng.randint(-6, 6), rng.choice([1, 1, 2, 3, 4, 7]))

    rank = rng.randint(0, n - 1) if n and rng.random() < 1 / 3 else n
    base = [rational() for _ in range(n)]
    directions = [[rational() for _ in range(n)] for _ in range(rank)]
    points = []
    for _ in range(count):
        weights = [rational() for _ in directions]
        points.append(
            tuple(b + sum((w * d[r] for w, d in zip(weights, directions)), F(0))
                  for r, b in enumerate(base))
        )
    if count > 1 and rng.random() < 0.1:
        points[rng.randrange(count)] = rng.choice(points)
    return points


def test_helpers_match_the_fraction_reference():
    rng = random.Random(1968)
    seen = set()
    for case in range(1000):
        n = case % 5
        src = _random_flat_points(rng, n, n + 1)
        dst = _random_flat_points(rng, n, n + 1)
        chosen = max_independent_subset(src)
        assert chosen == _greedy_subset(src)
        anchor = [src[i] for i in chosen]
        assert extend_to_basis(anchor, n) == _greedy_basis(anchor, n)
        try:
            expected = _reference_map_from_correspondence(src, dst)
        except AffineError:
            with pytest.raises(AffineError):
                map_from_correspondence(src, dst)
            seen.add("dependent source")
            continue
        psi = map_from_correspondence(src, dst)
        assert psi == expected
        if psi is None:
            seen.add("dependent target")
            continue
        basis = [tuple(int(i == j) for j in range(n)) for i in range(-1, n)]
        assert psi.inverse() == _reference_map_from_correspondence(
            [psi.apply(x) for x in basis], basis
        )
        seen.add(("map", n))
        seen.add("fractional map" * any(x.denominator > 1 for row in psi.matrix for x in row))
    assert {("map", n) for n in range(5)} | {"dependent source", "dependent target"} <= seen
    assert "fractional map" in seen


def test_affine_helpers_make_no_rref_call(monkeypatch):
    def no_rref(*args):
        raise AssertionError("bases and maps should come from the int elimination")

    monkeypatch.setattr(linalg, "rref", no_rref)
    psi = map_from_correspondence(TRIANGLE, _pts((1, 1), (3, 1), (1, 4)))
    assert psi.matrix == ((2, 0), (0, 3)) and psi.translation == (1, 1)
    assert psi.inverse().apply((3, 1)) == (1, 0)
    assert extend_to_basis(_pts((0, 0), (1, 1)), 2) == _pts((0, 0), (1, 1), (1, 0))
    assert max_independent_subset(HEXAGON) == [0, 1, 2]


def test_map_from_correspondence_random_roundtrip():
    rng = random.Random(31)
    for _ in range(25):
        src = _pts((0, 0), (1, 0), (0, 1))
        dst = [
            (F(rng.randint(-5, 5), 2), F(rng.randint(-5, 5), 2)) for _ in range(3)
        ]
        psi = map_from_correspondence(src, dst)
        if psi is None:
            assert not affine_independent(dst)
            continue
        for s, d in zip(src, dst):
            assert psi.apply(s) == d


UNIT_SQUARE = _pts((0, 0), (1, 0), (1, 1), (0, 1))
PARALLELOGRAM = _pts((0, 0), (2, 0), (3, 1), (1, 1))
TRIANGLE = _pts((0, 0), (1, 0), (0, 1))
TRAPEZOID = _pts((0, 0), (3, 0), (2, 1), (1, 1))


def test_affine_equivalence_square_parallelogram():
    verdict = affine_equivalence(VPolytope(UNIT_SQUARE), VPolytope(PARALLELOGRAM))
    assert verdict.equivalent
    psi = verdict.witness
    assert {psi.apply(v) for v in UNIT_SQUARE} == set(PARALLELOGRAM)
    assert psi.inverse() is not None


def test_affine_equivalence_leaves_no_reference_cycle():
    left, right = VPolytope(UNIT_SQUARE), VPolytope(PARALLELOGRAM)
    gc.collect()
    gc.disable()
    try:
        verdict = affine_equivalence(left, right)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert verdict.equivalent


def test_affine_equivalence_vertex_count_mismatch():
    verdict = affine_equivalence(VPolytope(UNIT_SQUARE), VPolytope(TRIANGLE))
    assert not verdict.equivalent
    assert verdict.reason == "vertex-count-mismatch"


def test_affine_equivalence_dimension_mismatch():
    segment = VPolytope(_pts((0, 0), (1, 1)))
    verdict = affine_equivalence(VPolytope(UNIT_SQUARE), segment)
    assert not verdict.equivalent
    assert verdict.reason == "dimension-mismatch"
    with pytest.raises(AffineError):
        affine_equivalence(VPolytope(_pts((0,), (1,))), VPolytope(UNIT_SQUARE))


def test_affine_equivalence_degenerate_polytopes():
    # one-dimensional polytopes inside the plane still get full-space witnesses
    seg1 = VPolytope(_pts((0, 0), (2, 2)))
    seg2 = VPolytope(_pts((1, 0), (5, 0)))
    verdict = affine_equivalence(seg1, seg2)
    assert verdict.equivalent
    psi = verdict.witness
    assert {psi.apply(v) for v in seg1.vertices} == set(seg2.vertices)
    assert psi.inverse() is not None


def test_affine_equivalence_negative_same_counts():
    # square vs non-parallelogram quadrilateral: same counts, not equivalent
    verdict = affine_equivalence(VPolytope(UNIT_SQUARE), VPolytope(TRAPEZOID))
    assert not verdict.equivalent
    assert verdict.reason == "exhausted-correspondences"


def _random_invertible_map(rng, n):
    while True:
        m = [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        try:
            return AffineMap(m, [F(rng.randint(-4, 4)) for _ in range(n)])
        except AffineError:
            continue


def test_affine_equivalence_roundtrip_random():
    rng = random.Random(41)
    for _ in range(20):
        gens = [
            (F(rng.randint(-4, 4)), F(rng.randint(-4, 4)))
            for _ in range(rng.randint(3, 6))
        ]
        left = VPolytope(gens)
        psi = _random_invertible_map(rng, 2)
        right = VPolytope([psi.apply(g) for g in gens])
        verdict = affine_equivalence(left, right)
        assert verdict.equivalent
        witness = verdict.witness
        assert {witness.apply(v) for v in left.vertices} == set(right.vertices)


def _reference_equivalence(left, right):
    """The unpruned search: every ordered tuple of distinct right-hand
    vertices, in lexicographic order, tried against the anchor.  Its bases
    and maps come from the test references, not from the library's."""
    n = left.dimension
    if left.affine_dimension != right.affine_dimension:
        return False, "dimension-mismatch", None
    lv, rv = list(left.vertices), list(right.vertices)
    if len(lv) != len(rv):
        return False, "vertex-count-mismatch", None
    anchor = [lv[i] for i in _greedy_subset(lv)]
    src_basis = _greedy_basis(anchor, n)
    for perm in itertools.permutations(range(len(rv)), len(anchor)):
        candidate = [rv[i] for i in perm]
        if not affine_independent(candidate):
            continue
        witness = _reference_map_from_correspondence(src_basis, _greedy_basis(candidate, n))
        if witness is not None and {witness.apply(v) for v in lv} == set(rv):
            return True, "witness-found", witness
    return False, "exhausted-correspondences", None


def _random_generators(rng, n):
    """2-6 integer points in R^n; about a third lie in a lower-dimensional
    flat, and some repeat a generator."""
    count = rng.randint(2, 6)
    if n > 1 and rng.random() < 1 / 3:
        low = rng.randint(1, n - 1)
        flat = [
            tuple(F(rng.randint(-4, 4)) for _ in range(low)) + (F(0),) * (n - low)
            for _ in range(count)
        ]
        psi = _random_invertible_map(rng, n)
        gens = [psi.apply(p) for p in flat]
    else:
        gens = [tuple(F(rng.randint(-4, 4)) for _ in range(n)) for _ in range(count)]
    if rng.random() < 0.2:
        gens.append(rng.choice(gens))
    return gens


def _random_rational_map(rng, n):
    """An invertible map with entries over small denominators, so its
    determinant is rarely +-1."""
    while True:
        m = [[F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
        try:
            return AffineMap(m, [F(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(n)])
        except AffineError:
            continue


def _with_inside_point(rng, gens):
    """gens and a combination of all of them with positive weights, which is
    strictly inside their hull when they are not one point."""
    weights = [rng.randint(1, 4) for _ in gens]
    total = sum(weights)
    return gens + [
        tuple(sum((w * g[r] for w, g in zip(weights, gens)), F(0)) / total for r in range(len(gens[0])))
    ]


def _moved(rng, gens):
    """gens with one generator moved: mostly the same counts, not equivalent."""
    gens = list(gens)
    k = rng.randrange(len(gens))
    gens[k] = tuple(c + F(rng.choice((-1, 1)), rng.randint(1, 2)) for c in gens[k])
    return gens


CUBE_4 = [tuple(F(x) for x in p) for p in itertools.product((0, 1), repeat=4)]
CROSS_3 = [tuple(F(s * (i == j)) for j in range(3)) for i in range(3) for s in (1, -1)]


def test_affine_equivalence_matches_unpruned_search():
    rng = random.Random(53)
    pairs = [(pts, pts) for pts in (UNIT_SQUARE, HEXAGON, PARALLELOGRAM)]
    for case in range(300):
        n = rng.randint(1, 3)
        left = _random_generators(rng, n)
        right = list(left)
        if case % 2:  # move one generator: mostly same counts, not equivalent
            k = rng.randrange(len(right))
            right[k] = tuple(c + rng.choice((-1, 1)) for c in right[k])
        psi = _random_invertible_map(rng, n)
        right = [psi.apply(p) for p in right]
        rng.shuffle(right)
        pairs.append((left, right))
    # rational points under rational maps, some with a generator strictly
    # inside the hull, which VPolytope.gram eliminates a second time
    for case in range(120):
        n = rng.randint(1, 3)
        left = [
            tuple(F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n))
            for _ in range(rng.randint(2, 5))
        ]
        if case % 3 == 0:
            left = _with_inside_point(rng, left)
        right = _moved(rng, left) if case % 2 else list(left)
        psi = _random_rational_map(rng, n)
        right = [psi.apply(p) for p in right]
        rng.shuffle(right)
        pairs.append((left, right))
    # point polytopes, and segments, triangles and squares in planes of Q^3
    for n in (1, 2, 3):
        point = [tuple(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n))]
        pairs.append((point, [_random_rational_map(rng, n).apply(point[0])]))
    for flat in (_pts((0, 0, 0), (2, 0, 0)), TRIANGLE, UNIT_SQUARE, TRAPEZOID):
        flat = [p + (F(0),) * (3 - len(p)) for p in flat]
        left = [_random_rational_map(rng, 3).apply(p) for p in _with_inside_point(rng, flat)]
        for right in (flat, _moved(rng, flat)):
            psi = _random_rational_map(rng, 3)
            pairs.append((left, [psi.apply(p) for p in right]))
    # larger shapes against their images
    for shape in (CUBE_4, CROSS_3, HEXAGON):
        psi = _random_rational_map(rng, len(shape[0]))
        pairs.append((shape, [psi.apply(p) for p in shape]))
        pairs.append((shape, [psi.apply(p) for p in reversed(shape)]))
    # segments along different axes, and the one point of Q^0
    pairs.append((_pts((0, 0), (2, 0)), _pts((1, 0), (1, 3))))
    pairs.append(([()], [()]))

    seen = set()
    for left, right in pairs:
        lp, rp = VPolytope(left), VPolytope(right)
        verdict = affine_equivalence(lp, rp)
        equivalent, reason, witness = _reference_equivalence(VPolytope(left), VPolytope(right))
        assert (verdict.equivalent, verdict.reason) == (equivalent, reason)
        assert verdict.witness == witness
        for p in (lp, rp):
            seen.add("inside point" * (len(p.vertices) < len(set(p.generators))))
            seen.add("point" * (p.affine_dimension == 0))
            seen.add("flat in Q^3" * (p.dimension == 3 and 0 < p.affine_dimension < 3))
        if equivalent:
            # G in lowest terms is what makes these equal: unreduced, the two
            # sides of some equivalent pair are over different denominators
            _, l_den, _ = hull._projection(list(lp.vertices))
            _, r_den, _ = hull._projection(list(rp.vertices))
            seen.add("raw dens differ" * (l_den != r_den))
            seen.add("det != +-1" * (abs(_determinant(witness.matrix)) != 1))
            # the axes each side's basis adds, as offsets of its first point
            vertices = list(lp.vertices)
            anchor = [vertices[i] for i in max_independent_subset(vertices)]
            axes = []
            for q in (anchor, [witness.apply(a) for a in anchor]):
                added = extend_to_basis(q, lp.dimension)[len(q) :]
                axes.append([tuple(x - y for x, y in zip(p, q[0])) for p in added])
            seen.add("extension axes differ" * (axes[0] != axes[1]))
    assert {
        "inside point",
        "point",
        "flat in Q^3",
        "raw dens differ",
        "det != +-1",
        "extension axes differ",
    } <= seen


def _determinant(matrix):
    """Leibniz's formula: the sum over permutations of signed products."""
    n = len(matrix)
    return sum(
        (-1) ** sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        * math.prod(matrix[i][j] for i, j in enumerate(perm))
        for perm in itertools.permutations(range(n))
    )


def test_parabola_pairs_are_decided_without_solving(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("the decision should need no solve_affine call")

    calls = []

    def recording(name, function):
        def wrapper(*args):
            calls.append(name)
            return function(*args)

        return wrapper

    parabola = VPolytope([(F(t), F(t * t)) for t in range(16)])
    shifted = VPolytope([(F(t), F(t * t)) for t in [*range(15), 16]])
    image = VPolytope([(F(2 * t + 1), F(t * t - t)) for t in range(16)])
    # segments along different axes: each side's basis adds a different axis
    across = VPolytope(_pts((0, 0), (2, 0)))
    upright = VPolytope(_pts((1, 0), (1, 3)))
    for polytope in (parabola, shifted, image, across, upright):
        polytope._gram  # the vertices and G, which eliminate in hull
    monkeypatch.setattr(linalg, "solve_affine", no_solve)
    for name in ("map_from_correspondence", "extend_to_basis"):
        monkeypatch.setattr(affine_module, name, recording(name, getattr(affine_module, name)))
    for name in ("rref", "_gauss_jordan"):
        monkeypatch.setattr(linalg, name, recording(name, getattr(linalg, name)))
    monkeypatch.setattr(AffineMap, "apply", recording("apply", AffineMap.apply))
    verdict = affine_equivalence(parabola, shifted)
    assert verdict.reason == "exhausted-correspondences"
    assert calls == []
    curve = affine_equivalence(parabola, image)
    # the anchor elimination, and AffineMap's rank check of the witness: no
    # basis, solve or map from a correspondence, and the search applies no map
    assert calls == ["_gauss_jordan", "_gauss_jordan"]
    calls.clear()
    segment = affine_equivalence(across, upright)
    # one more elimination, for the candidate's extension axes
    assert calls == ["_gauss_jordan"] * 3
    monkeypatch.undo()
    for verdict, (left, right) in ((curve, (parabola, image)), (segment, (across, upright))):
        assert {verdict.witness.apply(v) for v in left.vertices} == set(right.vertices)


def _gram(points):
    """The projection G of the points (hull._projection), as Fractions."""
    numerators, den, _ = hull._projection(points)
    return [[F(x, den) for x in row] for row in numerators]


def test_gram_invariant():
    rng = random.Random(67)
    shapes = [
        _pts((0,), (3,)),
        _pts((1, 1), (3, 2)),  # a segment in the plane
        UNIT_SQUARE,
        HEXAGON,
        _pts((0, 0, 0), (1, 0, 0), (0, 1, 0)),  # a triangle in R^3
        _pts((0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1)),  # a square in R^3
        _pts((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)),
    ]
    for pts in shapes:
        m = len(pts)
        g = _gram(pts)
        assert all(g[i][j] == g[j][i] for i in range(m) for j in range(m))
        assert [[sum(g[i][t] * g[t][j] for t in range(m)) for j in range(m)] for i in range(m)] == g
        assert all(sum(row) == 0 for row in g)
        assert sum(g[i][i] for i in range(m)) == VPolytope(pts).affine_dimension
        for _ in range(5):
            psi = _random_invertible_map(rng, len(pts[0]))
            order = list(range(m))
            rng.shuffle(order)
            h = _gram([psi.apply(pts[k]) for k in order])
            assert all(h[i][j] == g[order[i]][order[j]] for i in range(m) for j in range(m))
    square_rows = sorted(sorted(row) for row in _gram(UNIT_SQUARE))
    assert square_rows != sorted(sorted(row) for row in _gram(TRAPEZOID))


def _reference_gram(vertices):
    """_gram in Fractions, through rref: the reference for the integer version."""
    m, n = len(vertices), len(vertices[0])
    centroid = [sum((v[r] for v in vertices), F(0)) / m for r in range(n)]
    centred = [[v[r] - centroid[r] for v in vertices] for r in range(n)]
    red, _, rk = linalg.rref(centred)
    basis = red[:rk]
    aug = [[sum((x * y for x, y in zip(bi, bj)), F(0)) for bj in basis] + bi for bi in basis]
    solved = [row[rk:] for row in linalg.rref(aug)[0]]
    return [
        [sum((basis[k][i] * solved[k][j] for k in range(rk)), F(0)) for j in range(m)]
        for i in range(m)
    ]


def _random_point_set(rng):
    """Points base + sum c_k d_k over at most n random directions, some repeated."""
    n = rng.randint(1, 4)
    rk = rng.randint(0, n)

    def rational():
        return F(rng.randint(-9, 9), rng.choice([1, 2, 3, 4, 5, 7, 12]))

    base = [rational() for _ in range(n)]
    directions = [[rational() for _ in range(n)] for _ in range(rk)]
    points = []
    for _ in range(rng.randint(rk + 1, rk + 4)):
        coeffs = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in directions]
        offset = [sum((c * d[r] for c, d in zip(coeffs, directions)), F(0)) for r in range(n)]
        points.append(tuple(b + x for b, x in zip(base, offset)))
    if rng.random() < 0.3:
        points.insert(rng.randrange(len(points) + 1), rng.choice(points))
    return points


def test_gram_matches_fraction_reference(monkeypatch):
    recorded = []
    kernel = linalg._gauss_jordan

    def recording(rows):
        pivots = kernel(rows)
        recorded.append(rows)
        return pivots

    monkeypatch.setattr(linalg, "_gauss_jordan", recording)
    rng = random.Random(1968)
    seen = set()
    for _ in range(1000):
        points = _random_point_set(rng)
        g = _gram(points)
        assert g == _reference_gram(points)
        assert all(type(x) is F for row in g for x in row)
        polytope = VPolytope(points)
        assert polytope.gram == _reference_gram(list(polytope.vertices))
        seen.add((len(points[0]), sum(g[i][i] for i in range(len(points)))))
        seen.add("repeated points" * (len(set(points)) < len(points)))
        denominators = {x.denominator for p in points for x in p} - {1}
        seen.add("mixed denominators" * (len(denominators) > 1))
    assert {(n, rk) for n in range(1, 5) for rk in range(n + 1)} <= seen
    assert {"repeated points", "mixed denominators"} <= seen
    assert all(type(x) is int for rows in recorded for row in rows for x in row)


def test_iso_decide_segments():
    verdict = iso_decide(
        VPolytope(_pts((0,), (1,))), VPolytope(_pts((0,), (3,))), DYADIC, seed=1
    )
    assert verdict.isomorphic
    assert verdict.homomorphism_exact
    assert verdict.witness.apply((F(1, 2),)) == (F(3, 2),)


def test_iso_decide_negative():
    verdict = iso_decide(VPolytope(UNIT_SQUARE), VPolytope(TRIANGLE), DYADIC, seed=1)
    assert not verdict.isomorphic
    assert verdict.witness is None
    assert verdict.reason == "vertex-count-mismatch"


def test_iso_decide_triangles():
    verdict = iso_decide(
        VPolytope(TRIANGLE),
        VPolytope(_pts((0, 0), (2, 0), (1, 3))),
        DYADIC,
        samples=50,
        seed=3,
    )
    assert verdict.isomorphic
    assert verdict.homomorphism_exact


def test_witness_is_homomorphism_for_all_params():
    verdict = affine_equivalence(VPolytope(UNIT_SQUARE), VPolytope(PARALLELOGRAM))
    psi = verdict.witness
    rng = random.Random(12)
    for _ in range(100):
        x = (F(rng.randint(-6, 6), 3), F(rng.randint(-6, 6), 3))
        y = (F(rng.randint(-6, 6), 3), F(rng.randint(-6, 6), 3))
        p = F(rng.randint(-4, 9), 8)
        assert psi.apply(bary_op(x, y, p)) == bary_op(psi.apply(x), psi.apply(y), p)


def test_hexagon_relation_check():
    assert hexagon_relation_check()
    # perturbing one vertex breaks the shared-midpoint relation
    bent = list(HEXAGON)
    bent[3] = (F(-2), F(0))
    m1 = bary_op(bent[0], bent[3], F(1, 2))
    m2 = bary_op(bent[1], bent[4], F(1, 2))
    assert m1 != m2
