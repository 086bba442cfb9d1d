import itertools
import math
import random
import time
from dataclasses import replace
from fractions import Fraction

import pytest

from baryalg import hull, linalg
from baryalg.affine import HEXAGON
from baryalg.hull import (
    HullError,
    TSegment,
    VPolytope,
    caratheodory,
    check_convexity_report,
    hull_member_Q,
    hull_member_T,
    membership_report_Q,
    membership_report_T,
    q_convexity_probe,
    ring_lines_through,
    segment_closure_bounded,
    t_segment_points,
)
from baryalg.linalg import rank
from baryalg.mode import Leaf, Node, bary_op, eval_term
from baryalg.scalar import (
    DYADIC,
    RingSpec,
    integer_row,
    prime_valuation,
    ring_contains,
    s_free_part,
    smallest_inverted_prime,
)

F = Fraction


def _points(*coords):
    return [tuple(F(c) for c in pt) for pt in coords]


def _membership_constraints(d, points):
    """The membership system as LinearConstraints, in hull._membership_system's
    order: one equality per coordinate, sum(xi) == 1, then xi_j >= 0 for each j."""
    m = len(points)
    rows = [
        linalg.LinearConstraint([p[coord] for p in points], "==", d[coord])
        for coord in range(len(d))
    ]
    rows.append(linalg.LinearConstraint([1] * m, "==", 1))
    rows += [linalg.LinearConstraint([int(i == j) for i in range(m)], ">=", 0) for j in range(m)]
    return rows


def _combination_evaluates(combo, points, target):
    assert combo.evaluate(points) == tuple(F(c) for c in target)
    total = sum((c for _, c in combo.support), F(0))
    assert total == 1
    assert all(c > 0 for _, c in combo.support)


def test_hull_member_Q_examples():
    combo = hull_member_Q([1], _points([0], [3]))
    assert combo is not None
    assert combo.coefficient_vector(2) == [F(2, 3), F(1, 3)]
    assert hull_member_Q([4], _points([0], [3])) is None
    square = _points([0, 0], [1, 0], [1, 1], [0, 1])
    combo = hull_member_Q([F(1, 2), F(1, 2)], square)
    assert combo is not None
    _combination_evaluates(combo, square, (F(1, 2), F(1, 2)))


def test_hull_member_T_examples():
    assert hull_member_T([1], _points([0], [3]), DYADIC) is None
    combo = hull_member_T([F(3, 2)], _points([0], [3]), DYADIC)
    assert combo is not None
    assert combo.coefficient_vector(2) == [F(1, 2), F(1, 2)]
    combo = hull_member_T([1], _points([0], [F(1, 2)], [3]), DYADIC)
    assert combo is not None
    xi = combo.coefficient_vector(3)
    assert all(ring_contains(c, DYADIC) for c in xi)
    _combination_evaluates(combo, _points([0], [F(1, 2)], [3]), (1,))


def test_hull_member_T_reports():
    report = membership_report_T([1], _points([0], [3]), DYADIC)
    assert not report.member
    assert report.reason == "unique-rational-point-not-in-ring"
    assert report.rational_point == (F(2, 3), F(1, 3))
    report = membership_report_T([4], _points([0], [3]), DYADIC)
    assert report.reason == "rational-hull-infeasible"
    assert report.certificate is not None


def test_hull_member_T_affine_hull_obstruction():
    # inside the rational hull, off the unique rational solution, and the
    # affine hull of coefficients carries no ring point: x = 1/3 over {0, 1}
    report = membership_report_T([F(1, 3)], _points([0], [1]), DYADIC)
    assert not report.member
    assert report.reason == "unique-rational-point-not-in-ring"
    # with a redundant generator the coefficient polytope becomes a segment
    # whose affine hull still has dyadic points
    combo = hull_member_T([F(1, 2)], _points([0], [1], [1]), DYADIC)
    assert combo is not None
    # a segment-shaped coefficient polytope whose affine hull pins one
    # coefficient to 1/3: no dyadic point exists anywhere on the hull
    report = membership_report_T(
        (F(1, 3), F(1, 2)), _points([0, 0], [1, 0], [0, 1], [0, 2]), DYADIC
    )
    assert not report.member
    assert report.reason == "no-ring-point-on-affine-hull"


def _enumerate_ring_witness(d, points, power):
    """Brute-force oracle: coefficients with denominator dividing 2**power."""
    den = 2**power
    m = len(points)
    dim = len(points[0])
    for split in itertools.combinations(range(den + m - 1), m - 1):
        parts = []
        prev = -1
        for s in split + (den + m - 1,):
            parts.append(s - prev - 1)
            prev = s
        xi = [F(k, den) for k in parts]
        if sum(xi) != 1:
            continue
        value = tuple(
            sum((xi[i] * points[i][j] for i in range(m)), F(0)) for j in range(dim)
        )
        if value == d:
            return xi
    return None


def test_hull_member_T_agrees_with_enumeration():
    rng = random.Random(13)
    for _ in range(60):
        dim = rng.randint(1, 2)
        m = rng.randint(1, 4)
        points = [
            tuple(F(rng.randint(-3, 3), rng.choice([1, 2, 4])) for _ in range(dim))
            for _ in range(m)
        ]
        if rng.random() < 0.7:
            oracle_xi = [F(rng.randint(0, 8), 8) for _ in range(m)]
            total = sum(oracle_xi)
            if total == 0:
                continue
            oracle_xi = [c / total for c in oracle_xi]
            d = tuple(
                sum((oracle_xi[i] * points[i][j] for i in range(m)), F(0))
                for j in range(dim)
            )
        else:
            d = tuple(F(rng.randint(-3, 3), rng.choice([1, 3])) for _ in range(dim))
        decision = hull_member_T(d, points, DYADIC)
        found = _enumerate_ring_witness(d, points, 4)
        if found is not None:
            assert decision is not None
        if decision is None:
            for power in range(5):
                assert _enumerate_ring_witness(d, points, power) is None
        else:
            xi = decision.coefficient_vector(m)
            assert all(ring_contains(c, DYADIC) for c in xi)
            assert all(0 <= c <= 1 for c in xi)
            value = tuple(
                sum((xi[i] * points[i][j] for i in range(m)), F(0))
                for j in range(dim)
            )
            assert value == d


def test_hull_member_T_implies_Q():
    rng = random.Random(3)
    ring = RingSpec([2, 5])
    for _ in range(25):
        points = [
            (F(rng.randint(-4, 4)), F(rng.randint(-4, 4))) for _ in range(3)
        ]
        d = (F(rng.randint(-4, 4), 2), F(rng.randint(-4, 4), 2))
        if hull_member_T(d, points, ring) is not None:
            assert hull_member_Q(d, points) is not None


def _affinely_independent(points):
    base = points[0]
    diffs = [[c - b for c, b in zip(p, base)] for p in points[1:]]
    return rank(diffs) == len(diffs)


def test_caratheodory_examples():
    square = _points([0, 0], [1, 0], [1, 1], [0, 1])
    indices, coeffs = caratheodory([F(1, 2), F(1, 2)], square)
    assert len(indices) <= 3
    support = [square[i] for i in indices]
    assert _affinely_independent(support)
    assert sum(coeffs) == 1 and all(c > 0 for c in coeffs)
    recombined = tuple(
        sum((coeffs[k] * support[k][j] for k in range(len(support))), F(0))
        for j in range(2)
    )
    assert recombined == (F(1, 2), F(1, 2))

    indices, coeffs = caratheodory([3], _points([0], [3], [5]))
    assert indices == [1] and coeffs == [F(1)]

    indices, coeffs = caratheodory([1], _points([0], [3], [5]))
    assert len(indices) <= 2

    with pytest.raises(HullError):
        caratheodory([9], _points([0], [3]))


def test_caratheodory_contract_random():
    rng = random.Random(21)
    for _ in range(60):
        dim = rng.randint(1, 3)
        m = rng.randint(1, 6)
        points = [
            tuple(F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(dim))
            for _ in range(m)
        ]
        weights = [F(rng.randint(0, 6)) for _ in range(m)]
        if sum(weights) == 0:
            continue
        weights = [w / sum(weights) for w in weights]
        d = tuple(
            sum((weights[i] * points[i][j] for i in range(m)), F(0))
            for j in range(dim)
        )
        indices, coeffs = caratheodory(d, points)
        assert len(indices) <= dim + 1
        assert len(set(indices)) == len(indices)
        support = [points[i] for i in indices]
        assert _affinely_independent(support)
        assert sum(coeffs) == 1 and all(c > 0 for c in coeffs)
        recombined = tuple(
            sum((coeffs[k] * support[k][j] for k in range(len(support))), F(0))
            for j in range(dim)
        )
        assert recombined == d


def _flat_instance(rng):
    """Points with repeats, sometimes on a lower-dimensional flat, and a
    convex combination of them."""
    dim = rng.randint(1, 3)
    flat = rng.randint(0, dim)
    pool = [
        tuple(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(flat))
        for _ in range(rng.randint(1, 5))
    ]
    embed = [[F(rng.randint(-2, 2)) for _ in range(flat)] for _ in range(dim)]
    shift = [F(rng.randint(-3, 3), 2) for _ in range(dim)]
    points = [
        tuple(sum((r[k] * q[k] for k in range(flat)), s) for r, s in zip(embed, shift))
        for q in (rng.choice(pool) for _ in range(rng.randint(1, 8)))
    ]
    weights = [F(rng.randint(0, 4)) for _ in points]
    weights[rng.randrange(len(points))] += 1
    total = sum(weights)
    d = tuple(
        sum((w / total * p[j] for w, p in zip(weights, points)), F(0))
        for j in range(dim)
    )
    return d, points


def test_membership_Q_support_is_affinely_independent():
    # the simplex stops at a basic solution, so its support is independent
    # even when generators repeat or span only a flat
    rng = random.Random(5)
    for _ in range(320):
        d, points = _flat_instance(rng)
        combo = membership_report_Q(d, points).combination
        assert combo is not None
        _combination_evaluates(combo, points, d)
        assert _affinely_independent([points[i] for i, _ in combo.support])


def test_caratheodory_makes_no_solve_affine_call(monkeypatch):
    def forbidden(*args):
        raise AssertionError("caratheodory solved an affine system")

    monkeypatch.setattr(linalg, "solve_affine", forbidden)
    rng = random.Random(6)
    for _ in range(40):
        d, points = _flat_instance(rng)
        indices, coeffs = caratheodory(d, points)
        assert _affinely_independent([points[i] for i in indices])
        assert sum(coeffs) == 1


def test_membership_report_T_makes_one_smith_normal_form_and_no_dense_solve(monkeypatch):
    calls = []
    snf = linalg.smith_normal_form

    def counted(*args):
        calls.append(args)
        return snf(*args)

    def forbidden(*args):
        raise AssertionError("membership_report_T called the dense solve_affine")

    monkeypatch.setattr(linalg, "solve_affine", forbidden)
    monkeypatch.setattr(linalg, "smith_normal_form", counted)
    rng = random.Random(7)
    reasons = set()
    for _ in range(40):
        d, points = _flat_instance(rng)
        calls.clear()
        reasons.add(membership_report_T(d, points, DYADIC).reason)
        assert len(calls) == 1
    assert {"ring-combination", "unique-ring-combination"} <= reasons
    # an infeasible query stops at the interior point, before the SNF
    calls.clear()
    assert membership_report_T([4], _points([0], [3]), DYADIC).reason == "rational-hull-infeasible"
    assert calls == []


def test_membership_report_T_builds_one_tableau(monkeypatch):
    """One tableau and one phase 1 per query; the relative interior takes one
    phase-2 round (a _minimize call after phase 1's) when no coefficient is
    forced to 0, and at most |J| + 1 when the coefficients of J are."""
    counts = {"built": 0, "phase1": 0, "minimize": 0}

    class Counted(linalg._Simplex):
        def __init__(self, *args):
            super().__init__(*args)
            counts["built"] += 1

        def phase1(self):
            counts["phase1"] += 1
            return super().phase1()

        def _minimize(self, *args):
            counts["minimize"] += 1
            return super()._minimize(*args)

    def forbidden(*args, **kwargs):
        raise AssertionError("membership_report_T solved a separate LP")

    def query(d, points):
        counts.update(built=0, phase1=0, minimize=0)
        report = membership_report_T(d, points, DYADIC)
        assert (counts["built"], counts["phase1"]) == (1, 1)
        return report, counts["minimize"] - 1

    monkeypatch.setattr(linalg, "_Simplex", Counted)
    monkeypatch.setattr(linalg, "lp_extremum", forbidden)
    monkeypatch.setattr(linalg, "lp_feasible", forbidden)
    cases = [
        ([F(3, 2)], _points([0], [3]), "unique-ring-combination"),
        ([1], _points([0], [F(1, 2)], [3]), "ring-combination"),
        ([F(1, 2)], _points([0], [1], [1]), "ring-combination"),
        ([4], _points([0], [3]), "rational-hull-infeasible"),
        ([1], _points([0], [3]), "unique-rational-point-not-in-ring"),
        (
            (F(1, 3), F(1, 2)),
            _points([0, 0], [1, 0], [0, 1], [0, 2]),
            "no-ring-point-on-affine-hull",
        ),
    ]
    for d, points, reason in cases:
        report, rounds = query(d, points)
        assert report.reason == reason
        assert rounds == (0 if reason == "rational-hull-infeasible" else 1)
        if reason == "rational-hull-infeasible":
            constraints = _membership_constraints(tuple(d), points)
            assert linalg.verify_farkas_certificate(constraints, report.certificate)
    # n = 6, m = 200: positive weights make d interior, so J is empty
    rng = random.Random(31)
    points = [tuple(F(rng.randint(-50, 50)) for _ in range(6)) for _ in range(200)]
    weights = [rng.randint(1, 9) for _ in points]
    d = tuple(
        sum(w * p[j] for w, p in zip(weights, points)) / sum(weights) for j in range(6)
    )
    report, rounds = query(d, points)
    assert report.reason == "no-ring-point-on-affine-hull"
    assert rounds == 1
    # a vertex: points[0] alone reaches first coordinate 60, so J holds
    # every other coefficient
    points[0] = (F(60),) + points[0][1:]
    report, rounds = query(points[0], points)
    assert report.combination.support == ((0, 1),)
    implicit = len(points) - 1
    assert rounds <= implicit + 1


def _membership_instances(rng):
    """(kind, d, points) in dims 1-3 with 1-10 points, drawn from a small pool
    so that points repeat, with zero coordinates and mixed denominators.  d
    is a convex combination of the points, one of them, or beyond their
    largest first coordinate, in turn."""
    for k in itertools.count():
        dim, m = rng.randint(1, 3), rng.randint(1, 10)
        pool = [
            tuple(
                F(rng.choice([0, 0, rng.randint(-6, 6)]), rng.choice([1, 2, 3, 7, 12]))
                for _ in range(dim)
            )
            for _ in range(rng.randint(1, m))
        ]
        points = [rng.choice(pool) for _ in range(m)]
        kind = ("combination", "generator", "outside")[k % 3]
        if kind == "combination":
            weights = [F(rng.randint(0, 3)) for _ in points]
            weights[rng.randrange(m)] += 1
            total = sum(weights)
            d = tuple(
                sum((w / total * p[j] for w, p in zip(weights, points)), F(0)) for j in range(dim)
            )
        elif kind == "generator":
            d = rng.choice(points)
        else:
            top = max(p[0] for p in points) + F(1, rng.choice([1, 5]))
            d = (top,) + tuple(F(rng.randint(-3, 3), 2) for _ in range(dim - 1))
        yield kind, d, points


def test_membership_system_matches_the_constraint_path():
    """hull builds its system in ints; _standard_form of the LinearConstraint
    system must give the same simplex, and the LPs the same answers."""
    rng = random.Random(2026)
    seen = {"combination": 0, "generator": 0, "outside": 0}
    for kind, d, points in itertools.islice(_membership_instances(rng), 240):
        system = hull._membership_system(d, points)
        constraints = _membership_constraints(d, points)
        built = linalg._Simplex(system)
        parsed = linalg._Simplex(linalg._standard_form(constraints))
        assert built.rows == parsed.rows
        assert built.bounds == parsed.bounds
        assert built.columns == parsed.columns
        assert built.tableau == parsed.tableau
        result = linalg.lp_feasible(system)
        assert result == linalg.lp_feasible(constraints)
        assert result.feasible == (kind != "outside")
        seen[kind] += 1
        if result.feasible:
            interior = linalg.relative_interior_point(system)
            assert interior == linalg.relative_interior_point(constraints)
            assert all(con.satisfied_by(interior) for con in constraints)
            continue
        assert linalg.verify_farkas_certificate(constraints, result.certificate)
        certificates = []
        for given in (system, constraints):
            with pytest.raises(linalg.InfeasibleSystemError) as raised:
                linalg.relative_interior_point(given)
            certificates.append(raised.value.certificate)
        assert certificates == [result.certificate] * 2
    assert seen == {"combination": 80, "generator": 80, "outside": 80}


def _fraction_ring_walk(d, points, ring, seen):
    """membership_report_T as it was before the integer walk and the single
    Smith normal form: the unique point and the kernel directions from the
    dense solve_affine, and the ring point, the rounding and the walk in
    Fraction.  Returns (reason, xi), xi being the witness or, for
    unique-rational-point-not-in-ring, the rational point; records in `seen`
    what the walk met."""
    constraints = _membership_constraints(d, points)
    try:
        interior = linalg.relative_interior_point(constraints)
    except linalg.InfeasibleSystemError:
        return "rational-hull-infeasible", None
    inequalities = [con for con in constraints if con.rel != "=="]
    hull_rows = [con for con in constraints if con.rel == "=="]
    hull_rows += [con for con, x in zip(inequalities, interior) if x == 0]
    eq_rows, eq_rhs = [], []
    for con in hull_rows:
        a, b = con.oriented()
        eq_rows.append(list(a))
        eq_rhs.append(b)
    particular, kernel = linalg.solve_affine(eq_rows, eq_rhs)
    if not kernel:
        if all(ring_contains(c, ring) for c in particular):
            return "unique-ring-combination", tuple(particular)
        return "unique-rational-point-not-in-ring", tuple(particular)
    m = len(points)
    scaled = [integer_row(row + [b])[1] for row, b in zip(eq_rows, eq_rhs)]
    u, dmat, v = linalg.smith_normal_form([row[:-1] for row in scaled])
    c_vec = [sum(x * row[-1] for x, row in zip(u_row, scaled)) for u_row in u]
    y = [F(0)] * m
    for i, c in enumerate(c_vec):
        di = dmat[i][i] if i < m else 0
        if (di == 0 and c != 0) or (di != 0 and c % s_free_part(di, ring) != 0):
            return "no-ring-point-on-affine-hull", None
        if di != 0:
            y[i] = F(c, di)
    ring_point = [sum((F(v[i][j]) * y[j] for j in range(m)), F(0)) for i in range(m)]
    assert all(ring_contains(c, ring) for c in ring_point)
    int_kernel = [integer_row(vec)[1] for vec in kernel]
    seen["kernel_dim_2"] |= len(kernel) >= 2
    alpha = []
    for direction in int_kernel:
        free = max(i for i, c in enumerate(direction) if c != 0)
        alpha.append((interior[free] - ring_point[free]) / direction[free])
    p = smallest_inverted_prime(ring)
    den = 1
    while True:
        steps = []
        for a in alpha:
            num, rem = divmod(a * den, 1)
            seen["tie"] |= rem == F(1, 2)
            steps.append(F(int(num) + (1 if rem >= F(1, 2) else 0), den))
        seen["negative_step"] |= any(step < 0 for step in steps)
        xi = list(ring_point)
        for step, direction in zip(steps, int_kernel):
            for i in range(m):
                xi[i] += step * direction[i]
        if all(c >= 0 for c in xi):
            seen["den_above_1"] |= den > 1
            return "ring-combination", tuple(xi)
        den *= p


def _ring_instance(rng):
    """Generators in dims 1-3, m <= 7, a ring among Z[1/2], Z[1/3] and
    Z[1/10], and a target that is mostly a ring combination of them."""
    dim, m = rng.randint(1, 3), rng.randint(1, 7)
    primes = rng.choice([(2,), (3,), (2, 5)])
    points = [
        tuple(F(rng.randint(-4, 4), rng.choice([1, 2, 3])) for _ in range(dim))
        for _ in range(m)
    ]
    if rng.random() < 0.8:
        den = rng.choice(primes) ** rng.randint(0, 3)
        cuts = sorted(rng.randint(0, den) for _ in range(m - 1))
        weights = [F(b - a, den) for a, b in zip([0, *cuts], [*cuts, den])]
    else:
        weights = [F(rng.randint(0, 4)) for _ in range(m)]
        weights[rng.randrange(m)] += 1
        weights = [w / sum(weights) for w in weights]
    d = tuple(
        sum((w * p[j] for w, p in zip(weights, points)), F(0)) for j in range(dim)
    )
    return d, points, RingSpec(primes)


def test_ring_walk_matches_fraction_reference():
    rng = random.Random(20)
    seen = dict.fromkeys(["kernel_dim_2", "den_above_1", "negative_step", "tie"], False)
    reasons = set()
    for _ in range(320):
        d, points, ring = _ring_instance(rng)
        report = membership_report_T(d, points, ring)
        reason, xi = _fraction_ring_walk(d, points, ring, seen)
        assert report.reason == reason
        if reason == "unique-rational-point-not-in-ring":
            assert report.combination is None and report.rational_point == xi
        elif xi is not None:
            assert report.combination == hull._combination(xi)
        reasons.add(reason)
    assert seen == dict.fromkeys(seen, True)
    # seed 20 draws them 171, 116, 24 and 9 times, in this order
    assert reasons == {
        "unique-ring-combination",
        "ring-combination",
        "no-ring-point-on-affine-hull",
        "unique-rational-point-not-in-ring",
    }


@pytest.mark.parametrize("prime", [2, 3, 5])
def test_nearest_numerator_rounds_half_up(prime):
    values = [F(1, 2), F(3, 2), F(5, 6), F(7, 3)]
    for den in (1, prime, prime**2):
        for a in values + [-a for a in values]:
            expected = (a * den + F(1, 2)).__floor__()
            assert hull._nearest_numerator(a.numerator, a.denominator, den) == expected
            # a pair not in lowest terms rounds alike
            assert hull._nearest_numerator(6 * a.numerator, 6 * a.denominator, den) == expected
    # exact ties round up, on both sides of 0
    assert hull._nearest_numerator(1, 2, 1) == 1
    assert hull._nearest_numerator(-1, 2, 1) == 0
    assert hull._nearest_numerator(-3, 2, 1) == -1
    assert hull._nearest_numerator(-5, 6, 3) == -2


def test_vpolytope_vertices_and_dimension():
    square_with_center = VPolytope(
        _points([0, 0], [1, 0], [1, 1], [0, 1], [F(1, 2), F(1, 2)])
    )
    assert set(square_with_center.vertices) == set(
        _points([0, 0], [1, 0], [1, 1], [0, 1])
    )
    assert square_with_center.affine_dimension == 2
    segment = VPolytope(_points([0, 0], [2, 2], [1, 1]))
    assert set(segment.vertices) == set(_points([0, 0], [2, 2]))
    assert segment.affine_dimension == 1
    duplicated = VPolytope(_points([0], [1], [1], [0]))
    assert set(duplicated.vertices) == set(_points([0], [1]))
    singleton = VPolytope(_points([2, 3]))
    assert singleton.vertices == ((F(2), F(3)),)
    assert singleton.affine_dimension == 0
    # every generator recombines from the vertex set
    for g in square_with_center.generators:
        assert hull_member_Q(g, list(square_with_center.vertices)) is not None


def _reference_vertices(generators):
    """One Q-membership LP per distinct generator: the reference for the G-row test."""
    unique = list(dict.fromkeys(generators))
    if len(unique) == 1:
        return tuple(unique)
    return tuple(
        g for i, g in enumerate(unique) if hull_member_Q(g, unique[:i] + unique[i + 1 :]) is None
    )


def _polytope_generators(rng):
    """Points base + sum c_k d_k over at most n random directions, plus convex
    combinations of them and repeats; some with 40-bit numerators."""
    n = rng.randint(1, 4)
    rk = rng.randint(0, n)
    wide = rng.random() < 0.15

    def rational():
        if wide:
            return F(rng.getrandbits(40) - 2**39, rng.choice([1, 3, 2**20 + 7]))
        return F(rng.randint(-9, 9), rng.choice([1, 2, 3, 4, 5, 7, 12]))

    base = [rational() for _ in range(n)]
    directions = [[rational() for _ in range(n)] for _ in range(rk)]
    points = []
    for _ in range(rng.randint(1, rk + 5)):
        coeffs = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in directions]
        offset = [sum((c * d[r] for c, d in zip(coeffs, directions)), F(0)) for r in range(n)]
        points.append(tuple(b + x for b, x in zip(base, offset)))
    for _ in range(rng.randint(0, 2)):
        support = rng.sample(points, rng.randint(1, len(points)))
        weights = [F(rng.randint(1, 5)) for _ in support]
        total = sum(weights)
        combination = [
            sum((w * p[r] for w, p in zip(weights, support)), F(0)) / total for r in range(n)
        ]
        points.insert(rng.randrange(len(points) + 1), tuple(combination))
    if rng.random() < 0.3:
        points.insert(rng.randrange(len(points) + 1), rng.choice(points))
    return points


def test_vertices_match_one_lp_per_generator():
    rng = random.Random(2014)
    seen = set()
    for _ in range(1000):
        points = _polytope_generators(rng)
        polytope = VPolytope(points)
        expected = _reference_vertices(points)
        assert polytope.vertices == expected
        dimension = rank([(1, *g) for g in points]) - 1
        assert polytope.affine_dimension == dimension
        n, unique = len(points[0]), set(points)
        seen.add(n)
        seen.add("flat" * (0 < dimension < n))
        seen.add("interior points" * (len(expected) < len(unique)))
        seen.add("repeated points" * (len(unique) < len(points)))
        seen.add("single point" * (len(unique) == 1))
        seen.add("mixed denominators" * (len({x.denominator for p in points for x in p}) > 2))
        seen.add("40-bit numerators" * any(abs(x.numerator) >= 2**30 for p in points for x in p))
    assert {1, 2, 3, 4, "flat", "interior points", "repeated points", "single point"} <= seen
    assert {"mixed denominators", "40-bit numerators"} <= seen


def test_vertices_certified_by_their_g_row_take_no_lp(monkeypatch):
    calls = []

    def counting(d, points):
        calls.append(d)
        return hull_member_Q(d, points)

    monkeypatch.setattr(hull, "hull_member_Q", counting)
    square = _points([0, 0], [1, 0], [1, 1], [0, 1])
    centre = (F(1, 2), F(1, 2))
    # on a parabola the rows of the middle points fail, and f_i - f_k for
    # the farthest g_k certifies all but (1, 1) in the second one
    parabola = _points(*([t, t * t] for t in range(6)))
    spread = _points(*([t, t * t] for t in (0, 1, 3, 4, 9)))
    for generators, vertices, tested in [
        (square, square, []),
        (HEXAGON, HEXAGON, []),
        (square + [centre], square, [centre]),
        (parabola, parabola, []),
        (spread, spread, [(F(1), F(1))]),
    ]:
        calls.clear()
        assert VPolytope(generators).vertices == tuple(vertices)
        assert calls == tested


def _separating_functional(gram, i):
    """A row f_i or a difference f_i - f_k of gram, k != i, strictly largest at i."""
    others = [row for k, row in enumerate(gram) if k != i]
    candidates = [gram[i]] + [[x - y for x, y in zip(gram[i], row)] for row in others]
    return next(
        (f for f in candidates if all(x < f[i] for j, x in enumerate(f) if j != i)), None
    )


def test_vertices_certified_without_an_lp_have_a_separating_functional(monkeypatch):
    """Every vertex the LP is not asked about is separated from the others'
    hull by an affine functional, re-checked in Fractions from gram: the
    generators lie on the moment curve, so all are vertices and gram is the G
    the vertex tests read."""
    calls = []

    def counting(d, points):
        calls.append(d)
        return hull_member_Q(d, points)

    monkeypatch.setattr(hull, "hull_member_Q", counting)
    rng = random.Random(26)
    certified = {"row": 0, "difference": 0, "lp": 0}
    for _ in range(150):
        dim = rng.randint(2, 3)
        values = sorted({F(rng.randint(-12, 12), rng.randint(1, 4)) for _ in range(20)})
        ts = rng.sample(values, min(len(values), rng.randint(dim + 1, 9)))
        shift = [F(rng.randint(-5, 5)) for _ in range(dim)]
        while True:
            matrix = [[F(rng.randint(-2, 2)) for _ in range(dim)] for _ in range(dim)]
            if rank(matrix) == dim:
                break
        curve = [[t**e for e in range(1, dim + 1)] for t in ts]
        points = [
            tuple(sum(a * x for a, x in zip(row, p)) + s for row, s in zip(matrix, shift))
            for p in curve
        ]
        calls.clear()
        polytope = VPolytope(points)
        assert polytope.vertices == tuple(points)
        gram = polytope.gram
        # every row of gram is an affine functional evaluated at the points
        affine = rank([(1, *p) for p in points])
        assert all(rank([(1, *p, x) for p, x in zip(points, row)]) == affine for row in gram)
        for i, g in enumerate(points):
            if g in calls:
                certified["lp"] += 1
                continue
            f = _separating_functional(gram, i)
            assert f is not None
            certified["row" if f is gram[i] else "difference"] += 1
    assert min(certified.values()) >= 100


def test_polytope_eliminates_its_generators_once(monkeypatch):
    calls = []

    def counting(points):
        calls.append(list(points))
        return projection(points)

    projection = hull._projection
    monkeypatch.setattr(hull, "_projection", counting)
    square = _points([0, 0], [1, 0], [1, 1], [0, 1])
    centre = (F(1, 2), F(1, 2))
    polytope = VPolytope(square + square[:1])
    for _ in range(3):
        assert polytope.vertices == tuple(square)
        assert polytope.affine_dimension == 2
        gram = polytope.gram
    assert calls == [square]
    # an interior generator: gram eliminates the vertices once more (gram is
    # read once per affine_equivalence call, and is not cached)
    calls.clear()
    polytope = VPolytope(square + [centre])
    for _ in range(3):
        assert polytope.vertices == tuple(square)
        assert polytope.affine_dimension == 2
    assert polytope.gram == gram
    assert calls == [square + [centre], square]


def test_t_segment_points_examples():
    seg = TSegment([0], [1], 0, 3)
    assert [p[0] for p in t_segment_points(seg, DYADIC, 0)] == [0, 1, 2, 3]
    depth1 = {p[0] for p in t_segment_points(seg, DYADIC, 1)}
    assert depth1 == {0, F(1, 2), 1, F(3, 2), 2, F(5, 2), 3}
    seg = TSegment([0], [3], 0, 1)
    assert {p[0] for p in t_segment_points(seg, DYADIC, 1)} == {0, F(3, 2), 3}
    with pytest.raises(HullError):
        TSegment([1], [1], 0, 1)
    for a, b in (([0], [1, 2]), ([0, 0], [1])):
        with pytest.raises(HullError, match="same dimension"):
            TSegment(a, b, 0, 1)
    with pytest.raises(HullError):
        t_segment_points(TSegment([0], [1], F(1, 3), 1), DYADIC, 1)


def test_ring_lines_enumeration():
    segs = ring_lines_through([0], [3], DYADIC, 3)
    # direction divisors coprime to 2 up to 3: m = 1 and m = 3
    assert len(segs) == 2
    assert segs[0].anchor_b == (3,)
    assert segs[1].anchor_b == (1,)
    assert {p[0] for p in t_segment_points(segs[1], DYADIC, 0)} == {0, 1, 2, 3}
    for c, d in (([0], [3, 4]), ([3, 4], [0])):
        with pytest.raises(HullError, match="same dimension"):
            ring_lines_through(c, d, DYADIC, 1)


def test_closure_engine_examples():
    out = segment_closure_bounded(_points([0]), DYADIC, 2, 3)
    assert out == {(F(0),)}
    round1 = segment_closure_bounded(_points([0], [3]), DYADIC, 1, 1)
    assert (F(1),) in round1
    assert all(0 <= p[0] <= 3 for p in round1)
    assert all(isinstance(p[0], F) for p in round1)


def test_closure_engine_two_dimensional():
    out = segment_closure_bounded(_points([0, 0], [1, 1]), DYADIC, 1, 1)
    assert (F(1, 2), F(1, 2)) in out
    # everything stays on the diagonal within the endpoints
    assert all(p[0] == p[1] and 0 <= p[0] <= 1 for p in out)


def test_closure_engine_monotone():
    base = _points([0], [3])
    by_depth = [
        segment_closure_bounded(base, DYADIC, depth, 1) for depth in range(3)
    ]
    assert by_depth[0] <= by_depth[1] <= by_depth[2]
    by_rounds = [
        segment_closure_bounded(base, DYADIC, 1, rounds) for rounds in range(3)
    ]
    assert by_rounds[0] <= by_rounds[1] <= by_rounds[2]
    assert set(base) <= by_depth[0]


def test_closure_refuses_more_than_max_points(monkeypatch):
    base = _points([0], [3])
    # from {0, 3} at depth 1: 3 points on the m = 1 line, 7 on m = 3
    monkeypatch.setattr(hull, "MAX_CLOSURE_POINTS", 10)
    assert len(segment_closure_bounded(base, DYADIC, 1, 1)) == 7
    monkeypatch.setattr(hull, "MAX_CLOSURE_POINTS", 9)
    with pytest.raises(HullError):
        segment_closure_bounded(base, DYADIC, 1, 1)
    monkeypatch.undo()
    # one slice of 6**8 + 1 points, refused before it is built
    with pytest.raises(HullError):
        segment_closure_bounded(base, RingSpec([2, 3]), 8, 1)
    # refused before 2**(10**12) is computed; one point has no slices
    with pytest.raises(HullError):
        segment_closure_bounded(base, DYADIC, 10**12, 1)
    assert segment_closure_bounded(_points([0]), DYADIC, 10**12, 1) == {(F(0),)}


def test_refused_closure_round_builds_no_point(monkeypatch):
    # the engine builds each slice as one int progression
    built = []
    original = hull._progression

    def counting(start, step, count):
        built.append(count)
        return original(start, step, count)

    monkeypatch.setattr(hull, "_progression", counting)
    base = _points([0], [3])
    # the slice on line m has 4m + 1 points, so the odd lines m <= 707
    # already pass the limit, and none of them is built
    with pytest.raises(HullError):
        segment_closure_bounded(base, DYADIC, 2, 1, line_bound=10**9)
    assert built == []
    # round 1 builds its 3 + 7 points on two lines; round 2 is refused whole
    monkeypatch.setattr(hull, "MAX_CLOSURE_POINTS", 10)
    with pytest.raises(HullError):
        segment_closure_bounded(base, DYADIC, 1, 2)
    assert len(built) == 2


def _reference_closure(points, ring, depth, rounds, line_bound=3):
    """The Fraction engine: every slice point built with bary_op and kept as
    a tuple of Fractions.  The reference for segment_closure_bounded."""
    current = set(hull._check_points(points))
    too_many = f"the closure would generate more than {hull.MAX_CLOSURE_POINTS} points"
    explored = rounds > 0 and len(current) > 1 and line_bound > 0
    if explored and depth >= hull.MAX_CLOSURE_POINTS.bit_length():
        raise HullError(too_many)
    generated = 0
    for _ in range(rounds):
        segments = []
        for c, d in itertools.combinations(sorted(current), 2):
            for m in range(1, line_bound + 1):
                if s_free_part(m, ring) != m:
                    continue
                if depth < 0:
                    raise HullError("depth must be nonnegative")
                den = math.prod(ring.inverted_primes) ** depth
                generated += m * den + 1
                if generated > hull.MAX_CLOSURE_POINTS:
                    raise HullError(too_many)
                end = tuple(a + (b - a) / m for a, b in zip(c, d))
                segments.append((c, end, m, den))
        for c, end, m, den in segments:
            current.update(bary_op(c, end, F(k, den)) for k in range(m * den + 1))
    return current


def _closure_instance(rng):
    dim = rng.choice([0, 1, 1, 2, 2, 3, 3])

    def coordinate():
        return F(rng.randint(-6, 6), rng.choice([1, 1, 2, 3, 4, 5, 6, 10]))

    count = rng.choice([1, 2, 2, 3, 3])
    distinct = [tuple(coordinate() for _ in range(dim)) for _ in range(count)]
    if len(distinct) > 1 and rng.random() < 0.4:
        # a point on the line through the first two
        t = coordinate()
        a, b = distinct[0], distinct[1]
        distinct.append(tuple(x + t * (y - x) for x, y in zip(a, b)))
    # and some of them again
    points = distinct + [rng.choice(distinct) for _ in range(rng.randint(0, 2))]
    rng.shuffle(points)
    ring = rng.choice([DYADIC, RingSpec([3]), RingSpec([2, 5])])
    rounds = rng.choice([0, 1, 1, 2, 2, 3, 3])
    return points, ring, rng.randint(0, 2), rounds, rng.randint(0, 4)


def _has_collinear_triple(points):
    for a, b, c in itertools.combinations(set(points), 3):
        u = [y - x for x, y in zip(a, b)]
        v = [y - x for x, y in zip(a, c)]
        if all(s * t == s2 * t2 for s, t2 in zip(u, v) for s2, t in zip(u, v)):
            return True
    return False


def _closure_outcome(engine, *args, **kwargs):
    try:
        return engine(*args, **kwargs)
    except HullError as exc:
        return ("refused", str(exc))


def test_closure_matches_fraction_reference(monkeypatch):
    # a low limit keeps the reference cheap and makes refusals common
    monkeypatch.setattr(hull, "MAX_CLOSURE_POINTS", 1000)
    rng = random.Random(32)
    seen = set()
    for _ in range(400):
        args = _closure_instance(rng)
        got = _closure_outcome(segment_closure_bounded, *args)
        expected = _closure_outcome(_reference_closure, *args)
        assert got == expected, args
        points, ring, depth, rounds, line_bound = args
        seen.add("refused" if isinstance(got, tuple) else "built")
        seen.add(f"dim {len(points[0])}")
        seen.add(f"ring {ring.inverted_primes}")
        seen.add(f"depth {depth}")
        seen.add(f"rounds {rounds}")
        seen.add(f"line_bound {line_bound}")
        seen.add("repeated points" * (len(set(points)) < len(points)))
        seen.add("collinear" * _has_collinear_triple(points))
        if not isinstance(got, tuple):
            assert all(type(c) is F for p in got for c in p)
    assert {"refused", "built", "repeated points", "collinear"} <= seen
    assert {f"dim {k}" for k in range(4)} <= seen
    assert {"ring (2,)", "ring (3,)", "ring (2, 5)"} <= seen
    assert {f"depth {k}" for k in range(3)} | {f"rounds {k}" for k in range(4)} <= seen
    assert {f"line_bound {k}" for k in range(5)} <= seen


def test_closure_refusals_match_fraction_reference():
    base = _points([0], [3])
    too_many = f"the closure would generate more than {hull.MAX_CLOSURE_POINTS} points"
    for args, kwargs, message in [
        # a slice is explored at a depth past the limit
        ((base, DYADIC, hull.MAX_CLOSURE_POINTS.bit_length(), 1), {}, too_many),
        # the first round generates 402 points, the second crosses the limit
        ((_points([0], [1]), RingSpec([2, 5]), 2, 2), {}, too_many),
        ((base, DYADIC, 2, 1), {"line_bound": 10**9}, too_many),
        ((base, DYADIC, -1, 1), {}, "depth must be nonnegative"),
        ((_points([0, 1], [1, 0]), RingSpec([2, 5]), -3, 2), {}, "depth must be nonnegative"),
    ]:
        for engine in (segment_closure_bounded, _reference_closure):
            with pytest.raises(HullError) as raised:
                engine(*args, **kwargs)
            assert str(raised.value) == message, (engine, args)
    # nothing is explored, so neither the depth nor the limit is read
    for args in [
        (_points([0]), DYADIC, 10**12, 1),
        (_points([0]), DYADIC, -1, 3),
        (base, DYADIC, -1, 0),
        (base, DYADIC, 10**12, 1, 0),
    ]:
        assert segment_closure_bounded(*args) == _reference_closure(*args) == set(args[0])


def test_slices_are_built_without_bary_op(monkeypatch):
    seg = TSegment([F(1, 3), 0], [2, F(-5, 2)], F(-3, 4), F(7, 2))
    # the parameters k/4 in [-3/4, 7/2], in increasing order
    expected = [bary_op(seg.anchor_a, seg.anchor_b, F(k, 4)) for k in range(-3, 15)]
    base = _points([0, 0], [1, F(1, 3)], [F(-1, 2), 2])
    closure = _reference_closure(base, RingSpec([2, 5]), 1, 1)

    def refuse(*args):
        raise AssertionError("bary_op called")

    monkeypatch.setattr(hull, "bary_op", refuse)
    assert t_segment_points(seg, DYADIC, 2) == expected
    assert segment_closure_bounded(base, RingSpec([2, 5]), 1, 1) == closure


def test_random_ring_terms_live_in_ring_hull():
    # coefficient vectors of ring-parameter terms are accepted by the
    # ring-hull membership decision
    rng = random.Random(8)
    points = _points([0, 0], [2, 0], [0, 2])

    def random_term(depth):
        if depth == 0 or rng.random() < 0.4:
            return Leaf(rng.randrange(3))
        exp = rng.randint(1, 3)
        return Node(
            random_term(depth - 1),
            random_term(depth - 1),
            F(rng.randint(1, 2**exp - 1) if exp > 1 else 1, 2**exp),
        )

    for _ in range(20):
        term = random_term(3)
        value = eval_term(term, dict(enumerate(points)))
        assert hull_member_T(value, points, DYADIC) is not None


def test_q_convexity_probe_examples():
    report = q_convexity_probe(_points([0], [3]), DYADIC)
    assert not report.q_convex  # the dyadic hull of {0,3} is not Q-convex
    assert report.witness == ((F(0),), (F(3),), F(1, 3))
    assert (report.prime, report.coordinate, report.valuation_bound) == (3, 0, 1)
    report = q_convexity_probe(_points([0], [1]), DYADIC)
    assert not report.q_convex  # thirds escape the dyadic hull of {0,1} too
    assert report.witness == ((F(0),), (F(1),), F(1, 3))
    report = q_convexity_probe(_points([0]), DYADIC)
    assert report.q_convex and report.witness is None
    assert check_convexity_report(_points([0]), DYADIC, report)


def _random_generators(rng):
    dim = rng.randint(1, 3)
    pts = [
        tuple(F(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(dim))
        for _ in range(rng.randint(1, 5))
    ]
    shape = rng.random()
    if shape < 0.2:  # repeated generators
        pts += [rng.choice(pts) for _ in range(rng.randint(1, 3))]
    elif shape < 0.4 and dim > 1:  # a set of lower affine dimension
        a, b = pts[0], pts[-1]
        pts = [tuple(x + F(rng.randint(-3, 3), 2) * (y - x) for x, y in zip(a, b))
               for _ in range(len(pts))]
    return pts


def test_q_convexity_witnesses_leave_the_ring_hull():
    rng = random.Random(31)
    rings = [DYADIC, RingSpec([3]), RingSpec([2, 3]), RingSpec([5]),
             RingSpec([3, 7]), RingSpec([2, 3, 5, 7])]
    negatives = 0
    for _ in range(320):
        pts = _random_generators(rng)
        ring = rng.choice(rings)
        report = q_convexity_probe(pts, ring)
        assert check_convexity_report(pts, ring, report)
        assert report.q_convex == (len(set(pts)) == 1)
        if report.q_convex:
            continue
        negatives += 1
        x0, x1, t = report.witness
        if ring.inverted_primes == (2, 3, 5, 7):
            assert report.prime == 11
        w = bary_op(x0, x1, t)
        assert hull_member_Q(w, pts) is not None
        assert hull_member_T(w, pts, ring) is None
        # tampered artifacts are rejected
        q, k = report.prime, prime_valuation(1 / t, report.prime)
        if k > 1:
            shallower = replace(report, witness=(x0, x1, F(1, q ** (k - 1))))
            assert not check_convexity_report(pts, ring, shallower)
        inverted = ring.inverted_primes[0]
        swapped = replace(report, prime=inverted, witness=(x0, x1, F(1, inverted**k)))
        assert not check_convexity_report(pts, ring, swapped)
    assert negatives >= 200


def test_q_convexity_checker_rejects_tampering():
    pts = _points([0], [3])
    report = q_convexity_probe(pts, DYADIC)
    assert check_convexity_report(pts, DYADIC, report)
    for tampered in (
        replace(report, witness=((F(0),), (F(3),), F(1))),  # k - 1
        replace(report, prime=2, witness=((F(0),), (F(3),), F(1, 2))),
        replace(report, q_convex=True),
        replace(report, witness=((F(0),), (F(5),), F(1, 3))),
        replace(report, coordinate=1),
        replace(report, valuation_bound=2),
    ):
        assert not check_convexity_report(pts, DYADIC, tampered)


def test_q_convexity_probe_solves_no_lp(monkeypatch):
    def no_lp(*args, **kwargs):
        raise AssertionError("lp_feasible called")

    monkeypatch.setattr(linalg, "lp_feasible", no_lp)
    pts = _points([0, 1], [3, 1], [1, 5])
    report = q_convexity_probe(pts, DYADIC)
    assert not report.q_convex
    assert check_convexity_report(pts, DYADIC, report)


def test_t_query_keeps_snf_entries_small():
    gens = _points(
        (F(-9, 7), -8, -2), (F(5, 4), 2, F(3, 2)), (F(-1, 2), 2, F(8, 7)),
        (F(1, 9), -1, F(7, 4)), (2, F(-7, 3), F(8, 3)), (-1, 8, 0),
        (1, -4, F(-5, 6)),
    )
    started = time.perf_counter()
    report = membership_report_T((F(461, 1050), F(-83, 75), F(221, 420)), gens, DYADIC)
    assert time.perf_counter() - started < 1
    assert report.reason == "no-ring-point-on-affine-hull"
