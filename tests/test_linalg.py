import hashlib
import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from baryalg import linalg
from baryalg.linalg import (
    InfeasibleSystemError,
    LinearConstraint,
    implicit_equalities,
    lp_extremum,
    lp_feasible,
    relative_interior_point,
    rref,
    smith_normal_form,
    solve_affine,
    verify_farkas_certificate,
)

F = Fraction


def mat_mul(a, b):
    return [[sum((F(x) * y for x, y in zip(row, col)), F(0)) for col in zip(*b)] for row in a]


def mat_vec(a, v):
    return [sum((F(x) * y for x, y in zip(row, v)), F(0)) for row in a]


def test_rref_examples():
    ident = [[1, 0], [0, 1]]
    red, pivots, rk = rref(ident)
    assert red == [[1, 0], [0, 1]] and pivots == [0, 1] and rk == 2
    assert rref([[1, 2], [2, 4]])[2] == 1
    assert rref([[0, 0], [0, 0]])[2] == 0


def test_rref_idempotent():
    rng = random.Random(11)
    for _ in range(25):
        m = [
            [F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(4)]
            for _ in range(3)
        ]
        once = rref(m)[0]
        assert rref(once)[0] == once


def _reference_rref(matrix):
    """rref as a plain Fraction Gauss-Jordan loop: the reference for the int kernel."""
    m = [[F(x) for x in row] for row in matrix]
    if not m:
        return [], [], 0
    nrows, ncols = len(m), len(m[0])
    pivots = []
    row = 0
    for col in range(ncols):
        pivot_row = next((r for r in range(row, nrows) if m[r][col] != 0), None)
        if pivot_row is None:
            continue
        m[row], m[pivot_row] = m[pivot_row], m[row]
        inv = F(1) / m[row][col]
        m[row] = [x * inv for x in m[row]]
        for r in range(nrows):
            if r != row and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[row])]
        pivots.append(col)
        row += 1
        if row == nrows:
            break
    return m, pivots, len(pivots)


_MATRIX_KINDS = (
    "empty",
    "zero columns",
    "all zeros",
    "rank-deficient",
    "negative leading entries",
    "mixed denominators",
    "large numerators",
    "mixed entry types",
)


def _random_matrix(rng, kind):
    rows, cols = rng.randint(1, 5), rng.randint(1, 6)
    if kind == "empty":
        return []
    if kind == "zero columns":
        return [[] for _ in range(rows)]
    if kind == "all zeros":
        return [[0] * cols for _ in range(rows)]

    def entry():
        if kind == "large numerators":
            return F(rng.randint(-(2**40), 2**40), rng.randint(1, 2**40))
        if kind == "mixed entry types":
            return rng.choice([rng.randint(-3, 3), F(rng.randint(-3, 3), 7), "-2/3", "5"])
        return F(rng.randint(-6, 6), rng.choice([1, 1, 2, 3, 5, 12]))

    if kind == "rank-deficient":
        basis = [[entry() for _ in range(cols)] for _ in range(rng.randint(0, min(rows, cols) - 1))]
        combos = [[F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in basis] for _ in range(rows)]
        return [
            [sum((c * b[j] for c, b in zip(combo, basis)), F(0)) for j in range(cols)]
            for combo in combos
        ]
    matrix = [[entry() if rng.random() < 0.7 else 0 for _ in range(cols)] for _ in range(rows)]
    if kind == "negative leading entries":
        matrix = [[-abs(F(x)) if j == 0 else x for j, x in enumerate(row)] for row in matrix]
    return matrix


def test_rref_matches_fraction_reference():
    rng = random.Random(1968)
    seen = set()
    for i in range(1200):
        kind = _MATRIX_KINDS[i % len(_MATRIX_KINDS)]
        matrix = _random_matrix(rng, kind)
        expected = _reference_rref(matrix)
        red, pivots, rk = rref(matrix)
        assert (red, pivots, rk) == expected
        assert all(type(x) is F for row in red for x in row)
        assert linalg.rank(matrix) == rk
        assert linalg._pivots(matrix) == pivots
        seen.add(kind)
        if matrix and rk < min(len(matrix), len(matrix[0])):
            seen.add("rank below both sizes")
        if any(F(next((x for x in row if F(x) != 0), 0)) < 0 for row in matrix):
            seen.add("some row leads with a negative entry")
    assert seen == set(_MATRIX_KINDS) | {
        "rank below both sizes",
        "some row leads with a negative entry",
    }
    for function in (rref, linalg.rank):
        with pytest.raises(linalg.LinalgError):
            function([[1, 2], [3]])


def test_elimination_holds_only_ints(monkeypatch):
    recorded = []
    kernel = linalg._gauss_jordan

    def recording(rows):
        recorded.append([list(row) for row in rows])
        pivots = kernel(rows)
        recorded.append(rows)
        return pivots

    monkeypatch.setattr(linalg, "_gauss_jordan", recording)
    rng = random.Random(16)
    for i in range(40):
        matrix = _random_matrix(rng, _MATRIX_KINDS[i % len(_MATRIX_KINDS)])
        rref(matrix)
        linalg.rank(matrix)
        linalg._pivots(matrix)
        solve_affine(matrix, [F(1, 3)] * len(matrix))
    assert len(recorded) == 2 * 4 * 40
    assert all(type(x) is int for rows in recorded for row in rows for x in row)


def test_solve_affine_barycentric_row():
    solved = solve_affine([[1, 1]], [1])
    assert solved is not None
    particular, kernel = solved
    assert sum(particular) == 1
    assert len(kernel) == 1
    assert sum(kernel[0]) == 0 and any(c != 0 for c in kernel[0])


def test_solve_affine_inconsistent():
    assert solve_affine([[1, 1], [1, 1]], [1, 2]) is None


def test_solve_affine_three_point_system():
    # coefficients placing (1/2,1/2) over (0,0), (1,0), (0,1); oracle: direct
    # substitution gives (0, 1/2, 1/2) uniquely
    m = [
        [0, 1, 0],  # x-coordinates
        [0, 0, 1],  # y-coordinates
        [1, 1, 1],  # weights sum to one
    ]
    solved = solve_affine(m, [F(1, 2), F(1, 2), 1])
    assert solved is not None
    particular, kernel = solved
    assert particular == [0, F(1, 2), F(1, 2)]
    assert kernel == []


def test_solve_affine_exactness_random():
    rng = random.Random(5)
    for _ in range(30):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = [[F(rng.randint(-4, 4)) for _ in range(cols)] for _ in range(rows)]
        x = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(cols)]
        b = mat_vec(m, x)
        solved = solve_affine(m, b)
        assert solved is not None
        particular, kernel = solved
        assert mat_vec(m, particular) == b
        for vec in kernel:
            assert mat_vec(m, vec) == [F(0)] * rows


def _is_unimodular(m):
    """|det m| == 1, by Fraction elimination (row swaps only flip the sign)."""
    rows = [[F(x) for x in row] for row in m]
    det = F(1)
    for col in range(len(rows)):
        pivot = next((r for r in range(col, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            return False
        rows[col], rows[pivot] = rows[pivot], rows[col]
        det *= rows[col][col]
        for r in range(col + 1, len(rows)):
            f = rows[r][col] / rows[col][col]
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    return abs(det) == 1


def _snf_invariants(mat):
    u, d, v = smith_normal_form(mat)
    assert mat_mul(mat_mul(u, mat), v) == [[F(x) for x in row] for row in d]
    assert _is_unimodular(u) and _is_unimodular(v)
    diag = [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]
    for i in range(len(diag) - 1):
        if diag[i + 1] != 0:
            assert diag[i] != 0 and diag[i + 1] % diag[i] == 0
        assert diag[i] >= 0
    for i in range(len(d)):
        for j in range(len(d[0])):
            if i != j:
                assert d[i][j] == 0
    return diag


def test_snf_examples():
    # oracle for diag(2,3): one row/col reduction round gives diag(1,6)
    diag = _snf_invariants([[2, 0], [0, 3]])
    assert diag == [1, 6]
    assert _snf_invariants([[2]]) == [2]
    assert _snf_invariants([[0, 0], [0, 0]]) == [0, 0]


def test_snf_random_matrices():
    rng = random.Random(23)
    for _ in range(40):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        mat = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        _snf_invariants(mat)


def test_snf_keeps_entries_small():
    # swapping each remainder into the pivot mid-sweep grows these entries
    # to millions of bits
    mat = [
        [-8100, 7875, -3150, 700, 12600, -6300, 6300],
        [-600, 150, 150, -75, -175, 600, -300],
        [-840, 630, 480, 735, 1120, 0, -350],
        [1, 1, 1, 1, 1, 1, 1],
    ]
    started = time.perf_counter()
    assert _snf_invariants(mat) == [1, 5, 25, 25]
    assert time.perf_counter() - started < 1


def test_linear_constraint_keeps_fractions_and_converts_the_rest():
    half = F(1, 2)
    con = LinearConstraint([half, 2, "3/4", True], "<=", half)
    assert con.coeffs == (F(1, 2), F(2), F(3, 4), F(1))
    assert all(type(c) is F for c in con.coeffs)
    assert con.coeffs[0] is half and con.rhs is half
    assert LinearConstraint([1], ">=", -3).rhs == F(-3)
    for coeffs, rhs in ((["x"], 0), ([None], 0), ([1], "y")):
        with pytest.raises((TypeError, ValueError)):
            LinearConstraint(coeffs, "<=", rhs)
    with pytest.raises(linalg.LinalgError):
        LinearConstraint([1], "<", 0)


def test_lp_feasible_interval():
    cons = [
        LinearConstraint([1], ">=", 0),
        LinearConstraint([1], "<=", 1),
    ]
    res = lp_feasible(cons)
    assert res.feasible
    assert all(c.satisfied_by(res.witness) for c in cons)


def test_lp_infeasible_with_certificate():
    cons = [
        LinearConstraint([1], ">=", 1),
        LinearConstraint([1], "<=", 0),
    ]
    res = lp_feasible(cons)
    assert not res.feasible
    assert verify_farkas_certificate(cons, res.certificate)


def test_farkas_checker_refuses_ragged_systems():
    # x <= -1 and -x + 5y <= 0 are feasible (x = -1, y = -1); the multipliers
    # (1, 1) sum to 0 <= -1 only if the 5 is dropped
    ragged = [LinearConstraint([1], "<=", -1), LinearConstraint([-1, 5], "<=", 0)]
    assert lp_feasible([LinearConstraint([1, 0], "<=", -1), ragged[1]]).feasible
    for system in (ragged, ragged[::-1]):
        with pytest.raises(linalg.LinalgError, match="constraint arity mismatch"):
            verify_farkas_certificate(system, [1, 1])
        with pytest.raises(linalg.LinalgError, match="constraint arity mismatch"):
            lp_feasible(system)
    # a point of the wrong length is refused too, not read by zip's shortest
    row = LinearConstraint([1, 1], "<=", 1)
    assert row.satisfied_by((0, 0))
    for point in ((0, 0, 99), (0,)):
        with pytest.raises(linalg.LinalgError, match="constraint arity mismatch"):
            row.satisfied_by(point)


def test_lp_barycentric_membership_system():
    # 1 in the hull of {0, 3}: unique coefficients (2/3, 1/3)
    cons = [
        LinearConstraint([0, 3], "==", 1),
        LinearConstraint([1, 1], "==", 1),
        LinearConstraint([1, 0], ">=", 0),
        LinearConstraint([0, 1], ">=", 0),
    ]
    res = lp_feasible(cons)
    assert res.feasible
    assert res.witness == (F(2, 3), F(1, 3))


def _simplex_size_system(shift):
    # a 10-variable system: the standard simplex of coordinates summing to 1
    # intersected with x_0 >= shift
    cons = [LinearConstraint([1] * 10, "==", 1)]
    for i in range(10):
        unit = [F(int(j == i)) for j in range(10)]
        cons.append(LinearConstraint(unit, ">=", 0))
    cons.append(LinearConstraint([1] + [0] * 9, ">=", shift))
    return cons


def test_simplex_path_feasible_and_infeasible():
    res = lp_feasible(_simplex_size_system(F(1, 2)))
    assert res.feasible
    assert all(c.satisfied_by(res.witness) for c in _simplex_size_system(F(1, 2)))
    bad = _simplex_size_system(F(2))
    res = lp_feasible(bad)
    assert not res.feasible
    assert verify_farkas_certificate(bad, res.certificate)


def test_certificates_for_contradictory_equalities():
    # contradiction confined to the equality rows, small and large systems
    small = [LinearConstraint([1, 1], "==", 1), LinearConstraint([1, 1], "==", 2)]
    res = lp_feasible(small)
    assert not res.feasible
    assert verify_farkas_certificate(small, res.certificate)
    big = [
        LinearConstraint([1] * 10, "==", 1),
        LinearConstraint([1] * 10, "==", 2),
    ] + [
        LinearConstraint([F(int(j == i)) for j in range(10)], ">=", 0)
        for i in range(10)
    ]
    res = lp_feasible(big)
    assert not res.feasible
    assert verify_farkas_certificate(big, res.certificate)
    negative_sum = [LinearConstraint([1] * 10, "==", -1)] + big[2:]
    res = lp_feasible(negative_sum)
    assert not res.feasible
    assert verify_farkas_certificate(negative_sum, res.certificate)


def test_lp_extremum_paths():
    cons = [
        LinearConstraint([1, 1], "<=", 1),
        LinearConstraint([1, 0], ">=", 0),
        LinearConstraint([0, 1], ">=", 0),
    ]
    status, value, witness = lp_extremum(cons, [1, 2], True)
    assert (status, value) == ("optimal", 2)
    assert witness == (0, 1)
    status, value, _ = lp_extremum(cons, [1, 1], False)
    assert (status, value) == ("optimal", 0)
    status, _, _ = lp_extremum([LinearConstraint([1], ">=", 0)], [1], True)
    assert status == "unbounded"
    status, _, _ = lp_extremum(
        [LinearConstraint([1], ">=", 1), LinearConstraint([1], "<=", 0)], [1], True
    )
    assert status == "infeasible"
    # optimization over the 10-variable system
    big = _simplex_size_system(F(1, 2))
    status, value, witness = lp_extremum(big, [1] + [0] * 9, False)
    assert (status, value) == ("optimal", F(1, 2))


def test_implicit_equalities_examples():
    both = [LinearConstraint([1], ">=", 0), LinearConstraint([1], "<=", 0)]
    assert implicit_equalities(both) == [0, 1]
    none = [LinearConstraint([1], ">=", 0), LinearConstraint([1], "<=", 1)]
    assert implicit_equalities(none) == []
    # single feasible point (2/3, 1/3) with strictly positive slack on both
    # nonnegativity rows: neither is an implicit equality
    pinned = [
        LinearConstraint([0, 3], "==", 1),
        LinearConstraint([1, 1], "==", 1),
        LinearConstraint([1, 0], ">=", 0),
        LinearConstraint([0, 1], ">=", 0),
    ]
    assert implicit_equalities(pinned) == []
    # two equalities pin (0, 1), where the last inequality is tight; phase 1
    # ends with an artificial still basic at level 0
    pinned_tight = [
        LinearConstraint([0, 1], ">=", 0),
        LinearConstraint([-1, 1], "==", 1),
        LinearConstraint([-2, 1], ">=", -1),
        LinearConstraint([F(-1, 2), 1], "==", 1),
        LinearConstraint([-1, -3], ">=", -3),
    ]
    assert implicit_equalities(pinned_tight) == [4]
    with pytest.raises(InfeasibleSystemError):
        implicit_equalities(
            [LinearConstraint([1], ">=", 1), LinearConstraint([1], "<=", 0)]
        )


def test_relative_interior_point():
    cons = [
        LinearConstraint([1, 0], ">=", 0),
        LinearConstraint([0, 1], ">=", 0),
        LinearConstraint([1, 1], "<=", 1),
    ]
    point = relative_interior_point(cons)
    assert point[0] > 0 and point[1] > 0 and point[0] + point[1] < 1
    # implicit equalities stay tight but everything else goes strict
    edge = [
        LinearConstraint([1, 0], ">=", 0),
        LinearConstraint([1, 0], "<=", 0),
        LinearConstraint([0, 1], ">=", 0),
        LinearConstraint([0, 1], "<=", 1),
    ]
    point = relative_interior_point(edge)
    assert point[0] == 0 and 0 < point[1] < 1


def _reference_slack(con, point):
    a, b = con.oriented()
    return b - sum((c * x for c, x in zip(a, point)), F(0))


def _sign_bounds(constraints):
    """Indices of the sign bounds: per variable, the first inequality with
    that one nonzero coefficient and right-hand side 0."""
    signed, indices = set(), set()
    for i, con in enumerate(constraints):
        support = [j for j, c in enumerate(con.coeffs) if c]
        if con.rel != "==" and con.rhs == 0 and len(support) == 1 and support[0] not in signed:
            signed.add(support[0])
            indices.add(i)
    return indices


def _reference_relative_interior_point(constraints, paths):
    """One lp_extremum per slack, each building its own tableau and phase 1.

    Records in `paths` which branches it took, and whether an unbounded
    slack was a sign bound's (and whether tightening it handed the sign of
    its variable to a later row) or a kept row's.
    """
    constraints = list(constraints)
    strict_points = []
    feasible_point = None
    for i, con in enumerate(constraints):
        if con.rel == "==" or any(_reference_slack(con, p) > 0 for p in strict_points):
            continue
        a, b = con.oriented()
        status, value, witness = lp_extremum(constraints, [-c for c in a], True)
        if status == "infeasible":
            raise InfeasibleSystemError("constraint system is infeasible")
        if status == "unbounded":
            shift = -1 if con.rel == "<=" else 1
            tightened = LinearConstraint(con.coeffs, con.rel, con.rhs + shift)
            tightened = constraints[:i] + [tightened] + constraints[i + 1 :]
            bounds = _sign_bounds(constraints)
            if i in bounds:
                paths.add("unbounded sign bound")
                if _sign_bounds(tightened) - bounds:
                    paths.add("sign handed on")
            else:
                paths.add("unbounded row")
            strict_points.append(lp_feasible(tightened).witness)
        elif value + b > 0:
            strict_points.append(witness)
        else:
            paths.add("implicit equality")
            feasible_point = witness
    if strict_points:
        k = F(1, len(strict_points))
        return tuple(sum(coords, F(0)) * k for coords in zip(*strict_points))
    if feasible_point is None:
        paths.add("no inequality")
        result = lp_feasible(constraints)
        if not result.feasible:
            raise InfeasibleSystemError("constraint system is infeasible")
        feasible_point = result.witness
    return feasible_point


def _interior_point_systems(rng):
    """Random systems of six kinds, in turn."""
    coeffs = [F(0), F(1), F(-1), F(2), F(1, 7), F(3, 11), F(-5, 3), F(1, 2), F(-4, 9)]
    rhs = [F(0), F(1), F(-2), F(1, 7), F(-3, 11), F(4), F(5, 6)]

    def row(n, rels):
        a = [rng.choice(coeffs) for _ in range(n)]
        return LinearConstraint(a, rng.choice(rels), rng.choice(rhs))

    def sign(n, j, rel=">="):
        scale = rng.choice([1, 2, F(1, 3)])
        return LinearConstraint([scale * int(i == j) for i in range(n)], rel, 0)

    for k in itertools.count():
        n = rng.randint(1, 4)
        kind = k % 6
        if kind == 0:  # unbounded slacks: few rows, free or half-bounded variables
            cons = [row(n, ["<=", ">="]) for _ in range(rng.randint(1, 2))]
            cons += [sign(n, j) for j in range(n) if rng.random() < 0.5]
        elif kind == 1:  # duplicate sign bounds on one variable
            j = rng.randrange(n)
            cons = [sign(n, j), sign(n, j, rng.choice([">=", "<="]))]
            cons += [sign(n, j)] * rng.randint(0, 1)
            cons += [row(n, ["<=", ">=", "=="]) for _ in range(rng.randint(1, 3))]
        elif kind == 2:  # implicit equalities through x0: a row and its reverse, a pinched cone
            pinched = [j for j in range(n) if rng.random() < 0.5]
            x0 = [F(0) if j in pinched else rng.choice(rhs) for j in range(n)]
            cons = []
            for rel in [rng.choice(["<=", ">="]) for _ in range(rng.randint(1, 3))]:
                a = [rng.choice(coeffs) for _ in range(n)]
                margin = rng.choice([0, 0, 1, F(1, 2)])
                b = _dot(a, x0) + (margin if rel == "<=" else -margin)
                cons.append(LinearConstraint(a, rel, b))
            a = [rng.choice(coeffs) for _ in range(n)]
            b = _dot(a, x0)
            cons.append(LinearConstraint(a, "<=", b))
            cons.append(LinearConstraint([2 * c for c in a], ">=", 2 * b))
            if pinched:
                cons += [sign(n, j) for j in pinched]
                cons.append(LinearConstraint([int(j in pinched) for j in range(n)], "<=", 0))
            rng.shuffle(cons)
        elif kind == 3:  # equalities only
            cons = [row(n, ["=="]) for _ in range(rng.randint(1, 3))]
        elif kind == 4:  # >= and <= rows with mixed denominators, in a box
            cons = [row(n, ["<=", ">="]) for _ in range(rng.randint(2, 5))]
            cons += [LinearConstraint([int(i == j) for i in range(n)], "<=", 3) for j in range(n)]
            cons += [sign(n, j) for j in range(n)]
        else:  # infeasible: two parallel rows that exclude each other, among others
            a = [rng.choice(coeffs[1:]) for _ in range(n)]
            cons = [row(n, ["<=", ">=", "=="]) for _ in range(rng.randint(0, 3))]
            cons += [LinearConstraint(a, ">=", 1), LinearConstraint([F(c, 3) for c in a], "<=", 0)]
            cons += [sign(n, j) for j in range(n) if rng.random() < 0.5]
            rng.shuffle(cons)
        yield cons


def test_relative_interior_point_matches_reference():
    """The same infeasible verdicts and certificates as the reference loop
    and, on feasible systems, a point that satisfies every constraint and
    is tight on exactly the reference's implicit equalities.  The points
    themselves differ: the reference averages slack maximizers."""
    rng = random.Random(1967)
    paths = set()
    infeasible = 0
    for cons in itertools.islice(_interior_point_systems(rng), 3000):
        try:
            expected = _reference_relative_interior_point(cons, paths)
        except InfeasibleSystemError:
            infeasible += 1
            with pytest.raises(InfeasibleSystemError) as raised:
                relative_interior_point(cons)
            certificate = raised.value.certificate
            assert certificate == lp_feasible(cons).certificate
            assert verify_farkas_certificate(cons, certificate)
            continue
        point = relative_interior_point(cons)
        assert all(con.satisfied_by(point) for con in cons)
        inequalities = [i for i, con in enumerate(cons) if con.rel != "=="]
        tight = [i for i in inequalities if _reference_slack(cons[i], expected) == 0]
        assert [i for i in inequalities if _reference_slack(cons[i], point) == 0] == tight
        assert implicit_equalities(cons) == tight
    assert paths == {
        "unbounded sign bound",
        "sign handed on",
        "unbounded row",
        "implicit equality",
        "no inequality",
    }
    assert infeasible >= 60


def test_relative_interior_point_edge_cases():
    with pytest.raises(linalg.LinalgError, match="num_vars required"):
        relative_interior_point([])
    # no inequality: the phase-1 witness, as lp_feasible returns it
    equalities = [
        LinearConstraint([1, 2, F(1, 3)], "==", 1),
        LinearConstraint([0, 1, -1], "==", F(1, 2)),
    ]
    assert relative_interior_point(equalities) == lp_feasible(equalities).witness
    # every instance carries a certificate attribute, None unless known
    assert InfeasibleSystemError("no certificate").certificate is None
    clash = [LinearConstraint([1], ">=", 1), LinearConstraint([1], "<=", 0)]
    with pytest.raises(InfeasibleSystemError) as raised:
        relative_interior_point(clash)
    assert raised.value.certificate == lp_feasible(clash).certificate
    with pytest.raises(InfeasibleSystemError) as raised:
        implicit_equalities(clash)
    assert verify_farkas_certificate(clash, raised.value.certificate)


def _oriented_rows(cons):
    """(a, b) meaning a.x <= b, for both directions of each equality."""
    rows = []
    for con in cons:
        a, b = con.oriented()
        rows.append((list(a), b))
        if con.rel == "==":
            rows.append(([-c for c in a], -b))
    return rows


def _basic_feasible_points(cons, num_vars):
    """Every feasible point where num_vars independent rows are tight."""
    rows = _oriented_rows(cons)
    for subset in itertools.combinations(range(len(rows)), num_vars):
        m = [rows[i][0] for i in subset]
        b = [rows[i][1] for i in subset]
        solved = solve_affine(m, b)
        if solved is None or solved[1]:
            continue
        candidate = solved[0]
        if all(c.satisfied_by(candidate) for c in cons):
            yield candidate


def _brute_force_feasible(cons, num_vars):
    """Vertex-enumeration oracle inside a huge box."""
    box = []
    for i in range(num_vars):
        unit = [F(int(j == i)) for j in range(num_vars)]
        box.append(LinearConstraint(unit, "<=", 10**6))
        box.append(LinearConstraint(unit, ">=", -(10**6)))
    return next(_basic_feasible_points(cons + box, num_vars), None) is not None


def _dot(a, b):
    return sum((x * y for x, y in zip(a, b)), F(0))


def _brute_force_extremum(cons, objective, maximize):
    """(status, value) on a feasible pointed system, by enumeration.

    The recession cone {d : a.d <= 0 on every oriented row} is pointed, so
    it is spanned by its extreme rays, each cut out by num_vars - 1
    independent tight rows; the problem is unbounded iff one of them
    improves the objective.  Otherwise a vertex is optimal.
    """
    n, sign = len(objective), 1 if maximize else -1
    rows = [a for a, _ in _oriented_rows(cons)]
    for subset in itertools.combinations(rows, n - 1):
        kernel = solve_affine(list(subset), [0] * len(subset))[1] if subset else [[F(1)]]
        if len(kernel) != 1:
            continue
        for ray in (kernel[0], [-x for x in kernel[0]]):
            if all(_dot(a, ray) <= 0 for a in rows) and sign * _dot(objective, ray) > 0:
                return "unbounded", None
    values = [_dot(objective, p) for p in _basic_feasible_points(cons, n)]
    return "optimal", max(values) if maximize else min(values)


def test_lp_agrees_with_vertex_enumeration():
    rng = random.Random(77)
    pointed = 0
    for _ in range(60):
        num_vars = rng.randint(1, 4)
        cons = []
        for _ in range(rng.randint(1, 6)):
            if rng.random() < 0.4:
                # unit rows c * x_j >= 0, sometimes twice for the same j: the
                # first one per j signs x_j's column (c = -1 as x_j <= 0), and
                # the rest stay rows
                j = rng.randrange(num_vars)
                for _ in range(rng.randint(1, 2)):
                    c = rng.choice([F(1), F(2), F(1, 3), F(-1)])
                    unit = [c * int(k == j) for k in range(num_vars)]
                    cons.append(LinearConstraint(unit, ">=", 0))
                continue
            coeffs = [F(rng.randint(-3, 3)) for _ in range(num_vars)]
            rel = rng.choice(["<=", ">=", "=="])
            cons.append(LinearConstraint(coeffs, rel, F(rng.randint(-4, 4))))
        res = lp_feasible(cons, num_vars)
        assert res.feasible == _brute_force_feasible(cons, num_vars)
        if res.feasible:
            assert all(c.satisfied_by(res.witness) for c in cons)
            objective = [F(rng.randint(-3, 3)) for _ in range(num_vars)]
            maximize = rng.random() < 0.5
            status, value, optimum = lp_extremum(cons, objective, maximize)
            assert status in ("optimal", "unbounded")
            if rref([con.coeffs for con in cons])[2] == num_vars:  # pointed
                pointed += 1
                assert (status, value) == _brute_force_extremum(cons, objective, maximize)
            if status == "optimal":
                assert all(c.satisfied_by(optimum) for c in cons)
                assert value == sum((a * x for a, x in zip(objective, optimum)), F(0))
        else:
            assert verify_farkas_certificate(cons, res.certificate)
    assert pointed >= 15


def test_sign_bounds_are_recognised_before_scaling():
    def unit(j, c, n=4):
        return [c * int(k == j) for k in range(n)]

    system = [
        LinearConstraint(unit(0, 1), ">=", 0),  # x_0 >= 0
        LinearConstraint(unit(1, -1), "<=", 0),  # -x_1 <= 0
        LinearConstraint(unit(2, F(3, 2)), ">=", 0),  # (3/2) x_2 >= 0
        LinearConstraint(unit(3, F(2, 5)), "<=", 0),  # (2/5) x_3 <= 0
        LinearConstraint(unit(0, F(2, 5)), "<=", 0),  # x_0 is bounded already
        LinearConstraint([0, 1, -1, 0], ">=", 0),  # two nonzero coefficients
        LinearConstraint(unit(1, 1), "==", 0),  # an equality
        LinearConstraint(unit(2, 1), "<=", 1),  # a nonzero right-hand side
    ]
    sx = linalg._Simplex(linalg._standard_form(system, 4))
    assert sx.bounds == {0: (0, F(-1)), 1: (1, F(-1)), 2: (2, F(-3, 2)), 3: (3, F(2, 5))}
    assert [row[0] for row in sx.rows] == [4, 5, 6, 7]
    assert sx.columns == [(0, 1), (1, 1), (2, 1), (3, -1)]

    rng = random.Random(2014)
    forms = [(">=", F(1)), ("<=", F(-1)), (">=", F(3, 2)), ("<=", F(2, 5))]
    verdicts = {True: 0, False: 0}
    for _ in range(300):
        n = rng.randint(1, 4)
        cons = []
        for _ in range(rng.randint(1, 7)):
            shape = rng.random()
            if shape < 0.5:
                rel, c = rng.choice(forms)
                cons.append(LinearConstraint(unit(rng.randrange(n), c, n), rel, 0))
            elif shape < 0.65 and n > 1:
                i, j = rng.sample(range(n), 2)
                coeffs = [F(0)] * n
                coeffs[i], coeffs[j] = F(rng.choice([1, -2, 3]), 2), F(rng.choice([-1, 1, 5]), 3)
                cons.append(LinearConstraint(coeffs, rng.choice(["<=", ">="]), 0))
            else:
                coeffs = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
                rel = rng.choice(["<=", ">=", "=="])
                cons.append(LinearConstraint(coeffs, rel, F(rng.randint(-4, 4), rng.randint(1, 3))))
        res = lp_feasible(cons, n)
        verdicts[res.feasible] += 1
        if not res.feasible:
            assert verify_farkas_certificate(cons, res.certificate)
            continue
        assert all(con.satisfied_by(res.witness) for con in cons)
        for maximize in (True, False):
            objective = [F(rng.randint(-3, 3)) for _ in range(n)]
            status, value, optimum = lp_extremum(cons, objective, maximize)
            if status == "optimal":
                assert all(con.satisfied_by(optimum) for con in cons)
    assert min(verdicts.values()) >= 30


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=-4, max_value=4), min_size=4, max_size=4))
def test_digonal_snf_property(entries):
    mat = [entries[:2], entries[2:]]
    _snf_invariants(mat)


def _pinned_systems():
    """(constraints, objective) pairs whose LP outputs are pinned below.

    The named ones cover, in order: denominators 7 and 11 in one row; a
    negative right-hand side, whose row is negated; a duplicated equality
    row, which phase 1 leaves with a basic artificial; a ratio-test tie;
    a degenerate system whose basic artificial drop_artificials pivots out
    on a negative entry; and an infeasible row with denominators 7 and 11.
    The seeded ones mix all of these.
    """
    x_pos = [LinearConstraint([1, 0], ">=", 0), LinearConstraint([0, 1], ">=", 0)]
    systems = [
        ([LinearConstraint([F(1, 7), F(3, 11)], "<=", 1)] + x_pos, [1, 1]),
        (
            [
                LinearConstraint([1, 1], ">=", 2),
                LinearConstraint([1, -1], "<=", F(-1, 2)),
                LinearConstraint([1, 0], "<=", 3),
            ],
            [1, 2],
        ),
        (
            [
                LinearConstraint([1, 1], "==", 1),
                LinearConstraint([-2, -2], "==", -2),
                LinearConstraint([1, -1], "<=", F(1, 3)),
            ]
            + x_pos,
            [2, 1],
        ),
        (
            [LinearConstraint([1, 1], "<=", 1), LinearConstraint([1, 2], "<=", 1)]
            + x_pos,
            [1, 1],
        ),
        (
            [
                LinearConstraint([0, 1], ">=", 0),
                LinearConstraint([-1, 1], "==", 1),
                LinearConstraint([-2, 1], ">=", -1),
                LinearConstraint([F(-1, 2), 1], "==", 1),
                LinearConstraint([-1, -3], ">=", -3),
            ],
            [-1, 3],
        ),
        (
            [
                LinearConstraint([F(1, 7), F(3, 11)], ">=", 2),
                LinearConstraint([1, 0], "<=", 1),
                LinearConstraint([0, 1], "<=", 1),
            ]
            + x_pos,
            [1, 1],
        ),
    ]
    rng = random.Random(1414)
    coeffs = [F(0), F(1), F(-1), F(2), F(1, 7), F(3, 11), F(-5, 3), F(1, 2)]
    rhs = [F(0), F(1), F(-2), F(1, 7), F(-3, 11), F(4)]
    for _ in range(120):
        n = rng.randint(1, 4)
        cons = []
        for _ in range(rng.randint(1, 5)):
            a, rel, b = [rng.choice(coeffs) for _ in range(n)], rng.choice(["<=", ">=", "=="]), rng.choice(rhs)
            cons.append(LinearConstraint(a, rel, b))
            if rel == "==" and rng.random() < 0.5:
                k = rng.choice([F(1), F(2), F(-1, 3)])
                cons.append(LinearConstraint([k * c for c in a], "==", k * b))
        for j in range(n):
            if rng.random() < 0.6:
                cons.append(LinearConstraint([F(int(i == j)) for i in range(n)], ">=", 0))
        systems.append((cons, [rng.choice(coeffs) for _ in range(n)]))
    return systems


def _pinned_lp_outputs():
    """(lp_feasible and lp_extremum outputs, relative interior points), one
    entry per pinned system."""
    outputs, interiors = [], []
    for cons, objective in _pinned_systems():
        res = lp_feasible(cons, len(objective))
        row = [res.witness, res.certificate]
        row += [lp_extremum(cons, objective, maximize) for maximize in (True, False)]
        outputs.append(row)
        try:
            interiors.append(relative_interior_point(cons))
        except InfeasibleSystemError:
            interiors.append("infeasible")
    return outputs, interiors


def test_lp_outputs_are_pinned():
    outputs, interiors = _pinned_lp_outputs()
    named = [
        [
            (F(7), F(0)),
            None,
            ("optimal", F(7), (F(7), F(0))),
            ("optimal", F(0), (F(0), F(0))),
        ],
        [
            (F(3), F(7, 2)),
            None,
            ("unbounded", None, None),
            ("optimal", F(13, 4), (F(3, 4), F(5, 4))),
        ],
        [
            (F(2, 3), F(1, 3)),
            None,
            ("optimal", F(5, 3), (F(2, 3), F(1, 3))),
            ("optimal", F(1), (F(0), F(1))),
        ],
        [
            (F(1), F(0)),
            None,
            ("optimal", F(1), (F(1), F(0))),
            ("optimal", F(0), (F(0), F(0))),
        ],
        [
            (F(0), F(1)),
            None,
            ("optimal", F(3), (F(0), F(1))),
            ("optimal", F(3), (F(0), F(1))),
        ],
        [
            None,
            (F(1), F(1, 7), F(3, 11), F(0), F(0)),
            ("infeasible", None, None),
            ("infeasible", None, None),
        ],
    ]
    assert outputs[: len(named)] == named
    seeded = repr(outputs[len(named) :]).encode()
    assert hashlib.sha256(seeded).hexdigest() == (
        "0c143a39f78fb0930ea9056ce4eac3c9f590534bf9b7cf6a7c81015d6601e496"
    )
    # Each interior point maximizes the least slack off the implicit
    # equalities, capped at 1.
    assert interiors[: len(named)] == [
        (F(77, 109), F(77, 109)),
        (F(2), F(7, 2)),
        (F(4, 9), F(5, 9)),
        (F(1, 4), F(1, 4)),
        (F(0), F(1)),
        "infeasible",
    ]
    seeded = repr(interiors[len(named) :]).encode()
    assert hashlib.sha256(seeded).hexdigest() == (
        "cc263eb783d7358bb7854823f8904241d99f8b564af74237a244b173c683ef10"
    )


def test_simplex_tableau_holds_only_ints(monkeypatch):
    made = []

    class Recorded(linalg._Simplex):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(linalg, "_Simplex", Recorded)
    named = _pinned_systems()[:6]
    for cons, objective in named:
        lp_feasible(cons)
        lp_extremum(cons, objective, True)
    assert len(made) == 2 * len(named)
    for sx in made:
        entries = [x for row in sx.tableau for x in row] + [*sx.obj, sx.den]
        assert all(type(x) is int for x in entries)


def _per_column_reading(sx):
    """(witness, certificate) of lp_feasible, read off sx after phase 1 one
    column at a time in Fractions: the reference for _Simplex's reading over
    one common denominator."""
    if sx.phase1() > 0:
        cert = [F(0)] * sx.num_constraints
        for r, (i, *_) in enumerate(sx.rows):
            cert[i] = F(sx.sigma[r] * (sx.obj[sx.art_at + r] - sx.den), sx.den)
        for k, (j, sign) in enumerate(sx.columns):
            if j in sx.bounds:
                i, a_j = sx.bounds[j]
                cert[i] = F(-sign * sx.obj[k], sx.den) / a_j
        return None, tuple(cert)
    x = [F(0)] * sx.num_vars
    for row, b in zip(sx.tableau, sx.basis):
        if b < len(sx.columns):
            j, sign = sx.columns[b]
            x[j] += sign * F(row[-1], row[b])
    return tuple(x), None


def test_lp_answers_match_a_per_column_reading():
    rng = random.Random(2026)
    scales = [F(1), F(-1), F(3), F(-2), F(3, 2), F(-2, 5), F(1, 3), F(-7, 4)]
    coeffs = [F(0), F(1), F(-1), F(2), F(1, 7), F(-5, 3), F(1, 2), F(3, 11)]
    rhs = [F(0), F(1), F(-2), F(1, 7), F(-3, 11), F(4), F(5, 6)]
    seen = set()
    for _ in range(400):
        n = rng.randint(1, 4)
        cons = []
        for j in range(n):
            if rng.random() < 0.8:  # the sign bound c x_j <= 0 or c x_j >= 0
                unit = [rng.choice(scales) * int(k == j) for k in range(n)]
                cons.append(LinearConstraint(unit, rng.choice(["<=", ">="]), 0))
        for _ in range(rng.randint(1, 4)):
            a = [rng.choice(coeffs) for _ in range(n)]
            cons.append(LinearConstraint(a, rng.choice(["<=", ">=", "=="]), rng.choice(rhs)))
        rng.shuffle(cons)
        sx = linalg._Simplex(linalg._standard_form(cons, n))
        res = lp_feasible(cons, n)
        assert (res.witness, res.certificate) == _per_column_reading(sx)
        if res.feasible:
            seen.add("feasible")
            denominators = {x.denominator for x in res.witness}
            seen.add("witness over several denominators" * (len(denominators) > 2))
            continue
        assert verify_farkas_certificate(cons, res.certificate)
        for i, a_j in sx.bounds.values():
            if res.certificate[i] != 0:
                seen.add("negative a_j" * (a_j < 0))
                seen.add("fractional a_j" * (a_j.denominator > 1))
    covered = {"feasible", "witness over several denominators", "negative a_j", "fractional a_j"}
    assert covered <= seen
